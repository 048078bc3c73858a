import re

from hypothesis import given, settings, strategies as st
import pytest

from hyperset.errors import ParseError
from hyperset.flat import solve, validate
from hyperset.sysfile import (_Tokens, parse_pattern, parse_set_literal, parse_set_literals,
                              parse_system)
from hyperset.universe import Universe

from oracles import naive_parse_set_literal, naive_parse_system, naive_tokens

PAPER_PAIR = """\
atom a = 0
atom b = 1
x = {y,a}
y = {x,b}
"""


def test_parse_membership_pair_file(u):
    sys = parse_system(u, PAPER_PAIR)
    assert validate(sys) == []
    assert sys.atoms == {"a": u.vn(0), "b": u.vn(1)}
    sol = solve(u, sys)
    assert u.is_member(sol["x"], sol["y"])
    assert u.is_member(sol["y"], sol["x"])


def test_empty_file_parses_to_empty_system(u):
    sys = parse_system(u, "")
    assert sys.atoms == {} and sys.equations == []


def test_comments_and_whitespace_insensitivity(u):
    text = "atom a=0 # trailing\n\n  x={ x ,a }  # loop\n"
    sys = parse_system(u, text)
    assert sys.equations == [("x", frozenset({"x", "a"}))]


def test_statements_may_share_a_line(u):
    sys = parse_system(u, "atom a = 0 x = {a} y = {x}")
    assert [n for n, _ in sys.equations] == ["x", "y"]


def test_undeclared_name_is_positioned(u):
    with pytest.raises(ParseError) as err:
        parse_system(u, "x = {z}\n")
    assert err.value.line == 1
    assert "z" in str(err.value)


def test_duplicate_equation_rejected(u):
    with pytest.raises(ParseError) as err:
        parse_system(u, "x = {}\nx = {}\n")
    assert err.value.line == 2


def test_duplicate_atom_rejected(u):
    with pytest.raises(ParseError):
        parse_system(u, "atom a = 0\natom a = 1\n")


def test_atom_indeterminate_clash_rejected(u):
    with pytest.raises(ParseError):
        parse_system(u, "atom a = 0\na = {}\n")


def test_reserved_word_rejected(u):
    with pytest.raises(ParseError):
        parse_system(u, "atom = {}\n")


def test_lexical_error_positioned(u):
    with pytest.raises(ParseError) as err:
        parse_system(u, "x = {y$}\n")
    assert err.value.line == 1 and err.value.column == 7


def test_nu_names_parse(u):
    sys = parse_system(u, "ν0 = {ν0}\n")
    assert sys.equations == [("ν0", frozenset({"ν0"}))]


def test_literals(u):
    assert parse_set_literal(u, "0") == u.vn(0)
    assert parse_set_literal(u, "3") == u.vn(3)
    assert parse_set_literal(u, "{}") == u.vn(0)
    assert parse_set_literal(u, "{{},{{}}}") == u.vn(2)
    assert parse_set_literal(u, "{1,{2}}") == u.make_set([u.vn(1), u.make_set([u.vn(2)])])
    with pytest.raises(ParseError):
        parse_set_literal(u, "{1} junk")


def test_parse_set_literals(u):
    assert parse_set_literals(u, "0,{1,2},{{},3}") == [
        u.vn(0), u.make_set([u.vn(1), u.vn(2)]), u.make_set([u.vn(0), u.vn(3)])]
    assert parse_set_literals(u, "") == []
    assert parse_set_literals(u, " \t") == []
    assert parse_set_literals(u, " 1 ") == [u.vn(1)]
    assert parse_set_literals(u, "2, 2") == [u.vn(2), u.vn(2)]


@pytest.mark.parametrize("text, error", [
    # positioned within the whole list, not within one item
    ("0,{2,$}", "1:6: unexpected character '$'"),
    ("0, {1}\n, {x}", "2:4: expected a set literal, found 'x'"),
    # an empty item is an error, not dropped
    ("1,,2", "1:3: expected a set literal, found ','"),
    (",1", "1:1: expected a set literal, found ','"),
    ("1,2,", "1:5: expected a set literal, found 'end of input'"),
    ("1 2", "1:3: trailing input '2'"),
    ("{1,2", "1:5: expected '}', found 'end of input'"),
])
def test_parse_set_literals_errors_are_positioned_in_the_list(u, text, error):
    with pytest.raises(ParseError) as info:
        parse_set_literals(u, text)
    assert str(info.value) == error


def test_parse_pattern_edges():
    pat = parse_pattern("vertices 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\nloop 0\n")
    assert pat.size == 4
    assert pat.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert pat.loops == {0}
    with pytest.raises(ParseError):
        parse_pattern("edge 0 1\n")  # missing vertices
    with pytest.raises(ParseError):
        parse_pattern("vertices 2\nedge 0 0\n")


def test_parse_pattern_matrix():
    pat = parse_pattern("1 1 0\n1 0 1\n0 1 0\n", fmt="matrix")
    assert pat.size == 3
    assert pat.loops == {0}
    assert pat.edges == {(0, 1), (1, 2)}
    with pytest.raises(ParseError):
        parse_pattern("1 1\n0 1\n", fmt="matrix")  # asymmetric
    with pytest.raises(ParseError):
        parse_pattern("", fmt="matrix")


# Pieces of system files, and characters that are not whitespace there:
# form feed, vertical tab, no-break space and non-ASCII letters.
PIECES = ["atom", "x", "y", "a", "ν0", "_b", "0", "1", "7", "{", "}", ",", "=",
          " ", "\t", "\r", "\n", "\f", "\v", "\xa0", "é", "ν", "$",
          "# note\n", "# note", "#", "\n#"]


def _short_digit_runs(text: str) -> str:
    # a literal n builds the numerals up to n, with n²/2 memberships
    return re.sub(r"[0-9]{3,}", lambda m: m.group()[:2], text)


_SPACE = st.sampled_from(["", " ", "\t", "\r", "\n", "\r\n", "  # note\n", "\f", "\xa0"])
_NAMES = st.sampled_from(["x", "y", "a", "b", "atom", "ν0"])
_MEMBER = st.recursive(st.sampled_from(["0", "1", "12", "{}"]),
                       lambda inner: st.lists(inner, max_size=3).map(
                           lambda ms: "{" + ",".join(ms) + "}"), max_leaves=6)


@st.composite
def _declarations(draw):
    """Near-valid system text: declarations, spacing and comments, now and
    then with a token dropped or doubled."""
    parts = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            toks = ["atom", draw(_NAMES), "=", draw(_MEMBER)]
        else:
            names = draw(st.lists(_NAMES, max_size=3))
            toks = [draw(_NAMES), "=", "{", ",".join(names), "}"]
        if draw(st.integers(0, 4)) == 0:
            k = draw(st.integers(0, len(toks) - 1))
            toks[k] = draw(st.sampled_from(["", toks[k] + toks[k]]))
        parts.append(draw(_SPACE).join(toks))
    tail = draw(st.sampled_from(["", "\n", "# end", "# end\n", " "]))
    return draw(_SPACE).join(parts) + tail


system_texts = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
    _declarations(),
    st.tuples(_SPACE, _MEMBER, _SPACE, st.sampled_from(["", "", "}", ",", "{", " x"])).map(
        "".join)).map(_short_digit_runs)


def _outcome(parse, u, text):
    try:
        return "ok", parse(u, text)
    except ParseError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(system_texts)
def test_tokens_and_parses_match_the_character_reference(text):
    try:
        ref = naive_tokens(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            _Tokens(text)
        assert str(err.value) == str(exc)
    else:
        tokens = _Tokens(text)
        assert tokens.toks == [(kind, value) for kind, value, _, _ in ref]
        assert [tokens.where(k) for k in range(len(ref))] == [
            (line, col) for _, _, line, col in ref]
    # one store, so equal sets are equal handles
    u = Universe()
    assert _outcome(parse_system, u, text) == _outcome(naive_parse_system, u, text)
    assert _outcome(parse_set_literal, u, text) == _outcome(naive_parse_set_literal, u, text)


@pytest.mark.parametrize("text, message", [
    ("atom a = # trailing", "1:10: expected a set literal, found 'end of input'"),
    ("x = {  # c", "1:8: expected 'name', found 'end of input'"),
    ("x = {\n# c\n", "3:1: expected 'name', found 'end of input'"),
    ("x = {y,\f}", "1:8: unexpected character '\\x0c'"),
    ("x = {x}\vy = {}", "1:8: unexpected character '\\x0b'"),
    ("x = {x}\xa0", "1:8: unexpected character '\\xa0'"),
    ("x = {x}\tyé = {}", "1:10: unexpected character 'é'"),
    ("x = {a}\ny = {x,\n  b}", "1:6: equation for x mentions undeclared name a"),
    ("x = {x,a,b}\natom b = 1", "1:8: equation for x mentions undeclared name a"),
])
def test_error_positions_count_characters(u, text, message):
    with pytest.raises(ParseError) as err:
        parse_system(u, text)
    assert str(err.value) == message
