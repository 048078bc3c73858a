"""Flat systems of equations and their unique (anti-foundation) solution.

A flat system assigns every indeterminate x an equation x = S_x where
S_x mixes indeterminate names and named atoms (pre-constructed sets of
the ambient universe).  Solving builds one picture node per
indeterminate and delegates to the universe's bisimulation collapse,
which is exactly what makes the solution unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .universe import SetId, Universe


@dataclass
class FlatSystem:
    """Equations are kept as an ordered list so duplicates stay visible
    to :func:`validate`; a well-formed system has exactly one equation
    per indeterminate."""

    atoms: dict[str, SetId] = field(default_factory=dict)
    equations: list[tuple[str, frozenset[str]]] = field(default_factory=list)

    def indeterminates(self) -> list[str]:
        return [name for name, _ in self.equations]


def validate(sys: FlatSystem) -> list[str]:
    """All invariant violations, each naming the offending equation."""
    problems = []
    seen = set()
    for name, _ in sys.equations:
        if name in seen:
            problems.append(f"duplicate equation for {name}")
        seen.add(name)
        if name in sys.atoms:
            problems.append(f"{name} is declared both as atom and indeterminate")
    declared = seen.union(sys.atoms)
    for name, rhs in sys.equations:
        if not declared.issuperset(rhs):
            for ref in sorted(r for r in rhs if r not in declared):
                problems.append(f"equation for {name} mentions undeclared name {ref}")
    return problems


def solve(u: Universe, sys: FlatSystem) -> dict[str, SetId]:
    """Unique solution of the system, one canonical handle per name.

    Node i is the i-th equation; one pass over its right-hand side lists
    its indeterminates and atom handles for ``canonicalize_all``.

    Raises ValidationError when the system breaks its invariants.
    """
    problems = validate(sys)
    if problems:
        raise ValidationError("; ".join(problems))
    index = {name: i for i, (name, _) in enumerate(sys.equations)}
    if not index:
        return {}
    children, refs = {}, {}  # refs only for the equations that name atoms
    for i, (_, rhs) in enumerate(sys.equations):
        children[i] = kids = []
        for r in rhs:
            j = index.get(r)
            if j is None:
                refs.setdefault(i, []).append(sys.atoms[r])
            else:
                kids.append(j)
    solution = u.canonicalize_all(children, refs)
    return {name: solution[i] for name, i in index.items()}
