"""Hereditarily finite hypersets as bisimulation-canonical pointed graphs.

Core pieces: a canonical :class:`Universe` store where handle equality
is set equality, a flat-equation solver, undirected membership reducts,
extension-property witness constructions, the BIT-graph/Ackermann
coding bridge, and a back-and-forth game engine.
"""

from .errors import (
    ContractViolation,
    DomainError,
    HypersetError,
    MalformedGraph,
    ParseError,
    PreconditionError,
    UniverseFull,
    UnknownHandle,
    ValidationError,
)
from .flat import FlatSystem, solve, validate
from .rado import (
    AckermannCoder,
    ExtensionOracle,
    PartialIso,
    ackermann_code,
    ackermann_decode,
    back_and_forth,
    bit_adjacent,
    bit_graph_oracle,
    bit_witness,
    coding_correspondence,
    hf_membership_oracle,
    hyperset_loopy_oracle,
)
from .reducts import (
    LoopyGraph,
    MultiGraph,
    closure,
    double_component,
    double_degree,
    has_loop,
    undirect,
)
from .serialize import emit_graph, format_system, normal_form, serialize_set
from .sysfile import parse_pattern, parse_set_literal, parse_set_literals, parse_system
from .universe import Apg, SetId, Universe
from .witnesses import (
    PatternGraph,
    WitnessReport,
    arp_witness_loopy,
    arp_witness_simple,
    component,
    double_component_graph,
    loopy_iso,
    star,
    verify_loopy_witness,
    verify_simple_witness,
)

__all__ = [
    "Apg", "SetId", "Universe",
    "FlatSystem", "solve", "validate",
    "LoopyGraph", "MultiGraph", "closure", "undirect",
    "double_degree", "double_component", "has_loop",
    "WitnessReport", "PatternGraph",
    "arp_witness_simple", "arp_witness_loopy",
    "verify_simple_witness", "verify_loopy_witness",
    "star", "component", "loopy_iso", "double_component_graph",
    "bit_adjacent", "bit_witness", "AckermannCoder",
    "ackermann_code", "ackermann_decode", "coding_correspondence",
    "ExtensionOracle", "PartialIso", "back_and_forth",
    "bit_graph_oracle", "hf_membership_oracle", "hyperset_loopy_oracle",
    "parse_system", "parse_set_literal", "parse_set_literals", "parse_pattern",
    "serialize_set", "normal_form", "format_system", "emit_graph",
    "HypersetError", "MalformedGraph", "UnknownHandle", "UniverseFull",
    "ValidationError", "PreconditionError", "ContractViolation",
    "DomainError", "ParseError",
]
