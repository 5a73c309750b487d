"""Graph inverse semigroups: exact element arithmetic and the
classification of congruences by triples (H, W, f), with brute-force
oracles for small finite instances.

The package root exports the names the README and the scripts use; every
other public name is imported from its module (``graphs``, ``elements``,
``congruences``, ``oracle``, ``corpus``, ``cli``).
"""

from .graphs import Cycle, Graph, make_path
from .elements import format_element, parse_element
from .congruences import (
    INF,
    chain_stabilizes,
    enumerate_triples,
    equiv,
    make_triple,
    normal_form,
    triple_generators,
    triple_leq,
    triple_to_json,
    vertex_class_members,
)

__version__ = "0.1.0"
