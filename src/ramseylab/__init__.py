"""Exact combinatorics of loose paths in k-uniform hypergraphs.

Core objects: immutable hypergraphs and total edge colorings; pattern
detection for loose paths and stars; exact Ramsey/Turan decision engines.
The modules no engine reads load on first use: the star+clique coloring and
other constructions, the CNF export and exhaustive oracle (`cnf`), and the
proof layer of machinery and bit-exact inequality certificates.
"""

import importlib
import types

from .errors import InstanceTooLargeError, ParseError
from .hypergraphs import (
    Hypergraph,
    complete_hypergraph,
    parse_hypergraph,
    serialize_hypergraph,
)
from .patterns import (
    Coloring,
    LoosePathWitness,
    find_loose_path,
    find_mono_loose_path,
    is_full_star,
    is_star,
    parse_coloring,
    serialize_coloring,
)
from .search import (
    PATTERN_LOOSE_PATH_2,
    PATTERN_LOOSE_PATH_3,
    STATUS_EXACT,
    STATUS_LOWER_BOUND,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_UNKNOWN,
    SearchOutcome,
    SearchStats,
    TuranResult,
    decide_ramsey,
    turan_max_edges,
)

__version__ = "0.1.0"

# The names of the modules no engine reads, per module; each loads on first access (PEP 562).
_LAZY = {
    "cnf": ("CnfInstance", "cnf_satisfiable", "enumerate_loose_paths", "exhaustive_decide", "export_cnf"),
    "constructions": ("BoundsReport", "full_star", "pair_cover", "ramsey_bounds", "star_clique_coloring"),
    "machinery": ("BipartiteGraph", "SplitAssignment", "StabilityReport", "Tripartition", "derandomized_split",
                  "greedy_tripartition", "peel_min_degree", "prune_bipartite", "stability_deficiency"),
    "exact": ("Interval", "integer_nth_root", "link_support_lower_bound", "nth_root_interval", "star_deficiency_bound"),
    "inequalities": ("IneqRecord", "IneqReport", "verify_constant_inequalities"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

# Every name imported from the submodules or listed above, not the submodules themselves.
__all__ = sorted([name for name, value in globals().items() if name[0] != "_" and not isinstance(value, types.ModuleType)]
                 + [name for names in _LAZY.values() for name in names])
del types


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    # Stored in the package globals, so a later read never reaches this hook.
    globals()[name] = value = module if name == _HOME[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
