"""Exact permanents of bipartite graphs via determinant expansion.

The permanent of a bipartite graph's adjacency matrix is written as a
signed sum of determinants of the graph minus vertex-disjoint families
of cycles whose length is a multiple of four.  Everything is computed
in exact integer arithmetic.

Quick start::

    from permdet import Graph, permanent_auto

    g = Graph.from_edge_labels(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    permanent_auto(g).value   # 4: per of the 4-cycle
"""

from .cycles import (
    Cycle,
    DEFAULT_CYCLE_CAP,
    DEFAULT_FAMILY_CAP,
    DisjointFamily,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
    four_k_plus_two_cycles,
    max_disjoint,
)
from .determinant import (
    DetCache,
    det_after_removal,
    determinant,
)
from .engine import (
    EfficiencyReport,
    PATH_COROLLARY,
    PATH_ODD,
    PATH_PFAFFIAN,
    PATH_THEOREM1,
    PermanentReport,
    classify_efficient,
    count_perfect_matchings,
    permanent_auto,
)
from .errors import (
    CycleCapExceeded,
    EnumerationCapExceeded,
    InternalInvariantError,
    NotAPerfectSquare,
    NotBipartiteError,
    ParseError,
    PermdetError,
    SizeGuardExceeded,
    VerificationMismatch,
)
from .graphs import (
    Bipartition,
    EMPTY_SET,
    Graph,
    VertexSet,
    adjacency_after_removal,
    bipartition,
    graph_from_biadjacency,
    induced_subgraph,
    is_bipartite,
    parse_adjacency_matrix,
    parse_biadjacency,
    parse_edge_list,
    render_adjacency,
    render_edge_list,
)
from .oracles import (
    FamilyTerm,
    SachsSubgraph,
    Theorem1Report,
    Theorem2Report,
    check_parity_identity,
    check_removal_identity,
    det_via_sachs,
    enumerate_sachs,
    per_naive,
    per_ryser,
    per_via_sachs,
    permanent_theorem1,
    verify_theorem2,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "Cycle",
    "CycleCapExceeded",
    "DEFAULT_CYCLE_CAP",
    "DEFAULT_FAMILY_CAP",
    "DetCache",
    "DisjointFamily",
    "EMPTY_SET",
    "EfficiencyReport",
    "EnumerationCapExceeded",
    "FamilyTerm",
    "Graph",
    "InternalInvariantError",
    "NotAPerfectSquare",
    "NotBipartiteError",
    "PATH_COROLLARY",
    "PATH_ODD",
    "PATH_PFAFFIAN",
    "PATH_THEOREM1",
    "ParseError",
    "PermanentReport",
    "PermdetError",
    "SachsSubgraph",
    "SizeGuardExceeded",
    "Theorem1Report",
    "Theorem2Report",
    "VerificationMismatch",
    "VertexSet",
    "adjacency_after_removal",
    "bipartition",
    "check_parity_identity",
    "check_removal_identity",
    "classify_efficient",
    "count_perfect_matchings",
    "det_after_removal",
    "det_via_sachs",
    "determinant",
    "enumerate_cycles",
    "enumerate_disjoint_families",
    "enumerate_sachs",
    "four_k_cycles",
    "four_k_plus_two_cycles",
    "graph_from_biadjacency",
    "induced_subgraph",
    "is_bipartite",
    "max_disjoint",
    "parse_adjacency_matrix",
    "parse_biadjacency",
    "parse_edge_list",
    "per_naive",
    "per_ryser",
    "per_via_sachs",
    "permanent_auto",
    "permanent_theorem1",
    "render_adjacency",
    "render_edge_list",
    "verify_theorem2",
]
