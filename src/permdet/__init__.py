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
    DisjointFamily,
    EfficiencyReport,
    classify_efficient,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
)
from .determinant import det_after_removal, determinant
from .engine import (
    PATH_COROLLARY,
    PATH_ODD,
    PATH_PFAFFIAN,
    PATH_THEOREM1,
    PermanentReport,
    count_perfect_matchings,
    permanent_auto,
)
from .errors import (
    EnumerationCapExceeded,
    InternalInvariantError,
    NotBipartiteError,
    ParseError,
    PermdetError,
    SizeGuardExceeded,
    VerificationMismatch,
)
from .graphs import (
    Graph,
    VertexSet,
    adjacency_after_removal,
    bipartition,
    graph_from_biadjacency,
    induced_subgraph,
    parse_adjacency_matrix,
    parse_biadjacency,
    parse_edge_list,
)
from .oracles import (
    FamilyTerm,
    SachsSubgraph,
    SachsSums,
    Theorem1Report,
    Theorem2Report,
    enumerate_sachs,
    per_naive,
    per_ryser,
    permanent_theorem1,
    sachs_sums,
    verify_theorem2,
)

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "DisjointFamily",
    "EfficiencyReport",
    "EnumerationCapExceeded",
    "FamilyTerm",
    "Graph",
    "InternalInvariantError",
    "NotBipartiteError",
    "PATH_COROLLARY",
    "PATH_ODD",
    "PATH_PFAFFIAN",
    "PATH_THEOREM1",
    "ParseError",
    "PermanentReport",
    "PermdetError",
    "SachsSubgraph",
    "SachsSums",
    "SizeGuardExceeded",
    "Theorem1Report",
    "Theorem2Report",
    "VerificationMismatch",
    "VertexSet",
    "adjacency_after_removal",
    "bipartition",
    "classify_efficient",
    "count_perfect_matchings",
    "det_after_removal",
    "determinant",
    "enumerate_cycles",
    "enumerate_disjoint_families",
    "enumerate_sachs",
    "four_k_cycles",
    "graph_from_biadjacency",
    "induced_subgraph",
    "parse_adjacency_matrix",
    "parse_biadjacency",
    "parse_edge_list",
    "per_naive",
    "per_ryser",
    "permanent_auto",
    "permanent_theorem1",
    "sachs_sums",
    "verify_theorem2",
]
