"""Exact magnitude and magnitude homology of finite graphs, with the
supporting simplicial machinery: path-pair complexes, discrete Morse
matchings, and insertion certificates that force diagonality."""

from .graph import (
    Graph,
    PawfulWitness,
    ahk_edge_cycle_check,
    complete_graph,
    cycle_graph,
    diameter,
    from_edges,
    is_pawful,
    parse_graph,
    path_graph,
    serialize_edge_list,
    star_graph,
)
from .homology import (
    MHTable,
    boundary_matrix,
    enumerate_sequences,
    is_diagonal_up_to,
    mh_column,
    mh_table,
)
from .magnitude import magnitude_rational, magnitude_series
from .polyq import IntPoly, RatFunc
from .snf import SNFResult, SparseMatrix, smith_normal_form

__all__ = [
    "Graph",
    "PawfulWitness",
    "ahk_edge_cycle_check",
    "complete_graph",
    "cycle_graph",
    "diameter",
    "from_edges",
    "is_pawful",
    "parse_graph",
    "path_graph",
    "serialize_edge_list",
    "star_graph",
    "MHTable",
    "boundary_matrix",
    "enumerate_sequences",
    "is_diagonal_up_to",
    "mh_column",
    "mh_table",
    "magnitude_rational",
    "magnitude_series",
    "IntPoly",
    "RatFunc",
    "SNFResult",
    "SparseMatrix",
    "smith_normal_form",
]
