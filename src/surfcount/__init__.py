"""Structural graph invariants, exact subgraph counting, and the
extremal census of clique counts on surfaces.

The package is organized around five layers:

- ``graph``: immutable simple graphs, the edge-list text format.
- ``planarity`` / ``flaps`` / ``spqrk``: the left-right planarity test,
  small separations, flaps and the flap number, the S/P/Q/R/K
  decomposition tree.
- ``counting``: copies, homomorphisms, cliques, and the homomorphism
  inequalities.
- ``embedding`` / ``surfaces``: signed rotation systems, face tracing,
  Euler genus, triangulation surgery, bundled extremal triangulations.
- ``census`` / ``constructions``: per-surface extremal clique counts and
  the generators attaining them.
"""

from .census import (
    Bounds,
    LinearForm,
    SurfaceCensus,
    bounds,
    extremal_count,
    is_irreducible,
    render_table,
    surface_table,
)
from .constructions import lower_bound_graph, split_growth, tree_blowup
from .counting import (
    GenusTriangleReport,
    InequalityReport,
    ScalingReport,
    check_genus_triangle_bound,
    check_goodman,
    count_cliques,
    count_copies,
    count_hom,
    count_injective_hom,
    scaling_exponent,
    total_cliques,
)
from .embedding import (
    EmbeddedGraph,
    contract_reducible,
    euler_genus,
    face_vertices,
    is_triangulation,
    min_genus_search,
    parse_embedding,
    reducible_edges,
    serialize_embedding,
    split_path,
    split_triangle,
    switch_vertex,
)
from .errors import CapExceeded, ParseError, PreconditionError, SurfcountError
from .flaps import (
    Separation,
    are_independent,
    enumerate_candidate_flaps,
    flap_family_and_number,
    flap_number,
    flap_reduction,
    forest_mis,
    is_flap,
    is_strongly_non_planar,
    is_tree,
    tree_beta,
)
from .graph import (
    Graph,
    add_clique,
    complete_graph,
    connected_components,
    cycle_graph,
    induced_subgraph,
    is_connected,
    parse_graph,
    path_graph,
    serialize_graph,
)
from .planarity import is_planar
from .spqrk import SpqrkNode, SpqrkTree, serialize_spqrk, spqrk_build, spqrk_validate
from .surfaces import load_bundled, projective_k6, sphere_irreducible

__version__ = "0.1.0"

__all__ = [
    "Bounds", "LinearForm", "SurfaceCensus", "bounds", "extremal_count",
    "is_irreducible", "render_table", "surface_table",
    "lower_bound_graph", "split_growth", "tree_blowup",
    "GenusTriangleReport", "InequalityReport", "ScalingReport",
    "check_genus_triangle_bound", "check_goodman", "count_cliques",
    "count_copies", "count_hom", "count_injective_hom",
    "scaling_exponent", "total_cliques",
    "EmbeddedGraph", "contract_reducible", "euler_genus",
    "face_vertices", "is_triangulation", "min_genus_search", "parse_embedding",
    "reducible_edges", "serialize_embedding", "split_path", "split_triangle",
    "switch_vertex",
    "CapExceeded", "ParseError", "PreconditionError", "SurfcountError",
    "Separation", "are_independent", "enumerate_candidate_flaps",
    "flap_family_and_number", "flap_number", "flap_reduction", "forest_mis",
    "is_flap", "is_strongly_non_planar", "is_tree", "tree_beta",
    "Graph", "add_clique", "complete_graph", "connected_components",
    "cycle_graph", "induced_subgraph", "is_connected",
    "parse_graph", "path_graph", "serialize_graph",
    "is_planar",
    "SpqrkNode", "SpqrkTree", "serialize_spqrk", "spqrk_build", "spqrk_validate",
    "load_bundled", "projective_k6", "sphere_irreducible",
]
