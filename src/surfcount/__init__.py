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

``import surfcount`` loads none of these modules. Each exported name is
loaded on first use: reading it imports its module, and the names come
from that module itself, so ``surfcount.count_copies`` is
``surfcount.counting.count_copies``. Importing a submodule loads only it
and the modules it imports, and makes it an attribute of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module and the names it exports, in the order of ``__all__``
_EXPORTS = {
    "census": ("Bounds", "LinearForm", "SurfaceCensus", "bounds", "extremal_count",
               "is_irreducible", "render_table", "surface_table"),
    "constructions": ("lower_bound_graph", "split_growth", "tree_blowup"),
    "counting": ("GenusTriangleReport", "InequalityReport", "ScalingReport",
                 "check_genus_triangle_bound", "check_goodman", "count_cliques",
                 "count_copies", "count_hom", "count_injective_hom",
                 "scaling_exponent", "total_cliques"),
    "embedding": ("EmbeddedGraph", "contract_reducible", "euler_genus",
                  "face_vertices", "is_triangulation", "min_genus_search", "parse_embedding",
                  "reducible_edges", "serialize_embedding", "split_path", "split_triangle",
                  "switch_vertex"),
    "errors": ("CapExceeded", "ParseError", "PreconditionError", "SurfcountError"),
    "flaps": ("Separation", "are_independent", "enumerate_candidate_flaps",
              "flap_family_and_number", "flap_number", "flap_reduction", "forest_mis",
              "is_flap", "is_strongly_non_planar", "is_tree", "tree_beta"),
    "graph": ("Graph", "add_clique", "complete_graph", "connected_components",
              "cycle_graph", "induced_subgraph", "is_connected",
              "parse_graph", "path_graph", "serialize_graph"),
    "planarity": ("is_planar",),
    "spqrk": ("SpqrkNode", "SpqrkTree", "serialize_spqrk", "spqrk_build", "spqrk_validate"),
    "surfaces": ("load_bundled", "projective_k6", "sphere_irreducible"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    """An exported name, read from its module, which is imported here the
    first time one of its names is read (PEP 562)."""
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
