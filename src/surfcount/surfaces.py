"""Bundled embeddings and their loaders.

Two embeddings ship with the package as data files in the embedding text
format: the tetrahedron (the unique irreducible triangulation of the
sphere) and the complete graph on six vertices triangulating the
projective plane, the antipodal quotient of the icosahedron. The files
are the only copy; the tests re-derive both from their face lists.
"""

from __future__ import annotations

from importlib import resources

from .embedding import EmbeddedGraph, parse_embedding
from .errors import PreconditionError

_BUNDLED = ("k4_sphere", "k6_projective")


def load_bundled(name: str) -> EmbeddedGraph:
    """Load a bundled embedding data file: 'k4_sphere' or 'k6_projective'."""
    if name not in _BUNDLED:
        raise PreconditionError(
            f"no bundled embedding {name!r}: expected one of {', '.join(_BUNDLED)}")
    path = resources.files("surfcount.data").joinpath(f"{name}.emb")
    return parse_embedding(path.read_text())


def sphere_irreducible() -> EmbeddedGraph:
    """The tetrahedron, built in as the sphere's irreducible triangulation."""
    return load_bundled("k4_sphere")


def projective_k6() -> EmbeddedGraph:
    """K6 triangulating the projective plane (Euler genus 1, 10 faces)."""
    return load_bundled("k6_projective")
