import inspect
import random
import sys
from pathlib import Path

import pytest

from support import random_connected_graph
from surfcount.errors import PreconditionError
from surfcount.graph import Graph, complete_graph, cycle_graph, disjoint_union, path_graph
from surfcount.spqrk import (
    REAL,
    VIRTUAL,
    serialize_spqrk,
    spqrk_build,
    spqrk_validate,
)


def kinds(tree):
    return sorted(node.kind for node in tree.nodes)


def test_single_node_cases():
    assert kinds(spqrk_build(cycle_graph(5))) == ["S"]
    assert kinds(spqrk_build(complete_graph(2))) == ["K"]
    assert kinds(spqrk_build(complete_graph(1))) == ["K"]
    assert kinds(spqrk_build(complete_graph(4))) == ["R"]


def test_bowtie_q_node():
    g = Graph.build(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    tree = spqrk_build(g)
    assert kinds(tree) == ["Q", "S", "S"]
    q = next(n for n in tree.nodes if n.kind == "Q")
    assert q.vertices == (0,) and q.edges == []
    assert spqrk_validate(tree, g)


def test_diamond_p_node():
    g = Graph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    tree = spqrk_build(g)
    assert kinds(tree) == ["P", "S", "S"]
    p = next(n for n in tree.nodes if n.kind == "P")
    flags = sorted(flag for _, _, flag in p.edges)
    assert flags == [REAL, VIRTUAL, VIRTUAL]
    assert spqrk_validate(tree, g)


def test_theta_p_node_no_real():
    theta = Graph.build(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    tree = spqrk_build(theta)
    p = next(n for n in tree.nodes if n.kind == "P")
    assert sorted(flag for _, _, flag in p.edges) == [VIRTUAL] * 3
    assert spqrk_validate(tree, theta)


def test_path_decomposition():
    tree = spqrk_build(path_graph(4))
    assert kinds(tree) == ["K", "K", "K", "Q", "Q"]
    assert spqrk_validate(tree, path_graph(4))


def test_disconnected_rejected():
    with pytest.raises(PreconditionError):
        spqrk_build(disjoint_union(complete_graph(2), complete_graph(2)))


def test_random_build_validate():
    rng = random.Random(90210)
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(1, 10),
                                   rng.choice([0.0, 0.15, 0.3, 0.5]))
        tree = spqrk_build(g)
        assert spqrk_validate(tree, g), sorted(g.edges)


def test_validate_detects_tampering():
    g = Graph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    tree = spqrk_build(g)
    for node in tree.nodes:
        for j, (u, v, flag) in enumerate(node.edges):
            if flag == REAL:
                node.edges[j] = (u, v, VIRTUAL)
                assert not spqrk_validate(tree, g)
                node.edges[j] = (u, v, flag)
                break
        else:
            continue
        break
    tree = spqrk_build(g)
    tree.nodes[0].edges.append((2, 3, REAL))  # not an edge of g
    assert not spqrk_validate(tree, g)


def test_serialization():
    g = Graph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    text = serialize_spqrk(spqrk_build(g))
    lines = text.splitlines()
    assert lines[0].startswith("P {0,1}")
    assert all("[R]" in ln or "[V]" in ln for ln in lines)
    assert lines[1].startswith("  ")  # indented children


def test_deep_path_needs_no_recursion():
    """Building and serializing a 400-vertex path, whose tree is 796
    levels deep, fits in 100 frames above the caller's."""
    g = path_graph(400)
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack())
    sys.setrecursionlimit(depth + 100)
    try:
        tree = spqrk_build(g)
        text = serialize_spqrk(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert len(tree.nodes) == 797 and len(text.splitlines()) == 797
    assert text.splitlines()[-1] == "  " * 795 + "K {398,399} 398-399[R]"


GOLDEN = Path(__file__).parent / "data" / "spqrk_golden.txt"


def _grid(k):
    return Graph.build(k * k, [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
                       + [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)])


def _wheel(rim):
    return Graph.build(rim + 1, [(0, i) for i in range(1, rim + 1)]
                       + [(i, i % rim + 1) for i in range(1, rim + 1)])


def _necklace(beads):
    """K4s in a ring, bead i's vertex 3 joined to bead i+1's vertex 0."""
    edges = [(4 * b + i, 4 * b + j) for b in range(beads)
             for i in range(4) for j in range(i + 1, 4)]
    edges += [(4 * b + 3, 4 * ((b + 1) % beads)) for b in range(beads)]
    return Graph.build(4 * beads, edges)


def golden_text():
    """Serialized trees of the golden graphs, each after a ``# name`` line."""
    rng = random.Random(4711)
    graphs = [(f"random{i}", random_connected_graph(rng, rng.randint(1, 16),
                                                    rng.choice([0.0, 0.1, 0.2, 0.35])))
              for i in range(100)]
    graphs += [("grid6", _grid(6)), ("wheel30", _wheel(30)),
               ("necklace8", _necklace(8)), ("path60", path_graph(60))]
    return "".join(f"# {name}\n{serialize_spqrk(spqrk_build(g))}" for name, g in graphs)


def test_golden_trees():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    # rewrites the golden file; only for an intended change of the trees
    GOLDEN.write_text(golden_text())
