"""Reference answers computed apart from surfcount.

Nothing here imports the package under test: graphs are plain
``(n, edges)`` pairs with adjacency sets, and every quantity is derived
from a closed formula of the paper's constructions or from a definition
(walk counts, co-degrees, a signed face tracer of our own, a
Demoucron-Malgrange-Pertuiset planarity test, a definition-level flap
oracle). ``selftest.py`` checks each one against brute force at small
sizes.
"""

from __future__ import annotations

import itertools
import math
from math import comb

Edge = tuple[int, int]


def norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# Text formats, read and written without the package
# ---------------------------------------------------------------------------


def graph_text(n: int, edges) -> str:
    es = sorted(norm(u, v) for u, v in edges)
    return "\n".join([f"{n} {len(es)}"] + [f"{u} {v}" for u, v in es]) + "\n"


def embedding_text(rotations) -> str:
    """An orientable embedding (every edge positive) in the text format."""
    out = [str(len(rotations))]
    out.extend(f"{v}: " + " ".join(map(str, rot)) for v, rot in enumerate(rotations))
    return "\n".join(out) + "\n"


def read_embedding(text: str) -> tuple[list[list[int]], set[Edge]]:
    """(rotations, negative edges) from the embedding text format."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    n = int(rows[0])
    rotations: list[list[int]] = []
    negative: set[Edge] = set()
    for v, row in enumerate(rows[1:n + 1]):
        head, _, rest = row.partition(":")
        if int(head) != v:
            raise ValueError(f"rotation line {v} out of order")
        rot = []
        for tok in rest.split():
            u = int(tok.rstrip("-"))
            if tok.endswith("-"):
                negative.add(norm(u, v))
            rot.append(u)
        rotations.append(rot)
    return rotations, negative


def embedding_edges(rotations) -> set[Edge]:
    return {norm(v, u) for v, rot in enumerate(rotations) for u in rot}


# ---------------------------------------------------------------------------
# Signed face tracing
# ---------------------------------------------------------------------------


def trace_faces(rotations, negative) -> list[list[int]]:
    """Facial walks of a signed rotation system, one per face, as vertex
    lists. A state is (dart u->v, sign carried before crossing uv); after
    crossing, the walk turns to the rotation successor of u at v when the
    carried sign is positive and to the predecessor when negative. Every
    face is met twice, once per direction; the reverse traversal of a
    walk through (u, v, s) passes through (v, u, -s * sign(uv))."""
    succ = []
    pred = []
    for rot in rotations:
        k = len(rot)
        succ.append({rot[i]: rot[(i + 1) % k] for i in range(k)})
        pred.append({rot[i]: rot[(i - 1) % k] for i in range(k)})
    sign = {e: -1 for e in negative}
    seen: set[tuple[int, int, int]] = set()

    def orbit(start: tuple[int, int, int]) -> list[int]:
        walk = []
        state = start
        while True:
            seen.add(state)
            a, b, c = state
            walk.append(a)
            c *= sign.get(norm(a, b), 1)
            state = (b, succ[b][a] if c > 0 else pred[b][a], c)
            if state == start:
                return walk
            if state in seen:
                raise ValueError("face orbit does not close on its start")

    faces: list[list[int]] = []
    for v, rot in enumerate(rotations):
        for u in rot:
            for s in (1, -1):
                if (v, u, s) in seen:
                    continue
                walk = orbit((v, u, s))
                back = (u, v, -s * sign.get(norm(u, v), 1))
                if back in seen or len(orbit(back)) != len(walk):
                    raise ValueError("face orbits do not pair by direction")
                faces.append(walk)
    return faces


def euler_genus(n: int, m: int, f: int) -> int:
    return 2 - n + m - f


def triangulation_faces(rotations, negative) -> set[frozenset[int]]:
    """The face set as vertex triples; raises unless every face is a
    triangle on three distinct vertices."""
    out: set[frozenset[int]] = set()
    faces = trace_faces(rotations, negative)
    for walk in faces:
        if len(walk) != 3 or len(set(walk)) != 3:
            raise ValueError(f"face {walk} is not a triangle")
        out.add(frozenset(walk))
    if len(out) != len(faces):
        raise ValueError("two faces share their vertex triple")
    return out


# ---------------------------------------------------------------------------
# Stacked sphere triangulations, generated with their face sets
# ---------------------------------------------------------------------------

# oriented faces of the tetrahedron: each edge is used once in each direction
TETRAHEDRON = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]


def rotations_from_faces(n: int, faces) -> list[list[int]]:
    """Rotation system (all signs positive) of an oriented triangulation:
    the walk a->b->c turns at b from a to c, so c follows a around b."""
    follow: list[dict[int, int]] = [dict() for _ in range(n)]
    for a, b, c in faces:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            follow[y][x] = z
    rotations = []
    for v in range(n):
        first = min(follow[v])
        rot = [first]
        while follow[v][rot[-1]] != first:
            rot.append(follow[v][rot[-1]])
        rotations.append(rot)
    return rotations


def stacked_triangulation(rng, n: int, hub_bias: float = 0.0):
    """Grow the tetrahedron to n vertices, each step putting a new vertex
    inside a face. With probability ``hub_bias`` the face is drawn among
    those at vertex 0, which makes vertex 0 a hub. Returns (faces,
    history): the oriented faces, and history[k] the face that was split
    to add vertex 4 + k."""
    faces = list(TETRAHEDRON)
    history = []
    for x in range(4, n):
        while True:
            i = rng.randrange(len(faces))
            if rng.random() >= hub_bias or 0 in faces[i]:
                break
        a, b, c = faces[i]
        history.append((a, b, c))
        faces[i] = (a, b, x)
        faces.append((b, c, x))
        faces.append((c, a, x))
    return faces, history


# ---------------------------------------------------------------------------
# Counting references
# ---------------------------------------------------------------------------


def blowup_copies_p5(n: int) -> int:
    """copies(P5, tree_blowup(P5, n)): the ends and the middle of P5 each
    become q = (n - 5) // 3 twins."""
    q = (n - 5) // 3
    return q * ((2 * q - 1) ** 2 - (q - 1))


def blowup_copies_p3(n: int) -> int:
    """copies(P3, tree_blowup(P3, n)): a star with 2q leaves."""
    q = (n - 3) // 2
    return comb(2 * q, 2)


def paste_copies_diamond(n: int) -> int:
    """copies(K4 - e, lower_bound_graph(K4 - e, n)): both degree-2
    vertices of the diamond are flaps at the cut {a, b}; pasting q copies
    of each yields the book with 2q pages, q = n // 4 - 1."""
    q = n // 4 - 1
    return comb(2 * q, 2)


def copies_p3(adj) -> int:
    return sum(comb(len(a), 2) for a in adj)


def copies_diamond(adj, edges) -> int:
    return sum(comb(len(adj[u] & adj[v]), 2) for u, v in edges)


def codegrees(adj, u: int) -> dict[int, int]:
    """Number of common neighbours of u and w for every w reached by a
    2-walk from u (codeg(u, u) = deg u)."""
    out: dict[int, int] = {}
    for x in adj[u]:
        for w in adj[x]:
            out[w] = out.get(w, 0) + 1
    return out


def hom_c4(adj) -> int:
    return sum(c * c for u in range(len(adj)) for c in codegrees(adj, u).values())


def inj_c4(adj) -> int:
    total = 0
    for u in range(len(adj)):
        total += sum(comb(c, 2) for w, c in codegrees(adj, u).items() if w > u)
    return 4 * total


def hom_path(adj, k: int) -> int:
    """Homomorphisms of the k-vertex path: walks with k vertices."""
    ways = [1] * len(adj)
    for _ in range(k - 1):
        ways = [sum(ways[w] for w in adj[v]) for v in range(len(adj))]
    return sum(ways)


def triangles(adj, edges) -> int:
    return sum(len(adj[u] & adj[v]) for u, v in edges) // 3


def clique_counts(adj) -> list[int]:
    """[#K0, #K1, #K2, ...] by extending cliques with larger vertices."""
    counts = [1]

    def grow(clique_size: int, cands: set[int]) -> None:
        while len(counts) <= clique_size + 1:
            counts.append(0)
        for v in cands:
            counts[clique_size + 1] += 1
            grow(clique_size + 1, {w for w in cands & adj[v] if w > v})

    grow(0, set(range(len(adj))))
    while counts[-1] == 0:
        counts.pop()
    return counts


def goodman_sides(n: int, m: int, t: int) -> tuple[int, int]:
    """hom(K1) hom(K3) and hom(K2)(2 hom(K2) - hom(K1)^2) from n, m, t."""
    return n * 6 * t, 2 * m * (4 * m - n * n)


def slope(host_orders, counts) -> float:
    xs = [math.log(h) for h in host_orders]
    ys = [math.log(c) for c in counts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx


# ---------------------------------------------------------------------------
# Planarity: Demoucron-Malgrange-Pertuiset path addition, block by block
# ---------------------------------------------------------------------------


def blocks(n: int, adj) -> list[list[Edge]]:
    """Edge sets of the biconnected components (Hopcroft-Tarjan)."""
    disc = [-1] * n
    low = [0] * n
    out: list[list[Edge]] = []
    stack: list[Edge] = []
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        work = [(root, -1, iter(sorted(adj[root])))]
        while work:
            v, parent, it = work[-1]
            advanced = False
            for w in it:
                if disc[w] < 0:
                    stack.append(norm(v, w))
                    disc[w] = low[w] = clock
                    clock += 1
                    work.append((w, v, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w != parent and disc[w] < disc[v]:
                    stack.append(norm(v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            work.pop()
            if parent >= 0:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    block = []
                    while True:
                        e = stack.pop()
                        block.append(e)
                        if e == norm(parent, v):
                            break
                    out.append(block)
    return out


def _find_cycle(adj, start: int) -> list[int]:
    parent = {start: None}
    todo = [start]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w == parent[v]:
                continue
            if w in parent:
                # the tree paths from v and w meet at their lowest common
                # ancestor; with the edge vw they close a cycle
                up_v = [v]
                while parent[up_v[-1]] is not None:
                    up_v.append(parent[up_v[-1]])
                up_w = [w]
                while parent[up_w[-1]] is not None:
                    up_w.append(parent[up_w[-1]])
                on_w = set(up_w)
                iv = next(i for i, x in enumerate(up_v) if x in on_w)
                iw = up_w.index(up_v[iv])
                return up_v[:iv + 1] + up_w[:iw][::-1]
            parent[w] = v
            todo.append(w)
    raise ValueError("block has no cycle")


def _fragments(adj, placed: set[int], embedded: set[Edge]):
    """Bridges of G relative to the embedded subgraph: (attachments, path
    between two distinct attachments through the bridge)."""
    out = []
    for v in placed:
        for w in adj[v]:
            if w in placed and v < w and (v, w) not in embedded:
                out.append(({v, w}, [v, w]))
    seen: set[int] = set()
    for s in range(len(adj)):
        if s in placed or s in seen or not adj[s]:
            continue
        comp = {s}
        todo = [s]
        while todo:
            v = todo.pop()
            for w in adj[v]:
                if w not in placed and w not in comp:
                    comp.add(w)
                    todo.append(w)
        seen |= comp
        attach = {w for v in comp for w in adj[v] if w in placed}
        out.append((attach, comp))
    return out


def _bridge_path(adj, attach: set[int], comp: set[int]) -> list[int]:
    a = min(attach)
    starts = [v for v in comp if a in adj[v]]
    prev = {v: a for v in starts}
    todo = list(starts)
    while todo:
        v = todo.pop(0)
        ends = [w for w in adj[v] if w in attach and w != a]
        if ends:
            path = [min(ends), v]
            while path[-1] != a:
                path.append(prev[path[-1]])
            return path[::-1]
        for w in adj[v]:
            if w in comp and w not in prev:
                prev[w] = v
                todo.append(w)
    raise ValueError("bridge with a single attachment in a block")


def _block_planar(block: list[Edge]) -> bool:
    vs = {v for e in block for v in e}
    if len(vs) <= 4:
        return True
    if len(block) > 3 * len(vs) - 6:
        return False
    adj: dict[int, set[int]] = {v: set() for v in vs}
    for u, v in block:
        adj[u].add(v)
        adj[v].add(u)
    # relabel to 0..k-1 so _fragments can scan a list
    index = {v: i for i, v in enumerate(sorted(vs))}
    ladj = [set() for _ in vs]
    for v, ws in adj.items():
        ladj[index[v]] = {index[w] for w in ws}
    cycle = _find_cycle(ladj, 0)
    placed = set(cycle)
    embedded = {norm(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))}
    faces = [list(cycle), list(cycle)]
    while len(embedded) < len(block):
        choice = None
        for attach, body in _fragments(ladj, placed, embedded):
            fits = [i for i, f in enumerate(faces) if attach <= set(f)]
            if not fits:
                return False
            if choice is None or len(fits) < len(choice[2]):
                choice = (attach, body, fits)
            if len(fits) == 1:
                break
        attach, body, fits = choice
        path = body if isinstance(body, list) else _bridge_path(ladj, attach, body)
        face = faces[fits[0]]
        i, j = face.index(path[0]), face.index(path[-1])
        k = len(face)
        arc_ij = [face[(i + t) % k] for t in range((j - i) % k + 1)]
        arc_ji = [face[(j + t) % k] for t in range((i - j) % k + 1)]
        inner = path[1:-1]
        faces[fits[0]] = arc_ij + inner[::-1]
        faces.append(arc_ji + inner)
        placed.update(inner)
        embedded.update(norm(path[t], path[t + 1]) for t in range(len(path) - 1))
    return True


def is_planar(n: int, edges) -> bool:
    edges = {norm(u, v) for u, v in edges}
    if n >= 3 and len(edges) > 3 * n - 6:
        return False
    return all(_block_planar(b) for b in blocks(n, adjacency(n, edges)))


# ---------------------------------------------------------------------------
# Flaps, from the definition
# ---------------------------------------------------------------------------


def components_without(adj, removed) -> list[frozenset[int]]:
    seen = set(removed)
    comps = []
    for s in range(len(adj)):
        if s in seen:
            continue
        comp = {s}
        todo = [s]
        seen.add(s)
        while todo:
            v = todo.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    todo.append(w)
        comps.append(frozenset(comp))
    return comps


def side_is_planar(adj, x, s) -> bool:
    """Is the side X + S, with X completed to a clique, planar?"""
    verts = sorted(set(x) | set(s))
    index = {v: i for i, v in enumerate(verts)}
    edges = {norm(index[v], index[w]) for v in verts for w in adj[v] if w in index}
    if len(x) == 2:
        edges.add(norm(index[x[0]], index[x[1]]))
    return is_planar(len(verts), edges)


def cut_sets(n: int):
    """Every vertex set of size at most 2, smallest first."""
    yield ()
    yield from ((v,) for v in range(n))
    yield from itertools.combinations(range(n), 2)


def flap_number(n: int, edges) -> int:
    """Maximum number of pairwise independent flaps, over every separation
    (A, B) with |A n B| <= 2 and both A - B, B - A non-empty: A - B is any
    union of components of H - X, and the flap condition is planarity of
    H[A] plus a clique on X. Two flaps are independent when their
    interiors are disjoint and no edge joins them. A graph with no such
    separation has flap number 1 if planar and 0 otherwise."""
    adj = adjacency(n, edges)
    any_separation = False
    interiors: set[frozenset[int]] = set()
    for x in cut_sets(n):
        comps = components_without(adj, x)
        if len(comps) < 2:
            continue
        any_separation = True
        for r in range(1, len(comps)):
            for chosen in itertools.combinations(comps, r):
                s = frozenset().union(*chosen)
                if s not in interiors and side_is_planar(adj, x, s):
                    interiors.add(s)
    if not any_separation:
        return 1 if is_planar(n, edges) else 0
    # a family member can always be swapped for a flap interior inside it
    minimal = [s for s in interiors if not any(t < s for t in interiors)]
    closed = [s | {w for v in s for w in adj[v]} for s in minimal]
    best = 0

    def pack(i: int, blocked: frozenset[int], size: int) -> None:
        nonlocal best
        best = max(best, size)
        if size + len(minimal) - i <= best:
            return
        for j in range(i, len(minimal)):
            if not (minimal[j] & blocked):
                pack(j + 1, blocked | closed[j], size + 1)

    pack(0, frozenset(), 0)
    return best


def forest_stable_set(n: int, edges, allowed) -> int:
    """Maximum stable set of the subforest on ``allowed``: repeatedly take a
    vertex of degree at most 1 and delete its neighbour."""
    live = set(allowed)
    adj = adjacency(n, [e for e in edges if e[0] in live and e[1] in live])
    size = 0
    while live:
        v = min(live, key=lambda u: (len(adj[u] & live), u))
        size += 1
        gone = {v} | (adj[v] & live)
        live -= gone
    return size


def tree_flap_number(n: int, edges) -> int:
    """f(T) for a tree: the maximum stable set among vertices of degree <= 2."""
    adj = adjacency(n, edges)
    return forest_stable_set(n, edges, [v for v in range(n) if len(adj[v]) <= 2])
