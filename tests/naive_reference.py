"""Naive reference implementations that materialize every face.

Deliberately slow and independent of the package internals: subsets are
enumerated wholesale, adjacency is a pairwise intersection scan, and the
boundary matrix is dense.  Used as the oracle for small complexes.
"""

import itertools
import random
from collections import deque


def all_faces(c):
    faces = set()
    for F in c.facets:
        for size in range(1, len(F) + 1):
            faces.update(itertools.combinations(F, size))
    return faces


def ref_ridges(c):
    d = c.dim_facet
    ridges = sorted(face for face in all_faces(c) if len(face) == d - 1)
    out = []
    for r in ridges:
        containing = [
            fi for fi, F in enumerate(c.facets) if set(r).issubset(F)
        ]
        out.append((r, containing))
    return out


def ref_dual_edges(c):
    d = c.dim_facet
    edges = set()
    for (i, F), (j, G) in itertools.combinations(enumerate(c.facets), 2):
        if len(set(F) & set(G)) == d - 1:
            edges.add((i, j))
    return edges


def ref_boundary_dense(c):
    rows = sorted(face for face in all_faces(c) if len(face) == c.dim_facet - 1)
    cols = sorted(c.facets)
    return (
        rows,
        cols,
        [
            [1 if set(r).issubset(F) else 0 for F in cols]
            for r in rows
        ],
    )


def ref_boundary_preserved(c, q):
    """Dense boundary matrices of c and its quotient agree after relabeling.

    Source ridge r becomes quotient ridge q.ridge_map[r] and source facet i
    becomes quotient facet q.facet_map[i]; both relabelings must be
    bijections, and the permuted source matrix must equal the quotient's.
    """
    rows, cols, dense = ref_boundary_dense(c)
    qrows, qcols, qdense = ref_boundary_dense(q.quotient)
    if len(rows) != len(qrows) or len(cols) != len(qcols):
        return False
    qrow = {r: i for i, r in enumerate(qrows)}
    qcol = {F: j for j, F in enumerate(qcols)}
    try:
        row_to = [qrow[q.ridge_map[r]] for r in rows]
        col_to = [
            qcol[q.quotient.facets[q.facet_map[c.facets.index(F)]]] for F in cols
        ]
    except (KeyError, IndexError):
        return False
    if sorted(row_to) != list(range(len(qrows))):
        return False
    if sorted(col_to) != list(range(len(qcols))):
        return False
    permuted = [[0] * len(qcols) for _ in qrows]
    for i, ti in enumerate(row_to):
        for j, tj in enumerate(col_to):
            permuted[ti][tj] = dense[i][j]
    return permuted == qdense


def ref_is_pseudomanifold(c):
    return all(len(containing) == 2 for _, containing in ref_ridges(c))


def ref_diameter(adjacency):
    """All-pairs BFS diameter; returns None when disconnected."""
    n = len(adjacency)
    best = 0
    for src in range(n):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) < n:
            return None
        best = max(best, max(dist.values()))
    return best


def ref_boundary_corridor(n, d):
    """Boundary facets of the corridor one dimension up, by brute force."""
    from corridors import CorridorSpec, straight_corridor

    carrier = straight_corridor(CorridorSpec(n, d + 1))
    counts = {}
    for F in carrier.facets:
        for r in itertools.combinations(F, d):
            counts[r] = counts.get(r, 0) + 1
    return tuple(sorted(r for r, k in counts.items() if k == 1))


def _ref_draw_index(rng, k):
    # the documented draw: rejection on the smallest sufficient bit width
    if k == 1:
        return 0
    bits = (k - 1).bit_length()
    while True:
        r = rng.getrandbits(bits)
        if r < k:
            return r


def ref_greedy_window_coloring(n, c1, seed, window):
    """Colors of vertices 1..n, each drawn from an explicit list of allowed colors.

    Every vertex rebuilds the ascending list of colors outside the trailing
    window and draws an index into it.
    """
    rng = random.Random(seed)
    recent = deque()
    blocked = set()
    out = []
    for _ in range(n):
        allowed = [col for col in range(1, c1 + 1) if col not in blocked]
        pick = allowed[_ref_draw_index(rng, len(allowed))]
        out.append(pick)
        if window > 0:
            recent.append(pick)
            blocked.add(pick)
            if len(recent) > window:
                blocked.discard(recent.popleft())
    return tuple(out)
