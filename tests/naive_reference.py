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


def ref_first_pattern_collision(c, colors):
    """First pair of ridges, in lexicographic ridge order, sharing a pattern.

    colors[v - 1] is the color of vertex v; returns None when every ridge
    pattern is unique.
    """
    first_with = {}
    for r, _ in ref_ridges(c):
        pattern = tuple(sorted(colors[v - 1] for v in r))
        if pattern in first_with:
            return first_with[pattern], r
        first_with[pattern] = r
    return None


def ref_facet_error(d, n, facets):
    """Message of the first defect of a facet list, scanning facet by facet.

    Checks each facet in turn for shape, vertex range (at its two ends),
    strict increase and repetition of an earlier facet; None when the list
    is valid.
    """
    seen = []
    for F in facets:
        if not isinstance(F, tuple) or len(F) != d:
            return f"facet {F!r} does not have {d} vertices"
        if F[0] < 1 or F[-1] > n:
            return f"facet {F} leaves the vertex range 1..{n}"
        if list(F) != sorted(set(F)):
            return f"facet {F} is not strictly increasing"
        if F in seen:
            return f"duplicate facet {F}"
        seen.append(F)
    return None


def ref_refine(c, colors, c2, seed, max_resamples):
    """Resampling refinement with one bucket list per pattern.

    Follows the documented schedule: draw the refinement color of every
    vertex in order, then, while patterns collide, take the smallest
    colliding pattern, its two smallest ridges, and redraw their vertices in
    ascending order.  Returns (product colors, refinement colors,
    resamples), or None when max_resamples rounds do not suffice.
    """
    rng = random.Random(seed)
    ridges = [r for r, _ in ref_ridges(c)]
    g = [_ref_draw_index(rng, c2) + 1 for _ in range(c.n_vertices)]

    def product(v):
        return (colors[v - 1] - 1) * c2 + g[v - 1]

    resamples = 0
    while True:
        buckets = {}
        for rid, r in enumerate(ridges):
            buckets.setdefault(tuple(sorted(map(product, r))), []).append(rid)
        colliding = [key for key, rids in buckets.items() if len(rids) > 1]
        if not colliding:
            break
        if resamples >= max_resamples:
            return None
        first, second = sorted(buckets[min(colliding)])[:2]
        for v in sorted(set(ridges[first]) | set(ridges[second])):
            g[v - 1] = _ref_draw_index(rng, c2) + 1
        resamples += 1
    h = tuple(product(v) for v in range(1, c.n_vertices + 1))
    return h, tuple(g), resamples
