"""Naive reference implementations that materialize every face.

Deliberately slow and independent of the package internals: subsets are
enumerated wholesale, adjacency is a pairwise intersection scan, and the
boundary matrix is dense.  Used as the oracle for small complexes.  The
text formats are read and written line by line, through the public
constructors.
"""

import itertools
import random
from collections import deque, namedtuple

from corridors import Coloring, Complex, CorridorsError, IncompleteColoring


def all_faces(c):
    faces = set()
    for F in c.facets:
        for size in range(1, len(F) + 1):
            faces.update(itertools.combinations(F, size))
    return faces


def ridge_faces(c):
    """Every (d-1)-subset of a facet, once each."""
    return {r for F in c.facets for r in itertools.combinations(F, c.dim_facet - 1)}


def ref_ridges(c):
    ridges = sorted(ridge_faces(c))
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
    rows = sorted(ridge_faces(c))
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
    A facet or ridge pattern collision leaves the quotient fewer facets or
    ridges than the source, so the counts alone refuse it.
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


class UnknownFacet(CorridorsError):
    """A facet tuple that is no facet of the complex it was looked up in."""


class BoundaryFacetLabel(namedtuple("BoundaryFacetLabel", "kind i j", defaults=(None, None))):
    """Position of a boundary-corridor facet: alpha, omega or middle(i, j),
    the facet {i, ..., i+d} minus {i+j}; str gives the label file's line."""

    __slots__ = ()

    def __str__(self):
        return f"middle {self.i} {self.j}" if self.kind == "middle" else self.kind


ALPHA = BoundaryFacetLabel("alpha")
OMEGA = BoundaryFacetLabel("omega")


def ref_facet_label(F, n, d):
    """The label of the sorted facet tuple F on the boundary of the corridor
    on n vertices with facet size d, read off its vertices; UnknownFacet if
    no facet of that boundary is F."""
    if F == tuple(range(1, d + 1)):
        return ALPHA
    if F == tuple(range(n - d + 1, n + 1)):
        return OMEGA
    # middle(i, j) runs from i to i + d and misses exactly one vertex between
    i = F[0]
    missing = set(range(i, i + d + 1)) - set(F)
    if len(F) != d or F[-1] != i + d or len(missing) != 1 or not 1 <= i <= n - d:
        raise UnknownFacet(f"{F} is not a boundary-corridor facet")
    return BoundaryFacetLabel("middle", i, missing.pop() - i)


def ref_facet_labels(c):
    """ref_facet_label of every facet of c, in c's facet order."""
    return [ref_facet_label(F, c.n_vertices, c.dim_facet) for F in c.facets]


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


def ref_intersecting_clash(c, colors):
    """The pair of intersecting ridges that refinement refuses, or None.

    Scans the vertices in ascending order and, at each, the patterns of the
    ridges through it in ascending order; the first pattern held by two of
    them gives its two smallest ridges, in lexicographic ridge order.
    """
    ridges = [r for r, _ in ref_ridges(c)]
    for v in range(1, c.n_vertices + 1):
        holders = {}
        for r in ridges:
            if v in r:
                holders.setdefault(tuple(sorted(colors[u - 1] for u in r)), []).append(r)
        for pattern in sorted(holders):
            if len(holders[pattern]) > 1:
                return tuple(holders[pattern][:2])
    return None


def ref_lll_target_colors(t, S, d, e):
    """Smallest c2 >= 1 with e(2tS + 1) <= c2^(d-1), by linear search from 1.

    e is the rational value of Euler's number that the answer is defined with.
    """
    target = e * (2 * t * S + 1)
    c2 = 1
    while c2 ** (d - 1) < target:
        c2 += 1
    return c2


def ref_patterns_distinct(faces, colors):
    """True iff no two of the faces have the same sorted colors.

    colors[v - 1] is the color of vertex v.
    """
    patterns = [tuple(sorted(colors[v - 1] for v in face)) for face in faces]
    return len(set(patterns)) == len(patterns)


def ref_is_proper(c, colors):
    """True iff no edge of the 1-skeleton has one color at both ends.

    colors[v - 1] is the color of vertex v; the edges are the 2-subsets of
    the facets.
    """
    edges = (face for face in all_faces(c) if len(face) == 2)
    return all(colors[u - 1] != colors[v - 1] for u, v in edges)


def ref_pattern_codes(colors, faces, base):
    """Each face's sorted color tuple, read as a base-`base` number.

    colors[v - 1] is the color of vertex v; the digits are summed one by one
    from the sorted tuple.
    """
    codes = []
    for face in faces:
        pattern = tuple(sorted(colors[v - 1] for v in face))
        codes.append(sum(k * base ** (len(pattern) - 1 - j) for j, k in enumerate(pattern)))
    return codes


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


# ---------------------------------------------------------------------------
# text formats, line by line: each line is stripped, skipped when blank or a
# "#" comment, split and converted on its own, and the first bad line named


def _ref_int_fields(tokens, lineno, line):
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ValueError(f"line {lineno}: expected integers, got {line!r}") from None


def ref_complex_to_text(c):
    lines = [f"dim {c.dim_facet} vertices {c.n_vertices}"]
    lines.extend(" ".join(map(str, F)) for F in c.facets)
    return "\n".join(lines) + "\n"


def ref_complex_from_text(text):
    """The complex of a text, built through the facet-tuple constructor."""
    header = None
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "dim" or parts[2] != "vertices":
                raise ValueError(f"line {lineno}: bad header line: {line!r}")
            header = _ref_int_fields(parts[1::2], lineno, line)
            continue
        facets.append(_ref_int_fields(line.split(), lineno, line))
    if header is None:
        raise ValueError("missing header line")
    d, n = header
    return Complex(d, n, tuple(facets))


def ref_coloring_to_text(f):
    lines = [f"colors {f.c}"]
    lines.extend(f"{v} {col}" for v, col in enumerate(f.colors, start=1))
    return "\n".join(lines) + "\n"


def ref_coloring_from_text(text):
    c = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if c is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "colors":
                raise ValueError(f"line {lineno}: bad header line: {line!r}")
            (c,) = _ref_int_fields(parts[1:], lineno, line)
            continue
        pair = _ref_int_fields(line.split(), lineno, line)
        if len(pair) != 2:
            raise ValueError(f"line {lineno}: expected 'vertex color', got {line!r}")
        pairs.append(pair)
    if c is None:
        raise ValueError("missing header line")
    if [v for v, _ in pairs] != list(range(1, len(pairs) + 1)):
        raise IncompleteColoring("vertex lines must be 1..n in ascending order")
    return Coloring(tuple(col for _, col in pairs), c)
