"""Two-stage vertex coloring: window-constrained greedy, then resampling.

Stage one walks the corridor in vertex order and picks, uniformly at random,
a color unseen in the trailing window; that alone separates the patterns of
any two intersecting ridges.  Stage two draws an independent refinement
coloring and resamples the vertices of colliding disjoint ridge pairs until
every ridge pattern is unique, with a safety cap turning bad luck into a
reportable error instead of a hang.

All randomness flows through one MT19937 stream per operation (seeded
`random.Random`), consumed in a fixed documented order: vertex order for the
greedy stage and for the initial refinement sample, then resample events in
the order they fire.  Index draws use rejection sampling on getrandbits, so
colorings are reproducible bit-for-bit across platforms and Python versions.
"""

from __future__ import annotations

import itertools
import random
from bisect import insort
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf
from operator import add
from pathlib import Path

from .bounds import E
from .complex_core import Complex, _int_fields
from .errors import (
    IncompleteColoring,
    NoLegalColor,
    PreconditionViolated,
    ResampleCapExceeded,
)

PatternKey = tuple[int, ...]

PRNG_ID = "mt19937(random.Random)+getrandbits-rejection"


@dataclass(frozen=True)
class Coloring:
    """Total map vertex -> color: colors[v-1] is the color of vertex v."""

    colors: tuple[int, ...]
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"color count must be positive, got {self.c}")
        for v, col in enumerate(self.colors, start=1):
            if not 1 <= col <= self.c:
                raise ValueError(f"vertex {v} has color {col} outside 1..{self.c}")

    def of(self, v: int) -> int:
        return self.colors[v - 1]

    @property
    def n_vertices(self):
        return len(self.colors)


def identity_coloring(n: int) -> Coloring:
    return Coloring(tuple(range(1, n + 1)), n)


@dataclass(frozen=True)
class FirstColoringParams:
    """Greedy stage parameters; window defaults to 2(d-1) of the target complex."""

    c1: int
    epsilon: float
    seed: int
    window: int | None = None

    def __post_init__(self):
        if self.c1 < 1:
            raise ValueError(f"need at least one color, got {self.c1}")
        if not 0 < self.epsilon < inf:
            raise ValueError(f"need a finite positive epsilon, got {self.epsilon}")
        if self.window is not None and self.window < 0:
            raise ValueError(f"window must be nonnegative, got {self.window}")


@dataclass(frozen=True)
class RefinementParams:
    """Resampling stage parameters.

    c2 below the target of lll_target_colors is allowed (the cap catches
    non-convergence); S must dominate the actual ridge class sizes of the
    coloring being refined.
    """

    t: int
    S: int
    c2: int
    seed: int
    max_resamples: int = 10 ** 6

    def __post_init__(self):
        if self.t < 0 or self.S < 0:
            raise ValueError("t and S must be nonnegative")
        if self.c2 < 1:
            raise ValueError(f"need at least one refinement color, got {self.c2}")
        if self.max_resamples < 0:
            raise ValueError("resample cap must be nonnegative")


def _draw_index(rng: random.Random, k: int) -> int:
    # uniform over range(k) via rejection on the smallest sufficient bit width;
    # k == 1 consumes no randomness
    if k <= 0:
        raise ValueError(f"cannot draw from {k} options")
    if k == 1:
        return 0
    bits = (k - 1).bit_length()
    while True:
        r = rng.getrandbits(bits)
        if r < k:
            return r


def default_window(c: Complex) -> int:
    return 2 * (c.dim_facet - 1)


def greedy_window_coloring(c: Complex, p: FirstColoringParams) -> Coloring:
    """Color vertices 1..n in order, avoiding the colors of the last `window`.

    On a corridor this forces distinct colors on any two vertices within
    `window` of each other, hence on any pair of intersecting ridges once
    window >= 2(d-1).  Deterministic given the seed.
    """
    window = p.window if p.window is not None else default_window(c)
    if p.c1 <= window:
        raise NoLegalColor(f"window {window} excludes all {p.c1} colors")
    rng = random.Random(p.seed)
    # free holds the unblocked colors in ascending order, so the draw indexes
    # the same list as "every color not in the window" would be
    free = list(range(1, p.c1 + 1))
    recent: deque[int] = deque()
    out = []
    for _ in range(c.n_vertices):
        pick = free.pop(_draw_index(rng, len(free)))
        out.append(pick)
        recent.append(pick)
        if len(recent) > window:
            insort(free, recent.popleft())
    return Coloring(tuple(out), p.c1)


def _require_total(c: Complex, f: Coloring):
    if f.n_vertices != c.n_vertices:
        raise IncompleteColoring(
            f"coloring covers {f.n_vertices} vertices, complex has {c.n_vertices}"
        )


def pattern_keys(colors, faces) -> list[PatternKey]:
    """Pattern of each face: the sorted tuple of its vertices' colors.

    colors[v - 1] is the color of vertex v, as in Coloring.colors.  This is
    the one ordered key; class_sizes counts classes without building it.
    """
    return [tuple(sorted(colors[v - 1] for v in face)) for face in faces]


def faces_of_codim(c: Complex, k: int):
    """Deduplicated (d-k)-subsets of facets, lexicographically sorted.

    Codimension 1 returns the ridges of the complex's cached incidence.
    """
    if not 0 <= k < c.dim_facet:
        raise ValueError(f"codimension {k} out of range for facet size {c.dim_facet}")
    if k == 1:
        return c.incidence.ridges
    size = c.dim_facet - k
    faces = set()
    for F in c.facets:
        faces.update(itertools.combinations(F, size))
    return sorted(faces)


def _first_stage_class_bound(
    n_vertices: int, dim_facet: int, c1: int, codim: int, epsilon
) -> Fraction:
    """Exact (1+eps) N C(d-1,k) / C(c1,d-k); the class cap is its floor."""
    denom = comb(c1, dim_facet - codim)
    if denom == 0:
        raise ValueError(f"{c1} colors cannot fill faces of size {dim_facet - codim}")
    slack = 1 + Fraction(str(epsilon))
    return slack * n_vertices * comb(dim_facet - 1, codim) / denom


def first_stage_class_cap(
    n_vertices: int, dim_facet: int, c1: int, codim: int, epsilon
) -> int:
    """Integer cap floor((1+eps) N C(d-1,k) / C(c1,d-k)) on codim-k class sizes."""
    return int(_first_stage_class_bound(n_vertices, dim_facet, c1, codim, epsilon))


def class_sizes(colors, n_colors: int, columns) -> Counter:
    """Number of faces in each pattern class, keyed by an opaque integer.

    The faces come as vertex columns, list(zip(*faces)): columns[j][i] is
    vertex j of face i.  Color col weighs W[col] = sum_k col^k M^(k-1) for
    k = 1..s, with s the face size and M = s n_colors^s + 1.  A face's key is
    the sum of its vertices' weights, whose base-M digits are the power sums
    p_1..p_s of its colors (each below M); by Newton's identities those fix
    the color multiset, so two faces share a key exactly when they share a
    pattern.  No face is sorted; pattern_keys stays the ordered key.
    """
    if not columns:
        return Counter()
    s = len(columns)
    m = s * n_colors ** s + 1
    weight = [0] + [
        sum(col ** k * m ** (k - 1) for k in range(1, s + 1))
        for col in range(1, n_colors + 1)
    ]
    # of_vertex[v] is the weight of vertex v's color
    of_vertex = [0]
    of_vertex += map(weight.__getitem__, colors)
    first, *rest = columns
    keys = map(of_vertex.__getitem__, first)
    for column in rest:
        keys = map(add, keys, map(of_vertex.__getitem__, column))
    return Counter(keys)


@dataclass(frozen=True)
class PatternHistogram:
    """Pattern-class statistics of one coloring over all codim-k faces.

    class_count is the number of distinct patterns and max_class_size the
    size of the largest class; bound is described in pattern_class_histogram.
    The classes themselves are not kept: pattern_keys names a face's pattern.
    """

    max_class_size: int
    class_count: int
    face_count: int
    codim: int
    bound: float | None


def pattern_class_histogram(
    c: Complex, f: Coloring, codim: int = 1, epsilon: float = 0.0
) -> PatternHistogram:
    """Exact pattern-class statistics over all codimension-k faces.

    The reported bound is the stage-one cap (1+eps) N C(d-1,k) / C(f.c,d-k):
    the exact value that first_stage_class_cap floors, as a float.  It is
    meaningful when f is a stage-one coloring, and None when f has fewer
    colors than a face needs.
    """
    _require_total(c, f)
    sizes = class_sizes(f.colors, f.c, list(zip(*faces_of_codim(c, codim))))
    if f.c >= c.dim_facet - codim:
        bound = float(
            _first_stage_class_bound(c.n_vertices, c.dim_facet, f.c, codim, epsilon)
        )
    else:
        bound = None
    return PatternHistogram(
        max_class_size=max(sizes.values(), default=0),
        class_count=len(sizes),
        face_count=sum(sizes.values()),
        codim=codim,
        bound=bound,
    )


def intersecting_ridge_bound(shape: str, dim_facet: int) -> int:
    """Max ridges meeting a fixed ridge: 2d^2 on corridors, (d+1)^3 on boundaries."""
    if shape == "corridor":
        return 2 * dim_facet * dim_facet
    if shape == "boundary":
        return (dim_facet + 1) ** 3
    raise ValueError(f"unknown shape {shape!r}")


def lll_target_colors(t: int, S: int, dim_facet: int) -> int:
    """Smallest c2 with e(2tS + 1) <= c2^(d-1), by guarded rounding.

    Computed with the package's rational approximation of e, so the defining
    inequality is checked exactly after the floating-point ceiling.
    """
    if dim_facet < 2:
        raise ValueError(f"facet size must be at least 2, got {dim_facet}")
    if t < 0 or S < 0:
        raise ValueError("t and S must be nonnegative")
    exponent = dim_facet - 1
    target = E * (2 * t * S + 1)
    c2 = max(1, round(float(target) ** (1.0 / exponent)))
    while c2 ** exponent < target:
        c2 += 1
    while c2 > 1 and (c2 - 1) ** exponent >= target:
        c2 -= 1
    return c2


def verify_proper(c: Complex, f: Coloring) -> bool:
    """True iff every edge of the 1-skeleton gets two distinct colors."""
    _require_total(c, f)
    colors = f.colors
    for F in c.facets:
        for u, v in itertools.combinations(F, 2):
            if colors[u - 1] == colors[v - 1]:
                return False
    return True


def verify_unique_ridge_patterns(c: Complex, f: Coloring):
    """Exhaustive pattern-collision check over all ridges.

    Returns (True, None) or (False, (ridge_a, ridge_b)) with the first
    colliding pair in lexicographic ridge order.
    """
    _require_total(c, f)
    ridges = c.incidence.ridges
    seen: dict[PatternKey, tuple[int, ...]] = {}
    for ridge, key in zip(ridges, pattern_keys(f.colors, ridges)):
        if key in seen:
            return False, (seen[key], ridge)
        seen[key] = ridge
    return True, None


@dataclass(frozen=True)
class RefineResult:
    coloring: Coloring
    g: Coloring
    resamples: int


def _require_refinable(ridges, by_vertex, colors, S):
    """Stage-one patterns must separate intersecting ridges and classes fit S."""
    f_keys = pattern_keys(colors, ridges)
    for rids in by_vertex.values():
        for a, b in itertools.combinations(rids, 2):
            if f_keys[a] == f_keys[b]:
                raise PreconditionViolated(
                    f"intersecting ridges {ridges[a]} and {ridges[b]} share a pattern"
                )
    worst = max(Counter(f_keys).values(), default=0)
    if worst > S:
        raise PreconditionViolated(f"a ridge class has size {worst} > S = {S}")


def moser_tardos_refine(
    c: Complex, f: Coloring, p: RefinementParams, initial_g: Coloring | None = None
) -> RefineResult:
    """Resample a uniform refinement until every ridge pattern is unique.

    Requires f proper, free of intersecting-ridge pattern collisions, and with
    ridge classes of size at most p.S (PreconditionViolated otherwise); under
    those conditions every surviving collision is between disjoint ridges.
    Each round picks the lexicographically smallest colliding combined
    pattern, then the two smallest ridges in it, and redraws the refinement
    color of their 2(d-1) vertices in ascending vertex order.  Returns the
    flattened product coloring on f.c * c2 colors together with the
    refinement coloring and the resample count; raises ResampleCapExceeded
    after max_resamples rounds.

    initial_g forces the starting refinement coloring (no randomness is
    consumed for it), which exists for adversarial-start experiments.
    """
    _require_total(c, f)
    if not verify_proper(c, f):
        raise PreconditionViolated("stage-one coloring is not proper")

    ridges = c.incidence.ridges
    colors = f.colors
    by_vertex: dict[int, list[int]] = {}
    for rid, r in enumerate(ridges):
        for v in r:
            by_vertex.setdefault(v, []).append(rid)
    _require_refinable(ridges, by_vertex, colors, p.S)

    rng = random.Random(p.seed)
    c2 = p.c2
    if initial_g is None:
        g = [_draw_index(rng, c2) + 1 for _ in range(c.n_vertices)]
    else:
        _require_total(c, initial_g)
        if initial_g.c != c2:
            raise ValueError(f"initial refinement uses {initial_g.c} colors, expected {c2}")
        g = list(initial_g.colors)

    # product color of every vertex, kept current as g is resampled
    h = [(colors[i] - 1) * c2 + g[i] for i in range(c.n_vertices)]

    keys = pattern_keys(h, ridges)
    # a ridge's bucket is a list: it holds each ridge at most once, and the
    # winners are read through sorted(), so membership order never matters
    buckets: dict[PatternKey, list[int]] = {}
    for rid, key in enumerate(keys):
        buckets.setdefault(key, []).append(rid)
    violating = {key for key, rids in buckets.items() if len(rids) > 1}

    resamples = 0
    while violating:
        if resamples >= p.max_resamples:
            raise ResampleCapExceeded(
                f"{len(violating)} colliding patterns left after {resamples} resamples"
            )
        key = min(violating)
        first, second = sorted(buckets[key])[:2]
        vertices = sorted(set(ridges[first]) | set(ridges[second]))
        for v in vertices:
            g[v - 1] = _draw_index(rng, c2) + 1
            h[v - 1] = (colors[v - 1] - 1) * c2 + g[v - 1]
        touched = list({rid for v in vertices for rid in by_vertex.get(v, ())})
        new_keys = pattern_keys(h, [ridges[rid] for rid in touched])
        for rid, new in zip(touched, new_keys):
            old = keys[rid]
            bucket = buckets[old]
            bucket.remove(rid)
            if len(bucket) < 2:
                violating.discard(old)
            if not bucket:
                del buckets[old]
            keys[rid] = new
            bucket = buckets.setdefault(new, [])
            bucket.append(rid)
            if len(bucket) > 1:
                violating.add(new)
        resamples += 1

    return RefineResult(
        coloring=Coloring(tuple(h), f.c * c2),
        g=Coloring(tuple(g), c2),
        resamples=resamples,
    )


# ---------------------------------------------------------------------------
# text format: line 1 "colors <c>", then "vertex color" pairs, vertices ascending


def coloring_to_text(f: Coloring) -> str:
    lines = [f"colors {f.c}"]
    lines.extend(f"{v} {col}" for v, col in enumerate(f.colors, start=1))
    return "\n".join(lines) + "\n"


def coloring_from_text(text: str) -> Coloring:
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
            (c,) = _int_fields(parts[1:], lineno, line)
            continue
        pair = _int_fields(line.split(), lineno, line)
        if len(pair) != 2:
            raise ValueError(f"line {lineno}: expected 'vertex color', got {line!r}")
        pairs.append(pair)
    if c is None:
        raise ValueError("missing header line")
    expected = list(range(1, len(pairs) + 1))
    if [v for v, _ in pairs] != expected:
        raise IncompleteColoring("vertex lines must be 1..n in ascending order")
    return Coloring(tuple(col for _, col in pairs), c)


def write_coloring(f: Coloring, path) -> None:
    Path(path).write_text(coloring_to_text(f), encoding="utf-8")


def read_coloring(path) -> Coloring:
    return coloring_from_text(Path(path).read_text(encoding="utf-8"))
