"""Two-stage vertex coloring: window-constrained greedy, then resampling.

Stage one walks the corridor in vertex order and picks, uniformly at random,
a color unseen in the trailing window; that alone separates the patterns of
any two intersecting ridges.  Stage two draws an independent refinement
coloring and resamples the vertices of colliding disjoint ridge pairs until
every ridge pattern is unique, with a safety cap turning bad luck into a
reportable error instead of a hang.  first_stage_class_cap is the one
source of stage one's class-size cap, (1+eps) N C(d-1,k) / C(c1,d-k);
pattern_class_histogram only counts the classes it is held against.  The
faces of every codimension come from complex_core.face_columns, the one
packed-code enumeration that also yields the ridges.

All randomness flows through one MT19937 stream per operation (seeded
`random.Random`), consumed in a fixed documented order: vertex order for the
greedy stage and for the initial refinement sample, then resample events in
the order they fire.  Index draws use rejection sampling on getrandbits, so
colorings are reproducible bit-for-bit across platforms and Python versions.

A face's pattern, the sorted tuple of its colors, is handled as one integer
(pattern_codes): the tuple read as base-(c+1) digits for colors 1..c.  For
faces of one size, equal codes are equal patterns and code order is tuple
order, so the resampling order (smallest colliding pattern first) and the
uniqueness check's witnesses are those of the tuples, and so is the draw
schedule.  Counting classes needs no order and uses the cheaper additive
key of class_sizes.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress, islice, repeat
from math import ceil, comb, inf
from operator import add, eq, mul, ne, sub
from pathlib import Path

from .bounds import E
from .complex_core import (
    Complex,
    Incidence,
    _decode_codes,
    _encode_columns,
    _int_fields,
    face_columns,
)
from .errors import (
    IncompleteColoring,
    NoLegalColor,
    PreconditionViolated,
    ResampleCapExceeded,
)

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

    @property
    def n_vertices(self):
        return len(self.colors)


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


def pattern_codes(color_of, columns, base: int) -> list[int]:
    """Pattern of each face as one integer: its sorted colors in base `base`.

    color_of[v] is the color of vertex v (slot 0 is unused) and every color
    lies in 1..base-1.  The faces come as vertex columns, as for
    class_sizes.  A face with sorted colors k1 <= ... <= ks gets the code
    sum_j kj base^(s-j), the packing ridges_of gives vertex tuples.  Every
    digit is below the base, so two faces of one size share a code exactly
    when they share a pattern, and code order is sorted-tuple order: the
    smallest code belongs to the lexicographically smallest pattern.
    Faces of two or three vertices are sorted by comparisons inside one
    loop, larger ones by sorted(); class_sizes is the cheaper key when only
    the class counts matter.
    """
    looked_up = [list(map(color_of.__getitem__, col)) for col in columns]
    if len(looked_up) <= 1:
        return looked_up[0] if looked_up else []
    if len(looked_up) == 2:
        return [a * base + b if a < b else b * base + a for a, b in zip(*looked_up)]
    if len(looked_up) == 3:
        codes = []
        for a, b, c in zip(*looked_up):
            # a three-comparator sorting network
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
                if a > b:
                    a, b = b, a
            codes.append((a * base + b) * base + c)
        return codes
    rows = list(map(sorted, zip(*looked_up)))
    del looked_up
    return list(_encode_columns(list(zip(*rows)), base))


def first_stage_class_cap(
    n_vertices: int, dim_facet: int, c1: int, codim: int, epsilon
) -> int:
    """Integer cap floor((1+eps) N C(d-1,k) / C(c1,d-k)) on codim-k class sizes.

    Computed exactly, with epsilon read as the decimal it prints as.
    """
    denom = comb(c1, dim_facet - codim)
    if denom == 0:
        raise ValueError(f"{c1} colors cannot fill faces of size {dim_facet - codim}")
    slack = 1 + Fraction(str(epsilon))
    return int(slack * n_vertices * comb(dim_facet - 1, codim) / denom)


def class_sizes(colors, n_colors: int, columns) -> Counter:
    """Number of faces in each pattern class, keyed by an opaque integer.

    The faces come as vertex columns, list(zip(*faces)): columns[j][i] is
    vertex j of face i.  Color col weighs W[col] = sum_k col^k M^(k-1) for
    k = 1..s, with s the face size and M = s n_colors^s + 1.  A face's key is
    the sum of its vertices' weights, whose base-M digits are the power sums
    p_1..p_s of its colors (each below M); by Newton's identities those fix
    the color multiset, so two faces share a key exactly when they share a
    pattern.  Only the colors in use get a weight, so the cost follows the
    faces and not n_colors.  No face is sorted; pattern_codes stays the
    ordered key.
    """
    if not columns:
        return Counter()
    s = len(columns)
    m = s * n_colors ** s + 1
    weight = {
        col: sum(col ** k * m ** (k - 1) for k in range(1, s + 1)) for col in set(colors)
    }
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
    size of the largest class.  The classes themselves are not kept:
    pattern_codes names a face's pattern.  The stage-one cap these sizes
    are held to is first_stage_class_cap's.
    """

    max_class_size: int
    class_count: int
    face_count: int


def pattern_class_histogram(c: Complex, f: Coloring, codim: int = 1) -> PatternHistogram:
    """Exact pattern-class statistics over all codimension-k faces."""
    _require_total(c, f)
    sizes = class_sizes(f.colors, f.c, face_columns(c, codim))
    return PatternHistogram(
        max_class_size=max(sizes.values(), default=0),
        class_count=len(sizes),
        face_count=sum(sizes.values()),
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
    inequality is checked exactly after the floating-point ceiling.  Once
    d-1 reaches the bit length of ceil(target), 2^(d-1) exceeds the target
    (which exceeds 1), so the answer is 2 without a power of that size.
    """
    if dim_facet < 2:
        raise ValueError(f"facet size must be at least 2, got {dim_facet}")
    if t < 0 or S < 0:
        raise ValueError("t and S must be nonnegative")
    exponent = dim_facet - 1
    target = E * (2 * t * S + 1)
    if exponent >= ceil(target).bit_length():
        return 2
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
        for u, v in combinations(F, 2):
            if colors[u - 1] == colors[v - 1]:
                return False
    return True


def _first_repeat(values):
    """(i, j) for the first j whose value already stood at i; None if all differ."""
    if len(set(values)) == len(values):
        return None
    first_at: dict = {}
    for j, value in enumerate(values):
        i = first_at.setdefault(value, j)
        if i != j:
            return i, j


def verify_unique_ridge_patterns(c: Complex, f: Coloring):
    """Exhaustive pattern-collision check over all ridges.

    Returns (True, None) or (False, (ridge_a, ridge_b)) with the first
    colliding pair in lexicographic ridge order.
    """
    _require_total(c, f)
    inc = c.incidence
    pair = _first_repeat(pattern_codes([0, *f.colors], inc.columns(), f.c + 1))
    if pair is None:
        return True, None
    return False, tuple(map(inc.ridge, pair))


@dataclass(frozen=True)
class RefineResult:
    coloring: Coloring
    g: Coloring
    resamples: int


def _ridges_by_vertex(columns):
    """Per-column vertex-ridge lookup, from the ridges' vertex columns.

    For each column, the ridge ids in stable order of that column's vertex,
    with the vertices in that order, both array('q'); the ridges through
    vertex v are then one bisect run of v per column (_ridges_through).
    """
    index = []
    for col in columns:
        rids = array("q", sorted(range(len(col)), key=col.__getitem__))
        index.append((rids, array("q", map(col.__getitem__, rids))))
    return index


def _ridges_through(index, v):
    """Ids of the ridges that contain vertex v, column by column."""
    for rids, vertices in index:
        lo = bisect_left(vertices, v)
        yield from rids[lo:bisect_right(vertices, v, lo)]


def _require_refinable(inc: Incidence, columns, index, f: Coloring, S):
    """Stage-one patterns must separate intersecting ridges and classes fit S.

    A ridge's class is its pattern code, below (f.c + 1) ** inc.size.
    Without ridge columns there is nothing to check, so a complex without
    facets costs nothing, whatever facet size it declares.
    """
    if not columns:
        return
    codes = pattern_codes([0, *f.colors], columns, f.c + 1)
    # ridges through one vertex must lie in distinct classes, so the
    # (vertex, class) keys of all vertex-ridge incidences are distinct:
    # sorted, no two neighbours are equal
    shift = (f.c + 1) ** inc.size
    pairs = sorted(
        chain.from_iterable(map(add, map(mul, col, repeat(shift)), codes) for col in columns)
    )
    if any(map(eq, islice(pairs, 1, None), pairs)):
        # name the first clash, scanning vertices as the ridge order meets
        # them and each vertex's ridges in ascending order
        for v in dict.fromkeys(chain.from_iterable(zip(*columns))):
            for a, b in combinations(sorted(_ridges_through(index, v)), 2):
                if codes[a] == codes[b]:
                    raise PreconditionViolated(
                        f"intersecting ridges {inc.ridge(a)} and {inc.ridge(b)} "
                        "share a pattern"
                    )
    worst = max(Counter(codes).values(), default=0)
    if worst > S:
        raise PreconditionViolated(f"a ridge class has size {worst} > S = {S}")


def _move_ridge(alone, crowds, rid, old, new):
    """Move ridge rid from the class of pattern old to that of pattern new.

    A pattern held by one ridge maps to it in `alone`; a pattern held by two
    or more maps to the list of them in `crowds`, whose keys are therefore
    exactly the colliding patterns.
    """
    crowd = crowds.get(old)
    if crowd is None:
        del alone[old]
    else:
        crowd.remove(rid)
        if len(crowd) == 1:
            alone[old] = crowd.pop()
            del crowds[old]
    crowd = crowds.get(new)
    if crowd is not None:
        crowd.append(rid)
    elif new in alone:
        crowds[new] = [alone.pop(new), rid]
    else:
        alone[new] = rid


def moser_tardos_refine(c: Complex, f: Coloring, p: RefinementParams) -> RefineResult:
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
    """
    _require_total(c, f)
    if not verify_proper(c, f):
        raise PreconditionViolated("stage-one coloring is not proper")

    inc = c.incidence
    columns = inc.columns()
    colors = f.colors
    index = _ridges_by_vertex(columns)
    _require_refinable(inc, columns, index, f, p.S)

    rng = random.Random(p.seed)
    c2 = p.c2
    g = [_draw_index(rng, c2) + 1 for _ in range(c.n_vertices)]

    # product color of every vertex, kept current as g is resampled; h[v]
    # is vertex v's, so it serves pattern_codes as it stands
    h = [0, *map(add, map(mul, map(sub, colors, repeat(1)), repeat(c2)), g)]
    base = f.c * c2 + 1

    keys = pattern_codes(h, columns, base)
    del columns
    # per-ridge state is flat: only colliding patterns keep a list, and the
    # winners are read through sorted(), so membership order never matters
    alone = dict(zip(keys, range(len(keys))))
    crowds: dict[int, list[int]] = {}
    if len(alone) < len(keys):
        # alone holds the last ridge of each pattern, so a ridge it does not
        # name shares its pattern with a later one
        shared = map(ne, map(alone.__getitem__, keys), range(len(keys)))
        for rid in compress(range(len(keys)), shared):
            crowds.setdefault(keys[rid], []).append(rid)
        for key, crowd in crowds.items():
            crowd.append(alone.pop(key))

    resamples = 0
    while crowds:
        if resamples >= p.max_resamples:
            raise ResampleCapExceeded(len(crowds), resamples)
        key = min(crowds)
        first, second = sorted(crowds[key])[:2]
        vertices = sorted(set(inc.ridge(first)) | set(inc.ridge(second)))
        for v in vertices:
            g[v - 1] = _draw_index(rng, c2) + 1
            h[v] = (colors[v - 1] - 1) * c2 + g[v - 1]
        # _move_ridge reaches the same state in any order of the touched ridges
        touched = list({rid for v in vertices for rid in _ridges_through(index, v)})
        new_keys = pattern_codes(
            h,
            _decode_codes([inc.codes[rid] for rid in touched], inc.n_vertices, inc.size),
            base,
        )
        for rid, new in zip(touched, new_keys):
            _move_ridge(alone, crowds, rid, keys[rid], new)
            keys[rid] = new
        resamples += 1

    return RefineResult(
        coloring=Coloring(tuple(h[1:]), f.c * c2),
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
