"""Two-stage vertex coloring: window-constrained greedy, then resampling.

Stage one walks the corridor in vertex order and picks, uniformly at random,
a color unseen in the trailing window; that alone separates the patterns of
any two intersecting ridges.  Stage two draws an independent refinement
coloring and resamples the vertices of colliding disjoint ridge pairs until
every ridge pattern is unique, with a safety cap turning bad luck into a
reportable error instead of a hang; it returns the product coloring, from
which the refinement color of each vertex is read back.
first_stage_class_cap is the one source of stage one's class-size cap,
(1+eps) N C(d-1,k) / C(c1,d-k), and the only reader of the slack eps;
class_sizes only counts the classes it is held against, over the faces of
any codimension that complex_core.face_columns gives, the one packed-code
enumeration that also yields the ridges; the pipeline counts stage one's
classes over its target's ridges in both modes.  Every ridge
this module reads, all of them or the few a resample touches, is decoded
by the incidence's own Incidence.columns, so no code here knows how
ridges are stored.

All randomness flows through one MT19937 stream per operation (seeded
`random.Random`), consumed in a fixed documented order: vertex order for the
greedy stage and for the initial refinement sample, then resample events in
the order they fire.  Index draws use rejection sampling on getrandbits, so
colorings are reproducible bit-for-bit across platforms and Python versions.
Past its first `window` vertices the greedy stage always draws from
c1 - window colors, so it takes those draws in one batch (_draw_indices)
without changing one, and the refinement takes its initial sample through
the same helper, a chunk of vertices a batch: a draw from at most 256
options is the top bits of one 32-bit word, and getrandbits(32 j) returns j
successive words, least significant first, as CPython's _randommodule.c
fills them.  PRNG_ID and the pinned streams are unchanged.

A face's pattern, the sorted tuple of its colors, is handled as one integer
(pattern_codes): the tuple read as base-(c+1) digits for colors 1..c.  For
faces of one size, equal codes are equal patterns and code order is tuple
order, so the resampling order (smallest colliding pattern first) is that
of the tuples, and so is the draw schedule.  The uniqueness check sorts
the codes and looks for two equal neighbours.
Counting classes needs no order and uses the cheaper additive key of
class_sizes.

Refinement keeps its per-ridge state flat, in array('q') where the
values fit in 64 bits and in int lists otherwise, through the same code:
the ridge columns; one vertex index, whose ascending entries pack each
vertex-ridge incidence's (vertex, stage-one class) key with its ridge id,
so the ridges through a vertex are one bisect run and an intersecting
pair in one class is two neighbouring entries with one key; the current
pattern code of each ridge; and the initial codes packed with their ridge
ids, ascending.  Only the colliding patterns and the ridges that moved off
their starting pattern get a container.  The vertex index, the initial
codes and the uniqueness check all sort through complex_core._sorted_runs,
which holds one bounded run or merge block boxed at a time.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_left, insort
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, repeat, tee
from math import ceil, comb
from operator import add, and_, eq, itemgetter, mul, sub
from pathlib import Path

from .bounds import E
from .complex_core import (
    Complex,
    Incidence,
    _body_ints,
    _chunks,
    _content_lines,
    _encode_columns,
    _header_ints,
    _repeats,
    _scanned_fields,
    _sorted_runs,
    _store_codes,
    _with_ids,
)
from .errors import (
    IncompleteColoring,
    InvalidSpec,
    NoLegalColor,
    PreconditionViolated,
    ResampleCapExceeded,
)

PRNG_ID = "mt19937(random.Random)+getrandbits-rejection"


class Coloring:
    """Total map vertex -> color: colors[v-1] is the color of vertex v.

    Colorings compare equal when their colors and color counts do.
    """

    __slots__ = ("colors", "c")

    def __init__(self, colors: tuple[int, ...], c: int):
        if c < 1:
            raise ValueError(f"color count must be positive, got {c}")
        # min and max check the range at C level; only a failure scans the
        # vertices, to name the first bad one
        if colors and not (1 <= min(colors) and max(colors) <= c):
            for v, col in enumerate(colors, start=1):
                if not 1 <= col <= c:
                    raise ValueError(f"vertex {v} has color {col} outside 1..{c}")
        self.colors, self.c = colors, c

    def __eq__(self, other):
        if type(other) is not Coloring:
            return NotImplemented
        return (self.colors, self.c) == (other.colors, other.c)

    @property
    def n_vertices(self):
        return len(self.colors)


def _require_greedy_params(c1: int, window: int) -> None:
    """Range checks of the greedy stage, on the window it will use.

    c1 may not exceed sys.maxsize, the largest color list Python can
    index, and must leave a color outside a full window.
    """
    if c1 < 1:
        raise InvalidSpec(f"need at least one color, got {c1}")
    if c1 > sys.maxsize:
        raise InvalidSpec(f"need c1 <= {sys.maxsize}, got {c1}")
    if window < 0:
        raise InvalidSpec(f"window must be nonnegative, got {window}")
    if c1 <= window:
        raise NoLegalColor(f"window {window} excludes all {c1} colors")


DEFAULT_MAX_RESAMPLES = 10 ** 6


def _require_refine_params(S: int, c2: int | None, max_resamples: int) -> None:
    """Range checks of the resampling stage; c2 None stands for the
    lll_target_colors value, which is at least 1."""
    if S < 0:
        raise InvalidSpec("S must be nonnegative")
    if c2 is not None and c2 < 1:
        raise InvalidSpec(f"need at least one refinement color, got {c2}")
    if max_resamples < 0:
        raise InvalidSpec("resample cap must be nonnegative")


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


@cache
def _top_bits(bits: int) -> bytes:
    """Translate table from a 32-bit word's top byte to its top `bits` bits;
    built on first use, not at import."""
    return bytes(byte >> (8 - bits) for byte in range(256))


def _draw_indices(rng: random.Random, k: int, count: int) -> list[int]:
    """The next `count` values of _draw_index(rng, k), leaving rng as they would.

    For 2 <= k <= 256 a draw is the top bits of one 32-bit word, kept when
    below k, and getrandbits(32 j) returns j successive words, least
    significant first.  Each pending draw reads at least one word, so one
    call fetches a word per pending draw without overdrawing, and one
    translate shifts each word's top byte and drops the rejected ones; the
    shortfall is drawn the same way.  Other k draw one at a time.
    """
    if not 2 <= k <= 256:
        return [_draw_index(rng, k) for _ in range(count)]
    bits = (k - 1).bit_length()
    table, rejected = _top_bits(bits), bytes(range(k << (8 - bits), 256))
    out = bytearray()
    while len(out) < count:
        # at most 2^16 words a call, so the transient bytes stay small
        need = min(count - len(out), 1 << 16)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        out += words[3::4].translate(table, rejected)
    return list(out)


def default_window(dim_facet: int) -> int:
    """Window 2(d-1) that separates intersecting ridges on a corridor of
    facet size d."""
    return 2 * (dim_facet - 1)


def greedy_window_coloring(
    c: Complex, c1: int, seed: int, window: int | None = None
) -> Coloring:
    """Color vertices 1..n in order, avoiding the colors of the last `window`.

    On a corridor this forces distinct colors on any two vertices within
    `window` of each other, hence on any pair of intersecting ridges once
    window >= 2(d-1), its default.  Deterministic given the seed; the draw
    reads no class-size slack, which goes to first_stage_class_cap.
    """
    if window is None:
        window = default_window(c.dim_facet)
    _require_greedy_params(c1, window)
    rng = random.Random(seed)
    # free holds the unblocked colors in ascending order, so the draw indexes
    # the same list as "every color not in the window" would be
    try:
        free = list(range(1, c1 + 1))
    except MemoryError:
        raise InvalidSpec(f"no memory for a list of c1 = {c1} colors") from None
    # the first `window` vertices draw from a shrinking list; every later
    # one from c1 - window colors, so those draws are taken in one batch
    head = min(c.n_vertices, window)
    out = [free.pop(_draw_index(rng, c1 - i)) for i in range(head)]
    pop, append = free.pop, out.append
    for old, r in enumerate(_draw_indices(rng, c1 - window, c.n_vertices - head)):
        append(pop(r))
        insort(free, out[old])
    return Coloring(tuple(out), c1)


def _require_total(c: Complex, f: Coloring):
    if f.n_vertices != c.n_vertices:
        raise IncompleteColoring(
            f"coloring covers {f.n_vertices} vertices, complex has {c.n_vertices}"
        )


def _gather(table, col) -> tuple:
    """table[v] for each v of col, as a tuple, from one C-level itemgetter.

    itemgetter of one index returns the bare item and of none cannot be
    built, so shorter columns are mapped.
    """
    if len(col) < 2:
        return tuple(map(table.__getitem__, col))
    return itemgetter(*col)(table)


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
    # map drops each column once gathered, so lazily decoded columns
    # (Incidence.columns) are held one at a time
    looked_up = list(map(_gather, repeat(color_of), columns))
    if len(looked_up) <= 1:
        return list(looked_up[0]) if looked_up else []
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
    # empty columns are no faces, which give no codes
    return list(_encode_columns(list(zip(*rows)), base)) if rows else []


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
    of_vertex = (0, *map(weight.__getitem__, colors))
    first, *rest = columns
    keys = _gather(of_vertex, first)
    for column in rest:
        keys = map(add, keys, _gather(of_vertex, column))
    return Counter(keys)


def intersecting_ridge_bound(shape: str, dim_facet: int) -> int:
    """Max ridges meeting a fixed ridge: 2d^2 on corridors, (d+1)^3 on boundaries."""
    if shape == "corridor":
        return 2 * dim_facet * dim_facet
    if shape == "boundary":
        return (dim_facet + 1) ** 3
    raise ValueError(f"unknown shape {shape!r}")


def lll_target_colors(t: int, S: int, dim_facet: int) -> int:
    """Smallest c2 with e(2tS + 1) <= c2^(d-1), an exact integer root.

    Computed with the package's rational approximation of e and no float,
    so any S is exact.  c2^(d-1) reaches the target exactly when it reaches
    its ceiling T, found by bisection below 2^ceil(b/(d-1)) for T of b
    bits, whose power exceeds T.  Once d-1 reaches b, 2^(d-1) exceeds the
    target (which exceeds 1), so the answer is 2 without a power of that
    size.
    """
    if dim_facet < 2:
        raise ValueError(f"facet size must be at least 2, got {dim_facet}")
    if t < 0 or S < 0:
        raise ValueError("t and S must be nonnegative")
    exponent = dim_facet - 1
    target = ceil(E * (2 * t * S + 1))
    bits = target.bit_length()
    if exponent >= bits:
        return 2
    # lo^(d-1) < target <= hi^(d-1) throughout
    lo, hi = 1, 1 << -(-bits // exponent)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** exponent < target:
            lo = mid
        else:
            hi = mid
    return hi


def verify_proper(c: Complex, f: Coloring) -> bool:
    """True iff every edge of the 1-skeleton gets two distinct colors.

    Every edge lies in a facet, so each pair of facet columns is compared
    position by position through the colors, at C level.
    """
    _require_total(c, f)
    color_of = (None, *f.colors)
    looked_up = [_gather(color_of, col) for col in c.columns]
    return not any(any(map(eq, a, b)) for a, b in combinations(looked_up, 2))


def verify_unique_ridge_patterns(c: Complex, f: Coloring) -> bool:
    """True iff no two ridges share a pattern, that is, a pattern code.

    The codes are computed a chunk of ridges at a time and sorted through
    complex_core._sorted_runs, so no boxed list or set of every code is
    built; equal codes are then neighbours in the merged stream.
    """
    _require_total(c, f)
    inc, color_of, base = c.incidence, (0, *f.colors), f.c + 1
    rows = (range(start, stop) for start, stop in _chunks(0, len(inc)))
    codes = chain.from_iterable(pattern_codes(color_of, inc.columns(r), base) for r in rows)
    # each code beside the one after it, one pair at a time
    merged, following = tee(chain.from_iterable(_sorted_runs(codes, base ** min(inc.size, 64))))
    next(following, None)
    return not any(map(eq, merged, following))


class RefineResult(namedtuple("RefineResult", ("coloring", "resamples"))):
    """The product coloring on f.c * c2 colors and the resample count; the
    refinement color of vertex v is (coloring.colors[v-1] - 1) % c2 + 1."""

    __slots__ = ()


def _store_pattern_codes(color_of, columns, base: int):
    """pattern_codes of the faces of array('q') columns, stored as
    _store_codes stores codes of that base.

    The codes are computed _CHUNK faces at a time, each chunk's columns as
    lists, which itemgetter reads fastest, so no boxed list of all of them
    is built.
    """
    size = len(columns)
    codes = _store_codes((), base - 1, size)
    for start, stop in _chunks(0, len(columns[0]) if columns else 0):
        chunk = [col[start:stop].tolist() for col in columns]
        codes += _store_codes(pattern_codes(color_of, chunk, base), base - 1, size)
    return codes


def _ridges_by_vertex(columns, codes, n_vertices: int, shift: int):
    """The vertex index (entries, b, shift) of the ridges' vertex columns
    and their stage-one classes, each code below shift.

    entries holds (v * shift + code) << b | rid for each vertex v of each
    ridge rid, ascending, b being the bit length of the largest ridge id.
    The ridges through v are then one run of entries, and two ridges
    through v in one class are neighbouring entries with one key
    v * shift + code.  The columns' entries, one column after another, are
    sorted through complex_core._sorted_runs, so no sort holds more than a
    bounded run or block of them boxed.
    """
    b = max(len(codes) - 1, 0).bit_length()
    # code << b | rid, the part of an entry that every column shares
    tail = _with_ids(codes, b, shift)
    if type(tail) is not array:
        tail = list(tail)
    top = (n_vertices + 1) * shift << b
    entries = (_encode_columns((col, tail), shift << b, top) for col in columns)
    blocks = chain.from_iterable(_sorted_runs(chain.from_iterable(entries), top))
    del tail
    return (array("q", blocks) if top <= 1 << 63 else list(blocks)), b, shift


def _ridges_through(index, v: int):
    """Ids of the ridges that contain vertex v, one run of the vertex index."""
    entries, b, shift = index
    start = bisect_left(entries, v * shift << b)
    run = entries[start:bisect_left(entries, (v + 1) * shift << b, start)]
    return map(and_, run, repeat((1 << b) - 1))


def _require_refinable(inc: Incidence, columns, f: Coloring, S):
    """The vertex index of the ridge columns, once stage-one patterns are
    found to separate intersecting ridges and classes to fit S.

    A ridge's class is its pattern code, below (f.c + 1) ** inc.size.
    Ridges through one vertex must lie in distinct classes, so no two
    vertex-ridge incidences may share a (vertex, class) key.  The first
    entry of the index that shares its key with the one before it names
    the clash at the smallest vertex, then the smallest class, by its two
    smallest ridges.  Without ridge columns there is nothing to check, so
    a complex without facets costs nothing, whatever facet size it
    declares.
    """
    if not columns:
        return [], 0, 1
    codes = _store_pattern_codes([0, *f.colors], columns, f.c + 1)
    shift = (f.c + 1) ** inc.size
    index = _ridges_by_vertex(columns, codes, inc.n_vertices, shift)
    entries, b, _ = index
    mask = (1 << b) - 1
    for i in _repeats(entries, mask):
        first, second = zip(*inc.columns((entries[i - 1] & mask, entries[i] & mask)))
        raise PreconditionViolated(f"intersecting ridges {first} and {second} share a pattern")
    worst = max(Counter(codes).values(), default=0)
    if worst > S:
        raise PreconditionViolated(f"a ridge class has size {worst} > S = {S}")
    return index


class _PatternClasses:
    """The ridges of each pattern, kept in flat per-ridge state.

    keys[rid] is ridge rid's current pattern code.  first holds an entry
    key << b | rid for the starting key of every ridge, ascending, b the
    bit length of the largest ridge id, so the ridges that started at a
    pattern are one run of it; moved maps a pattern to the ridges that hold
    it now without having started there.  A ridge starts at its initial
    key, and again at its current one whenever move rebases.  The holders of a pattern are the
    ridges of its run whose key is still that pattern, and those moved
    into it.  A pattern held by two or more ridges maps to the list of them
    in crowds, whose keys are therefore exactly the colliding patterns; a
    crowd's order is never read, since its two smallest ridges are taken
    through sorted().  A pattern is pushed on heap when its crowd forms and
    is left there when the crowd breaks up, so the heap holds every
    colliding pattern and possibly stale ones.
    """

    __slots__ = ("keys", "top", "first", "b", "moved", "crowds", "heap")

    def __init__(self, keys, top: int):
        """top bounds every key, or passes 2**63 where the keys may."""
        self.keys, self.top = keys, top
        self.b = b = max(len(keys) - 1, 0).bit_length()
        self._rebase()
        first = self.first
        # neighbours in first that differ in the id bits only share a
        # pattern, and the ids of a run ascend
        self.crowds = crowds = {}
        mask = (1 << b) - 1
        for i in _repeats(first, mask):
            key = first[i] >> b
            crowd = crowds.get(key)
            if crowd is None:
                crowds[key] = [first[i - 1] & mask, first[i] & mask]
            else:
                crowd.append(first[i] & mask)
        self.heap = list(crowds)
        heapify(self.heap)

    def _rebase(self):
        """Take every ridge's current pattern as its starting one, which
        leaves no ridge moved."""
        top = self.top << self.b
        blocks = chain.from_iterable(_sorted_runs(_with_ids(self.keys, self.b, self.top), top))
        self.first = array("q", blocks) if top <= 1 << 63 else list(blocks)
        self.moved: dict[int, list[int]] = {}

    def move(self, rid, new):
        """Move ridge rid from the class of its current pattern to that of
        pattern new; the end state is the same in any order of moves.

        Once a quarter of the ridges have moved off their starting
        patterns, the current ones become the starting ones, so a long run
        keeps moved to that size at the cost of one sort per quarter.
        """
        if len(self.moved) > len(self.keys) >> 2:
            self._rebase()
        keys, crowds, moved = self.keys, self.crowds, self.moved
        old = keys[rid]
        crowd = crowds.get(old)
        if crowd is not None:
            crowd.remove(rid)
            if len(crowd) == 1:
                del crowds[old]
        came = moved.get(old)
        if came is not None and rid in came:
            came.remove(rid)
            if not came:
                del moved[old]
        keys[rid] = new
        # the ridges that started at new: a bisect, then a scan of its run
        first, b = self.first, self.b
        i, stop, started = bisect_left(first, new << b), new + 1 << b, []
        while i < len(first) and first[i] < stop:
            started.append(first[i] & (1 << b) - 1)
            i += 1
        if rid not in started:
            moved.setdefault(new, []).append(rid)
        crowd = crowds.get(new)
        if crowd is not None:
            crowd.append(rid)
            return
        # a ridge back at its starting pattern is in started only
        holders = [r for r in started if keys[r] == new]
        holders += moved.get(new, ())
        if len(holders) > 1:
            holders.remove(rid)
            crowds[new] = [holders[0], rid]
            heappush(self.heap, new)


def moser_tardos_refine(
    c: Complex,
    f: Coloring,
    S: int,
    c2: int,
    seed: int,
    max_resamples: int = DEFAULT_MAX_RESAMPLES,
) -> RefineResult:
    """Resample a uniform refinement until every ridge pattern is unique.

    Requires f proper, free of intersecting-ridge pattern collisions, and with
    ridge classes of size at most S (PreconditionViolated otherwise); under
    those conditions every surviving collision is between disjoint ridges.
    Each round picks the lexicographically smallest colliding combined
    pattern, then the two smallest ridges in it, and redraws the refinement
    color of their 2(d-1) vertices in ascending vertex order.  Returns the
    flattened product coloring on f.c * c2 colors and the resample count;
    raises ResampleCapExceeded after max_resamples rounds, so a c2 below
    lll_target_colors's is allowed, and at once when c2 = 1 leaves a
    collision, which no redraw can change.  The state is flat (see the
    module docstring): the holders of a pattern are found by a bisect of
    the sorted initial codes and the few ridges that moved into it, and
    each resample moves the ridges through its redrawn vertices, found in
    the vertex index, to their new patterns (_PatternClasses.move).
    """
    _require_refine_params(S, c2, max_resamples)
    _require_total(c, f)
    if not verify_proper(c, f):
        raise PreconditionViolated("stage-one coloring is not proper")

    inc = c.incidence
    # one decoded list at a time becomes an array('q') column
    columns = list(map(array, repeat("q"), inc.columns()))
    colors = f.colors
    index = _require_refinable(inc, columns, f, S)

    rng = random.Random(seed)
    # the initial sample, a chunk of vertices a batch: one list of every
    # vertex's draw left the heap fragmented and the later stages' peaks
    # higher
    draws = chain.from_iterable(_draw_indices(rng, c2, b - a) for a, b in _chunks(0, c.n_vertices))

    # product color (color - 1) c2 + draw + 1 of every vertex, kept current
    # as vertices are resampled; h[v] is vertex v's, so it serves
    # pattern_codes as it stands
    h = [0, *map(add, map(sub, map(mul, colors, repeat(c2)), repeat(c2 - 1)), draws)]
    base = f.c * c2 + 1
    keys = _store_pattern_codes(h, columns, base)
    del columns
    # base ** size bounds the keys; past 64 digits any base passes 2**63,
    # as such keys may, so a facetless complex's declared size costs no
    # power of it (_store_codes's rule)
    classes = _PatternClasses(keys, base ** min(inc.size, 64))
    crowds, heap = classes.crowds, classes.heap
    if c2 == 1 and crowds:
        # with one refinement color a redraw changes no vertex's color
        raise ResampleCapExceeded(len(crowds), 0)

    resamples = 0
    while crowds:
        if resamples >= max_resamples:
            raise ResampleCapExceeded(len(crowds), resamples)
        # the smallest colliding pattern is the smallest heap entry still in
        # crowds; stale entries are dropped when they reach the top
        while heap[0] not in crowds:
            heappop(heap)
        key = heap[0]
        first, second = sorted(crowds[key])[:2]
        vertices = sorted(set(chain.from_iterable(inc.columns((first, second)))))
        for v in vertices:
            h[v] = (colors[v - 1] - 1) * c2 + _draw_index(rng, c2) + 1
        # move reaches the same state in any order of the touched ridges
        touched = list({rid for v in vertices for rid in _ridges_through(index, v)})
        for rid, new in zip(touched, pattern_codes(h, inc.columns(touched), base)):
            classes.move(rid, new)
        resamples += 1

    return RefineResult(Coloring(tuple(h[1:]), f.c * c2), resamples)


# ---------------------------------------------------------------------------
# text format: line 1 "colors <c>", then "vertex color" pairs, vertices
# ascending.  Blank lines and whole-line "#" comments are skipped, as in
# complex files, and a file is read in one bulk pass the same way; the line
# scan runs only to name the first bad line.


def coloring_to_text(f: Coloring) -> str:
    """One %-format over the interleaved vertices and colors."""
    n = len(f.colors)
    pairs = chain.from_iterable(zip(range(1, n + 1), f.colors))
    return f"colors {f.c}\n" + ("%d %d\n" * n) % tuple(pairs)


def _reject_coloring_text(text: str):
    """Raise the error of the first bad line of a text the bulk pass refused."""
    rows = _scanned_fields(text, ("colors",))
    next(rows)
    for lineno, line, fields in rows:
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'vertex color', got {line!r}")
    raise AssertionError("the line scan passed a text the bulk pass refused")


def coloring_from_text(text: str) -> Coloring:
    lines = _content_lines(text)
    try:
        (c,) = _header_ints(lines, ("colors",))
        values = _body_ints(lines, 2)
    except (IndexError, ValueError):
        _reject_coloring_text(text)
    if values[::2] != list(range(1, len(values) // 2 + 1)):
        raise IncompleteColoring("vertex lines must be 1..n in ascending order")
    return Coloring(tuple(values[1::2]), c)


def write_coloring(f: Coloring, path) -> None:
    Path(path).write_text(coloring_to_text(f), encoding="utf-8")


def read_coloring(path) -> Coloring:
    return coloring_from_text(Path(path).read_text(encoding="utf-8"))
