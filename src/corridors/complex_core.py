"""Pure simplicial complexes and the derived objects distance arguments use.

A complex is stored as its facets only, as d vertex columns in array('q');
ridges and lower faces are the implied subsets.  Vertices are 1-based
integers and every facet is strictly increasing, so every derived object
(ridge lists, dual graphs) has a canonical form and equality is structural.
Facet tuples exist only on demand (`Complex.facets`), for the tests and
the benchmark; every stage, the text writer included, reads the columns.

Each complex enumerates its ridges once: `Complex.incidence`, the one
entry every stage reads, runs `ridges_of` on first use and keeps the result
as an `Incidence`, the ridge-by-facet GF(2) boundary matrix in compressed
sparse row (CSR) form.  It holds flat integers only, no container per
ridge.  A sorted face (v1 < ... < vs) on vertices 1..n is packed into the
code sum_j vj (n+1)^(s-j), the base-(n+1) number whose digits are its
vertices.  For faces of one size, numeric order of codes is lexicographic
order of the tuples, so sorting codes orders ridges exactly as sorting
tuples would, and every order built on the ridge order is unchanged.  Dual
graphs, the pseudomanifold test and the coloring and quotient stages all
read that one index, and every reader of ridge vertices decodes them
through `Incidence.columns`, so how ridges are stored stays inside this
module.  An index is only ever built from its own complex's facets; a
quotient gets its own on first use, never one derived from its source, so
comparing the two stays a real check.

Faces of every codimension come from one packed-code enumeration,
`_subset_codes`, which encodes each subset of the facet columns of the
face size in one pass over whole columns.  `ridges_of` groups its streams
into the incidence, and `face_columns` decodes the distinct codes of any
other codimension.

The facet codes, the column checks and ridges_of's sort keys run in 64-bit
lanes of one int (SIMD within a register, the lane helpers below) wherever
every value is known to fit in 62 bits, and so do the sort entries that
coloring's refinement packs with _encode_columns and _with_ids and scans
with _repeats: one big-int operation then does the arithmetic of a whole
chunk.  A chunk is 4096 values, so each lane
temporary stays at 32 KB; a whole-array int, with the ints derived from
it, would add several times the array to the peak heap.  Where a value may
not fit (ridge keys of SC(10^7, 3) and of d = 4 at 10^5, codes past 64
bits), the boxed path computes the same values one int at a time.

A dual graph is its adjacency rows: `dual_graph` reads the incidence
rows and returns every node's ascending neighbour tuple, built once, and
every reader (the diameter, distances, connectivity and the regular-graph
bound) takes those rows; the node count is len(rows) and a degree a row's
length.  The rows share one int object per node, so a row costs a pointer
per neighbour.
Exact diameters come from one function, `diameter_exact`: two BFS sweeps
where the graph is a tree, as a straight corridor's dual is, and the
fringe-pruned BFS search elsewhere.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress, count, islice, repeat
from operator import add, and_, eq, floordiv, le, lshift, lt, mod, mul, ne, or_, rshift, sub, xor
from pathlib import Path
from sys import byteorder

from .errors import DisconnectedGraph

Facet = tuple[int, ...]


class Complex:
    """Pure (dim_facet - 1)-dimensional complex on vertices 1..n_vertices.

    Stored as vertex columns: columns[j][i] is vertex j of facet i, one
    array('q') per position, the facets in a fixed order.  Every facet is
    strictly increasing, and all other faces are implied subsets, which
    keeps purity automatic.  A complex without facets has no columns,
    whatever its facet size, as list(zip(*facets)) has none for no facets.

    Complex(d, n, facets) takes a tuple of facet tuples and transposes it;
    constructions and quotients hand their columns to _from_columns.  Both
    end in the one column constructor, _set_columns, which checks whole
    columns at C level.  `facets` decodes the facet tuples on demand.
    Complexes compare equal when their facet size, vertex count and columns
    do, and are not hashable.
    """

    def __init__(self, dim_facet: int, n_vertices: int, facets: tuple[Facet, ...]):
        self._set_columns(dim_facet, n_vertices, _transpose(facets, dim_facet), facets)

    @classmethod
    def _from_columns(cls, dim_facet: int, n_vertices: int, columns) -> Complex:
        """Complex of the given vertex columns, checked as the tuple entry
        point checks its facets."""
        c = cls.__new__(cls)
        c._set_columns(dim_facet, n_vertices, tuple(columns), None)
        return c

    def _set_columns(self, d, n, columns, facets):
        """Check and store the columns; None means the facets did not
        transpose.  Only a failure pays for the per-facet scan, which names
        the first offending facet, of `facets` or else decoded from the
        columns."""
        if d < 1:
            raise ValueError(f"facet size must be at least 1, got {d}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if columns is None or not _columns_valid(d, n, columns):
            _reject_first_bad_facet(d, n, zip(*columns) if facets is None else facets)
            # every facet passed the scan: facets hold a vertex that
            # array('q') cannot, or columns differ in length
            if facets is None:
                raise ValueError("facet columns differ in length")
            raise ValueError("facet vertices must be integers below 2**63")
        self.dim_facet, self.n_vertices, self.columns = d, n, columns

    def __eq__(self, other):
        if type(other) is not Complex:
            return NotImplemented
        return (self.dim_facet, self.n_vertices, self.columns) == (
            other.dim_facet, other.n_vertices, other.columns
        )

    @property
    def facets(self) -> tuple[Facet, ...]:
        """Every facet as a sorted vertex tuple, decoded afresh on each access."""
        return tuple(zip(*self.columns))

    @property
    def facet_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @cached_property
    def incidence(self) -> Incidence:
        """Ridge-facet incidence, enumerated by ridges_of on first use."""
        return ridges_of(self)


def _transpose(facets, d):
    """Vertex columns of a tuple of d-tuples, as array('q'); None unless
    every facet is a d-tuple of integers that array('q') holds."""
    try:
        if all(map(isinstance, facets, repeat(tuple))) and all(
            map(eq, map(len, facets), repeat(d))
        ):
            return tuple(map(array, repeat("q"), zip(*facets)))
    except (TypeError, OverflowError):
        pass
    return None


def _columns_valid(d: int, n: int, columns) -> bool:
    """The facet checks over whole columns at C level.

    The columns are d of one length; the vertices lie in 1..n, read from the
    ends of the first and the last column, which strict increase along each
    facet (adjacent columns compared pairwise) makes sound; and no facet
    repeats, by the packed facet codes of base n + 1: ascending codes are
    distinct, and only codes out of order pay for a set.  A strictly
    ascending first column needs no codes at all.  Where every code fits in
    62 bits the comparisons and the codes run in lanes.
    """
    if not columns:
        return True
    m = len(columns[0])
    if len(columns) != d or any(len(col) != m for col in columns):
        return False
    if min(columns[0]) < 1 or max(columns[-1]) > n:
        return False
    lanes = _fits_lanes(columns, (n + 1) ** min(d, 64))
    if not all(map(_less, columns, columns[1:], repeat(lanes))):
        return False
    # a strictly ascending first column, such as a corridor's, already
    # orders the facets strictly; elsewhere it fails at its first repeat
    if _ascending(columns[0], lanes):
        return True
    codes = _store_codes(_encode_columns(columns, n + 1), n, d)
    return _ascending(codes, lanes) or len(set(codes)) == m


def _reject_first_bad_facet(d, n, facets):
    seen = set()
    for F in facets:
        if not isinstance(F, tuple) or len(F) != d:
            raise ValueError(f"facet {F!r} does not have {d} vertices")
        if F[0] < 1 or F[-1] > n:
            raise ValueError(f"facet {F} leaves the vertex range 1..{n}")
        if any(F[i] >= F[i + 1] for i in range(d - 1)):
            raise ValueError(f"facet {F} is not strictly increasing")
        if F in seen:
            raise ValueError(f"duplicate facet {F}")
        seen.add(F)


# ---------------------------------------------------------------------------
# lanes: SIMD within a register (Fisher & Dietz, LCPC 1998).  The values of
# an array('q') chunk become the 64-bit lanes of one int, and one big-int
# operation acts on every lane at once.  Every value is known to lie in
# 0..2**62-1, so a lane keeps two spare bits: the guard bit 62 of the
# comparisons, and bit 63, the sign bit of array('q'), which no sum reaches.
# A chunk holds 4096 lanes, so no lane temporary exceeds 32 KB whatever the
# complex's size.  Where values may not fit, callers keep the boxed path.

_CHUNK = 4096
_GUARD = 1 << 62


def _fits_lanes(columns, top: int) -> bool:
    """Whether lanes may carry these columns: each is an array('q'), and
    top, a bound on every value computed from them, is at most 2**62."""
    return top <= _GUARD and all(type(col) is array and col.typecode == "q" for col in columns)


def _pack(chunk) -> int:
    """The int whose lanes, 64 bits each, hold an array('q') chunk."""
    return int.from_bytes(chunk, byteorder)


def _unpack(lanes: int, count: int) -> array:
    """The array('q') of the count lanes of an int, nonnegative lanes."""
    values = array("q")
    values.frombytes(lanes.to_bytes(8 * count, byteorder))
    return values


@lru_cache(maxsize=8)
def _splat(value: int, count: int) -> int:
    """value in each of count lanes; a loop asks for one count per chunk."""
    return _pack(array("q", [value]) * count)


def _less(a, b, lanes: bool) -> bool:
    """Whether a[i] < b[i] at every i, over equal-length buffers.

    With lanes, each chunk first has its values checked to lie in
    0..2**62-1, so a value out of range, negative or huge, fails before
    any arithmetic reads it.  Then lane b - a + 2**62 - 1 sets its guard bit
    exactly where b exceeds a, and never borrows from the next lane.
    """
    if not lanes:
        return all(map(lt, a, b))
    for start in range(0, len(a), _CHUNK):
        stop = min(start + _CHUNK, len(a))
        x, y = _pack(a[start:stop]), _pack(b[start:stop])
        guard = _splat(_GUARD, stop - start)
        if (x | y) & guard * 3 or (y + guard - (guard >> 62) - x) & guard != guard:
            return False
    return True


def _ascending(values, lanes: bool) -> bool:
    """Whether values ascend strictly; with lanes, values is an array('q')
    and neighbours are compared in lanes."""
    if not lanes:
        return all(map(lt, values, islice(values, 1, None)))
    view = memoryview(values)
    return _less(view[:-1], view[1:], True)


class Incidence:
    """Ridges of one complex in lexicographic order, with their facets, in CSR.

    codes[i] is the packed code of ridge i (see the module docstring): base
    n_vertices + 1, `size` digits, ascending.  Its facets, as ascending
    indices in the complex's facet order, are fids[offsets[i]:offsets[i + 1]].
    offsets and fids are array('q'); codes is too when every code fits in 64
    bits, and a plain int list otherwise.  Nothing per ridge is a container,
    so the index costs a few machine words per entry and the garbage
    collector never walks it.  `columns` is the one decoder of the codes:
    every reader of ridge vertices, of all ridges or of a few, goes
    through it.
    """

    __slots__ = ("n_vertices", "size", "codes", "offsets", "fids")

    def __init__(self, n_vertices: int, size: int, codes, offsets: array, fids: array):
        self.n_vertices, self.size, self.codes = n_vertices, size, codes
        self.offsets, self.fids = offsets, fids

    def __len__(self):
        return len(self.codes)

    def columns(self, rows=None):
        """Vertex columns of every ridge, or of the ridge ids in rows in
        their order, repeats included: column j holds vertex j of each.

        The columns come lazily, as _decode_codes yields them, so a reader
        that drops each column before taking the next holds only one;
        zip(*columns) gives the ridges as vertex tuples.
        """
        codes = self.codes if rows is None else list(map(self.codes.__getitem__, rows))
        return _decode_codes(codes, self.n_vertices, self.size)

    def widths(self) -> list[int]:
        """Number of facets containing each ridge, in ridge order."""
        offsets = self.offsets
        return list(map(sub, islice(offsets, 1, None), offsets))


def _encode_columns(columns, base: int, top: int | None = None):
    """Code of each row of nonempty digit columns, each digit in 0..base-1.

    Row i is the face (columns[0][i], columns[1][i], ...), and its code is
    that face read as a base-`base` number, by Horner's rule over whole
    columns.  Vertex faces on 1..n use base n + 1.  A caller whose leading
    digits may reach the base passes top, a bound on every code, in place
    of base ** len(columns).  The codes come as an array('q'), computed in
    lanes, where lanes hold them, and otherwise as an iterator.
    """
    first, *rest = columns
    if top is None:
        top = base ** min(len(columns), 64)
    if _fits_lanes(columns, top):
        codes = array("q")
        for start in range(0, len(first), _CHUNK):
            stop = min(start + _CHUNK, len(first))
            code = _pack(first[start:stop])
            for column in rest:
                code = code * base + _pack(column[start:stop])
            codes += _unpack(code, stop - start)
        return codes
    codes = iter(first)
    for column in rest:
        codes = map(add, map(mul, codes, repeat(base)), column)
    return codes


def _ids(start: int, stop: int) -> int:
    """The lanes of start, start + 1, ..., stop - 1."""
    count = stop - start
    return _iota(count) + _pack(array("q", [start]) * count)


@lru_cache(maxsize=2)
def _iota(count: int) -> int:
    """The lanes of 0..count-1; a loop asks for one count per chunk."""
    return _pack(array("q", range(count)))


def _with_ids(values, b: int, top: int):
    """value << b | i for the i-th of the nonnegative values, each below
    top, with every i below 2**b.

    An array('q'), computed in lanes, where lanes hold the results, and
    otherwise an iterator.
    """
    if not _fits_lanes((values,), top << b):
        return map(or_, map(lshift, values, repeat(b)), count())
    out = array("q")
    for start in range(0, len(values), _CHUNK):
        stop = min(start + _CHUNK, len(values))
        out += _unpack(_pack(values[start:stop]) << b | _ids(start, stop), stop - start)
    return out


def _decode_codes(codes, n_vertices: int, size: int):
    """Vertex columns of the size-vertex faces whose codes are given.

    The columns are lists, decoded one at a time as they are taken, so a
    reader that drops each column before taking the next holds only one.
    No codes give no columns, as list(zip(*faces)) does for no faces, so
    the work is bounded by the codes, not by the size.
    """
    if not codes:
        return
    base = n_vertices + 1
    for p in reversed(range(size)):
        # the leading digit needs no mod, the last one no division
        digits = map(floordiv, codes, repeat(base ** p)) if p else iter(codes)
        if p < size - 1:
            digits = map(mod, digits, repeat(base))
        yield list(digits)


def _store_codes(codes, n_vertices: int, size: int):
    """Size-vertex face codes as array('q') if every such code fits in 64
    bits, and as an int list otherwise."""
    # past 64 digits a base of 2 or more already overflows, so the power
    # stays small however large the size is
    if (n_vertices + 1) ** min(size, 64) < 2 ** 63:
        return array("q", codes)
    return list(codes)


def _subset_codes(c: Complex, size: int):
    """One stream of face codes per size-subset of the facet columns.

    Stream by stream, the codes of the size-vertex faces that keep those
    columns, one code per facet in facet order; every size-vertex face of
    the complex is in some stream, possibly in several.
    """
    # combinations allocates `size` indices before it reads the columns, so
    # a complex without facets must stop here, whatever its declared size
    if not c.columns:
        return
    base, m = c.n_vertices + 1, c.facet_count
    for kept in combinations(c.columns, size):
        yield _encode_columns(kept, base) if kept else array("q", bytes(8 * m))


def ridges_of(c: Complex) -> Incidence:
    """All (d-1)-subsets of facets, deduplicated and in lexicographic order.

    Each of the d code streams of _subset_codes drops one facet column, so
    the passes run over whole columns.  One sort of the keys orders rows by
    ridge and, within a row, facet ids ascending; grouping equal codes gives
    the CSR offsets.  A key is code << fb | facet id, fb the bit length of
    the largest facet id, so key order is (code, facet id) order.  Where
    every key fits in 62 bits, lanes build and split the keys; otherwise
    boxed ints do, one key at a time.  len() of the result is the number of
    ridges.  Stages reach the incidence as `Complex.incidence`, which calls
    this once per complex.
    """
    m, n = c.facet_count, c.n_vertices
    size = c.dim_facet - 1
    fb = max(m - 1, 0).bit_length()
    if _fits_lanes(c.columns, (n + 1) ** min(size, 64) << fb):
        return Incidence(n, size, *_lane_incidence(c, size, fb))
    keys = []
    for codes in _subset_codes(c, size):
        keys += map(or_, map(lshift, codes, repeat(fb)), range(m))
    keys.sort()
    row_codes = list(map(rshift, keys, repeat(fb)))
    fids = array("q", map(and_, keys, repeat((1 << fb) - 1)))
    del keys
    new_row = list(map(ne, islice(row_codes, 1, None), row_codes))
    offsets = array("q", [0])
    if row_codes:
        offsets.extend(compress(range(1, len(row_codes)), new_row))
        offsets.append(len(row_codes))
    codes = _store_codes(compress(row_codes, chain((True,), new_row)), n, size)
    return Incidence(n, size, codes, offsets, fids)


def _lane_incidence(c: Complex, size: int, fb: int):
    """ridges_of's codes, offsets and fids, from keys built and split in lanes.

    A chunk of keys is its code lanes shifted by fb and or-ed with its facet
    id lanes, unpacked into one list for the sort.  After the sort, key i
    starts a row where its XOR with key i - 1 is above the facet-id mask;
    the mask keeps the facet ids, and a shift by fb the codes, of which the
    row starts are kept.
    """
    keys = []
    for codes in _subset_codes(c, size):
        keys += _with_ids(codes, fb, (c.n_vertices + 1) ** size)
    keys.sort()
    keys = array("q", keys)
    mask = (1 << fb) - 1
    codes, offsets = array("q"), array("q", [0])
    if not keys:
        return codes, offsets, array("q")
    # fids has one entry per key, so it is allocated once: grown chunk by
    # chunk, its reallocations raised the peak RSS of a staged run
    fids = array("q", bytes(8 * len(keys)))
    # the first key starts the first row
    fids[0] = keys[0] & mask
    codes.append(keys[0] >> fb)
    view = memoryview(keys)
    for start in range(1, len(keys), _CHUNK):
        stop = min(start + _CHUNK, len(keys))
        count = stop - start
        cur, above = _lanes_above(view, start, stop, mask)
        starts = _unpack(above >> 62, count)
        low = cur & _splat(mask, count)
        fids[start:stop] = _unpack(low, count)
        # fromlist takes a list at C speed, where extend steps an iterator
        offsets.fromlist(list(compress(range(start, stop), starts)))
        codes.fromlist(list(compress(_unpack((cur ^ low) >> fb, count), starts)))
    offsets.append(len(keys))
    return codes, offsets, fids


# values per sorted run, and per run in each block of _merged_blocks, where a
# caller sorts a long array in runs: the boxed lists of a sort stay this
# small whatever the input's size
_RUN = 1 << 15
_BLOCK = 1 << 12


def _merged_blocks(runs):
    """The values of ascending runs, all of them in ascending order, as a
    stream of sorted lists.

    Each block takes from every run its values up to the smallest of the
    runs' _BLOCK-th pending values, so it holds at most _BLOCK values per
    run, beyond repeats of its last value, and it finishes a run or moves
    one on by _BLOCK.  A run is any sequence that bisect reads: an
    array('q'), or an int list for values past 64 bits.
    """
    starts = [0] * len(runs)
    while True:
        ends = [run[min(s + _BLOCK, len(run)) - 1] for run, s in zip(runs, starts) if s < len(run)]
        if not ends:
            return
        stop = min(ends)
        block = []
        for j, run in enumerate(runs):
            end = bisect_right(run, stop, starts[j])
            block += run[starts[j]:end]
            starts[j] = end
        block.sort()
        yield block


def _lanes_above(view, start: int, stop: int, mask: int):
    """The lanes of view[start:stop], and the guard bit set in each lane
    whose value differs from the one before it above the mask bits.

    view is a memoryview of ascending values that lanes hold, and start is
    at least 1; a lane's XOR with its predecessor has a bit above the mask
    exactly where XOR + 2**62 - 1 - mask sets the guard bit.
    """
    count = stop - start
    prev, cur = _pack(view[start - 1:stop - 1]), _pack(view[start:stop])
    return cur, ((prev ^ cur) + _splat(_GUARD - 1 - mask, count)) & _splat(_GUARD, count)


def _repeats(entries, mask: int):
    """The positions i >= 1 of ascending nonnegative entries where entry i
    agrees with entry i - 1 above the mask bits.  Where lanes hold the
    entries, a chunk without such a position costs a few big-int
    operations."""
    if not _fits_lanes((entries,), entries[-1] + 1 if len(entries) else 0):
        return compress(count(1), map(le, map(xor, islice(entries, 1, None), entries), repeat(mask)))
    repeats = []
    view = memoryview(entries)
    for start in range(1, len(entries), _CHUNK):
        stop = min(start + _CHUNK, len(entries))
        _, above = _lanes_above(view, start, stop, mask)
        # a guard bit left clear marks a repeat
        same = (above ^ _splat(_GUARD, stop - start)) >> 62
        if same:
            repeats += compress(range(start, stop), _unpack(same, stop - start))
    return repeats


def face_columns(c: Complex, k: int) -> list:
    """The codim-k faces, deduplicated and in lexicographic order, as vertex
    columns: columns[j][i] is vertex j of face i.

    Codimension 1 decodes the cached incidence, so ridges are enumerated
    once per complex; any other codimension decodes the distinct codes of
    _subset_codes.  Raises ValueError unless 0 <= k < dim_facet.
    """
    if not 0 <= k < c.dim_facet:
        raise ValueError(f"codimension {k} out of range for facet size {c.dim_facet}")
    if k == 1:
        return list(c.incidence.columns())
    size = c.dim_facet - k
    codes = sorted(set(chain.from_iterable(_subset_codes(c, size))))
    return list(_decode_codes(codes, c.n_vertices, size))


def dual_graph(c: Complex) -> tuple[tuple[int, ...], ...]:
    """Facet adjacency rows: rows[u] is the ascending tuple of the facets
    that share a full ridge with facet u, one row per facet.

    The rows are symmetric and loop-free, each edge in both of its rows
    once.  Each pair of facets in one incidence row is appended to both
    rows, and each row is sorted once.  The facet ids of a row are
    distinct, so no row holds its own node; two distinct facets share at
    most one ridge, and Complex keeps its facets distinct, so no pair is
    appended twice.  Every row holding a node holds the same int object,
    so a row costs a pointer per neighbour.
    """
    inc = c.incidence
    fids, widths = inc.fids, inc.widths()
    # one int object per node, which every row holding it shares
    node = list(range(c.facet_count))
    nbrs = [[] for _ in node]
    for w in set(widths) - {1}:
        # the first entry of every row of width w, then each pair of columns
        starts = array("q", compress(inc.offsets, map(eq, widths, repeat(w))))
        for a, b in combinations(range(w), 2):
            us = map(node.__getitem__, map(fids.__getitem__, map(add, starts, repeat(a))))
            vs = map(node.__getitem__, map(fids.__getitem__, map(add, starts, repeat(b))))
            for u, v in zip(us, vs):
                nbrs[u].append(v)
                nbrs[v].append(u)
    del node
    # each row becomes its tuple as it is sorted, so the lists and the
    # tuples are never all alive at once
    for u, row in enumerate(nbrs):
        row.sort()
        nbrs[u] = tuple(row)
    return tuple(nbrs)


def is_pseudomanifold(c: Complex) -> bool:
    """True iff every ridge lies in exactly two facets."""
    widths = c.incidence.widths()
    return widths.count(2) == len(widths)


def is_strongly_connected(c: Complex) -> bool:
    """True iff the dual graph is connected (vacuously true below 2 facets)."""
    rows = dual_graph(c)
    if len(rows) <= 1:
        return True
    return min(_bfs(rows, 0)[0]) >= 0


def _bfs(adj, src):
    """BFS distances from src (-1 where unreached) and the reached nodes in
    visit order, which is order of distance."""
    dist = [-1] * len(adj)
    dist[src] = 0
    order = [src]
    # the loop walks the list it appends to, reaching each node once
    for u in order:
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                order.append(v)
    return dist, order


def _require_connected(adj, src=0):
    """BFS distances from src; DisconnectedGraph on a graph without nodes or
    with a node src does not reach."""
    if not adj:
        raise DisconnectedGraph("graph has no nodes")
    dist, _ = _bfs(adj, src)
    if min(dist) < 0:
        raise DisconnectedGraph("graph is not connected")
    return dist


def _argmax(values):
    # smallest index on ties, for reproducibility
    return values.index(max(values))


def diameter_exact(adj) -> int:
    """Exact diameter of a connected graph given by its adjacency rows: two
    BFS sweeps on a tree, and fringe-pruned BFS (iFUB) on any other graph.

    The rows must be symmetric and loop-free, each edge once in both of its
    rows, as dual_graph gives them; then rows holding 2(len(adj) - 1)
    entries in all make a connected graph a tree.  On a tree the node
    farthest from any node ends a longest path, so the eccentricity of the
    first sweep's far end is the diameter (Bulterman et al., "On computing
    a longest path in a tree", IPL 2002): the connectivity pass and that
    sweep are the only passes.

    Otherwise iFUB roots a BFS at the midpoint of a double-sweep path and
    processes its fringe sets in decreasing depth; any pair realizing a
    distance above 2(i-1) has an endpoint at depth >= i, so the scan stops
    once the certified lower bound reaches that threshold (Crescenzi et
    al., "On computing the diameter of real-world undirected graphs", TCS
    2013).  Long thin graphs such as the duals of corridor boundaries need
    only a few BFS passes.  Each pass keeps distances and visit order only:
    the midpoint is reached by walking back from the far end through nodes
    one step closer to the sweep's root, and each fringe is a run of the
    midpoint pass's visit order.  The second sweep's root and the midpoint
    keep the eccentricities their own passes measured, so a fringe holding
    them costs no second pass.
    Raises DisconnectedGraph.
    """
    a = _argmax(_require_connected(adj))
    dist_a, _ = _bfs(adj, a)
    if sum(map(len, adj)) == 2 * (len(adj) - 1):
        return max(dist_a)
    b = _argmax(dist_a)
    mid = b
    for _ in range(dist_a[b] // 2):
        closer = dist_a[mid] - 1
        for v in adj[mid]:
            if dist_a[v] == closer:
                mid = v
                break
    dist_mid, order = _bfs(adj, mid)
    ecc_mid = dist_mid[order[-1]]
    known = {a: dist_a[b], mid: ecc_mid}
    lower = max(dist_a[b], ecc_mid)
    i = ecc_mid
    end = len(order)
    # 2i bounds the diameter once every node deeper than i is scanned
    while 2 * i > lower:
        # the fringe at depth i ends where the deeper one began; the root
        # at depth 0 < i stops the walk
        start = end
        while dist_mid[order[start - 1]] == i:
            start -= 1
        best = lower
        for v in order[start:end]:
            ecc = known[v] if v in known else max(_bfs(adj, v)[0])
            if ecc > best:
                best = ecc
        if best > 2 * (i - 1):
            return best
        lower = best
        i -= 1
        end = start
    return lower


def pair_distance(adj, u: int, v: int) -> int:
    """BFS distance between two nodes of a connected graph's adjacency rows.

    Raises DisconnectedGraph on a graph without nodes, as diameter_exact
    does, and ValueError on a node out of range.
    """
    if adj and not (0 <= u < len(adj) and 0 <= v < len(adj)):
        raise ValueError(f"nodes {u}, {v} out of range 0..{len(adj) - 1}")
    return _require_connected(adj, u)[v]


def double_sweep_lower_bound(adj) -> int:
    """Certified diameter lower bound: eccentricity of a farthest-from-0 node."""
    a = _argmax(_require_connected(adj))
    return max(_bfs(adj, a)[0])


# ---------------------------------------------------------------------------
# text format: line 1 "dim <d> vertices <n>", then one facet per line as d
# vertex ids.  Blank lines are skipped, and so are comments, which are whole
# lines whose first token starts with "#"; a "#" after a vertex is a bad
# token.  A file is read in one bulk pass; the line scan runs only to name
# the first bad line.  Writer output round-trips bit-exactly.


def complex_to_text(c: Complex) -> str:
    """One %-format over the interleaved columns, one facet per line."""
    head = f"dim {c.dim_facet} vertices {c.n_vertices}\n"
    if not c.columns:
        return head
    row = " ".join(["%d"] * c.dim_facet) + "\n"
    return head + (row * c.facet_count) % tuple(chain.from_iterable(zip(*c.columns)))


def _content_lines(text: str) -> list[str]:
    """The lines of text that hold a token, less comments: lines whose first
    token starts with "#"."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    return list(filter(str.strip, lines))


def _header_ints(lines: list[str], tags: tuple[str, ...]) -> tuple[int, ...]:
    """The integers of a header line "tag1 int1 tag2 int2 ..." on lines[0];
    IndexError or ValueError, naming no line, if there is none or it differs."""
    parts = lines[0].split()
    if len(parts) != 2 * len(tags) or parts[::2] != list(tags):
        raise ValueError("bad header line")
    return tuple(map(int, parts[1::2]))


def _body_ints(lines: list[str], width: int) -> list[int]:
    """Every token after the header line, as one flat list of ints.

    C-level maps split each line twice, once to count its tokens and once to
    convert them, so no line's token list outlives its turn.  ValueError,
    naming no line, unless each line holds `width` integers.
    """
    body = lines[1:]
    if any(map(ne, map(len, map(str.split, body)), repeat(width))):
        raise ValueError("a line holds the wrong number of tokens")
    return list(map(int, chain.from_iterable(map(str.split, body))))


def _scanned_fields(text: str, tags: tuple[str, ...]):
    """The line scan of the error paths: the integer fields of each content
    line, the header's first, with line number and stripped text.

    It raises at the first line that is not integers, or whose header is
    not `tags` each followed by one, and at the end if there is no header.
    """
    header = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header:
            if len(parts) != 2 * len(tags) or parts[::2] != list(tags):
                raise ValueError(f"line {lineno}: bad header line: {line!r}")
            parts, header = parts[1::2], False
        try:
            fields = tuple(map(int, parts))
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {line!r}") from None
        yield lineno, line, fields
    if header:
        raise ValueError("missing header line")


def _reject_complex_text(text: str):
    """Raise the error of a text the bulk pass refused: the first bad line's,
    or else the tuple entry point's for the first bad facet."""
    rows = _scanned_fields(text, ("dim", "vertices"))
    d, n = next(rows)[2]
    # every line is integers, so some facet has the wrong size or a vertex
    # that array('q') cannot hold, and the tuple entry point raises
    Complex(d, n, tuple(fields for _, _, fields in rows))
    raise AssertionError("the line scan passed a text the bulk pass refused")


def complex_from_text(text: str) -> Complex:
    """Parse the text format into vertex columns in one bulk pass.

    The facet lines' vertices are read into one flat array('q'), and column
    j is every d-th vertex from the j-th.  Any other input goes to the line
    scan, which raises the error of the first bad line or facet.
    """
    lines = _content_lines(text)
    try:
        d, n = _header_ints(lines, ("dim", "vertices"))
        flat = array("q", _body_ints(lines, d))
    except (IndexError, ValueError, OverflowError):
        _reject_complex_text(text)
    return Complex._from_columns(d, n, [flat[j::d] for j in range(d)] if flat else [])


def write_complex(c: Complex, path) -> None:
    Path(path).write_text(complex_to_text(c), encoding="utf-8")


def read_complex(path) -> Complex:
    return complex_from_text(Path(path).read_text(encoding="utf-8"))
