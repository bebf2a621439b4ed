"""Pure simplicial complexes and the derived objects distance arguments use.

A complex is stored as its facet list only; ridges and lower faces are the
implied subsets.  Vertices are 1-based integers and facets are sorted tuples,
so every derived object (ridge lists, dual graphs) has a canonical form and
equality is structural.

Each complex enumerates its ridges once: `Complex.incidence` runs
`ridges_of` on first use and keeps the result as an immutable `Incidence`,
the ridge-by-facet GF(2) boundary matrix in compressed sparse row (CSR)
form.  It holds flat integers only, no container per ridge.  A sorted face
(v1 < ... < vs) on vertices 1..n is packed into the code
sum_j vj (n+1)^(s-j), the base-(n+1) number whose digits are its vertices.
For faces of one size, numeric order of codes is lexicographic order of the
tuples, so sorting codes orders ridges exactly as sorting tuples would, and
every order built on the ridge order is unchanged.  Dual graphs, the
pseudomanifold test and the coloring and quotient stages all read that one
index.  An index is only ever built from its own complex's facets; a
quotient gets its own on first use, never one derived from its source, so
comparing the two stays a real check.

Faces of every codimension come from one packed-code enumeration,
`_subset_codes`, which encodes each subset of the facet columns of the
face size in one pass over whole columns.  `ridges_of` groups its streams
into the incidence, and `face_columns` decodes the distinct codes of any
other codimension.

A dual graph is stored as its edge list; its adjacency tuples are built
from the list on first use.  Exact diameters come from one algorithm, the
fringe-pruned BFS search in `diameter_exact`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress, islice, repeat
from operator import add, eq, floordiv, lt, mod, mul, ne, sub
from pathlib import Path

from .errors import DisconnectedGraph

Facet = tuple[int, ...]
Ridge = tuple[int, ...]


@dataclass(frozen=True)
class Complex:
    """Pure (dim_facet - 1)-dimensional complex on vertices 1..n_vertices.

    Facets are strictly increasing dim_facet-tuples, stored in a fixed order;
    all other faces are implied subsets, which keeps purity automatic.
    """

    dim_facet: int
    n_vertices: int
    facets: tuple[Facet, ...]

    def __post_init__(self):
        d, n = self.dim_facet, self.n_vertices
        if d < 1:
            raise ValueError(f"facet size must be at least 1, got {d}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        # whole columns at C level first; only a failure pays for the
        # per-facet scan, which names the first offending facet
        facets = self.facets
        try:
            valid = all(map(isinstance, facets, repeat(tuple))) and all(
                map(eq, map(len, facets), repeat(d))
            )
            if valid and facets:
                columns = list(zip(*facets))
                valid = (
                    min(columns[0]) >= 1
                    and max(columns[-1]) <= n
                    and all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:]))
                    and len(set(facets)) == len(facets)
                )
        except TypeError:
            valid = False
        if not valid:
            self._reject_first_bad_facet()

    def _reject_first_bad_facet(self):
        d, n = self.dim_facet, self.n_vertices
        seen = set()
        for F in self.facets:
            if not isinstance(F, tuple) or len(F) != d:
                raise ValueError(f"facet {F!r} does not have {d} vertices")
            if F[0] < 1 or F[-1] > n:
                raise ValueError(f"facet {F} leaves the vertex range 1..{n}")
            if any(F[i] >= F[i + 1] for i in range(d - 1)):
                raise ValueError(f"facet {F} is not strictly increasing")
            if F in seen:
                raise ValueError(f"duplicate facet {F}")
            seen.add(F)

    @classmethod
    def from_facets(cls, facets, n_vertices=None):
        """Build a complex from any iterable of vertex collections."""
        norm = tuple(tuple(sorted(F)) for F in facets)
        if not norm:
            raise ValueError("from_facets needs at least one facet")
        if n_vertices is None:
            n_vertices = max(F[-1] for F in norm)
        return cls(len(norm[0]), n_vertices, norm)

    @cached_property
    def incidence(self) -> Incidence:
        """Ridge-facet incidence, enumerated by ridges_of on first use."""
        return ridges_of(self)


@dataclass(frozen=True)
class Incidence:
    """Ridges of one complex in lexicographic order, with their facets, in CSR.

    codes[i] is the packed code of ridge i (see the module docstring): base
    n_vertices + 1, `size` digits, ascending.  Its facets, as ascending
    indices into Complex.facets, are fids[offsets[i]:offsets[i + 1]].
    offsets and fids are array('q'); codes is too when every code fits in 64
    bits, and a plain int list otherwise.  Nothing per ridge is a container,
    so the index costs a few machine words per entry and the garbage
    collector never walks it.  `ridges` and `ridge(i)` decode vertex tuples
    on demand, for witnesses and tests.
    """

    n_vertices: int
    size: int
    codes: array | list
    offsets: array
    fids: array

    def __len__(self):
        return len(self.codes)

    def columns(self) -> list:
        """Decoded vertex columns: columns[j][i] is vertex j of ridge i."""
        return _decode_codes(self.codes, self.n_vertices, self.size)

    @property
    def ridges(self) -> list[Ridge]:
        """Every ridge as a sorted vertex tuple, decoded afresh on each access."""
        if not self.size:
            return [()] * len(self)
        return list(zip(*self.columns()))

    def ridge(self, i: int) -> Ridge:
        """Ridge i as a sorted vertex tuple."""
        code, base = self.codes[i], self.n_vertices + 1
        return tuple(code // base ** p % base for p in reversed(range(self.size)))

    def widths(self) -> list[int]:
        """Number of facets containing each ridge, in ridge order."""
        offsets = self.offsets
        return list(map(sub, islice(offsets, 1, None), offsets))


@dataclass(frozen=True)
class DualGraph:
    """Facet-adjacency graph: nodes are facet indices, edges shared ridges.

    Stored as its edge list: edge k joins tails[k] < heads[k], each edge
    once, in array('q').  The construction checks the list at C level:
    equal lengths, nodes in 0..n_nodes-1, tails below heads (so no loop)
    and no repeated edge.  `adjacency` is built on first use from the list,
    so it is symmetric and loop-free by construction.
    """

    n_nodes: int
    tails: array
    heads: array

    def __post_init__(self):
        n, tails, heads = self.n_nodes, self.tails, self.heads
        if len(tails) != len(heads):
            raise ValueError(f"{len(tails)} tails but {len(heads)} heads")
        if tails and (min(min(tails), min(heads)) < 0 or max(max(tails), max(heads)) >= n):
            raise ValueError(f"an edge leaves the node range 0..{n - 1}")
        if not all(map(lt, tails, heads)):
            raise ValueError("an edge has its tail at or above its head")
        if len(set(map(add, map(mul, tails, repeat(n)), heads))) < len(tails):
            raise ValueError("an edge repeats")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuple of every node, built on first use."""
        nbrs = [[] for _ in range(self.n_nodes)]
        for u, v in zip(self.tails, self.heads):
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, map(sorted, nbrs)))

    @property
    def edge_count(self):
        return len(self.tails)

    def degrees(self):
        return [len(nbrs) for nbrs in self.adjacency]


def _encode_columns(columns, base: int):
    """Code of each row of nonempty digit columns, as an iterator.

    Row i is the face (columns[0][i], columns[1][i], ...), and its code is
    that face read as a base-`base` number, by Horner's rule over whole
    columns.  Vertex faces on 1..n use base n + 1.
    """
    first, *rest = columns
    codes = iter(first)
    for column in rest:
        codes = map(add, map(mul, codes, repeat(base)), column)
    return codes


def _decode_codes(codes, n_vertices: int, size: int) -> list[list[int]]:
    """Vertex columns of the size-vertex faces whose codes are given.

    No codes give no columns, as list(zip(*faces)) does for no faces, so
    the work is bounded by the codes, not by the size.
    """
    if not codes:
        return []
    base = n_vertices + 1
    columns = []
    for p in reversed(range(size)):
        # the leading digit needs no mod, the last one no division
        digits = map(floordiv, codes, repeat(base ** p)) if p else iter(codes)
        if p < size - 1:
            digits = map(mod, digits, repeat(base))
        columns.append(list(digits))
    return columns


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
    if not c.facets:
        return
    base, m = c.n_vertices + 1, len(c.facets)
    for kept in combinations(zip(*c.facets), size):
        yield _encode_columns(kept, base) if kept else repeat(0, m)


def ridges_of(c: Complex) -> Incidence:
    """All (d-1)-subsets of facets, deduplicated and in lexicographic order.

    Each of the d code streams of _subset_codes drops one facet column, so
    the passes run over whole columns at C level.  One sort of the keys
    code * m + facet id (m facets) orders rows by ridge and, within a row,
    facet ids ascending; grouping equal codes gives the CSR offsets.
    len() of the result is the number of ridges.
    """
    m, n = len(c.facets), c.n_vertices
    size = c.dim_facet - 1
    keys = []
    for codes in _subset_codes(c, size):
        keys += map(add, map(mul, codes, repeat(m)), range(m))
    keys.sort()
    row_codes = list(map(floordiv, keys, repeat(m)))
    fids = array("q", map(mod, keys, repeat(m)))
    del keys
    new_row = list(map(ne, islice(row_codes, 1, None), row_codes))
    offsets = array("q", [0])
    if row_codes:
        offsets.extend(compress(range(1, len(row_codes)), new_row))
        offsets.append(len(row_codes))
    codes = _store_codes(compress(row_codes, chain((True,), new_row)), n, size)
    return Incidence(n, size, codes, offsets, fids)


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
        return c.incidence.columns()
    size = c.dim_facet - k
    codes = sorted(set(chain.from_iterable(_subset_codes(c, size))))
    return _decode_codes(codes, c.n_vertices, size)


def dual_graph(c: Complex) -> DualGraph:
    """Facets become adjacent exactly when they share a full ridge."""
    inc = c.incidence
    fids, widths = inc.fids, inc.widths()
    # facet ids ascend within a row, so each pair of columns gives tails
    # below heads; two distinct facets share at most one ridge, so no edge
    # repeats
    tails, heads = array("q"), array("q")
    for w in set(widths) - {1}:
        # the first entry of every row of width w, then each pair of columns
        starts = list(compress(inc.offsets, map(eq, widths, repeat(w))))
        for a, b in combinations(range(w), 2):
            tails.extend(map(fids.__getitem__, map(add, starts, repeat(a))))
            heads.extend(map(fids.__getitem__, map(add, starts, repeat(b))))
    return DualGraph(len(c.facets), tails, heads)


def is_pseudomanifold(c: Complex) -> bool:
    """True iff every ridge lies in exactly two facets."""
    widths = c.incidence.widths()
    return widths.count(2) == len(widths)


def is_strongly_connected(c: Complex) -> bool:
    """True iff the dual graph is connected (vacuously true below 2 facets)."""
    g = dual_graph(c)
    if g.n_nodes <= 1:
        return True
    return min(_bfs(g.adjacency, 0)[0]) >= 0


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


def _require_connected(g: DualGraph):
    if g.n_nodes == 0:
        raise DisconnectedGraph("graph has no nodes")
    dist, _ = _bfs(g.adjacency, 0)
    if min(dist) < 0:
        raise DisconnectedGraph("graph is not connected")
    return dist


def _argmax(values):
    # smallest index on ties, for reproducibility
    return values.index(max(values))


def diameter_exact(g: DualGraph) -> int:
    """Exact diameter of a connected graph, by fringe-pruned BFS (iFUB).

    Roots a BFS at the midpoint of a double-sweep path and processes its
    fringe sets in decreasing depth; any pair realizing a distance above
    2(i-1) has an endpoint at depth >= i, so the scan stops once the
    certified lower bound reaches that threshold (Crescenzi et al., "On
    computing the diameter of real-world undirected graphs", TCS 2013).
    Long thin graphs such as corridor duals need only a few BFS passes.
    Each pass keeps distances and visit order only: the midpoint is reached
    by walking back from the far end through nodes one step closer to the
    sweep's root, and each fringe is a run of the midpoint pass's visit
    order.  The second sweep's root and the midpoint keep the eccentricities
    their own passes measured, so a fringe holding them (on a path of odd
    length, the deepest fringe is that root alone) costs no second pass.
    Raises DisconnectedGraph.
    """
    adj = g.adjacency
    a = _argmax(_require_connected(g))
    dist_a, _ = _bfs(adj, a)
    b = _argmax(dist_a)
    mid = b
    for _ in range(dist_a[b] // 2):
        closer = dist_a[mid] - 1
        mid = next(v for v in adj[mid] if dist_a[v] == closer)
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


def pair_distance(g: DualGraph, u: int, v: int) -> int:
    """BFS distance between two nodes of a connected graph."""
    if not (0 <= u < g.n_nodes and 0 <= v < g.n_nodes):
        raise ValueError(f"nodes {u}, {v} out of range 0..{g.n_nodes - 1}")
    dist, _ = _bfs(g.adjacency, u)
    if min(dist) < 0:
        raise DisconnectedGraph("graph is not connected")
    return dist[v]


def double_sweep_lower_bound(g: DualGraph) -> int:
    """Certified diameter lower bound: eccentricity of a farthest-from-0 node."""
    a = _argmax(_require_connected(g))
    return max(_bfs(g.adjacency, a)[0])


# ---------------------------------------------------------------------------
# text format: line 1 "dim <d> vertices <n>", then one facet per line,
# "#" starts a comment line; writer output round-trips bit-exactly


def complex_to_text(c: Complex) -> str:
    lines = [f"dim {c.dim_facet} vertices {c.n_vertices}"]
    lines.extend(" ".join(map(str, F)) for F in c.facets)
    return "\n".join(lines) + "\n"


def _int_fields(tokens, lineno: int, line: str) -> tuple[int, ...]:
    """Tokens of a text-format line as integers; a bad one names the line."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ValueError(f"line {lineno}: expected integers, got {line!r}") from None


def complex_from_text(text: str) -> Complex:
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
            header = _int_fields(parts[1::2], lineno, line)
            continue
        facets.append(_int_fields(line.split(), lineno, line))
    if header is None:
        raise ValueError("missing header line")
    return Complex(header[0], header[1], tuple(facets))


def write_complex(c: Complex, path) -> None:
    Path(path).write_text(complex_to_text(c), encoding="utf-8")


def read_complex(path) -> Complex:
    return complex_from_text(Path(path).read_text(encoding="utf-8"))
