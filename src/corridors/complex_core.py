"""Pure simplicial complexes and the derived objects distance arguments use.

A complex is stored as its facet list only; ridges and lower faces are the
implied subsets.  Vertices are 1-based integers and facets are sorted tuples,
so every derived object (ridge lists, dual graphs) has a canonical form and
equality is structural.

Each complex enumerates its ridges once: `Complex.incidence` runs
`ridges_of` on first use and keeps the result as an immutable `Incidence`
(sorted ridges and, in parallel, the ascending ids of the facets containing
each), which is the ridge-by-facet GF(2) boundary matrix in sparse form.
Dual graphs, the pseudomanifold test and the coloring and quotient stages
all read that one index.  An index is only ever built from its own complex's
facets; a quotient gets its own on first use, never one derived from its
source, so comparing the two stays a real check.

Exact diameters come from one algorithm, the fringe-pruned BFS search in
`diameter_exact`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
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

    @property
    def facet_count(self):
        return len(self.facets)

    @cached_property
    def incidence(self) -> Incidence:
        """Ridge-facet incidence, enumerated by ridges_of on first use."""
        pairs = ridges_of(self)
        return Incidence(
            tuple(r for r, _ in pairs), tuple(tuple(fids) for _, fids in pairs)
        )


@dataclass(frozen=True)
class Incidence:
    """Ridges of one complex in lexicographic order, with their facets.

    facets_of[i] lists, ascending, the indices into Complex.facets of the
    facets containing ridges[i].  Two parallel tuples rather than pairs keep
    the index small, since it lives as long as its complex.
    """

    ridges: tuple[Ridge, ...]
    facets_of: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DualGraph:
    """Facet-adjacency graph: nodes are facet indices, edges shared ridges."""

    n_nodes: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adjacency) != self.n_nodes:
            raise ValueError("adjacency length differs from node count")
        for u, nbrs in enumerate(self.adjacency):
            if any(nbrs[i] >= nbrs[i + 1] for i in range(len(nbrs) - 1)):
                raise ValueError(f"neighbors of {u} are not sorted strictly")
            for v in nbrs:
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                if not 0 <= v < self.n_nodes:
                    raise ValueError(f"neighbor {v} out of range at node {u}")
        # neighbor tuples are sorted, so a binary search finds each back edge
        adj = self.adjacency
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                back = adj[v]
                i = bisect_left(back, u)
                if i == len(back) or back[i] != u:
                    raise ValueError(f"edge {u}->{v} is not symmetric")

    @classmethod
    def from_edges(cls, n_nodes, edges):
        nbrs = [set() for _ in range(n_nodes)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n_nodes, tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def edge_count(self):
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degrees(self):
        return [len(nbrs) for nbrs in self.adjacency]


def ridges_of(c: Complex):
    """All (d-1)-subsets of facets, deduplicated and in lexicographic order.

    Returns a list of (ridge, containing_facet_indices) pairs; facet indices
    refer to positions in c.facets and come out ascending.
    """
    by_ridge: dict[Ridge, list[int]] = {}
    for fi, F in enumerate(c.facets):
        for r in itertools.combinations(F, len(F) - 1):
            by_ridge.setdefault(r, []).append(fi)
    return sorted(by_ridge.items())


def dual_graph(c: Complex) -> DualGraph:
    """Facets become adjacent exactly when they share a full ridge."""
    # two distinct facets share at most one ridge, so no edge repeats
    nbrs = [[] for _ in c.facets]
    for fids in c.incidence.facets_of:
        if len(fids) > 1:
            for a, b in itertools.combinations(fids, 2):
                nbrs[a].append(b)
                nbrs[b].append(a)
    return DualGraph(len(c.facets), tuple(tuple(sorted(s)) for s in nbrs))


def is_pseudomanifold(c: Complex) -> bool:
    """True iff every ridge lies in exactly two facets."""
    return all(len(fids) == 2 for fids in c.incidence.facets_of)


def is_strongly_connected(c: Complex) -> bool:
    """True iff the dual graph is connected (vacuously true below 2 facets)."""
    g = dual_graph(c)
    if g.n_nodes <= 1:
        return True
    return min(_bfs(g.adjacency, 0)[0]) >= 0


def _bfs(adj, src):
    """BFS distances from src (-1 where unreached) and BFS-tree parents."""
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                parent[v] = u
                queue.append(v)
    return dist, parent


def _require_connected(g: DualGraph):
    if g.n_nodes == 0:
        raise DisconnectedGraph("graph has no nodes")
    dist, _ = _bfs(g.adjacency, 0)
    if min(dist) < 0:
        raise DisconnectedGraph("graph is not connected")
    return dist


def _argmax(values):
    # smallest index on ties, for reproducibility
    return max(range(len(values)), key=values.__getitem__)


def diameter_exact(g: DualGraph) -> int:
    """Exact diameter of a connected graph, by fringe-pruned BFS (iFUB).

    Roots a BFS at the midpoint of a double-sweep path and processes its
    fringe sets in decreasing depth; any pair realizing a distance above
    2(i-1) has an endpoint at depth >= i, so the scan stops once the
    certified lower bound reaches that threshold (Crescenzi et al., "On
    computing the diameter of real-world undirected graphs", TCS 2013).
    Long thin graphs such as corridor duals need only a few BFS passes.
    Raises DisconnectedGraph.
    """
    adj = g.adjacency
    a = _argmax(_require_connected(g))
    dist_a, parent = _bfs(adj, a)
    b = _argmax(dist_a)
    mid = b
    for _ in range(dist_a[b] // 2):
        mid = parent[mid]
    dist_mid, _ = _bfs(adj, mid)
    ecc_mid = max(dist_mid)
    levels = [[] for _ in range(ecc_mid + 1)]
    for v, dv in enumerate(dist_mid):
        levels[dv].append(v)
    lower = max(dist_a[b], ecc_mid)
    i = ecc_mid
    # 2i bounds the diameter once every node deeper than i is scanned
    while 2 * i > lower:
        best = lower
        for v in levels[i]:
            ecc = max(_bfs(adj, v)[0])
            if ecc > best:
                best = ecc
        if best > 2 * (i - 1):
            return best
        lower = best
        i -= 1
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


def complex_from_text(text: str) -> Complex:
    header = None
    facets = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "dim" or parts[2] != "vertices":
                raise ValueError(f"bad header line: {line!r}")
            header = (int(parts[1]), int(parts[3]))
            continue
        facets.append(tuple(int(tok) for tok in line.split()))
    if header is None:
        raise ValueError("missing header line")
    return Complex(header[0], header[1], tuple(facets))


def write_complex(c: Complex, path) -> None:
    Path(path).write_text(complex_to_text(c), encoding="utf-8")


def read_complex(path) -> Complex:
    return complex_from_text(Path(path).read_text(encoding="utf-8"))
