"""Deterministic seed complexes: straight corridors and their boundary spheres.

The corridor on N vertices strings the windows {i, ..., i+d-1} into a path of
facets; its boundary (one dimension up) is the stacked-sphere pseudomanifold
whose dual graph stays long and thin, with diameter at least the closed
form of diameter_lower_bound_boundary.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import chain, cycle, repeat
from operator import add

from .complex_core import Complex, Facet
from .errors import InvalidSpec, UnknownFacet


class CorridorSpec:
    """Vertex count and facet size of a straight corridor."""

    __slots__ = ("n_vertices", "dim_facet")

    def __init__(self, n_vertices: int, dim_facet: int):
        if dim_facet < 2:
            raise InvalidSpec(f"facet size must be at least 2, got {dim_facet}")
        if n_vertices < dim_facet:
            raise InvalidSpec(f"need at least {dim_facet} vertices, got {n_vertices}")
        self.n_vertices, self.dim_facet = n_vertices, dim_facet


def straight_corridor(spec: CorridorSpec) -> Complex:
    """Corridor with facets {i, ..., i+d-1}; its dual graph is a path."""
    n, d = spec.n_vertices, spec.dim_facet
    # column j of the windows is the run 1+j..n-d+1+j
    columns = [array("q", range(1 + j, n - d + 2 + j)) for j in range(d)]
    return Complex._from_columns(d, n, columns)


class BoundaryFacetLabel:
    """Position of a boundary-corridor facet: the two ends or middle (i, j).

    middle(i, j) names the facet {i, ..., i+d} minus {i+j}; alpha and omega
    are the runs {1..d} and {N-d+1..N}.  Labels compare equal when their
    kind and indices do.
    """

    __slots__ = ("kind", "i", "j")

    def __init__(self, kind: str, i: int | None = None, j: int | None = None):
        if kind not in ("alpha", "omega", "middle"):
            raise ValueError(f"unknown label kind {kind!r}")
        if kind == "middle":
            if i is None or j is None:
                raise ValueError("middle labels need both indices")
        elif i is not None or j is not None:
            raise ValueError(f"{kind} labels carry no indices")
        self.kind, self.i, self.j = kind, i, j

    def __eq__(self, other):
        if type(other) is not BoundaryFacetLabel:
            return NotImplemented
        return (self.kind, self.i, self.j) == (other.kind, other.i, other.j)

    def __str__(self):
        if self.kind == "middle":
            return f"middle {self.i} {self.j}"
        return self.kind


ALPHA = BoundaryFacetLabel("alpha")
OMEGA = BoundaryFacetLabel("omega")


def boundary_corridor(n_vertices: int, dim_facet: int) -> Complex:
    """Boundary of the corridor one dimension up, by direct enumeration.

    Facets are alpha = {1..d}, omega = {N-d+1..N}, and the gapped windows
    middle(i, j) for i in 1..N-d, j in 1..d-1; the result is a pseudomanifold
    with (N-d)(d-1) + 2 facets.  Requires N >= d+2 so middle facets exist.

    In lexicographic order alpha comes first and omega last, and the middle
    facets run by i, and for one i by j descending: a larger j keeps i+1
    longer.  Vertex k of middle(i, j) is i + k, plus one once k reaches j,
    so column k repeats a block of d-1 offsets from i over the runs of i.
    """
    n, d = n_vertices, dim_facet
    if d < 2:
        raise InvalidSpec(f"facet size must be at least 2, got {d}")
    if n < d + 2:
        raise InvalidSpec(f"need at least {d + 2} vertices, got {n}")
    starts = array("q", chain.from_iterable(map(repeat, range(1, n - d + 1), repeat(d - 1))))
    columns = []
    for k in range(d):
        offsets = [k + (k >= j) for j in range(d - 1, 0, -1)]
        middle = map(add, starts, cycle(offsets))
        columns.append(array("q", chain((1 + k,), middle, (n - d + 1 + k,))))
    return Complex._from_columns(d, n, columns)


def facet_labels(c: Complex) -> list[BoundaryFacetLabel]:
    """Labels for every facet, in the complex's facet order."""
    d = c.dim_facet
    alpha, omega = _ends(c.n_vertices, d)
    return [_classify(F, d, alpha, omega) for F in c.facets]


def _ends(n: int, d: int) -> tuple[Facet, Facet]:
    """The facets alpha = (1..d) and omega = (n-d+1..n)."""
    return tuple(range(1, d + 1)), tuple(range(n - d + 1, n + 1))


def _classify(F: Facet, d: int, alpha: Facet, omega: Facet) -> BoundaryFacetLabel:
    if F == alpha:
        return ALPHA
    if F == omega:
        return OMEGA
    i = F[0]
    if F[-1] != i + d:
        raise UnknownFacet(f"{F} is not a boundary-corridor facet")
    # a facet is strictly increasing, so d vertices spanning i..i+d miss
    # exactly one, i + j with 0 < j < d: the sum of i..i+d less theirs
    return BoundaryFacetLabel("middle", i, d * i + d * (d + 1) // 2 - sum(F))


def diameter_lower_bound_boundary(n_vertices: int, dim_facet: int) -> Fraction:
    """Lower bound (d-1)N/d - d on the boundary corridor's diameter."""
    return Fraction((dim_facet - 1) * n_vertices, dim_facet) - dim_facet
