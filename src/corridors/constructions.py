"""Deterministic seed complexes: straight corridors and their boundary spheres.

The corridor on N vertices strings the windows {i, ..., i+d-1} into a path of
facets; its boundary (one dimension up) is the stacked-sphere pseudomanifold
whose dual graph stays long and thin, with diameter at least the closed
form of diameter_lower_bound_boundary.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import chain, cycle, repeat
from operator import add

from .complex_core import Complex
from .errors import InvalidSpec


def _require_spec(n: int, d: int, fewest: int) -> None:
    """InvalidSpec unless the facet size d is at least 2 and the vertex
    count n at least fewest: d for a corridor, d + 2 for its boundary, so
    that middle facets exist.  n must also be below 2**63, the bound on
    every Complex vertex: past it, an array('q') column would exhaust memory
    before a vertex overflowed."""
    if d < 2:
        raise InvalidSpec(f"facet size must be at least 2, got {d}")
    if n < fewest:
        raise InvalidSpec(f"need at least {fewest} vertices, got {n}")
    if n > sys.maxsize:
        raise InvalidSpec(f"vertex count must be below 2**63, got {n}")


class CorridorSpec:
    """Vertex count and facet size of a straight corridor."""

    __slots__ = ("n_vertices", "dim_facet")

    def __init__(self, n_vertices: int, dim_facet: int):
        _require_spec(n_vertices, dim_facet, dim_facet)
        self.n_vertices, self.dim_facet = n_vertices, dim_facet


def straight_corridor(spec: CorridorSpec) -> Complex:
    """Corridor with facets {i, ..., i+d-1}; its dual graph is a path."""
    n, d = spec.n_vertices, spec.dim_facet
    # column j of the windows is the run 1+j..n-d+1+j
    columns = [array("q", range(1 + j, n - d + 2 + j)) for j in range(d)]
    return Complex._from_columns(d, n, columns)


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
    _require_spec(n, d, d + 2)
    starts = array("q", chain.from_iterable(map(repeat, range(1, n - d + 1), repeat(d - 1))))
    columns = []
    for k in range(d):
        offsets = [k + (k >= j) for j in range(d - 1, 0, -1)]
        middle = map(add, starts, cycle(offsets))
        columns.append(array("q", chain((1 + k,), middle, (n - d + 1 + k,))))
    return Complex._from_columns(d, n, columns)


def facet_labels(n_vertices: int, dim_facet: int) -> list[str]:
    """Labels of boundary_corridor(n_vertices, dim_facet)'s facets, in its
    facet order: "alpha", then "middle i j" by i ascending and, for one i,
    by j descending, then "omega"."""
    n, d = n_vertices, dim_facet
    _require_spec(n, d, d + 2)
    js = range(d - 1, 0, -1)
    return ["alpha", *[f"middle {i} {j}" for i in range(1, n - d + 1) for j in js], "omega"]


def diameter_lower_bound_boundary(n_vertices: int, dim_facet: int) -> Fraction:
    """Lower bound (d-1)N/d - d on the boundary corridor's diameter."""
    return Fraction((dim_facet - 1) * n_vertices, dim_facet) - dim_facet
