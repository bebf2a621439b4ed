"""Closed-form diameter bounds and the consistency checks attached to them.

All combinatorial factors are exact integers; where Euler's number enters,
a 40-digit rational approximation keeps every comparison exact and every
reported value stable well past 12 significant digits.
check_regular_graph_bound reads a dual graph as its adjacency rows and
returns the bound alone; the caller holds its measured diameter against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .complex_core import Complex, is_pseudomanifold
from .errors import DimensionTooSmall, InvalidSpec, NotPseudomanifold, NotRegular

E = Fraction("2.7182818284590452353602874713526624977572")


def hs_lower(n: int, d: int) -> Fraction:
    """Asymptotic lower-bound value n^(d-1) / (4 e d^2 d!) for general complexes.

    The vanishing correction factor is omitted; callers should treat this as
    the limiting constant, not a finite-n guarantee.
    """
    if d < 3:
        raise DimensionTooSmall(f"general lower bound needs d >= 3, got {d}")
    return Fraction(n ** (d - 1)) / (4 * E * d * d * factorial(d))


def hs_upper(n: int, d: int) -> Fraction:
    """Trivial upper bound n^(d-1) / ((d-1) (d-1)!) on any combinatorial diameter."""
    if d < 2:
        raise DimensionTooSmall(f"upper bound needs d >= 2, got {d}")
    return Fraction(n ** (d - 1), (d - 1) * factorial(d - 1))


def hpm_lower(n: int, d: int) -> Fraction:
    """Asymptotic lower-bound value n^(d-1) / (4 e d^4 d!) for pseudomanifolds."""
    if d < 3:
        raise DimensionTooSmall(f"pseudomanifold lower bound needs d >= 3, got {d}")
    return Fraction(n ** (d - 1)) / (4 * E * d ** 4 * factorial(d))


def hpm_upper(n: int, d: int) -> tuple[Fraction, Fraction]:
    """Pseudomanifold upper bounds (sharp, loose).

    sharp = 6 C(n, d-1) / (d (d+1)) comes from d-regularity of the dual graph;
    loose = 6 n^(d-1) / (d+1)! weakens the binomial to a power.
    """
    if d < 3:
        raise DimensionTooSmall(f"pseudomanifold upper bound needs d >= 3, got {d}")
    sharp = Fraction(6 * comb(n, d - 1), d * (d + 1))
    loose = Fraction(6 * n ** (d - 1), factorial(d + 1))
    return sharp, loose


def regular_graph_diameter_bound(n_nodes: int, degree: int) -> Fraction:
    """Diameter bound 3n/(k+1) for a connected k-regular graph on n nodes."""
    return Fraction(3 * n_nodes, degree + 1)


def check_regular_graph_bound(adj) -> Fraction:
    """The diameter bound 3n/(k+1) of a k-regular graph, from its adjacency
    rows; NotRegular unless every row has one length.

    The caller holds the diameter (diameter_exact) against the bound, so no
    graph is searched here.
    """
    if not adj:
        raise NotRegular("empty graph has no degree")
    degrees = set(map(len, adj))
    if len(degrees) > 1:
        raise NotRegular(f"degrees range over {sorted(degrees)}")
    return regular_graph_diameter_bound(len(adj), len(adj[0]))


def pm_fvector_check(c: Complex) -> bool:
    """Consistency identity d * (#facets) == 2 * (#ridges) for pseudomanifolds."""
    if not is_pseudomanifold(c):
        raise NotPseudomanifold("some ridge is not in exactly two facets")
    return c.dim_facet * c.facet_count == 2 * len(c.incidence)


def bound_report(n: int, d: int) -> dict:
    """All four bound families at (n, d), as floats, for reports and the CLI.

    InvalidSpec if n is negative or a bound lies past the float range.
    """
    if n < 0:
        raise InvalidSpec(f"vertex count must be nonnegative, got {n}")
    sharp, loose = hpm_upper(n, d)
    try:
        values = {
            "hs_lower_asymptotic": float(hs_lower(n, d)),
            "hs_upper": float(hs_upper(n, d)),
            "hpm_lower_asymptotic": float(hpm_lower(n, d)),
            "hpm_upper_sharp": float(sharp),
            "hpm_upper_loose": float(loose),
        }
    except OverflowError:
        raise InvalidSpec(f"bounds at n={n}, d={d} exceed the float range") from None
    return {
        "n": n,
        "d": d,
        **values,
        "regular_bound_formula": "3 * n_nodes / (degree + 1)",
        "asymptotic_note": "lower bounds omit the vanishing finite-size factor",
    }
