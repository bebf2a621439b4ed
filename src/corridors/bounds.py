"""Closed-form diameter bounds and the consistency checks attached to them.

All combinatorial factors are exact integers; where Euler's number enters,
a 40-digit rational approximation keeps every comparison exact and every
reported value stable well past 12 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .complex_core import Complex, DualGraph, is_pseudomanifold
from .errors import DimensionTooSmall, NotPseudomanifold, NotRegular

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


@dataclass(frozen=True)
class RegularBoundCheck:
    actual: int
    bound: Fraction
    ok: bool


def check_regular_graph_bound(g: DualGraph, actual: int) -> RegularBoundCheck:
    """Compare a regular graph's exact diameter `actual` against 3n/(k+1).

    The caller measures the diameter (diameter_exact) and passes it in, so a
    graph whose diameter is already known is not searched a second time.
    """
    degrees = g.degrees()
    if not degrees:
        raise NotRegular("empty graph has no degree")
    k = degrees[0]
    if any(deg != k for deg in degrees):
        raise NotRegular(f"degrees range over {sorted(set(degrees))}")
    bound = regular_graph_diameter_bound(g.n_nodes, k)
    return RegularBoundCheck(actual, bound, actual <= bound)


def pm_fvector_check(c: Complex) -> bool:
    """Consistency identity d * (#facets) == 2 * (#ridges) for pseudomanifolds."""
    if not is_pseudomanifold(c):
        raise NotPseudomanifold("some ridge is not in exactly two facets")
    return c.dim_facet * len(c.facets) == 2 * len(c.incidence)


def bound_report(n: int, d: int) -> dict:
    """All four bound families at (n, d), as floats, for reports and the CLI."""
    sharp, loose = hpm_upper(n, d)
    return {
        "n": n,
        "d": d,
        "hs_lower_asymptotic": float(hs_lower(n, d)),
        "hs_upper": float(hs_upper(n, d)),
        "hpm_lower_asymptotic": float(hpm_lower(n, d)),
        "hpm_upper_sharp": float(sharp),
        "hpm_upper_loose": float(loose),
        "regular_bound_formula": "3 * n_nodes / (degree + 1)",
        "asymptotic_note": "lower bounds omit the vanishing finite-size factor",
    }
