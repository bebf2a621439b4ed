import math
from fractions import Fraction

import pytest

from corridors import (
    Complex,
    CorridorSpec,
    DimensionTooSmall,
    InvalidSpec,
    NotPseudomanifold,
    NotRegular,
    boundary_corridor,
    check_regular_graph_bound,
    diameter_exact,
    dual_graph,
    hpm_lower,
    hpm_upper,
    hs_lower,
    hs_upper,
    pm_fvector_check,
    straight_corridor,
)
from corridors.complex_core import ridges_of
from corridors.bounds import bound_report, regular_graph_diameter_bound
from conftest import graph_from_edges

TRIANGLE = Complex(2, 3, ((1, 2), (1, 3), (2, 3)))


class TestGeneralBounds:
    def test_hs_lower_value(self):
        value = hs_lower(10, 3)
        assert float(value) == pytest.approx(100 / (216 * math.e), rel=1e-12)
        assert float(value) == pytest.approx(0.17032, abs=2e-5)

    def test_hs_upper_value(self):
        assert hs_upper(10, 3) == 25

    def test_hs_upper_identity(self):
        # n^(d-1)/((d-1)(d-1)!) == (d/(d-1)) n^(d-1)/d!
        for d in range(2, 8):
            for n in (d, 10, 31):
                lhs = hs_upper(n, d)
                rhs = Fraction(d, d - 1) * Fraction(n ** (d - 1), math.factorial(d))
                assert lhs == rhs

    def test_ordering(self):
        for d in range(3, 7):
            for n in range(d, 40, 5):
                assert hs_lower(n, d) <= hs_upper(n, d)
                assert hpm_lower(n, d) <= hs_lower(n, d)
                sharp, loose = hpm_upper(n, d)
                assert sharp <= loose
                assert hpm_lower(n, d) <= sharp

    def test_doubling_n_scales_by_power(self):
        for d in (3, 4, 5):
            assert hs_lower(20, d) == 2 ** (d - 1) * hs_lower(10, d)
            assert hpm_lower(20, d) == 2 ** (d - 1) * hpm_lower(10, d)

    def test_monotone_in_n(self):
        for d in (3, 4):
            values = [(hs_lower(n, d), hs_upper(n, d)) for n in range(d, 60)]
            assert all(a <= c and b <= e for (a, b), (c, e) in zip(values, values[1:]))

    def test_dimension_guards(self):
        for fn in (hs_lower, hpm_lower, hpm_upper):
            with pytest.raises(DimensionTooSmall):
                fn(10, 2)
        with pytest.raises(DimensionTooSmall):
            hs_upper(10, 1)

    def test_corridor_diameter_below_upper_bound(self):
        c = straight_corridor(CorridorSpec(10, 3))
        assert diameter_exact(dual_graph(c)) == 7 <= hs_upper(10, 3)

    def test_high_precision_stability(self):
        # 12 significant digits must survive a recomputation round trip
        a = float(hs_lower(97, 5))
        b = float(Fraction(97 ** 4) / (4 * Fraction("2.7182818284590452353602874713526624977572") * 25 * 120))
        assert a == pytest.approx(b, rel=1e-12)


class TestPseudomanifoldBounds:
    def test_hpm_lower_value(self):
        value = hpm_lower(10, 3)
        assert float(value) == pytest.approx(100 / (1944 * math.e), rel=1e-12)
        assert float(value) == pytest.approx(0.018925, abs=2e-6)

    def test_hpm_upper_values(self):
        sharp, loose = hpm_upper(10, 3)
        assert sharp == Fraction(45, 2)
        assert loose == 25

    def test_boundary_diameter_below_sharp(self):
        b = boundary_corridor(6, 3)
        sharp, _ = hpm_upper(6, 3)
        assert sharp == Fraction(6 * 15, 12)  # 6 C(6,2) / (d (d+1))
        assert diameter_exact(dual_graph(b)) == 3 <= sharp


class TestRegularGraphBound:
    def test_eight_cycle(self):
        g = graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
        bound = check_regular_graph_bound(g)
        assert bound == 8
        assert diameter_exact(g) == 4 <= bound

    def test_boundary_6_4(self):
        g = dual_graph(boundary_corridor(6, 3))
        bound = check_regular_graph_bound(g)
        assert bound == 6
        assert diameter_exact(g) == 3 <= bound

    def test_non_regular_rejected(self):
        g = dual_graph(straight_corridor(CorridorSpec(6, 3)))
        with pytest.raises(NotRegular):
            check_regular_graph_bound(g)

    def test_formula(self):
        assert regular_graph_diameter_bound(8, 2) == 8
        assert regular_graph_diameter_bound(1996, 3) == 1497


class TestFvectorIdentity:
    def test_boundary_6_4(self):
        b = boundary_corridor(6, 3)
        assert len(b.facets) == 8
        assert len(ridges_of(b)) == 12
        assert pm_fvector_check(b)

    def test_triangle_boundary(self):
        assert pm_fvector_check(TRIANGLE)

    def test_corridor_rejected(self):
        with pytest.raises(NotPseudomanifold):
            pm_fvector_check(straight_corridor(CorridorSpec(5, 3)))


def test_bound_report_shape():
    report = bound_report(10, 3)
    assert report["hs_upper"] == 25.0
    assert report["hpm_upper_sharp"] == 22.5
    assert report["hpm_upper_loose"] == 25.0
    assert set(report) >= {
        "hs_lower_asymptotic",
        "hpm_lower_asymptotic",
        "regular_bound_formula",
        "asymptotic_note",
    }


@pytest.mark.parametrize("d", [1, 3])
def test_bound_report_refuses_a_negative_vertex_count_first(d):
    # before any formula, so not the dimension check of d = 1 either
    with pytest.raises(InvalidSpec, match=r"^vertex count must be nonnegative, got -5$"):
        bound_report(-5, d)
