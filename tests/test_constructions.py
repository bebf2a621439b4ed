import math
from fractions import Fraction

import pytest
from conftest import NotMiddleFacet, facet_label, scaled_potential
from hypothesis import given, settings
from hypothesis import strategies as st

from corridors import (
    CorridorSpec,
    InvalidSpec,
    boundary_corridor,
    diameter_exact,
    diameter_lower_bound_boundary,
    dual_graph,
    is_pseudomanifold,
    pair_distance,
    straight_corridor,
)
from corridors.complex_core import face_columns
from corridors.constructions import facet_labels
from naive_reference import (
    ALPHA,
    OMEGA,
    BoundaryFacetLabel,
    UnknownFacet,
    ref_boundary_corridor,
    ref_facet_labels,
)


def sc(n, d):
    return straight_corridor(CorridorSpec(n, d))


class TestStraightCorridor:
    def test_facets_5_3(self):
        assert sc(5, 3).facets == ((1, 2, 3), (2, 3, 4), (3, 4, 5))

    def test_degenerate_single_facet(self):
        c = sc(3, 3)
        assert c.facets == ((1, 2, 3),)
        assert diameter_exact(dual_graph(c)) == 0

    def test_10_3_counts(self):
        c = sc(10, 3)
        assert len(c.facets) == 8
        assert diameter_exact(dual_graph(c)) == 7

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            CorridorSpec(2, 3)
        with pytest.raises(InvalidSpec):
            CorridorSpec(5, 1)

    @given(st.integers(2, 6), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_dual_graph_is_path(self, d, extra):
        n = d + extra
        g = dual_graph(sc(n, d))
        assert len(g) == n - d + 1
        assert sum(map(len, g)) // 2 == n - d
        degs = sorted(map(len, g))
        if len(g) == 1:
            assert degs == [0]
        elif len(g) == 2:
            assert degs == [1, 1]
        else:
            assert degs == [1, 1] + [2] * (len(g) - 2)
        assert diameter_exact(g) == n - d


class TestBoundaryCorridor:
    def test_facets_6_4(self):
        b = boundary_corridor(6, 3)
        assert set(b.facets) == {
            (1, 2, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5),
            (2, 3, 5), (3, 5, 6), (3, 4, 6), (4, 5, 6),
        }
        assert len(b.facets) == (6 - 3) * (3 - 1) + 2
        assert is_pseudomanifold(b)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            boundary_corridor(4, 3)
        with pytest.raises(InvalidSpec):
            boundary_corridor(10, 1)

    def test_matches_brute_force_extraction(self):
        for d in range(2, 6):
            for n in range(d + 2, 41):
                assert boundary_corridor(n, d).facets == ref_boundary_corridor(n, d)

    def test_facet_count_formula(self):
        for d in range(2, 6):
            for n in range(d + 2, 30):
                assert len(boundary_corridor(n, d).facets) == (n - d) * (d - 1) + 2

    def test_ridges_are_the_codim_2_faces_one_dimension_up(self):
        # every face of a stacked ball below codimension 1 lies on its
        # boundary, which lets the pseudomanifold pipeline count the corridor's
        # codim-2 classes over the boundary's own ridges
        for d in range(2, 7):
            for n in range(d + 2, d + 41):
                ridges = list(boundary_corridor(n, d).incidence.columns())
                assert face_columns(sc(n, d + 1), 2) == ridges

    def test_small_boundary_is_cycle(self):
        g = dual_graph(boundary_corridor(8, 2))
        assert list(map(len, g)) == [2] * 8
        assert diameter_exact(g) == 4


class TestFacetLabels:
    def test_middle_1_1(self):
        b = boundary_corridor(6, 3)
        assert facet_label(b, (1, 3, 4)) == BoundaryFacetLabel("middle", 1, 1)

    def test_alpha_omega(self):
        b = boundary_corridor(6, 3)
        assert facet_label(b, (1, 2, 3)) == ALPHA
        assert facet_label(b, (4, 5, 6)) == OMEGA

    def test_unknown_facet(self):
        b = boundary_corridor(6, 3)
        with pytest.raises(UnknownFacet):
            facet_label(b, (2, 3, 4))

    def test_labels_biject_with_formula_range(self):
        for d, n in [(2, 9), (3, 10), (4, 11)]:
            labels = facet_labels(n, d)
            assert len(labels) == boundary_corridor(n, d).facet_count
            assert labels.count("alpha") == 1
            assert labels.count("omega") == 1
            # the pipeline reads alpha and omega as the first and last facet
            assert labels[0] == "alpha" and labels[-1] == "omega"
            assert set(labels[1:-1]) == {
                f"middle {i} {j}" for i in range(1, n - d + 1) for j in range(1, d)
            }

    def test_labels_are_the_reference_classification(self):
        # facet_labels reads the construction order, the reference reads
        # each facet's vertices: 348 boundaries, d = 2..7, i up to 2..59
        for d in range(2, 8):
            for n in range(d + 2, d + 60):
                want = [str(lab) for lab in ref_facet_labels(boundary_corridor(n, d))]
                assert facet_labels(n, d) == want, (n, d)

    @pytest.mark.parametrize("n,d", [(4, 3), (5, 4), (10, 1), (0, 0), (-3, 2)])
    def test_labels_refuse_what_the_boundary_refuses(self, n, d):
        with pytest.raises(InvalidSpec) as built:
            boundary_corridor(n, d)
        with pytest.raises(InvalidSpec) as labelled:
            facet_labels(n, d)
        assert str(labelled.value) == str(built.value)

    def test_str_forms(self):
        assert str(ALPHA) == "alpha"
        assert str(OMEGA) == "omega"
        assert str(BoundaryFacetLabel("middle", 2, 1)) == "middle 2 1"


class TestScaledPotential:
    def test_values(self):
        assert scaled_potential(BoundaryFacetLabel("middle", 1, 1), 3) == 1
        assert scaled_potential(BoundaryFacetLabel("middle", 1, 2), 3) == 0
        assert scaled_potential(BoundaryFacetLabel("middle", 3, 2), 3) == 4

    def test_end_facets_rejected(self):
        for lab in (ALPHA, OMEGA):
            with pytest.raises(NotMiddleFacet):
                scaled_potential(lab, 3)

    def test_step_bound_exhaustive(self):
        # adjacent middle facets never shift the scaled potential by more
        # than d, and the extreme step is attained
        for d in range(2, 6):
            for n in range(d + 2, 41):
                b = boundary_corridor(n, d)
                labels = ref_facet_labels(b)
                g = dual_graph(b)
                steps = []
                for u, nbrs in enumerate(g):
                    if labels[u].kind != "middle":
                        continue
                    pu = scaled_potential(labels[u], d)
                    for v in nbrs:
                        if v < u or labels[v].kind != "middle":
                            continue
                        steps.append(abs(scaled_potential(labels[v], d) - pu))
                assert all(step <= d for step in steps)
                if n >= d + 3:
                    assert max(steps) == d


class TestEndNeighborhoods:
    def test_alpha_neighborhood(self):
        for d in range(2, 6):
            for n in range(d + 2, 30, 3):
                b = boundary_corridor(n, d)
                labels = ref_facet_labels(b)
                g = dual_graph(b)
                alpha_at = labels.index(ALPHA)
                got = {str(labels[v]) for v in g[alpha_at]}
                want = {f"middle 1 {j}" for j in range(1, d)} | {f"middle 2 {d - 1}"}
                assert got == want

    def test_omega_neighborhood(self):
        # derived form: {middle(N-d, j) : j} plus middle(N-d-1, 1)
        for d in range(2, 6):
            for n in range(d + 2, 30, 3):
                b = boundary_corridor(n, d)
                labels = ref_facet_labels(b)
                g = dual_graph(b)
                omega_at = labels.index(OMEGA)
                got = {str(labels[v]) for v in g[omega_at]}
                want = {f"middle {n - d} {j}" for j in range(1, d)} | {
                    f"middle {n - d - 1} 1"
                }
                assert got == want


class TestBoundaryDiameterBound:
    def test_fraction_values(self):
        assert diameter_lower_bound_boundary(6, 3) == 1
        assert diameter_lower_bound_boundary(30, 3) == 17
        for d in range(2, 8):
            assert diameter_lower_bound_boundary(d + 2, d) == 1 - Fraction(2, d)

    def test_alpha_omega_distance_meets_bound(self):
        for d in (2, 3, 4):
            for n in range(d + 2, 32, 3):
                b = boundary_corridor(n, d)
                g = dual_graph(b)
                alpha = b.facets.index(tuple(range(1, d + 1)))
                omega = b.facets.index(tuple(range(n - d + 1, n + 1)))
                assert pair_distance(g, alpha, omega) >= math.ceil(
                    diameter_lower_bound_boundary(n, d)
                )
