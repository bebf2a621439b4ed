import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridors import (
    Complex,
    CorridorSpec,
    DisconnectedGraph,
    DualGraph,
    boundary_corridor,
    complex_from_text,
    complex_to_text,
    diameter_exact,
    double_sweep_lower_bound,
    dual_graph,
    is_pseudomanifold,
    is_strongly_connected,
    pair_distance,
    read_complex,
    ridges_of,
    straight_corridor,
    write_complex,
)
from conftest import column_weights, incidence_dense, random_complex
from naive_reference import (
    ref_boundary_dense,
    ref_diameter,
    ref_dual_edges,
    ref_is_pseudomanifold,
    ref_ridges,
)


def sc(n, d):
    return straight_corridor(CorridorSpec(n, d))


TRIANGLE = Complex(2, 3, ((1, 2), (1, 3), (2, 3)))
TWO_PIECES = Complex(3, 6, ((1, 2, 3), (4, 5, 6)))
CYCLE8 = DualGraph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])


class TestComplexValidation:
    def test_rejects_wrong_facet_size(self):
        with pytest.raises(ValueError):
            Complex(3, 4, ((1, 2),))

    def test_rejects_unsorted_facet(self):
        with pytest.raises(ValueError):
            Complex(3, 4, ((3, 2, 1),))

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            Complex(3, 4, ((1, 1, 2),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Complex(3, 4, ((2, 3, 5),))

    def test_rejects_duplicate_facet(self):
        with pytest.raises(ValueError):
            Complex(3, 4, ((1, 2, 3), (1, 2, 3)))

    def test_from_facets_normalizes(self):
        c = Complex.from_facets([[3, 1, 2], [2, 4, 3]])
        assert c.facets == ((1, 2, 3), (2, 3, 4))
        assert c.n_vertices == 4


class TestRidges:
    def test_corridor_5_3(self):
        ridges = [r for r, _ in ridges_of(sc(5, 3))]
        assert ridges == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]

    def test_single_facet(self):
        assert len(ridges_of(Complex(3, 3, ((1, 2, 3),)))) == 3

    def test_corridor_4_3_incidence(self):
        incidence = dict(ridges_of(sc(4, 3)))
        assert len(incidence) == 5
        assert incidence[(2, 3)] == [0, 1]
        for ridge in [(1, 2), (1, 3), (2, 4), (3, 4)]:
            assert len(incidence[ridge]) == 1


class TestDualGraph:
    def test_corridor_is_path(self):
        g = dual_graph(sc(5, 3))
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_single_facet(self):
        g = dual_graph(Complex(3, 3, ((1, 2, 3),)))
        assert g.n_nodes == 1 and g.edge_count == 0

    def test_boundary_6_4_cubic(self):
        g = dual_graph(boundary_corridor(6, 3))
        assert g.n_nodes == 8
        assert g.degrees() == [3] * 8

    def test_from_edges_validates(self):
        with pytest.raises(ValueError):
            DualGraph(2, ((0,), (0,)))


class TestBoundaryMatrix:
    def test_corridor_4_3_entries(self):
        rows, cols, matrix = incidence_dense(sc(4, 3))
        assert (len(rows), len(cols)) == (5, 2)
        assert rows == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
        assert cols == [(1, 2, 3), (2, 3, 4)]
        dense = {row: tuple(vals) for row, vals in zip(rows, matrix)}
        assert dense[(2, 3)] == (1, 1)
        assert dense[(1, 2)] == (1, 0)
        assert dense[(1, 3)] == (1, 0)
        assert dense[(2, 4)] == (0, 1)
        assert dense[(3, 4)] == (0, 1)

    def test_single_facet_column(self):
        rows, cols, dense = incidence_dense(Complex(4, 4, ((1, 2, 3, 4),)))
        assert (len(rows), len(cols)) == (4, 1)
        assert column_weights(dense) == [4]

    def test_corridor_5_3_column_weights(self):
        rows, cols, dense = incidence_dense(sc(5, 3))
        assert (len(rows), len(cols)) == (7, 3)
        assert column_weights(dense) == [3, 3, 3]

    def test_every_column_weight_is_d(self, corpus):
        for c in corpus:
            _, _, dense = incidence_dense(c)
            assert all(w == c.dim_facet for w in column_weights(dense))


class TestPseudomanifold:
    def test_corridor_is_not(self):
        assert not is_pseudomanifold(sc(5, 3))

    def test_triangle_boundary_is(self):
        assert is_pseudomanifold(TRIANGLE)

    def test_boundary_corridor_is(self):
        assert is_pseudomanifold(boundary_corridor(6, 3))

    def test_matches_row_weights(self, corpus):
        for c in corpus:
            weights = [len(fids) for fids in c.incidence.facets_of]
            assert is_pseudomanifold(c) == all(w == 2 for w in weights)


class TestConnectivity:
    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_corridors_connected(self, n):
        assert is_strongly_connected(sc(n, 3))

    def test_disjoint_facets(self):
        assert not is_strongly_connected(TWO_PIECES)

    def test_boundary_connected(self):
        assert is_strongly_connected(boundary_corridor(6, 3))


class TestDiameter:
    def test_corridor_10_3(self):
        assert diameter_exact(dual_graph(sc(10, 3))) == 7

    def test_eight_cycle(self):
        assert diameter_exact(CYCLE8) == 4

    def test_boundary_6_4_with_pair(self):
        b = boundary_corridor(6, 3)
        g = dual_graph(b)
        assert diameter_exact(g) == 3
        alpha = b.facets.index((1, 2, 3))
        omega = b.facets.index((4, 5, 6))
        assert pair_distance(g, alpha, omega) == 3

    def test_disconnected_raises(self):
        g = dual_graph(TWO_PIECES)
        for fn in (diameter_exact, double_sweep_lower_bound):
            with pytest.raises(DisconnectedGraph):
                fn(g)
        with pytest.raises(DisconnectedGraph):
            pair_distance(g, 0, 1)

    def test_single_node(self):
        g = DualGraph(1, ((),))
        assert diameter_exact(g) == 0
        assert diameter_exact(g, "ifub") == 0

    def test_modes_agree_on_corridors(self):
        for n in range(3, 30, 4):
            g = dual_graph(sc(n, 3))
            exact = diameter_exact(g, "all-sources")
            assert diameter_exact(g, "ifub") == exact
            assert double_sweep_lower_bound(g) <= exact
            assert pair_distance(g, 0, g.n_nodes - 1) <= exact

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            diameter_exact(CYCLE8, "magic")


def random_connected_graph(rng, max_nodes=24):
    n = rng.randint(1, max_nodes)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return DualGraph.from_edges(n, edges)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_diameter_methods_agree_on_random_graphs(seed):
    g = random_connected_graph(random.Random(seed))
    exact = diameter_exact(g, "all-sources")
    assert exact == ref_diameter(g.adjacency)
    assert diameter_exact(g, "ifub") == exact
    assert double_sweep_lower_bound(g) <= exact


def incidence_pairs(c):
    inc = c.incidence
    return [(r, list(fids)) for r, fids in zip(inc.ridges, inc.facets_of)]


class TestNaiveReferenceAgreement:
    def test_ridges(self, corpus):
        for c in corpus:
            assert [(r, f) for r, f in ridges_of(c)] == ref_ridges(c)
            assert incidence_pairs(c) == ref_ridges(c)

    def test_dual_edges(self, corpus):
        for c in corpus:
            g = dual_graph(c)
            edges = {
                (u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v
            }
            assert edges == ref_dual_edges(c)

    def test_boundary_matrix(self, corpus):
        for c in corpus:
            rows, cols, dense = incidence_dense(c)
            ref_rows, ref_cols, ref_dense = ref_boundary_dense(c)
            assert rows == ref_rows
            assert cols == ref_cols
            assert dense == ref_dense

    def test_pseudomanifold(self, corpus):
        for c in corpus:
            assert is_pseudomanifold(c) == ref_is_pseudomanifold(c)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_incidence_matches_reference_on_random_complexes(seed):
    c = random_complex(random.Random(seed))
    assert incidence_pairs(c) == ref_ridges(c)
    assert is_pseudomanifold(c) == ref_is_pseudomanifold(c)
    g = dual_graph(c)
    edges = {(u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v}
    assert edges == ref_dual_edges(c)


class TestIncidence:
    def test_built_once_and_kept(self):
        c = sc(6, 3)
        assert c.incidence is c.incidence

    def test_equal_complexes_build_their_own(self):
        a, b = sc(6, 3), sc(6, 3)
        assert a == b and a.incidence is not b.incidence
        assert a.incidence == b.incidence


def test_dual_graph_matches_gram_matrix_support(corpus):
    # adjacency must equal the off-diagonal support of B^T B over the integers
    for c in corpus:
        _, col_facets, dense = incidence_dense(c)
        a = np.array(dense, dtype=np.int64)
        gram = a.T @ a
        index_of = {F: i for i, F in enumerate(c.facets)}
        g = dual_graph(c)
        n = len(col_facets)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                fi, fj = index_of[col_facets[i]], index_of[col_facets[j]]
                assert (gram[i, j] > 0) == (fj in g.adjacency[fi])


class TestFileFormat:
    def test_round_trip_is_bit_exact(self, corpus, tmp_path):
        for k, c in enumerate(corpus):
            path = tmp_path / f"c{k}.cplx"
            write_complex(c, path)
            text = path.read_text(encoding="utf-8")
            again = read_complex(path)
            assert again == c
            assert complex_to_text(again) == text

    def test_comments_and_blanks_ignored(self):
        text = "# a corridor\n\ndim 3 vertices 5\n1 2 3\n# middle\n2 3 4\n3 4 5\n"
        assert complex_from_text(text) == sc(5, 3)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            complex_from_text("dimension 3 on 5\n1 2 3\n")

    def test_missing_header(self):
        with pytest.raises(ValueError):
            complex_from_text("# nothing here\n")
