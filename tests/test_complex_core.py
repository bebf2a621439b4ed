import dataclasses
import random
from array import array

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
from corridors.complex_core import Incidence, _store_codes, face_columns
from conftest import (
    column_weights,
    graph_from_edges,
    incidence_dense,
    incidence_rows,
    random_complex,
    record_calls,
    time_limit,
)
from naive_reference import (
    ref_boundary_dense,
    ref_diameter,
    ref_dual_edges,
    ref_facet_error,
    ref_is_pseudomanifold,
    ref_ridges,
)


def sc(n, d):
    return straight_corridor(CorridorSpec(n, d))


TRIANGLE = Complex(2, 3, ((1, 2), (1, 3), (2, 3)))
TWO_PIECES = Complex(3, 6, ((1, 2, 3), (4, 5, 6)))
CYCLE8 = graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)])


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

    @pytest.mark.parametrize(
        "facets,message",
        [
            (((1, 2),), "facet (1, 2) does not have 3 vertices"),
            (((1, 2, 3, 4),), "facet (1, 2, 3, 4) does not have 3 vertices"),
            (([1, 2, 3],), "facet [1, 2, 3] does not have 3 vertices"),
            (((0, 1, 2),), "facet (0, 1, 2) leaves the vertex range 1..4"),
            (((2, 3, 5),), "facet (2, 3, 5) leaves the vertex range 1..4"),
            (((3, 2, 1),), "facet (3, 2, 1) is not strictly increasing"),
            (((1, 1, 2),), "facet (1, 1, 2) is not strictly increasing"),
            (((1, 3, 2),), "facet (1, 3, 2) is not strictly increasing"),
            (((1, 2, 3), (1, 2, 3)), "duplicate facet (1, 2, 3)"),
            # the first offending facet is named, whatever comes after it
            (((1, 2, 3), (2, 4, 3), (0, 1, 2)), "facet (2, 4, 3) is not strictly increasing"),
            (((1, 2, 3), (1, 2, 3), (2, 3, 5)), "duplicate facet (1, 2, 3)"),
            (((1, 2, 4), (2, 3, 9), (1, 2)), "facet (2, 3, 9) leaves the vertex range 1..4"),
            (((0, 1, 2), ("a", "b", "c")), "facet (0, 1, 2) leaves the vertex range 1..4"),
        ],
    )
    def test_messages_name_the_first_bad_facet(self, facets, message):
        with pytest.raises(ValueError) as info:
            Complex(3, 4, facets)
        assert str(info.value) == message
        assert ref_facet_error(3, 4, facets) == message

    @pytest.mark.parametrize(
        "d,n,message",
        [
            (0, 4, "facet size must be at least 1, got 0"),
            (3, -1, "vertex count must be nonnegative, got -1"),
        ],
    )
    def test_messages_for_bad_sizes(self, d, n, message):
        with pytest.raises(ValueError) as info:
            Complex(d, n, ())
        assert str(info.value) == message

    def test_non_integer_vertex_is_a_type_error(self):
        with pytest.raises(TypeError):
            Complex(3, 4, ((1, 2, 3), ("a", "b", "c")))

    def test_edge_cases_are_valid(self):
        assert Complex(3, 4, ()).facets == ()
        assert len(Complex(1, 2, ((1,), (2,))).facets) == 2
        assert len(Complex(3, 3, ((1, 2, 3),)).facets) == 1

    def test_from_facets_normalizes(self):
        c = Complex.from_facets([[3, 1, 2], [2, 4, 3]])
        assert c.facets == ((1, 2, 3), (2, 3, 4))
        assert c.n_vertices == 4


class TestRidges:
    def test_corridor_5_3(self):
        ridges = ridges_of(sc(5, 3)).ridges
        assert ridges == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]

    def test_single_facet(self):
        assert len(ridges_of(Complex(3, 3, ((1, 2, 3),)))) == 3

    def test_ridge_count_is_len(self):
        assert len(ridges_of(sc(8, 3))) == 13

    def test_corridor_4_3_incidence(self):
        incidence = dict(incidence_rows(ridges_of(sc(4, 3))))
        assert len(incidence) == 5
        assert incidence[(2, 3)] == [0, 1]
        for ridge in [(1, 2), (1, 3), (2, 4), (3, 4)]:
            assert len(incidence[ridge]) == 1


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_validation_matches_facet_scan(seed):
    # the column-wise check accepts and rejects exactly as the per-facet
    # definition does, and names the same facet
    rng = random.Random(seed)
    d, n = rng.randint(1, 4), rng.randint(1, 8)
    facets = []
    for _ in range(rng.randint(0, 6)):
        F = sorted(rng.sample(range(1, max(n, d) + 1), d)) if n >= d else [1] * d
        kind = rng.randrange(6)
        if kind == 1:
            F[rng.randrange(d)] = rng.choice([0, n + 1, -3])
        elif kind == 2 and d > 1:
            F.reverse()
        elif kind == 3:
            F = F[:-1] or [1, 1]
        elif kind == 4 and facets:
            F = list(rng.choice(facets))
        facets.append(tuple(F))
    facets = tuple(facets)
    expected = ref_facet_error(d, n, facets)
    if expected is None:
        assert Complex(d, n, facets).facets == facets
    else:
        with pytest.raises(ValueError) as info:
            Complex(d, n, facets)
        assert str(info.value) == expected


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
            graph_from_edges(2, [(0, 1), (0, 0)])

    @pytest.mark.parametrize(
        "tails,heads,message",
        [
            ([0, 1], [1], "2 tails but 1 heads"),
            ([0], [3], "an edge leaves the node range 0..2"),
            ([-1], [1], "an edge leaves the node range 0..2"),
            ([1], [0], "an edge has its tail at or above its head"),
            ([1], [1], "an edge has its tail at or above its head"),
            ([0, 1, 0], [1, 2, 1], "an edge repeats"),
        ],
    )
    def test_validation_messages(self, tails, heads, message):
        with pytest.raises(ValueError) as info:
            DualGraph(3, array("q", tails), array("q", heads))
        assert str(info.value) == message

    def test_self_loop_message(self):
        with pytest.raises(ValueError) as info:
            graph_from_edges(3, [(0, 1), (2, 2)])
        assert str(info.value) == "self-loop at node 2"

    def test_from_edges_ignores_orientation_and_merges_duplicates(self):
        g = graph_from_edges(4, [(1, 0), (0, 1), (2, 1), (1, 2), (3, 1)])
        assert (list(g.tails), list(g.heads)) == ([0, 1, 1], [1, 2, 3])
        assert g.edge_count == 3 and g.degrees() == [1, 3, 1, 1]
        assert g.adjacency == ((1,), (0, 2, 3), (1,), (1,))

    def test_each_edge_stored_once(self, corpus):
        for c in corpus:
            g = dual_graph(c)
            assert type(g.tails) is array and type(g.heads) is array
            assert sorted(zip(g.tails, g.heads)) == sorted(ref_dual_edges(c))
            # the adjacency built from the list is sorted, symmetric, loop-free
            for u, nbrs in enumerate(g.adjacency):
                assert list(nbrs) == sorted(set(nbrs)) and u not in nbrs
                assert all(u in g.adjacency[v] for v in nbrs)


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
            weights = c.incidence.widths()
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
        g = graph_from_edges(1, [])
        assert diameter_exact(g) == ref_diameter(g.adjacency) == 0

    def test_modes_agree_on_corridors(self):
        # straight corridors, and the boundary spheres every pseudomanifold
        # run measures
        complexes = [sc(n, 3) for n in range(3, 30, 4)]
        complexes += [
            boundary_corridor(n, d) for d in (3, 4) for n in range(d + 2, 30, 5)
        ]
        for c in complexes:
            g = dual_graph(c)
            exact = ref_diameter(g.adjacency)
            assert diameter_exact(g) == exact
            assert double_sweep_lower_bound(g) <= exact
            assert pair_distance(g, 0, g.n_nodes - 1) <= exact


# corridor and boundary duals of both diameter parities
CORRIDOR_DUALS = [dual_graph(sc(n, d)) for d in (3, 4) for n in range(d + 1, d + 9)]
CORRIDOR_DUALS += [
    dual_graph(boundary_corridor(n, d)) for d in (3, 4) for n in range(d + 2, d + 10)
]
CORRIDOR_DIAMETERS = [ref_diameter(g.adjacency) for g in CORRIDOR_DUALS]


def test_corridor_duals_cover_both_parities():
    assert {D % 2 for D in CORRIDOR_DIAMETERS} == {0, 1}


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_diameter_exact_under_node_relabelling(seed):
    # another node order changes the sweep's ties and the midpoint walk,
    # never the diameter
    rng = random.Random(seed)
    for g, exact in zip(CORRIDOR_DUALS, CORRIDOR_DIAMETERS):
        perm = list(range(g.n_nodes))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in zip(g.tails, g.heads)]
        assert diameter_exact(graph_from_edges(g.n_nodes, edges)) == exact


@pytest.mark.parametrize("n,passes", [(100, 3), (101, 3)])
def test_bfs_passes_per_diameter_on_a_path(monkeypatch, n, passes):
    # the dual of sc(n, 3) is a path of diameter D = n - 3: the connectivity
    # pass, the sweep and the midpoint pass; for odd D the one deepest fringe
    # node is the sweep's root, whose eccentricity its own pass measured
    g = dual_graph(sc(n, 3))
    sources = record_calls(monkeypatch, "_bfs")
    assert diameter_exact(g) == n - 3
    assert len(sources) == passes


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
    return graph_from_edges(n, edges)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_diameter_methods_agree_on_random_graphs(seed):
    g = random_connected_graph(random.Random(seed))
    exact = ref_diameter(g.adjacency)
    assert diameter_exact(g) == exact
    assert double_sweep_lower_bound(g) <= exact


class TestNaiveReferenceAgreement:
    def test_ridges(self, corpus):
        for c in corpus:
            assert incidence_rows(ridges_of(c)) == ref_ridges(c)
            assert incidence_rows(c.incidence) == ref_ridges(c)

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
    assert incidence_rows(c.incidence) == ref_ridges(c)
    assert is_pseudomanifold(c) == ref_is_pseudomanifold(c)
    g = dual_graph(c)
    edges = {(u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v}
    assert edges == ref_dual_edges(c)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_flat_incidence_decodes_to_the_reference(seed):
    rng = random.Random(seed)
    c = random_complex(rng)
    # facet order is arbitrary: ridge rows and ids within a row still sort
    facets = list(c.facets)
    rng.shuffle(facets)
    c = Complex(c.dim_facet, c.n_vertices, tuple(facets))
    inc = c.incidence
    reference = ref_ridges(c)
    assert incidence_rows(inc) == reference
    assert inc.ridges == [r for r, _ in reference]
    assert [inc.ridge(i) for i in range(len(inc))] == inc.ridges
    assert inc.columns() == [list(col) for col in zip(*inc.ridges)]
    assert inc.widths() == [len(fids) for _, fids in reference]
    # code order is tuple order: the codes ascend strictly along the ridges
    assert list(inc.codes) == sorted(set(inc.codes))
    assert len(inc) == len(reference) == len(inc.offsets) - 1


def check_incidence_fields(inc):
    for field in dataclasses.fields(Incidence):
        value = getattr(inc, field.name)
        if isinstance(value, int):
            continue
        assert isinstance(value, (array, list)), field.name
        assert all(type(x) is int for x in value), field.name


class TestIncidence:
    def test_no_per_ridge_containers(self, corpus):
        for c in corpus + [sc(1000, 3), boundary_corridor(200, 4)]:
            check_incidence_fields(c.incidence)
            assert type(c.incidence.codes) is array
            assert type(c.incidence.fids) is array
            assert type(c.incidence.offsets) is array

    def test_codes_beyond_64_bits_use_an_int_list(self):
        # (10**7 + 1)**4 >= 2**63: ridge codes of size 4 outgrow array('q')
        big = 10 ** 7
        c = Complex(5, big, ((1, 2, 3, 4, big), (2, 3, 4, big - 1, big), (3, 9, 99, 999, big)))
        inc = c.incidence
        assert type(inc.codes) is list and max(inc.codes) >= 2 ** 63
        check_incidence_fields(inc)
        assert incidence_rows(inc) == ref_ridges(c)
        assert not is_pseudomanifold(c)
        edges = {(u, v) for u, nbrs in enumerate(dual_graph(c).adjacency) for v in nbrs if u < v}
        assert edges == ref_dual_edges(c) == {(0, 1)}

    def test_array_up_to_the_64_bit_limit(self):
        # (55107 + 1)**4 < 2**63 <= (55108 + 1)**4
        assert type(Complex(5, 55107, ((1, 2, 3, 4, 5),)).incidence.codes) is array
        assert type(Complex(5, 55108, ((1, 2, 3, 4, 5),)).incidence.codes) is list

    def test_storage_bound_is_exact_for_any_size(self):
        # 2**62 fits in 63 bits, 2**63 does not; 1**size always fits
        assert type(_store_codes([], 1, 62)) is array
        assert type(_store_codes([], 1, 63)) is list
        assert type(_store_codes([], 0, 10 ** 5)) is array
        assert type(_store_codes([], 4, 10 ** 5)) is list

    def test_facetless_work_is_bounded_by_the_input(self):
        # a billion-vertex facet size with no facets: there is nothing to
        # enumerate, and nothing may loop over the facet size
        with time_limit(5):
            c = Complex(10 ** 9, 4, ())
            inc = c.incidence
            assert len(inc) == 0 and inc.columns() == [] and inc.ridges == []
            check_incidence_fields(inc)
            assert is_pseudomanifold(c) and is_strongly_connected(c)
            assert dual_graph(c).n_nodes == 0
            for k in (0, 2, 10 ** 9 - 1):
                assert face_columns(c, k) == []

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
