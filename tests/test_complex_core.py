import random
from array import array
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridors import (
    Complex,
    CorridorSpec,
    DisconnectedGraph,
    boundary_corridor,
    complex_core,
    complex_from_text,
    complex_to_text,
    diameter_exact,
    dual_graph,
    is_pseudomanifold,
    pair_distance,
    read_complex,
    straight_corridor,
    write_complex,
)
from corridors.complex_core import (
    Incidence,
    _columns_valid,
    _encode_columns,
    _merged_blocks,
    _store_codes,
    double_sweep_lower_bound,
    face_columns,
    is_strongly_connected,
    ridges_of,
)
from conftest import (
    adjacency_edges,
    column_weights,
    complex_from_facets,
    facet_index,
    graph_from_edges,
    incidence_dense,
    incidence_ridges,
    incidence_rows,
    lane_limit,
    random_complex,
    random_facets,
    record_calls,
    spread_facets,
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
            # a middle vertex in 2**62..2**63-1 passes the end checks; in lanes
            # the borrow of 2 - (2**62 + 3) would set the guard bits of both
            # rows, so the range of every lane is checked first
            (
                ((5, 2 ** 62 + 3, 2), (1, 2, 4)),
                f"facet (5, {2 ** 62 + 3}, 2) is not strictly increasing",
            ),
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
        c = complex_from_facets([[3, 1, 2], [2, 4, 3]])
        assert c.facets == ((1, 2, 3), (2, 3, 4))
        assert c.n_vertices == 4


class TestEquality:
    """`corridors verify --against` reads complex equality: same facet size,
    vertex count and facets in the same order, whichever builder made them."""

    FACETS = ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7))

    def test_every_builder_gives_an_equal_complex(self):
        text = "dim 3 vertices 7\n" + "".join(f"{a} {b} {c}\n" for a, b, c in self.FACETS)
        built, by_tuples, parsed = sc(7, 3), Complex(3, 7, self.FACETS), complex_from_text(text)
        assert built == by_tuples == parsed
        assert not (built != by_tuples or by_tuples != parsed)
        assert Complex(3, 4, ()) == complex_from_text("dim 3 vertices 4\n")

    def test_any_difference_is_unequal(self):
        assert Complex(3, 8, self.FACETS) != sc(7, 3)
        assert Complex(3, 7, self.FACETS[:-1]) != sc(7, 3)
        assert Complex(3, 7, self.FACETS[::-1]) != sc(7, 3)
        assert Complex(4, 4, ()) != Complex(3, 4, ())
        assert sc(7, 3) != self.FACETS

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(sc(7, 3))


class TestRidges:
    def test_corridor_5_3(self):
        ridges = incidence_ridges(ridges_of(sc(5, 3)))
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
    # the same faults among vertices just below and just above the vertex
    # count up to which facet codes are computed in lanes
    limit = lane_limit(d)
    cases = [(n, facets)] + [
        (big, spread_facets(facets, n, big, rng)) for big in (limit, limit + 1)
    ]
    for n, facets in cases:
        expected = ref_facet_error(d, n, facets)
        if expected is None:
            assert Complex(d, n, facets).facets == facets
        else:
            with pytest.raises(ValueError) as info:
                Complex(d, n, facets)
            assert str(info.value) == expected


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lanes_carry_codes_up_to_the_limit_and_no_further(monkeypatch, d):
    packs = record_calls(monkeypatch, "_pack")
    lane_builds = record_calls(monkeypatch, "_lane_incidence")

    def two_facets(n):
        return (tuple(range(1, d + 1)), tuple(range(n - d + 1, n + 1)))

    # facet codes of d vertices, checked as a complex is built
    for n, lanes in ((lane_limit(d), True), (lane_limit(d) + 1, False)):
        packs.clear()
        Complex(d, n, two_facets(n))
        assert bool(packs) == lanes, n
    # ridge keys: codes of d - 1 vertices shifted by one bit, the bit
    # length of the larger facet id
    for n, lanes in ((lane_limit(d - 1, 1), True), (lane_limit(d - 1, 1) + 1, False)):
        c = Complex(d, n, two_facets(n))
        lane_builds.clear()
        assert incidence_rows(ridges_of(c)) == ref_ridges(c)
        assert bool(lane_builds) == lanes, n


INCIDENCE_FIELDS = ("n_vertices", "size", "codes", "offsets", "fids")


def lanes_and_boxed(monkeypatch, fn, *args):
    """fn(*args) with lanes allowed, then with lanes refused."""
    with_lanes = fn(*args)
    with monkeypatch.context() as patched:
        patched.setattr(complex_core, "_fits_lanes", lambda columns, top: False)
        return with_lanes, fn(*args)


def faulty_copies(rng, n, columns):
    """Copies of the columns with one fault each, in one random facet: a
    vertex out of range, two neighbours swapped, a vertex repeated, and a
    repeat of another facet."""
    d, m = len(columns), len(columns[0])
    i = rng.randrange(m)
    copies = []
    for value in (0, -1, n + 1, 2 ** 62 + 3):
        copies.append([array("q", col) for col in columns])
        copies[-1][rng.randrange(d)][i] = value
    for j in range(d - 1):
        copies.append([array("q", col) for col in columns])
        copies[-1][j][i], copies[-1][j + 1][i] = columns[j + 1][i], columns[j][i]
        copies.append([array("q", col) for col in columns])
        copies[-1][j + 1][i] = columns[j][i]
    other = (i + 1 + rng.randrange(m - 1)) % m
    copies.append([array("q", col) for col in columns])
    for col in copies[-1]:
        col[other] = col[i]
    return copies


@pytest.mark.parametrize("shuffled", [False, True], ids=["lexicographic", "shuffled"])
@pytest.mark.parametrize("m", [4097, 9000])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lanes_match_the_boxed_path(monkeypatch, d, m, shuffled):
    # more facets than one 4096-lane chunk, on the largest vertex count
    # whose facet codes still fit in lanes
    rng = random.Random(1000 * d + m + shuffled)
    n = lane_limit(d)
    facets = set()
    while len(facets) < m:
        facets.add(tuple(sorted(rng.sample(range(1, n + 1), d))))
    facets = sorted(facets)
    if shuffled:
        rng.shuffle(facets)
    columns = [array("q", col) for col in zip(*facets)]
    # facet codes and ridge keys alike
    assert complex_core._fits_lanes(columns, (n + 1) ** d)
    assert complex_core._fits_lanes(columns, (n + 1) ** (d - 1) << (m - 1).bit_length())

    assert lanes_and_boxed(monkeypatch, _columns_valid, d, n, columns) == (True, True)
    c = Complex._from_columns(d, n, columns)

    def incidence_fields():
        # an array never equals a list, so the storage types are compared too
        inc = ridges_of(c)
        return [getattr(inc, name) for name in INCIDENCE_FIELDS]

    lanes, boxed = lanes_and_boxed(monkeypatch, incidence_fields)
    assert lanes == boxed
    lanes, boxed = lanes_and_boxed(
        monkeypatch, lambda: list(_encode_columns(columns, n + 1))
    )
    assert lanes == boxed
    for bad in faulty_copies(rng, n, columns):
        assert lanes_and_boxed(monkeypatch, _columns_valid, d, n, bad) == (False, False)


MUTATIONS = ("short facet", "vertex out of range", "swapped pair", "duplicate facet")


def mutate(rng, n, facets, kind):
    """facets with one defect of the given kind, at a random facet."""
    facets = list(facets)
    i = rng.randrange(len(facets))
    F = list(facets[i])
    if kind == "short facet":
        del F[-1]
    elif kind == "vertex out of range":
        if rng.random() < 0.5:
            F[0] = 0
        else:
            F[-1] = n + 1
    elif kind == "swapped pair":
        j = rng.randrange(len(F) - 1)
        F[j], F[j + 1] = F[j + 1], F[j]
    else:
        facets.insert(rng.randrange(len(facets) + 1), facets[i])
    facets[i] = tuple(F)
    return tuple(facets)


@given(
    st.lists(st.lists(st.integers(0, 30), max_size=12), max_size=5),
    st.integers(1, 4),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_merged_blocks_sort_in_bounded_blocks(runs, block, wide):
    # repeats within and across runs, empty runs, and values past 64 bits
    # in int lists
    offset = 1 << 70 if wide else 0
    runs = [sorted(v + offset for v in run) for run in runs]
    if not wide:
        runs = [array("q", run) for run in runs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complex_core, "_BLOCK", block)
        blocks = list(_merged_blocks(runs))
    assert [v for b in blocks for v in b] == sorted(v for run in runs for v in run)
    assert all(blocks)
    # each block holds at most _BLOCK values per run beside repeats of its
    # last value, and finishes a run or moves one on by _BLOCK
    assert all(sum(v != b[-1] for v in b) < block * len(runs) for b in blocks)
    assert len(blocks) <= sum(map(len, runs)) // block + len(runs)


@given(st.integers(0, 10_000), st.sampled_from(MUTATIONS))
@settings(max_examples=200, deadline=None)
def test_column_storage_matches_the_reference(seed, kind):
    rng = random.Random(seed)
    d, n, facets = random_facets(rng)
    # any facet order: the duplicate check may not rely on ascending codes
    if rng.random() < 0.5:
        facets = tuple(rng.sample(facets, len(facets)))
    c = Complex(d, n, facets)
    assert c.columns == tuple(array("q", col) for col in zip(*facets))
    assert c.facets == facets and c.facet_count == len(facets)
    assert Complex._from_columns(d, n, c.columns) == c
    assert [facet_index(c, F) for F in facets] == list(range(len(facets)))
    outside = tuple(sorted(rng.sample(range(1, n + 1), d)))
    if outside not in facets:
        with pytest.raises(ValueError):
            facet_index(c, outside)

    bad = mutate(rng, n, facets, kind)
    expected = ref_facet_error(d, n, bad)
    assert expected is not None
    with pytest.raises(ValueError) as info:
        Complex(d, n, bad)
    assert str(info.value) == expected
    if kind != "short facet":
        # the column entry point names the same facet
        with pytest.raises(ValueError) as info:
            Complex._from_columns(d, n, [array("q", col) for col in zip(*bad)])
        assert str(info.value) == expected


class TestDualGraph:
    def test_corridor_is_path(self):
        g = dual_graph(sc(5, 3))
        assert g == ((1,), (0, 2), (1,))

    def test_single_facet(self):
        g = dual_graph(Complex(3, 3, ((1, 2, 3),)))
        assert len(g) == 1 and sum(map(len, g)) // 2 == 0

    def test_boundary_6_4_cubic(self):
        g = dual_graph(boundary_corridor(6, 3))
        assert len(g) == 8
        assert list(map(len, g)) == [3] * 8

    def test_from_edges_validates(self):
        with pytest.raises(ValueError):
            graph_from_edges(2, [(0, 1), (0, 0)])

    def test_self_loop_message(self):
        with pytest.raises(ValueError) as info:
            graph_from_edges(3, [(0, 1), (2, 2)])
        assert str(info.value) == "self-loop at node 2"

    def test_from_edges_ignores_orientation_and_merges_duplicates(self):
        g = graph_from_edges(4, [(1, 0), (0, 1), (2, 1), (1, 2), (3, 1)])
        assert adjacency_edges(g) == {(0, 1), (1, 2), (1, 3)}
        assert sum(map(len, g)) // 2 == 3 and list(map(len, g)) == [1, 3, 1, 1]
        assert g == ((1,), (0, 2, 3), (1,), (1,))

    def test_each_edge_stored_once(self, corpus):
        # the rows are the whole graph: no edge list is stored beside them
        for c in corpus:
            g = dual_graph(c)
            assert type(g) is tuple
            assert [type(row) for row in g] == [tuple] * c.facet_count
            assert adjacency_edges(g) == ref_dual_edges(c)


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

    def test_no_nodes_raises(self):
        # every distance query names the empty graph, not a node range
        for query in (diameter_exact, double_sweep_lower_bound, lambda g: pair_distance(g, 0, 0)):
            with pytest.raises(DisconnectedGraph, match=r"^graph has no nodes$"):
                query(())

    @pytest.mark.parametrize(
        "u,v,error,message",
        [
            (0, 2, ValueError, "nodes 0, 2 out of range 0..1"),
            (-1, 0, ValueError, "nodes -1, 0 out of range 0..1"),
            (0, 1, DisconnectedGraph, "graph is not connected"),
            (1, 1, DisconnectedGraph, "graph is not connected"),
        ],
    )
    def test_pair_distance_messages(self, u, v, error, message):
        # test_no_nodes_raises pins the graph without nodes; a disconnected
        # graph is refused even for a node's distance to itself
        with pytest.raises(error) as info:
            pair_distance(dual_graph(TWO_PIECES), u, v)
        assert str(info.value) == message

    def test_single_node(self):
        g = graph_from_edges(1, [])
        assert diameter_exact(g) == ref_diameter(g) == 0

    def test_modes_agree_on_corridors(self):
        # straight corridors, and the boundary spheres every pseudomanifold
        # run measures
        complexes = [sc(n, 3) for n in range(3, 30, 4)]
        complexes += [
            boundary_corridor(n, d) for d in (3, 4) for n in range(d + 2, 30, 5)
        ]
        for c in complexes:
            g = dual_graph(c)
            exact = ref_diameter(g)
            assert diameter_exact(g) == exact
            assert double_sweep_lower_bound(g) <= exact
            assert pair_distance(g, 0, len(g) - 1) <= exact


# corridor and boundary duals of both diameter parities
CORRIDOR_DUALS = [dual_graph(sc(n, d)) for d in (3, 4) for n in range(d + 1, d + 9)]
CORRIDOR_DUALS += [
    dual_graph(boundary_corridor(n, d)) for d in (3, 4) for n in range(d + 2, d + 10)
]
CORRIDOR_DIAMETERS = [ref_diameter(g) for g in CORRIDOR_DUALS]


def test_corridor_duals_cover_both_parities():
    assert {D % 2 for D in CORRIDOR_DIAMETERS} == {0, 1}


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_diameter_exact_under_node_relabelling(seed):
    # another node order changes the sweep's ties and the midpoint walk,
    # never the diameter
    rng = random.Random(seed)
    for g, exact in zip(CORRIDOR_DUALS, CORRIDOR_DIAMETERS):
        perm = list(range(len(g)))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in adjacency_edges(g)]
        assert diameter_exact(graph_from_edges(len(g), edges)) == exact


@pytest.mark.parametrize("n,passes", [(100, 2), (101, 2)])
def test_bfs_passes_per_diameter_on_a_path(monkeypatch, n, passes):
    # the dual of sc(n, 3) is a path of diameter D = n - 3, a tree: the
    # connectivity pass and the sweep from its far end, for either parity
    g = dual_graph(sc(n, 3))
    sources = record_calls(monkeypatch, "_bfs")
    assert diameter_exact(g) == n - 3
    assert len(sources) == passes


@pytest.mark.parametrize("n,passes", [(100, 8), (101, 5)])
def test_bfs_passes_per_diameter_on_a_boundary(monkeypatch, n, passes):
    # a boundary dual has cycles, so iFUB measures it, in as many passes as
    # before trees took their own branch
    g = dual_graph(boundary_corridor(n, 3))
    assert sum(map(len, g)) > 2 * (len(g) - 1)
    sources = record_calls(monkeypatch, "_bfs")
    assert diameter_exact(g) == ref_diameter(g)
    assert len(sources) == passes


def random_connected_graph(rng, max_nodes=24, tree=False):
    """A random spanning tree on 1 to max_nodes nodes, and unless tree is
    set, up to as many extra edges as nodes."""
    n = rng.randint(1, max_nodes)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extra = 0 if tree else rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return graph_from_edges(n, edges)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_diameter_methods_agree_on_random_graphs(seed):
    g = random_connected_graph(random.Random(seed))
    exact = ref_diameter(g)
    assert diameter_exact(g) == exact
    assert double_sweep_lower_bound(g) <= exact


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=80, deadline=None)
def test_diameter_matches_the_reference_on_trees_and_others(seed, tree):
    # trees take the two-sweep branch and every other graph iFUB
    g = random_connected_graph(random.Random(seed), max_nodes=40, tree=tree)
    if tree:
        assert sum(map(len, g)) == 2 * (len(g) - 1)
    assert diameter_exact(g) == ref_diameter(g)


def test_disconnected_graph_with_tree_edge_count_raises():
    # a triangle beside an isolated node has n - 1 edges but is no tree
    g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert sum(map(len, g)) == 2 * (len(g) - 1)
    with pytest.raises(DisconnectedGraph, match=r"^graph is not connected$"):
        diameter_exact(g)


class TestNaiveReferenceAgreement:
    def test_ridges(self, corpus):
        for c in corpus:
            assert incidence_rows(ridges_of(c)) == ref_ridges(c)
            assert incidence_rows(c.incidence) == ref_ridges(c)

    def test_dual_edges(self, corpus):
        for c in corpus:
            assert adjacency_edges(dual_graph(c)) == ref_dual_edges(c)

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
    rng = random.Random(seed)
    d, n, facets = random_facets(rng)
    # also on vertices just below and just above the vertex count up to
    # which ridges_of builds its keys in lanes
    limit = lane_limit(d - 1, (len(facets) - 1).bit_length())
    cases = [(n, facets)] + [
        (big, spread_facets(facets, n, big, rng)) for big in (limit, limit + 1)
    ]
    for n, facets in cases:
        c = Complex(d, n, facets)
        assert incidence_rows(c.incidence) == ref_ridges(c)
        assert is_pseudomanifold(c) == ref_is_pseudomanifold(c)
        assert adjacency_edges(dual_graph(c)) == ref_dual_edges(c)


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
    ridges = incidence_ridges(inc)
    assert ridges == [r for r, _ in reference]
    assert list(zip(*inc.columns(range(len(inc))))) == ridges
    assert list(inc.columns()) == [list(col) for col in zip(*ridges)]
    assert inc.widths() == [len(fids) for _, fids in reference]
    # code order is tuple order: the codes ascend strictly along the ridges
    assert list(inc.codes) == sorted(set(inc.codes))
    assert len(inc) == len(reference) == len(inc.offsets) - 1


@given(st.integers(0, 10_000), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_columns_of_rows_are_the_reference_ridges(seed, wide, data):
    # SC(25, 20) has ridge codes of 19 base-26 digits, an int list past 64
    # bits
    c = sc(25, 20) if wide else random_complex(random.Random(seed))
    inc = c.incidence
    assert (type(inc.codes) is list) == wide
    ridges = [r for r, _ in ref_ridges(c)]
    ids = st.integers(0, len(ridges) - 1)
    drawn = data.draw(st.lists(ids, max_size=2 * len(ridges)))
    last = len(ridges) - 1
    for rows in ([], [0, 0, 0], [last, 0, last], list(range(last, -1, -1)), drawn):
        columns = inc.columns(rows)
        assert iter(columns) is columns
        assert list(zip(*columns)) == [ridges[i] for i in rows]
    columns = inc.columns()
    assert iter(columns) is columns
    assert list(zip(*columns)) == ridges


def check_incidence_fields(inc):
    assert Incidence.__slots__ == INCIDENCE_FIELDS
    for name in INCIDENCE_FIELDS:
        value = getattr(inc, name)
        if isinstance(value, int):
            continue
        assert isinstance(value, (array, list)), name
        assert all(type(x) is int for x in value), name


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
        assert adjacency_edges(dual_graph(c)) == ref_dual_edges(c) == {(0, 1)}

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
            assert len(inc) == 0 and list(inc.columns()) == [] and incidence_ridges(inc) == []
            check_incidence_fields(inc)
            assert is_pseudomanifold(c) and is_strongly_connected(c)
            assert dual_graph(c) == ()
            for k in (0, 2, 10 ** 9 - 1):
                assert face_columns(c, k) == []

    def test_built_once_and_kept(self):
        c = sc(6, 3)
        assert c.incidence is c.incidence

    def test_equal_complexes_build_their_own(self):
        a, b = sc(6, 3), sc(6, 3)
        assert a == b and a.incidence is not b.incidence
        for name in INCIDENCE_FIELDS:
            assert getattr(a.incidence, name) == getattr(b.incidence, name), name


def test_dual_graph_matches_gram_matrix_support(corpus):
    # adjacency must equal the off-diagonal support of B^T B over the integers
    for c in corpus:
        _, col_facets, dense = incidence_dense(c)
        # gram[i][j] = sum over ridges r of B[r][i] * B[r][j]
        cols = list(zip(*dense))
        gram = [[sum(map(mul, col_i, col_j)) for col_j in cols] for col_i in cols]
        index_of = {F: i for i, F in enumerate(c.facets)}
        g = dual_graph(c)
        n = len(col_facets)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                fi, fj = index_of[col_facets[i]], index_of[col_facets[j]]
                assert (gram[i][j] > 0) == (fj in g[fi])


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

    def test_bad_facet_lines_name_the_facet(self):
        # the tuple entry point's messages, whether a line is short or only
        # its columns fail
        with pytest.raises(ValueError, match=r"^facet \(1, 2\) does not have 3 vertices$"):
            complex_from_text("dim 3 vertices 5\n1 2 3\n1 2\n2 3 4\n")
        # the tokens of (1, 2, 3), (4, 5, 6) with one line break moved
        with pytest.raises(ValueError, match=r"^facet \(1, 2, 3, 4\) does not have 3 vertices$"):
            complex_from_text("dim 3 vertices 6\n1 2 3 4\n5 6\n")
        with pytest.raises(ValueError, match=r"^facet \(2, 3, 6\) leaves the vertex range 1..5$"):
            complex_from_text("dim 3 vertices 5\n1 2 3\n2 3 6\n")
        with pytest.raises(ValueError, match=r"^duplicate facet \(1, 2, 3\)$"):
            complex_from_text("dim 3 vertices 5\n1 2 3\n2 3 4\n1 2 3\n")
        big = 2 ** 64
        with pytest.raises(ValueError, match=r"integers below 2\*\*63"):
            complex_from_text(f"dim 3 vertices {big}\n1 2 {big}\n")
