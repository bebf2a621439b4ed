import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridors import (
    Coloring,
    Complex,
    CorridorSpec,
    E,
    FirstColoringParams,
    IncompleteColoring,
    NoLegalColor,
    PreconditionViolated,
    RefinementParams,
    ResampleCapExceeded,
    coloring_from_text,
    coloring_to_text,
    first_stage_class_cap,
    greedy_window_coloring,
    intersecting_ridge_bound,
    lll_target_colors,
    moser_tardos_refine,
    pattern_class_histogram,
    read_coloring,
    ridges_of,
    straight_corridor,
    verify_proper,
    verify_unique_ridge_patterns,
    write_coloring,
)
from corridors import coloring
from corridors.coloring import (
    _ridges_by_vertex,
    _ridges_through,
    class_sizes,
    pattern_codes,
)
from corridors.complex_core import face_columns
from conftest import identity_coloring, random_complex, time_limit
from naive_reference import (
    all_faces,
    ref_first_pattern_collision,
    ref_greedy_window_coloring,
    ref_pattern_codes,
    ref_refine,
    ref_ridges,
)


def sc(n, d):
    return straight_corridor(CorridorSpec(n, d))


def periodic_coloring(n, period):
    return Coloring(tuple((v - 1) % period + 1 for v in range(1, n + 1)), period)


@st.composite
def greedy_cases(draw):
    """(n, c1, seed, window), with the windows 0 and c1 - 1 drawn often."""
    c1 = draw(st.integers(1, 30))
    window = draw(st.one_of(st.just(0), st.just(c1 - 1), st.integers(0, c1 - 1)))
    return draw(st.integers(3, 80)), c1, draw(st.integers(0, 2**63 - 1)), window


class TestGreedyWindowColoring:
    @pytest.mark.parametrize("n,d,c1,seed", [(30, 3, 13, 0), (50, 4, 19, 5), (80, 5, 25, 9)])
    def test_window_distinctness(self, n, d, c1, seed):
        c = sc(n, d)
        window = 2 * (d - 1)
        f = greedy_window_coloring(c, FirstColoringParams(c1, 0.2, seed))
        for i in range(1, n + 1):
            for j in range(i + 1, min(i + window, n) + 1):
                assert f.colors[i - 1] != f.colors[j - 1]

    def test_no_legal_color(self):
        with pytest.raises(NoLegalColor):
            greedy_window_coloring(sc(5, 3), FirstColoringParams(4, 0.2, 0, window=4))

    def test_deterministic_given_seed(self):
        c = sc(100, 3)
        a = greedy_window_coloring(c, FirstColoringParams(13, 0.2, 3))
        b = greedy_window_coloring(c, FirstColoringParams(13, 0.2, 3))
        other = greedy_window_coloring(c, FirstColoringParams(13, 0.2, 4))
        assert a == b
        assert a != other

    def test_frozen_stream(self):
        # pins the documented draw schedule; a change here is a compatibility break
        f = greedy_window_coloring(sc(12, 3), FirstColoringParams(13, 0.2, 42))
        assert f.colors == (11, 2, 1, 7, 6, 8, 4, 2, 13, 3, 10, 1)

    def test_frozen_long_stream(self):
        # 10^4 draws pinned by digest, so drift late in a long stream shows too
        f = greedy_window_coloring(sc(10**4, 4), FirstColoringParams(19, 0.2, 7))
        digest = hashlib.sha256(coloring_to_text(f).encode()).hexdigest()
        assert digest == "143d2067b9e52cf7216845d939851d80ba2d2249b2406727eca54f351e9f2a8b"

    @given(greedy_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_allowed_list_reference(self, case):
        n, c1, seed, window = case
        f = greedy_window_coloring(sc(n, 3), FirstColoringParams(c1, 0.2, seed, window))
        assert f.colors == ref_greedy_window_coloring(n, c1, seed, window)

    def test_output_is_proper(self):
        c = sc(200, 3)
        f = greedy_window_coloring(c, FirstColoringParams(13, 0.2, 1))
        assert verify_proper(c, f)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FirstColoringParams(0, 0.2, 0)
        with pytest.raises(ValueError):
            FirstColoringParams(13, 0.0, 0)
        for epsilon in (math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                FirstColoringParams(13, epsilon, 0)
        with pytest.raises(ValueError):
            FirstColoringParams(13, 0.2, 0, window=-1)


class TestCorridorSkeletonFacts:
    def test_max_degree_is_twice_codim(self):
        # 1-skeleton degrees of a corridor peak at 2(d-1)
        for d in (2, 3, 4, 5):
            for n in (d, d + 3, 60, 200):
                c = sc(n, d)
                degree = {}
                edges = set()
                for F in c.facets:
                    edges.update(itertools.combinations(F, 2))
                for u, v in edges:
                    degree[u] = degree.get(u, 0) + 1
                    degree[v] = degree.get(v, 0) + 1
                assert max(degree.values()) <= 2 * (d - 1)
                if n >= 3 * d:
                    assert max(degree.values()) == 2 * (d - 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [17, 91])
    def test_window_blocks_intersecting_ridge_collisions(self, d, seed):
        c = sc(200, d)
        f = greedy_window_coloring(c, FirstColoringParams(6 * (d - 1) + 1, 0.2, seed))
        ridges = ridges_of(c).ridges
        patterns = [tuple(sorted(f.colors[v - 1] for v in r)) for r in ridges]
        for (ra, pa), (rb, pb) in itertools.combinations(zip(ridges, patterns), 2):
            if set(ra) & set(rb):
                assert pa != pb


class TestPatternHistogram:
    def test_identity_coloring_all_singletons(self):
        c = sc(9, 3)
        hist = pattern_class_histogram(c, identity_coloring(9), 1)
        assert hist.max_class_size == 1
        assert hist.class_count == hist.face_count == 15

    def test_identity_on_sc_5_3(self):
        hist = pattern_class_histogram(sc(5, 3), identity_coloring(5), 1)
        assert hist.face_count == 7
        assert hist.class_count == 7

    def test_expected_class_size_arithmetic(self):
        # N (d-1) / C(13, 2) = 20000/78 = 256.41 at N = 10^4; the exact
        # cap reaches 257 at 1 + eps = 257 * 78 / 20000 = 1.0023, not before
        assert first_stage_class_cap(10**4, 3, 13, 1, 0.0) == 256
        assert first_stage_class_cap(10**4, 3, 13, 1, 0.0022) == 256
        assert first_stage_class_cap(10**4, 3, 13, 1, 0.0023) == 257

    def test_greedy_meets_cap_at_desk_scale(self):
        c = sc(10**4, 3)
        f = greedy_window_coloring(c, FirstColoringParams(13, 0.1, 38))
        hist = pattern_class_histogram(c, f, 1)
        cap = first_stage_class_cap(10**4, 3, 13, 1, 0.1)
        assert cap == 282
        assert hist.max_class_size == 280
        assert hist.max_class_size <= cap

    def test_face_columns_transpose_the_faces(self, corpus):
        for c in corpus:
            for k in range(c.dim_facet):
                assert face_columns(c, k) == ref_face_columns(c, k)

    def test_codim_range_and_errors(self):
        c = sc(6, 3)
        assert face_columns(c, 0) == [list(col) for col in zip(*c.facets)]
        assert face_columns(c, 2) == [list(range(1, 7))]
        for k in (-1, 3):
            with pytest.raises(ValueError) as info:
                face_columns(c, k)
            assert str(info.value) == f"codimension {k} out of range for facet size 3"
        with pytest.raises(IncompleteColoring):
            pattern_class_histogram(c, identity_coloring(5), 1)

    def test_identity_coloring_with_a_large_palette(self):
        c = sc(10**4, 4)
        f = identity_coloring(10**4)
        for codim in range(4):
            oracle = sorted_pattern_classes(c, f, codim)
            hist = pattern_class_histogram(c, f, codim)
            assert hist.face_count == hist.class_count == len(oracle)
            assert hist.max_class_size == 1

    def test_class_cap_values(self):
        assert first_stage_class_cap(200, 3, 13, 1, 0.2) == 6
        assert first_stage_class_cap(1000, 4, 13, 2, 0.2) == 46
        assert first_stage_class_cap(10**5, 3, 13, 1, 0.1) == 2820

    def test_cost_follows_the_colors_in_use(self):
        # a billion declared colors, three in use: only those get a weight
        c = sc(6, 3)
        colors = (1, 2, 3, 1, 2, 3)
        with time_limit(5):
            huge = pattern_class_histogram(c, Coloring(colors, 10 ** 9))
            sizes = class_sizes(colors, 10 ** 9, face_columns(c, 1))
        small = pattern_class_histogram(c, Coloring(colors, 3))
        assert (huge.max_class_size, huge.class_count, huge.face_count) == (
            small.max_class_size,
            small.class_count,
            small.face_count,
        )
        oracle = sorted_pattern_classes(c, Coloring(colors, 3), 1)
        assert sorted(sizes.values()) == sorted(oracle.values())


def ref_face_columns(c, k):
    """The naive codim-k faces, sorted, as vertex columns."""
    faces = sorted(face for face in all_faces(c) if len(face) == c.dim_facet - k)
    return [list(col) for col in zip(*faces)]


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_face_columns_match_the_reference_on_random_complexes(seed):
    c = random_complex(random.Random(seed))
    for k in range(c.dim_facet):
        assert face_columns(c, k) == ref_face_columns(c, k)


def sorted_pattern_classes(c, f, codim):
    size = c.dim_facet - codim
    faces = [face for face in all_faces(c) if len(face) == size]
    return Counter(tuple(sorted(f.colors[v - 1] for v in face)) for face in faces)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize("palette", [(1, 2, 3, 4, 5, 6, 7), (1, 2, 9998, 9999, 10**4)])
def test_every_color_multiset_is_its_own_class(size, palette):
    # vertex i * size + j + 1 is the j-th copy of palette[i], and each
    # multiset of palette colors colors exactly one facet
    copies = {}
    facets = []
    for multiset in itertools.combinations_with_replacement(range(len(palette)), size):
        for i in multiset:
            copies[i] = 0
        face = []
        for i in multiset:
            face.append(i * size + copies[i] + 1)
            copies[i] += 1
        facets.append(tuple(face))
    colors = tuple(col for col in palette for _ in range(size))
    c = Complex(size, len(colors), tuple(facets))
    hist = pattern_class_histogram(c, Coloring(colors, palette[-1]), 0)
    assert hist.class_count == hist.face_count == math.comb(len(palette) + size - 1, size)
    assert hist.max_class_size == 1


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 7, 10**4]))
@settings(max_examples=120, deadline=None)
def test_class_statistics_match_sorted_patterns(seed, palette):
    # improper colorings from a few colors of a possibly huge palette, so
    # faces repeat colors and classes collide
    rng = random.Random(seed)
    c = random_complex(rng)
    pool = [rng.randint(1, palette) for _ in range(rng.randint(1, 4))]
    f = Coloring(tuple(rng.choice(pool) for _ in range(c.n_vertices)), palette)
    for codim in range(c.dim_facet):
        oracle = sorted_pattern_classes(c, f, codim)
        hist = pattern_class_histogram(c, f, codim)
        assert hist.max_class_size == max(oracle.values())
        assert hist.class_count == len(oracle)
        assert hist.face_count == sum(oracle.values())


@st.composite
def colored_faces(draw):
    """(colors, faces, base): same-size faces, colored from a small pool."""
    size = draw(st.integers(1, 6))
    palette = draw(st.sampled_from([1, 2, 3, 7, 100, 10**4]))
    # a few colors, the palette's ends among them, so patterns repeat
    color = st.one_of(st.just(1), st.just(palette), st.integers(1, palette))
    pool = draw(st.lists(color, min_size=1, max_size=5))
    n = draw(st.integers(size, 12))
    colors = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    face = st.permutations(range(1, n + 1)).map(lambda p: tuple(sorted(p[:size])))
    faces = draw(st.lists(face, max_size=30))
    return colors, faces, palette + 1


@given(colored_faces())
@settings(max_examples=300, deadline=None)
def test_pattern_codes_pack_the_sorted_patterns(case):
    colors, faces, base = case
    codes = pattern_codes([0, *colors], list(zip(*faces)), base)
    assert codes == ref_pattern_codes(colors, faces, base)
    # code order is sorted-tuple order, ties included
    patterns = [tuple(sorted(colors[v - 1] for v in face)) for face in faces]
    for (a, p), (b, q) in itertools.product(zip(codes, patterns), repeat=2):
        assert (a < b, a == b) == (p < q, p == q)


class TestIntersectingRidgeBound:
    def test_formulas(self):
        assert intersecting_ridge_bound("corridor", 3) == 18
        assert intersecting_ridge_bound("boundary", 3) == 64
        with pytest.raises(ValueError):
            intersecting_ridge_bound("sphere", 3)

    def test_exhaustive_on_corridor_20_3(self):
        ridges = ridges_of(sc(20, 3)).ridges
        worst = 0
        for r in ridges:
            meet = sum(1 for s in ridges if s != r and set(r) & set(s))
            worst = max(worst, meet)
        assert worst <= 18


class TestLllTargetColors:
    def test_worked_example(self):
        assert lll_target_colors(18, 10, 3) == 32

    def test_zero_class_size(self):
        for t in (0, 7, 10**6):
            assert lll_target_colors(t, 0, 3) == 2

    # d reaches 40, past the bit length of every target drawn here, where
    # the answer is 2 without a big power
    @given(st.integers(0, 4000), st.integers(0, 4000), st.integers(2, 40))
    @settings(max_examples=200, deadline=None)
    def test_minimal_solution(self, t, s, d):
        c2 = lll_target_colors(t, s, d)
        target = E * (2 * t * s + 1)
        assert Fraction(c2 ** (d - 1)) >= target
        if c2 > 1:
            assert Fraction((c2 - 1) ** (d - 1)) < target

    def test_huge_dimension_is_cheap(self):
        with time_limit(1):
            assert lll_target_colors(18, 10, 10 ** 9) == 2


class TestVerifiers:
    def test_identity_passes_both(self):
        c = sc(5, 3)
        f = identity_coloring(5)
        assert verify_proper(c, f)
        assert verify_unique_ridge_patterns(c, f) == (True, None)

    def test_constant_coloring_fails_with_witness(self):
        c = sc(5, 3)
        f = Coloring((1, 1, 1, 1, 1), 1)
        assert not verify_proper(c, f)
        ok, witness = verify_unique_ridge_patterns(c, f)
        assert not ok
        assert witness == ((1, 2), (1, 3))

    def test_incomplete_coloring_rejected(self):
        with pytest.raises(IncompleteColoring):
            verify_proper(sc(5, 3), identity_coloring(4))

    def test_overlong_coloring_rejected(self):
        with pytest.raises(IncompleteColoring, match="covers 6 vertices, complex has 5"):
            verify_proper(sc(5, 3), identity_coloring(6))


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_ridge_witness_is_the_first_collision(seed, palette):
    rng = random.Random(seed)
    c = random_complex(rng)
    f = Coloring(tuple(rng.randint(1, palette) for _ in range(c.n_vertices)), palette)
    witness = ref_first_pattern_collision(c, f.colors)
    assert verify_unique_ridge_patterns(c, f) == (witness is None, witness)


class TestMoserTardosRefine:
    def test_unique_input_needs_no_resamples(self):
        c = sc(8, 3)
        f = identity_coloring(8)
        result = moser_tardos_refine(c, f, RefinementParams(18, 1, 1, 0))
        assert result.resamples == 0
        assert verify_unique_ridge_patterns(c, result.coloring) == (True, None)
        assert result.coloring.c == 8

    def test_corridor_40_3_end_to_end(self):
        c = sc(40, 3)
        f = greedy_window_coloring(c, FirstColoringParams(13, 0.2, 2))
        s = pattern_class_histogram(c, f, 1).max_class_size
        c2 = lll_target_colors(18, s, 3)
        result = moser_tardos_refine(c, f, RefinementParams(18, s, c2, 2))
        ok, witness = verify_unique_ridge_patterns(c, result.coloring)
        assert ok, witness
        assert verify_proper(c, result.coloring)
        assert result.coloring.c == 13 * c2

    def test_adversarial_constant_start(self, monkeypatch):
        # the initial sample draws once per vertex; forcing those ten draws
        # to color 1 without consuming randomness starts from the constant
        # refinement, and every resample draws from the untouched stream
        draw = coloring._draw_index
        forced = iter(range(10))

        def constant_start(rng, k):
            return 0 if next(forced, None) is not None else draw(rng, k)

        monkeypatch.setattr(coloring, "_draw_index", constant_start)
        c = sc(10, 3)
        result = moser_tardos_refine(c, periodic_coloring(10, 5), RefinementParams(18, 2, 40, 3))
        assert result.resamples == 2
        assert result.g == Coloring((16, 38, 24, 39, 1, 35, 9, 31, 38, 1), 40)
        assert result.coloring == Coloring((16, 78, 104, 159, 161, 35, 49, 111, 158, 161), 200)
        assert verify_unique_ridge_patterns(c, result.coloring) == (True, None)

    def test_deterministic(self):
        c = sc(60, 3)
        f = greedy_window_coloring(c, FirstColoringParams(13, 0.2, 5))
        s = pattern_class_histogram(c, f, 1).max_class_size
        params = RefinementParams(18, s, 6, 11)
        a = moser_tardos_refine(c, f, params)
        b = moser_tardos_refine(c, f, params)
        assert a.coloring == b.coloring
        assert a.resamples == b.resamples

    def test_rejects_improper_first_coloring(self):
        c = sc(6, 3)
        with pytest.raises(PreconditionViolated):
            moser_tardos_refine(c, Coloring((1,) * 6, 2), RefinementParams(18, 9, 4, 0))

    def test_rejects_intersecting_collision(self):
        c = sc(6, 3)
        f = Coloring((1, 2, 3, 1, 2, 4), 4)  # ridges {1,2} and {2,4} share {1,2}
        assert verify_proper(c, f)
        with pytest.raises(PreconditionViolated):
            moser_tardos_refine(c, f, RefinementParams(18, 9, 4, 0))

    def test_rejects_oversized_class(self):
        c = sc(8, 3)
        with pytest.raises(PreconditionViolated):
            moser_tardos_refine(c, identity_coloring(8), RefinementParams(18, 0, 4, 0))

    @pytest.mark.parametrize(
        "colors,message",
        [
            ((1, 2, 3, 1, 2, 4), "intersecting ridges (1, 2) and (2, 4) share a pattern"),
            ((1, 2, 3, 4, 1, 2), "intersecting ridges (1, 3) and (3, 5) share a pattern"),
        ],
    )
    def test_intersecting_collision_names_its_pair(self, colors, message):
        with pytest.raises(PreconditionViolated) as info:
            moser_tardos_refine(sc(6, 3), Coloring(colors, 4), RefinementParams(18, 9, 4, 0))
        assert str(info.value) == message

    def test_oversized_class_message(self):
        with pytest.raises(PreconditionViolated) as info:
            moser_tardos_refine(sc(8, 3), identity_coloring(8), RefinementParams(18, 0, 4, 0))
        assert str(info.value) == "a ridge class has size 1 > S = 0"

    @given(
        st.sampled_from([(3, 13), (4, 19)]),
        st.integers(8, 120),
        st.integers(0, 2**32),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bucket_list_reference(self, shape, n, seed, c2):
        # few refinement colors force long resampling runs, and some hit the cap
        d, c1 = shape
        c = sc(n, d)
        f = greedy_window_coloring(c, FirstColoringParams(c1, 0.2, seed))
        s = pattern_class_histogram(c, f, 1).max_class_size
        params = RefinementParams(18, s, c2, seed + 1, max_resamples=200)
        expected = ref_refine(c, f.colors, c2, seed + 1, 200)
        if expected is None:
            with pytest.raises(ResampleCapExceeded) as info:
                moser_tardos_refine(c, f, params)
            assert info.value.resamples == 200
            return
        result = moser_tardos_refine(c, f, params)
        assert (result.coloring.colors, result.g.colors, result.resamples) == expected

    def test_resample_cap(self):
        # one refinement color can never separate the colliding disjoint pair
        c = sc(10, 3)
        f = periodic_coloring(10, 5)
        with pytest.raises(ResampleCapExceeded):
            moser_tardos_refine(c, f, RefinementParams(18, 2, 1, 0, max_resamples=5))


def first_fit_window_coloring(c, window=None):
    """Deterministic baseline: smallest color unseen in the trailing window.

    Needs at most window+1 <= (2(d-1))^2 + 1 colors on a corridor and meets
    every refinement precondition; kept as a test baseline only, since the
    randomized stage one wastes fewer colors.
    """
    w = 2 * (c.dim_facet - 1) if window is None else window
    out = []
    for v in range(1, c.n_vertices + 1):
        blocked = set(out[-w:]) if w else set()
        color = 1
        while color in blocked:
            color += 1
        out.append(color)
    return Coloring(tuple(out), max(out))


class TestDeterministicBaseline:
    def test_uses_few_colors_and_refines(self):
        c = sc(60, 3)
        f = first_fit_window_coloring(c)
        assert f.c <= (2 * (3 - 1)) ** 2 + 1
        assert verify_proper(c, f)
        s = pattern_class_histogram(c, f, 1).max_class_size
        c2 = lll_target_colors(18, s, 3)
        result = moser_tardos_refine(c, f, RefinementParams(18, s, c2, 0))
        assert verify_unique_ridge_patterns(c, result.coloring) == (True, None)

    def test_classes_grow_linearly(self):
        # with w+1 colors the class sizes scale like N / C(w+1, d-1), an input
        # regime the refinement stage has to absorb through a larger c2
        c = sc(400, 3)
        base = first_fit_window_coloring(c)
        hist = pattern_class_histogram(c, base, 1)
        assert base.c == 5
        assert hist.max_class_size >= hist.face_count // 10  # C(5,2) patterns


class TestColoringFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        f = greedy_window_coloring(sc(30, 3), FirstColoringParams(13, 0.2, 0))
        path = tmp_path / "f.coloring"
        write_coloring(f, path)
        text = path.read_text(encoding="utf-8")
        again = read_coloring(path)
        assert again == f
        assert coloring_to_text(again) == text

    def test_header_and_order_enforced(self):
        with pytest.raises(ValueError):
            coloring_from_text("palette 3\n1 1\n")
        with pytest.raises(IncompleteColoring):
            coloring_from_text("colors 3\n2 1\n1 2\n")

    def test_color_range_enforced(self):
        with pytest.raises(ValueError):
            Coloring((1, 5), 3)
        with pytest.raises(ValueError):
            Coloring((0, 1), 3)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_vertex_lookup_matches_the_reference(seed):
    # the ridges through v, column by column, are {i : v in ridge i}
    c = random_complex(random.Random(seed))
    index = _ridges_by_vertex(c.incidence.columns())
    ridges = [r for r, _ in ref_ridges(c)]
    for v in range(c.n_vertices + 2):
        through = list(_ridges_through(index, v))
        assert len(through) == len(set(through))
        assert sorted(through) == [i for i, r in enumerate(ridges) if v in r]
