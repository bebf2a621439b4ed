import hashlib
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridors import (
    Coloring,
    Complex,
    CorridorSpec,
    IncompleteColoring,
    InvalidSpec,
    NoLegalColor,
    PreconditionViolated,
    ResampleCapExceeded,
    boundary_corridor,
    coloring_from_text,
    coloring_to_text,
    first_stage_class_cap,
    greedy_window_coloring,
    intersecting_ridge_bound,
    lll_target_colors,
    moser_tardos_refine,
    read_coloring,
    straight_corridor,
    verify_proper,
    verify_unique_ridge_patterns,
    write_coloring,
)
from corridors import coloring, complex_core
from corridors.bounds import E
from corridors.coloring import (
    _require_greedy_params,
    _ridges_by_vertex,
    _ridges_through,
    class_sizes,
    default_window,
    pattern_codes,
)
from corridors.complex_core import face_columns, ridges_of
from corridors.pipeline import _require_epsilon
from conftest import (
    face_classes,
    identity_coloring,
    incidence_ridges,
    random_complex,
    time_limit,
)
from naive_reference import (
    _ref_draw_index,
    all_faces,
    ref_first_pattern_collision,
    ref_greedy_window_coloring,
    ref_intersecting_clash,
    ref_is_proper,
    ref_lll_target_colors,
    ref_pattern_codes,
    ref_refine,
    ref_ridges,
)


def sc(n, d):
    return straight_corridor(CorridorSpec(n, d))


def refinement_colors(product, c2):
    """The refinement coloring read back from a product coloring on c1 * c2
    colors: product color (f - 1) c2 + g has g = (h - 1) mod c2 + 1."""
    return tuple((h - 1) % c2 + 1 for h in product.colors)


def random_proper_coloring(c, rng, palette):
    """A coloring in which no facet repeats a color: vertices in random
    order take a random color that no vertex of a shared facet holds,
    from 1..palette while one is free and a fresh color past it otherwise."""
    colors = [0] * c.n_vertices
    order = list(range(1, c.n_vertices + 1))
    rng.shuffle(order)
    for v in order:
        taken = {colors[u - 1] for F in c.facets if v in F for u in F}
        free = [k for k in range(1, palette + 1) if k not in taken]
        colors[v - 1] = rng.choice(free) if free else max(colors) + 1
    return Coloring(tuple(colors), max(colors, default=1))


def periodic_coloring(n, period):
    return Coloring(tuple((v - 1) % period + 1 for v in range(1, n + 1)), period)


@st.composite
def greedy_cases(draw):
    """(n, c1, seed, window), with the windows 0 and c1 - 1 drawn often.

    The draws after the first `window` vertices pick from c1 - window
    colors, which falls on both sides of 256, the most options a batched
    draw takes; n runs past the window, so those draws happen.
    """
    c1 = draw(st.one_of(st.integers(1, 30), st.integers(250, 300)))
    window = draw(st.one_of(st.just(0), st.just(c1 - 1), st.integers(0, c1 - 1)))
    n = draw(st.integers(3, window + 80))
    return n, c1, draw(st.integers(0, 2**63 - 1)), window


# option counts around every bit width a batched draw takes, and past it
DRAW_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]
DRAW_SIZES += [127, 128, 129, 255, 256, 257, 1000, 2**32 + 1]


class TestBatchedDraws:
    @given(st.sampled_from(DRAW_SIZES), st.integers(0, 3000), st.integers(0, 2**63 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_single_draws(self, k, count, seed):
        rng, twin = random.Random(seed), random.Random(seed)
        draws = coloring._draw_indices(rng, k, count)
        assert draws == [_ref_draw_index(twin, k) for _ in range(count)]
        # the stream is left where the single draws leave it
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("k", [2, 13, 256])
    def test_more_draws_than_one_fetch_takes(self, k):
        count = 2**16 + 5
        rng, twin = random.Random(k), random.Random(k)
        draws = coloring._draw_indices(rng, k, count)
        assert draws == [_ref_draw_index(twin, k) for _ in range(count)]
        assert rng.getstate() == twin.getstate()

    def test_no_options(self):
        assert coloring._draw_indices(random.Random(0), 0, 0) == []
        with pytest.raises(ValueError):
            coloring._draw_indices(random.Random(0), 0, 1)


class TestGreedyWindowColoring:
    @pytest.mark.parametrize("n,d,c1,seed", [(30, 3, 13, 0), (50, 4, 19, 5), (80, 5, 25, 9)])
    def test_window_distinctness(self, n, d, c1, seed):
        c = sc(n, d)
        window = 2 * (d - 1)
        f = greedy_window_coloring(c, c1, seed)
        for i in range(1, n + 1):
            for j in range(i + 1, min(i + window, n) + 1):
                assert f.colors[i - 1] != f.colors[j - 1]

    def test_no_legal_color(self):
        with pytest.raises(NoLegalColor):
            greedy_window_coloring(sc(5, 3), 4, 0, window=4)

    def test_deterministic_given_seed(self):
        c = sc(100, 3)
        a = greedy_window_coloring(c, 13, 3)
        b = greedy_window_coloring(c, 13, 3)
        other = greedy_window_coloring(c, 13, 4)
        assert a == b
        assert a != other

    def test_frozen_stream(self):
        # pins the documented draw schedule; a change here is a compatibility break
        f = greedy_window_coloring(sc(12, 3), 13, 42)
        assert f.colors == (11, 2, 1, 7, 6, 8, 4, 2, 13, 3, 10, 1)

    def test_frozen_long_stream(self):
        # 10^4 draws pinned by digest, so drift late in a long stream shows too
        f = greedy_window_coloring(sc(10**4, 4), 19, 7)
        digest = hashlib.sha256(coloring_to_text(f).encode()).hexdigest()
        assert digest == "143d2067b9e52cf7216845d939851d80ba2d2249b2406727eca54f351e9f2a8b"

    @given(greedy_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_allowed_list_reference(self, case):
        n, c1, seed, window = case
        f = greedy_window_coloring(sc(n, 3), c1, seed, window)
        assert f.colors == ref_greedy_window_coloring(n, c1, seed, window)

    def test_output_is_proper(self):
        c = sc(200, 3)
        f = greedy_window_coloring(c, 13, 1)
        assert verify_proper(c, f)

    def test_param_validation(self):
        with pytest.raises(InvalidSpec, match="^need at least one color, got 0$"):
            greedy_window_coloring(sc(5, 3), 0, 0)
        # the slack is checked where it is read, before the class cap
        for epsilon in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidSpec, match="need a finite positive epsilon"):
                _require_epsilon(epsilon)
        with pytest.raises(InvalidSpec, match="^window must be nonnegative, got -1$"):
            greedy_window_coloring(sc(5, 3), 13, 0, window=-1)

    @pytest.mark.parametrize("c1", [sys.maxsize + 1, 99999999999999999999])
    def test_c1_beyond_sys_maxsize_rejected(self, c1):
        # the free color list cannot hold more than sys.maxsize colors; never
        # run a c1 that fits there but not in memory, as the list is allocated
        with pytest.raises(InvalidSpec) as info:
            greedy_window_coloring(sc(5, 3), c1, 0)
        assert str(info.value) == f"need c1 <= {sys.maxsize}, got {c1}"
        assert _require_greedy_params(sys.maxsize, 4) is None

    def test_c1_beyond_memory_rejected(self):
        # list() refuses sys.maxsize entries at its size check, before it
        # allocates anything; no smaller c1 is run, as its list would be built
        with pytest.raises(InvalidSpec) as info:
            greedy_window_coloring(sc(5, 3), sys.maxsize, 0)
        assert str(info.value) == f"no memory for a list of c1 = {sys.maxsize} colors"


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
        f = greedy_window_coloring(c, 6 * (d - 1) + 1, seed)
        ridges = incidence_ridges(ridges_of(c))
        patterns = [tuple(sorted(f.colors[v - 1] for v in r)) for r in ridges]
        for (ra, pa), (rb, pb) in itertools.combinations(zip(ridges, patterns), 2):
            if set(ra) & set(rb):
                assert pa != pb


class TestPatternHistogram:
    def test_identity_coloring_all_singletons(self):
        c = sc(9, 3)
        sizes = face_classes(c, identity_coloring(9), 1)
        assert max(sizes.values()) == 1
        assert len(sizes) == sum(sizes.values()) == 15

    def test_identity_on_sc_5_3(self):
        sizes = face_classes(sc(5, 3), identity_coloring(5), 1)
        assert sum(sizes.values()) == 7
        assert len(sizes) == 7

    def test_expected_class_size_arithmetic(self):
        # N (d-1) / C(13, 2) = 20000/78 = 256.41 at N = 10^4; the exact
        # cap reaches 257 at 1 + eps = 257 * 78 / 20000 = 1.0023, not before
        assert first_stage_class_cap(10**4, 3, 13, 1, 0.0) == 256
        assert first_stage_class_cap(10**4, 3, 13, 1, 0.0022) == 256
        assert first_stage_class_cap(10**4, 3, 13, 1, 0.0023) == 257

    def test_greedy_meets_cap_at_desk_scale(self):
        c = sc(10**4, 3)
        f = greedy_window_coloring(c, 13, 38)
        largest = max(face_classes(c, f, 1).values())
        cap = first_stage_class_cap(10**4, 3, 13, 1, 0.1)
        assert cap == 282
        assert largest == 280
        assert largest <= cap

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

    def test_identity_coloring_with_a_large_palette(self):
        c = sc(10**4, 4)
        f = identity_coloring(10**4)
        for codim in range(4):
            oracle = sorted_pattern_classes(c, f, codim)
            sizes = face_classes(c, f, codim)
            assert sum(sizes.values()) == len(sizes) == len(oracle)
            assert max(sizes.values()) == 1

    def test_class_cap_values(self):
        assert first_stage_class_cap(200, 3, 13, 1, 0.2) == 6
        assert first_stage_class_cap(1000, 4, 13, 2, 0.2) == 46
        assert first_stage_class_cap(10**5, 3, 13, 1, 0.1) == 2820

    def test_cost_follows_the_colors_in_use(self):
        # a billion declared colors, three in use: only those get a weight
        c = sc(6, 3)
        colors = (1, 2, 3, 1, 2, 3)
        with time_limit(5):
            huge = class_sizes(colors, 10 ** 9, face_columns(c, 1))
        small = class_sizes(colors, 3, face_columns(c, 1))
        assert sorted(huge.values()) == sorted(small.values())
        oracle = sorted_pattern_classes(c, Coloring(colors, 3), 1)
        assert sorted(huge.values()) == sorted(oracle.values())


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
    sizes = face_classes(c, Coloring(colors, palette[-1]), 0)
    assert len(sizes) == sum(sizes.values()) == math.comb(len(palette) + size - 1, size)
    assert max(sizes.values()) == 1


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
        sizes = face_classes(c, f, codim)
        assert max(sizes.values()) == max(oracle.values())
        assert len(sizes) == len(oracle)
        assert sum(sizes.values()) == sum(oracle.values())


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
        ridges = incidence_ridges(ridges_of(sc(20, 3)))
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

    @given(st.integers(0, 60), st.integers(0, 60), st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_search(self, t, s, d):
        assert lll_target_colors(t, s, d) == ref_lll_target_colors(t, s, d, E)

    # past 10^46 a float root drifts by more than the answer's spacing, and
    # past 10^308 it overflows; the integer root is exact at any size
    @pytest.mark.parametrize("s", [10 ** 50, 10 ** 400], ids=["1e50", "1e400"])
    @pytest.mark.parametrize("d", [2, 3, 4, 10])
    def test_huge_class_size_is_exact(self, s, d):
        with time_limit(1):
            c2 = lll_target_colors(18, s, d)
        target = E * (2 * 18 * s + 1)
        assert c2 ** (d - 1) >= target > (c2 - 1) ** (d - 1)


class TestVerifiers:
    def test_identity_passes_both(self):
        c = sc(5, 3)
        f = identity_coloring(5)
        assert verify_proper(c, f)
        assert verify_unique_ridge_patterns(c, f) is True

    def test_constant_coloring_fails(self):
        c = sc(5, 3)
        f = Coloring((1, 1, 1, 1, 1), 1)
        assert not verify_proper(c, f)
        assert verify_unique_ridge_patterns(c, f) is False
        assert ref_first_pattern_collision(c, f.colors) == ((1, 2), (1, 3))

    def test_incomplete_coloring_rejected(self):
        with pytest.raises(IncompleteColoring):
            verify_proper(sc(5, 3), identity_coloring(4))

    def test_overlong_coloring_rejected(self):
        with pytest.raises(IncompleteColoring, match="covers 6 vertices, complex has 5"):
            verify_proper(sc(5, 3), identity_coloring(6))


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_ridge_uniqueness_matches_reference(seed, palette):
    rng = random.Random(seed)
    c = random_complex(rng)
    f = Coloring(tuple(rng.randint(1, palette) for _ in range(c.n_vertices)), palette)
    unique = ref_first_pattern_collision(c, f.colors) is None
    assert verify_unique_ridge_patterns(c, f) is unique


class TestMoserTardosRefine:
    def test_unique_input_needs_no_resamples(self):
        c = sc(8, 3)
        f = identity_coloring(8)
        result = moser_tardos_refine(c, f, 1, 1, 0)
        assert result.resamples == 0
        assert verify_unique_ridge_patterns(c, result.coloring) is True
        assert result.coloring.c == 8

    def test_corridor_40_3_end_to_end(self):
        c = sc(40, 3)
        f = greedy_window_coloring(c, 13, 2)
        s = max(face_classes(c, f, 1).values())
        c2 = lll_target_colors(18, s, 3)
        result = moser_tardos_refine(c, f, s, c2, 2)
        assert verify_unique_ridge_patterns(c, result.coloring) is True
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
        result = moser_tardos_refine(c, periodic_coloring(10, 5), 2, 40, 3)
        assert result.resamples == 2
        assert refinement_colors(result.coloring, 40) == (16, 38, 24, 39, 1, 35, 9, 31, 38, 1)
        assert result.coloring == Coloring((16, 78, 104, 159, 161, 35, 49, 111, 158, 161), 200)
        assert verify_unique_ridge_patterns(c, result.coloring) is True

    def test_deterministic(self):
        c = sc(60, 3)
        f = greedy_window_coloring(c, 13, 5)
        s = max(face_classes(c, f, 1).values())
        a = moser_tardos_refine(c, f, s, 6, 11)
        b = moser_tardos_refine(c, f, s, 6, 11)
        assert a.coloring == b.coloring
        assert a.resamples == b.resamples

    def test_rejects_improper_first_coloring(self):
        c = sc(6, 3)
        with pytest.raises(PreconditionViolated):
            moser_tardos_refine(c, Coloring((1,) * 6, 2), 9, 4, 0)

    def test_rejects_intersecting_collision(self):
        c = sc(6, 3)
        f = Coloring((1, 2, 3, 1, 2, 4), 4)  # ridges {1,2} and {2,4} share {1,2}
        assert verify_proper(c, f)
        with pytest.raises(PreconditionViolated):
            moser_tardos_refine(c, f, 9, 4, 0)

    def test_rejects_oversized_class(self):
        c = sc(8, 3)
        with pytest.raises(PreconditionViolated):
            moser_tardos_refine(c, identity_coloring(8), 0, 4, 0)

    @pytest.mark.parametrize(
        "colors,message",
        [
            ((1, 2, 3, 1, 2, 4), "intersecting ridges (1, 2) and (2, 4) share a pattern"),
            ((1, 2, 3, 4, 1, 2), "intersecting ridges (1, 3) and (3, 5) share a pattern"),
        ],
    )
    def test_intersecting_collision_names_its_pair(self, colors, message):
        with pytest.raises(PreconditionViolated) as info:
            moser_tardos_refine(sc(6, 3), Coloring(colors, 4), 9, 4, 0)
        assert str(info.value) == message

    def test_clash_named_at_the_smallest_vertex_then_class(self):
        # the ridge order meets vertex 5, which clashes in class {1, 2},
        # before vertex 2, which clashes in classes {4, 6} and {4, 5}: the
        # smallest vertex and class win, with their two smallest ridges
        c = Complex(3, 10, ((1, 5, 6), (2, 3, 4), (2, 9, 10), (5, 7, 8)))
        f = Coloring((1, 4, 6, 5, 2, 3, 1, 3, 6, 5), 6)
        assert verify_proper(c, f)
        with pytest.raises(PreconditionViolated) as info:
            moser_tardos_refine(c, f, 9, 4, 0)
        assert str(info.value) == "intersecting ridges (2, 4) and (2, 10) share a pattern"

    def test_oversized_class_message(self):
        with pytest.raises(PreconditionViolated) as info:
            moser_tardos_refine(sc(8, 3), identity_coloring(8), 0, 4, 0)
        assert str(info.value) == "a ridge class has size 1 > S = 0"

    @given(
        st.sampled_from([("corridor", 3, 13), ("corridor", 4, 19), ("boundary", 3, 13)]),
        st.integers(8, 120),
        st.integers(0, 2**32),
        st.one_of(st.integers(1, 6), st.just(2**28)),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_bucket_list_reference(self, shape, n, seed, c2, wide):
        # few refinement colors force long resampling runs, and some hit the
        # cap.  c2 = 2**28, or a stage-one coloring that declares 2**62
        # colors but uses the same few (the product colors and the expected
        # run stay as they are), takes the pattern codes past 64 bits, where
        # refinement keeps them in int lists
        kind, d, c1 = shape
        if kind == "corridor":
            c = sc(n, d)
            f = greedy_window_coloring(c, c1, seed)
        else:
            # the boundary of SC(n, d + 1), colored as the pipeline colors it
            c = boundary_corridor(n, d)
            f = greedy_window_coloring(c, c1, seed, default_window(d + 1))
        if wide:
            f = Coloring(f.colors, 2**62)
        s = max(face_classes(c, f, 1).values())
        expected = ref_refine(c, f.colors, c2, seed + 1, 200)
        if expected is None:
            with pytest.raises(ResampleCapExceeded) as info:
                moser_tardos_refine(c, f, s, c2, seed + 1, max_resamples=200)
            # one refinement color can resolve nothing, so it fails at once
            assert info.value.resamples == (0 if c2 == 1 else 200)
            return
        result = moser_tardos_refine(c, f, s, c2, seed + 1, max_resamples=200)
        g = refinement_colors(result.coloring, c2)
        assert (result.coloring.colors, g, result.resamples) == expected

    @given(st.integers(0, 2**32), st.integers(2, 5))
    @settings(max_examples=150, deadline=None)
    def test_clash_named_as_a_vertex_scan_names_it(self, seed, block):
        # blocks of 2 to 5 entries per column make the merge of the vertex
        # index cross many block boundaries on these small complexes
        rng = random.Random(seed)
        c = random_complex(rng)
        f = random_proper_coloring(c, rng, rng.randint(2, 6))
        expected = ref_intersecting_clash(c, f.colors)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(complex_core, "_BLOCK", block)
            if expected is None:
                # with 2**40 refinement colors a collision is all but impossible
                result = moser_tardos_refine(c, f, len(f.colors) ** 4, 2**40, seed)
                assert verify_unique_ridge_patterns(c, result.coloring)
                return
            with pytest.raises(PreconditionViolated) as info:
                moser_tardos_refine(c, f, len(f.colors) ** 4, 2**40, seed)
        first, second = expected
        assert str(info.value) == f"intersecting ridges {first} and {second} share a pattern"

    def test_lanes_match_the_boxed_path(self, monkeypatch):
        # over 4096 ridges, so the lane kernels span chunks, and few
        # refinement colors, so many patterns collide from the start
        c = sc(3000, 3)
        f = greedy_window_coloring(c, 13, 4)
        s = max(face_classes(c, f, 1).values())

        def outcome():
            result = moser_tardos_refine(c, f, s, 32, 5)
            return result.coloring, result.resamples

        lanes = outcome()
        monkeypatch.setattr(complex_core, "_fits_lanes", lambda columns, top: False)
        assert outcome() == lanes
        assert lanes[1] > 100

    @pytest.mark.parametrize(
        "S,c2,max_resamples,message",
        [
            (-1, 4, 10, "S must be nonnegative"),
            (9, 0, 10, "need at least one refinement color, got 0"),
            (9, 4, -1, "resample cap must be nonnegative"),
        ],
    )
    def test_param_validation(self, S, c2, max_resamples, message):
        with pytest.raises(InvalidSpec) as info:
            moser_tardos_refine(sc(8, 3), identity_coloring(8), S, c2, 0, max_resamples)
        assert str(info.value) == message

    def test_resample_cap(self):
        # one refinement color can never separate the colliding disjoint pair
        c = sc(10, 3)
        f = periodic_coloring(10, 5)
        with pytest.raises(ResampleCapExceeded):
            moser_tardos_refine(c, f, 2, 1, 0, max_resamples=5)


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
        s = max(face_classes(c, f, 1).values())
        c2 = lll_target_colors(18, s, 3)
        result = moser_tardos_refine(c, f, s, c2, 0)
        assert verify_unique_ridge_patterns(c, result.coloring) is True

    def test_classes_grow_linearly(self):
        # with w+1 colors the class sizes scale like N / C(w+1, d-1), an input
        # regime the refinement stage has to absorb through a larger c2
        c = sc(400, 3)
        base = first_fit_window_coloring(c)
        sizes = face_classes(c, base, 1)
        assert base.c == 5
        assert max(sizes.values()) >= sum(sizes.values()) // 10  # C(5,2) patterns


class TestColoringFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        f = greedy_window_coloring(sc(30, 3), 13, 0)
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

    @pytest.mark.parametrize(
        "colors,message",
        [
            ((1, 2, 4, 3, 0), "vertex 3 has color 4 outside 1..3"),
            ((1, 2, 0, 3, 4), "vertex 3 has color 0 outside 1..3"),
            ((4,), "vertex 1 has color 4 outside 1..3"),
            ((2, 3, 1, 2, -1), "vertex 5 has color -1 outside 1..3"),
        ],
    )
    def test_first_bad_vertex_named(self, colors, message):
        with pytest.raises(ValueError) as info:
            Coloring(colors, 3)
        assert str(info.value) == message

    def test_empty_and_boundary_colorings_accepted(self):
        assert Coloring((), 3).n_vertices == 0
        assert Coloring((1, 3, 2, 1), 3).colors == (1, 3, 2, 1)
        with pytest.raises(ValueError) as info:
            Coloring((), 0)
        assert str(info.value) == "color count must be positive, got 0"


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_vertex_lookup_matches_the_reference(seed):
    # the ridges through v, whatever their classes, are {i : v in ridge i}
    rng = random.Random(seed)
    c = random_complex(rng)
    ridges = [r for r, _ in ref_ridges(c)]
    classes = [rng.randrange(3) for _ in ridges]
    index = _ridges_by_vertex(c.incidence.columns(), classes, c.n_vertices, 3)
    for v in range(c.n_vertices + 2):
        through = list(_ridges_through(index, v))
        assert len(through) == len(set(through))
        assert sorted(through) == [i for i, r in enumerate(ridges) if v in r]


def few_faces(size, count):
    """The first `count` faces of `size` vertices from 1..5, as tuples."""
    return list(itertools.combinations(range(1, 6), size))[:count]


# one face is the one index for which itemgetter returns a bare item, and no
# face the case it cannot be built for
@pytest.mark.parametrize("count", [0, 1, 2])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_pattern_keys_of_few_faces(size, count):
    colors = (3, 1, 3, 2, 1)
    faces = few_faces(size, count)
    oracle = ref_pattern_codes(colors, faces, 4)
    # no faces come as no columns, or as `size` empty ones
    for columns in (list(zip(*faces)), [list(col) for col in zip(*faces)] or [[]] * size):
        codes = pattern_codes((0, *colors), columns, 4)
        assert codes == oracle
        # refinement rewrites codes in place
        assert type(codes) is list
        sizes = class_sizes(colors, 3, columns)
        assert sorted(sizes.values()) == sorted(Counter(oracle).values())


@pytest.mark.parametrize("count", [0, 1, 2])
@pytest.mark.parametrize("colors", [(1, 2, 3, 4, 5), (3, 1, 3, 2, 1), (1, 1, 2, 3, 4)])
def test_properness_of_few_facets(count, colors):
    for d in (1, 2, 3):
        c = Complex(d, 5, tuple(few_faces(d, count)))
        assert verify_proper(c, Coloring(colors, 5)) == ref_is_proper(c, colors)
