import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    face_classes,
    identity_coloring,
    incidence_ridges,
    small_complex_corpus,
    tuple_ridge_map,
)
from corridors import (
    Coloring,
    Complex,
    CorridorSpec,
    ImproperColoring,
    boundary_corridor,
    diameter_exact,
    dual_graph,
    greedy_window_coloring,
    intersecting_ridge_bound,
    is_pseudomanifold,
    lll_target_colors,
    moser_tardos_refine,
    pattern_complex,
    straight_corridor,
    verify_boundary_preservation,
    verify_unique_ridge_patterns,
)
from corridors import complex_core
from corridors.complex_core import ridges_of
from corridors.quotient import quotient_report
from naive_reference import (
    ref_boundary_preserved,
    ref_first_pattern_collision,
    ref_patterns_distinct,
)

CORPUS = small_complex_corpus()


def sc(n, d):
    return straight_corridor(CorridorSpec(n, d))


def refined_quotient(c, c1, shape, seed):
    """Full stage-one + stage-two run, then the quotient.

    Boundary complexes need the carrier-sized window 2d: their intersecting
    ridges can sit up to 2d apart, beyond the in-complex default 2(d-1).
    """
    window = 2 * c.dim_facet if shape == "boundary" else None
    f = greedy_window_coloring(c, c1, seed, window)
    s = max(face_classes(c, f, 1).values())
    t = intersecting_ridge_bound(shape, c.dim_facet)
    c2 = lll_target_colors(t, s, c.dim_facet)
    result = moser_tardos_refine(c, f, s, c2, seed)
    return pattern_complex(c, result.coloring)


def random_proper_coloring(c, rng, palette=None):
    """Proper coloring on a palette of at least one facet's size, random
    unless given; a palette too small for some vertex is widened."""
    if palette is None:
        palette = rng.randint(c.dim_facet, max(c.dim_facet, c.n_vertices))
    nbrs = {v: set() for v in range(1, c.n_vertices + 1)}
    for F in c.facets:
        for u, v in itertools.combinations(F, 2):
            nbrs[u].add(v)
            nbrs[v].add(u)
    colors = {}
    order = list(range(1, c.n_vertices + 1))
    rng.shuffle(order)
    for v in order:
        used = {colors[u] for u in nbrs[v] if u in colors}
        free = [col for col in range(1, palette + 1) if col not in used]
        if not free:  # the palette is too small for this vertex: widen it
            palette += 1
            free = [palette]
        colors[v] = rng.choice(free)
    return Coloring(tuple(colors[v] for v in range(1, c.n_vertices + 1)), palette)


def assert_diameters_recomputed(fragment, c, q):
    assert fragment["diameter_method"] == "recomputed-both"
    assert fragment["diameter_source"] == diameter_exact(dual_graph(c))
    assert fragment["diameter_quotient"] == diameter_exact(dual_graph(q.quotient))


def swap_two_images(mapping, rng):
    """Copy of mapping with the images of two distinct keys exchanged.

    A dict's keys are its sorted keys; a per-row sequence's are its rows.
    """
    keys = sorted(mapping) if isinstance(mapping, dict) else range(len(mapping))
    a, b = rng.sample(keys, 2)
    swapped = copy.copy(mapping)
    swapped[a], swapped[b] = mapping[b], mapping[a]
    return swapped


class TestPatternComplex:
    def test_identity_coloring_relabels(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        assert q.quotient == c
        assert q.facets_injective and q.ridges_injective
        assert list(q.facet_map) == [0, 1, 2]
        decoded = tuple_ridge_map(c, q).ridge_map
        assert len(decoded) == len(ridges_of(c)) == 7
        assert all(decoded[r] == r for r in incidence_ridges(ridges_of(c)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_facet_matches_the_reference(self, d):
        # each facet column holds one vertex, the one index for which
        # itemgetter returns a bare item; sparse colors are renumbered
        c = Complex(d, d, (tuple(range(1, d + 1)),))
        q = pattern_complex(c, Coloring(tuple(range(3 * d, 0, -3)), 3 * d))
        assert q.quotient == c
        assert list(q.facet_map) == [0]
        assert verify_boundary_preservation(c, q)
        assert ref_boundary_preserved(c, tuple_ridge_map(c, q))

    def test_constant_coloring_rejected(self):
        with pytest.raises(ImproperColoring):
            pattern_complex(sc(5, 3), Coloring((1,) * 5, 1))

    def test_renumbers_sparse_colors(self):
        c = Complex(2, 3, ((1, 2), (2, 3)))
        f = Coloring((5, 2, 9), 9)
        q = pattern_complex(c, f)
        assert q.quotient.n_vertices == 3
        # quotient vertex i is the i-th smallest used color
        used = sorted({f.colors[v - 1] for F in c.facets for v in F})
        assert used == [2, 5, 9]
        relabeled = tuple(
            sorted(tuple(sorted(used.index(f.colors[v - 1]) + 1 for v in F)) for F in c.facets)
        )
        assert q.quotient.facets == relabeled == ((1, 2), (1, 3))

    def test_facet_collision_flagged_not_fatal(self):
        c = sc(6, 3)
        # facets {1,2,3}, {2,3,4}, {3,4,5} all get pattern {1,2,3}; {4,5,6} is unique
        f = Coloring((1, 2, 3, 1, 2, 4), 4)
        q = pattern_complex(c, f)
        assert not q.facets_injective
        assert not ref_patterns_distinct(c.facets, f.colors)
        assert not q.ridges_injective
        # the ridge map still holds one code per source row, repeats included
        assert len(q.ridge_map) == len(c.incidence)
        assert len(set(q.ridge_map)) < len(q.ridge_map)
        assert q.quotient.facets == ((1, 2, 3), (1, 2, 4))
        # the three colliding facets share the index of their pattern
        assert list(q.facet_map) == [0, 0, 0, 1]

    def test_full_pipeline_sc_40_3(self):
        c = sc(40, 3)
        q = refined_quotient(c, 13, "corridor", 2)
        assert q.facets_injective and q.ridges_injective
        assert len(q.quotient.facets) == 38
        assert diameter_exact(dual_graph(q.quotient)) == 37

    def test_identity_coloring_relabels_whole_corpus(self, corpus):
        # identity quotients are order-preserving relabelings even when some
        # vertices sit in no facet and drop out of the numbering
        for c in corpus:
            q = pattern_complex(c, identity_coloring(c.n_vertices))
            # the used colors are the vertices in some facet, ascending
            used = sorted({v for F in c.facets for v in F})
            relabeled = tuple(
                sorted(tuple(used.index(v) + 1 for v in F) for F in c.facets)
            )
            assert q.quotient.facets == relabeled
            assert q.facets_injective and q.ridges_injective
            assert verify_boundary_preservation(c, q)


class TestBoundaryPreservation:
    def test_identity_quotient(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        assert verify_boundary_preservation(c, q)

    def test_pipeline_runs_preserve(self):
        for n, seed in [(40, 0), (120, 1), (200, 2)]:
            c = sc(n, 3)
            q = refined_quotient(c, 13, "corridor", seed)
            assert verify_boundary_preservation(c, q)

    def test_boundary_pipeline_preserves(self):
        b = boundary_corridor(60, 3)
        q = refined_quotient(b, 13, "boundary", 4)
        assert verify_boundary_preservation(b, q)
        assert is_pseudomanifold(q.quotient)

    def test_corrupted_quotient_detected(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        # swap one quotient facet for a different 3-set
        broken_complex = Complex(3, 5, ((1, 2, 3), (2, 3, 4), (2, 4, 5)))
        broken = type(q)(
            quotient=broken_complex,
            facet_map=q.facet_map,
            ridge_map=q.ridge_map,
        )
        assert not verify_boundary_preservation(c, broken)

    def test_swapped_facet_map_detected(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        swapped = copy.copy(q.facet_map)
        swapped[0], swapped[1] = q.facet_map[1], q.facet_map[0]
        broken = q._replace(facet_map=swapped)
        assert not verify_boundary_preservation(c, broken)
        assert not ref_boundary_preserved(c, tuple_ridge_map(c, broken))

    def test_unmapped_facet_detected(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        unmapped = copy.copy(q.facet_map)
        unmapped[1] = -1
        assert not verify_boundary_preservation(c, q._replace(facet_map=unmapped))

    def test_short_facet_map_detected(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        short = q.facet_map[:-1]
        assert not verify_boundary_preservation(c, q._replace(facet_map=short))

    def test_swapped_ridge_map_entries_detected(self):
        # ridges (2, 3) and (3, 4) both lie in two facets, so the swap keeps
        # every row width and only the entries betray it
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        assert c.incidence.widths()[2] == c.incidence.widths()[4] == 2
        swapped = copy.copy(q.ridge_map)
        swapped[2], swapped[4] = q.ridge_map[4], q.ridge_map[2]
        broken = q._replace(ridge_map=swapped)
        assert not verify_boundary_preservation(c, broken)
        assert not ref_boundary_preserved(c, tuple_ridge_map(c, broken))

    def test_replaced_quotient_facet_detected(self):
        # the first facet (1, 2, 3) becomes (1, 3, 4): the facet, ridge and
        # entry counts hold, so only the sorted comparison can tell
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        replaced = Complex(3, 5, ((1, 3, 4), (2, 3, 4), (3, 4, 5)))
        assert len(replaced.incidence) == len(c.incidence)
        assert len(replaced.incidence.fids) == len(c.incidence.fids)
        broken = q._replace(quotient=replaced)
        assert not verify_boundary_preservation(c, broken)

    def test_swapped_ridge_codes_detected(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        # ridge (1, 2) lies in facet 0 only, ridge (2, 3) in facets 0 and 1
        swapped = copy.copy(q.ridge_map)
        swapped[0], swapped[2] = q.ridge_map[2], q.ridge_map[0]
        broken = q._replace(ridge_map=swapped)
        assert not verify_boundary_preservation(c, broken)
        assert not ref_boundary_preserved(c, tuple_ridge_map(c, broken))

    def test_ridge_map_is_one_quotient_code_per_source_row(self):
        # colors 2, 4, 5, 7, 9 become quotient vertices 1..5, so the source
        # vertices 1..5 land on 3, 1, 5, 2, 4 and codes are in base 6
        c = sc(5, 3)
        q = pattern_complex(c, Coloring((5, 2, 9, 4, 7), 9))
        assert q.ridges_injective
        decoded = tuple_ridge_map(c, q).ridge_map
        assert decoded == {
            (1, 2): (1, 3), (1, 3): (3, 5), (2, 3): (1, 5), (2, 4): (1, 2),
            (3, 4): (2, 5), (3, 5): (4, 5), (4, 5): (2, 4),
        }
        assert list(q.ridge_map) == [9, 23, 11, 8, 17, 29, 16]

    @given(st.integers(0, len(CORPUS) - 1), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle(self, index, seed):
        c = CORPUS[index]
        rng = random.Random(seed)
        q = pattern_complex(c, random_proper_coloring(c, rng))
        if not (q.facets_injective and q.ridges_injective):
            assert verify_boundary_preservation(c, q) is False
            assert not ref_boundary_preserved(c, tuple_ridge_map(c, q))
            return
        assert verify_boundary_preservation(c, q)
        assert ref_boundary_preserved(c, tuple_ridge_map(c, q))
        for field in ("facet_map", "ridge_map"):
            mapping = getattr(q, field)
            if len(mapping) > 1:
                broken = q._replace(**{field: swap_two_images(mapping, rng)})
                fast = verify_boundary_preservation(c, broken)
                assert fast == ref_boundary_preserved(c, tuple_ridge_map(c, broken))

    @given(
        st.integers(0, len(CORPUS) - 1),
        st.integers(0, 10_000),
        st.integers(1, 7),
        st.integers(1, 4),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_runs_and_blocks_match_dense_oracle(self, index, seed, run, block, lanes):
        # runs of 1 to 7 entries merged in blocks of 1 to 4 per run cross
        # many run and block boundaries on these small complexes, with the
        # moved codes built in lanes and one at a time
        c = CORPUS[index]
        rng = random.Random(seed)
        q = pattern_complex(c, random_proper_coloring(c, rng))
        candidates = [q]
        for field in ("facet_map", "ridge_map"):
            if len(getattr(q, field)) > 1:
                candidates.append(q._replace(**{field: swap_two_images(getattr(q, field), rng)}))
        expected = [ref_boundary_preserved(c, tuple_ridge_map(c, x)) for x in candidates]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(complex_core, "_RUN", run)
            patch.setattr(complex_core, "_BLOCK", block)
            if not lanes:
                patch.setattr(complex_core, "_fits_lanes", lambda columns, top: False)
            assert [verify_boundary_preservation(c, x) for x in candidates] == expected

    def test_ridge_code_out_of_range_detected(self):
        # base 6, ridges of two vertices: codes lie in 0..35
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        assert verify_boundary_preservation(c, q)
        for bad in (-1, 36, 1 << 62):
            ridge_map = copy.copy(q.ridge_map)
            ridge_map[0] = bad
            assert not verify_boundary_preservation(c, q._replace(ridge_map=ridge_map))

    @given(st.integers(0, len(CORPUS) - 1), st.integers(0, 10_000), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_injectivity_counts_match_reference(self, index, seed, extra):
        # palettes of at most two colors beyond a facet's size, so that
        # facet and ridge patterns often collide
        c = CORPUS[index]
        f = random_proper_coloring(c, random.Random(seed), c.dim_facet + extra)
        q = pattern_complex(c, f)
        ridges_unique = ref_first_pattern_collision(c, f.colors) is None
        assert q.facets_injective == ref_patterns_distinct(c.facets, f.colors)
        assert q.ridges_injective == ridges_unique
        assert verify_unique_ridge_patterns(c, f) == ridges_unique
        assert len(q.ridge_map) == len(c.incidence)
        assert q.ridges_injective == (len(set(q.ridge_map)) == len(q.ridge_map))
        assert q.facets_injective == (len(set(q.facet_map)) == len(q.facet_map))

    @pytest.mark.parametrize("period, injective", [(25, True), (21, False)])
    def test_ridge_codes_past_64_bits(self, period, injective):
        # 19-vertex ridges in base 26 or 22 have codes of over 80 bits, so
        # ridge_map is an int list.  Coloring vertex v by (v - 1) % period + 1
        # is the identity at period 25; at period 21 it stays proper on
        # SC(25, 20), and ridges (1, 3, ..., 20) and (3, ..., 20, 22) collide
        c = sc(25, 20)
        f = Coloring(tuple((v - 1) % period + 1 for v in range(1, 26)), period)
        q = pattern_complex(c, f)
        assert isinstance(q.ridge_map, list)
        assert min(q.ridge_map) >= 1 << 64
        assert ref_patterns_distinct(c.facets, f.colors)
        assert (ref_first_pattern_collision(c, f.colors) is None) is injective
        assert q.facets_injective
        assert q.ridges_injective is injective
        assert verify_unique_ridge_patterns(c, f) is injective
        assert verify_boundary_preservation(c, q) is injective
        assert ref_boundary_preserved(c, tuple_ridge_map(c, q)) is injective
        broken = q._replace(ridge_map=swap_two_images(q.ridge_map, random.Random(5)))
        assert verify_boundary_preservation(c, broken) is False
        assert not ref_boundary_preserved(c, tuple_ridge_map(c, broken))

    def test_missing_bijection_fails(self):
        # a proper coloring whose facets and ridges collide: no bijection
        # exists, so the check fails instead of raising
        c = sc(6, 3)
        q = pattern_complex(c, Coloring((1, 2, 3, 1, 2, 3), 3))
        assert not (q.facets_injective or q.ridges_injective)
        assert verify_boundary_preservation(c, q) is False

    def test_ridge_collision_alone_fails(self):
        # facets 123, 234, 345, 456 get four distinct patterns, but three
        # pairs of ridges share one, (1, 3) and (3, 5) first: the quotient
        # has three ridges fewer than the source, and the length check
        # fails on that alone
        c = sc(6, 3)
        q = pattern_complex(c, Coloring((1, 2, 3, 4, 1, 2), 4))
        assert q.facets_injective and not q.ridges_injective
        assert ref_first_pattern_collision(c, (1, 2, 3, 4, 1, 2)) == ((1, 3), (3, 5))
        assert len(q.quotient.incidence) == len(c.incidence) - 3
        assert verify_boundary_preservation(c, q) is False
        assert not ref_boundary_preserved(c, tuple_ridge_map(c, q))
        assert quotient_report(c, q)["boundary_preserved"] is None

    def test_preservation_transfers_structure(self):
        # where the check passes, diameter / pm-ness / dual graph all transfer;
        # re-measure each directly rather than trusting the implication
        cases = [
            (sc(60, 3), "corridor", 5),
            (boundary_corridor(30, 3), "boundary", 6),
        ]
        for c, shape, seed in cases:
            q = refined_quotient(c, 13, shape, seed)
            assert verify_boundary_preservation(c, q)
            gs, gq = dual_graph(c), dual_graph(q.quotient)
            assert diameter_exact(gs) == diameter_exact(gq)
            assert is_pseudomanifold(c) == is_pseudomanifold(q.quotient)
            mapped = {
                (q.facet_map[u], q.facet_map[v])
                for u, nbrs in enumerate(gs)
                for v in nbrs
            }
            actual = {
                (u, v) for u, nbrs in enumerate(gq) for v in nbrs
            }
            assert mapped == actual


class TestQuotientReport:
    def test_identity_fragment(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        fragment = quotient_report(c, q)
        assert fragment["n_prime"] == 5
        assert fragment["boundary_preserved"] is True
        assert fragment["diameter_source"] == fragment["diameter_quotient"] == 2
        assert_diameters_recomputed(fragment, c, q)

    def test_pipeline_fragment_sc_40(self):
        c = sc(40, 3)
        q = refined_quotient(c, 13, "corridor", 2)
        fragment = quotient_report(c, q)
        assert fragment["diameter_source"] == 37
        assert fragment["diameter_quotient"] == 37
        assert fragment["facet_count"] == 38
        assert fragment["n_prime"] <= 40
        assert_diameters_recomputed(fragment, c, q)

    def test_boundary_fragment_is_pseudomanifold_both_sides(self):
        b = boundary_corridor(40, 3)
        q = refined_quotient(b, 13, "boundary", 7)
        fragment = quotient_report(b, q)
        assert fragment["pseudomanifold_source"] is True
        assert fragment["pseudomanifold_quotient"] is True
        assert_diameters_recomputed(fragment, b, q)

    def test_collision_fragment_skips_bijection_claims(self):
        c = sc(6, 3)
        q = pattern_complex(c, Coloring((1, 2, 3, 1, 2, 3), 3))
        fragment = quotient_report(c, q)
        assert fragment["boundary_preserved"] is None
        assert fragment["facets_injective"] is False
        assert_diameters_recomputed(fragment, c, q)
