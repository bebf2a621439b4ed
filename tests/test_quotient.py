import copy
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_coloring, small_complex_corpus, tuple_ridge_map
from corridors import (
    Coloring,
    Complex,
    CorridorSpec,
    FirstColoringParams,
    ImproperColoring,
    RefinementParams,
    boundary_corridor,
    diameter_exact,
    dual_graph,
    greedy_window_coloring,
    intersecting_ridge_bound,
    is_pseudomanifold,
    lll_target_colors,
    moser_tardos_refine,
    pattern_class_histogram,
    pattern_complex,
    quotient_report,
    ridges_of,
    straight_corridor,
    verify_boundary_preservation,
)
from naive_reference import ref_boundary_preserved, ref_first_pattern_collision

CORPUS = small_complex_corpus()


def sc(n, d):
    return straight_corridor(CorridorSpec(n, d))


def refined_quotient(c, c1, shape, seed):
    """Full stage-one + stage-two run, then the quotient.

    Boundary complexes need the carrier-sized window 2d: their intersecting
    ridges can sit up to 2d apart, beyond the in-complex default 2(d-1).
    """
    window = 2 * c.dim_facet if shape == "boundary" else None
    f = greedy_window_coloring(c, FirstColoringParams(c1, 0.2, seed, window))
    s = pattern_class_histogram(c, f, 1).max_class_size
    t = intersecting_ridge_bound(shape, c.dim_facet)
    c2 = lll_target_colors(t, s, c.dim_facet)
    result = moser_tardos_refine(c, f, RefinementParams(t, s, c2, seed))
    return pattern_complex(c, result.coloring)


def random_proper_coloring(c, rng):
    """Proper coloring on a random palette of at least one facet's size."""
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
        assert all(decoded[r] == r for r in ridges_of(c).ridges)

    def test_constant_coloring_rejected(self):
        with pytest.raises(ImproperColoring):
            pattern_complex(sc(5, 3), Coloring((1,) * 5, 1))

    def test_renumbers_sparse_colors(self):
        c = Complex(2, 3, ((1, 2), (2, 3)))
        f = Coloring((5, 2, 9), 9)
        q = pattern_complex(c, f)
        assert q.quotient.n_vertices == 3
        assert q.color_to_vertex == {2: 1, 5: 2, 9: 3}
        assert q.quotient.facets == ((1, 2), (1, 3))

    def test_facet_collision_flagged_not_fatal(self):
        c = sc(6, 3)
        # facets {1,2,3}, {2,3,4}, {3,4,5} all get pattern {1,2,3}; {4,5,6} is unique
        f = Coloring((1, 2, 3, 1, 2, 4), 4)
        q = pattern_complex(c, f)
        assert not q.facets_injective
        assert q.facet_collision == (0, 1)
        assert not q.facets_injective
        assert not q.ridges_injective
        assert q.ridge_map is None
        assert q.quotient.facets == ((1, 2, 3), (1, 2, 4))
        # only the facet with a unique pattern is mapped; the rest read -1
        assert list(q.facet_map) == [-1, -1, -1, 1]

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
            relabeled = tuple(
                sorted(
                    tuple(q.color_to_vertex[v] for v in F) for F in c.facets
                )
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
            color_to_vertex=q.color_to_vertex,
            facet_map=q.facet_map,
            ridge_map=q.ridge_map,
            facets_injective=True,
            ridges_injective=True,
            facet_collision=None,
            ridge_collision=None,
        )
        assert not verify_boundary_preservation(c, broken)

    def test_swapped_facet_map_detected(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        swapped = copy.copy(q.facet_map)
        swapped[0], swapped[1] = q.facet_map[1], q.facet_map[0]
        broken = dataclasses.replace(q, facet_map=swapped)
        assert not verify_boundary_preservation(c, broken)
        assert not ref_boundary_preserved(c, tuple_ridge_map(c, broken))

    def test_unmapped_facet_detected(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        unmapped = copy.copy(q.facet_map)
        unmapped[1] = -1
        assert not verify_boundary_preservation(
            c, dataclasses.replace(q, facet_map=unmapped)
        )

    def test_short_facet_map_detected(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        short = q.facet_map[:-1]
        assert not verify_boundary_preservation(c, dataclasses.replace(q, facet_map=short))

    def test_swapped_ridge_map_entries_detected(self):
        # ridges (2, 3) and (3, 4) both lie in two facets, so the swap keeps
        # every row width and only the entries betray it
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        assert c.incidence.widths()[2] == c.incidence.widths()[4] == 2
        swapped = copy.copy(q.ridge_map)
        swapped[2], swapped[4] = q.ridge_map[4], q.ridge_map[2]
        broken = dataclasses.replace(q, ridge_map=swapped)
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
        broken = dataclasses.replace(q, quotient=replaced)
        assert not verify_boundary_preservation(c, broken)

    def test_swapped_ridge_codes_detected(self):
        c = sc(5, 3)
        q = pattern_complex(c, identity_coloring(5))
        # ridge (1, 2) lies in facet 0 only, ridge (2, 3) in facets 0 and 1
        swapped = copy.copy(q.ridge_map)
        swapped[0], swapped[2] = q.ridge_map[2], q.ridge_map[0]
        broken = dataclasses.replace(q, ridge_map=swapped)
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
            return
        assert verify_boundary_preservation(c, q)
        assert ref_boundary_preserved(c, tuple_ridge_map(c, q))
        for field in ("facet_map", "ridge_map"):
            mapping = getattr(q, field)
            if len(mapping) > 1:
                broken = dataclasses.replace(
                    q, **{field: swap_two_images(mapping, rng)}
                )
                fast = verify_boundary_preservation(c, broken)
                assert fast == ref_boundary_preserved(c, tuple_ridge_map(c, broken))

    @given(st.integers(0, len(CORPUS) - 1), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_ridge_collision_is_the_first_in_ridge_order(self, index, seed):
        c = CORPUS[index]
        f = random_proper_coloring(c, random.Random(seed))
        q = pattern_complex(c, f)
        assert q.ridge_collision == ref_first_pattern_collision(c, f.colors)
        assert (q.ridge_map is None) == (q.ridge_collision is not None)

    def test_missing_bijection_fails(self):
        # a proper coloring whose facets and ridges collide: no bijection
        # exists, so the check fails instead of raising
        c = sc(6, 3)
        q = pattern_complex(c, Coloring((1, 2, 3, 1, 2, 3), 3))
        assert not (q.facets_injective or q.ridges_injective)
        assert verify_boundary_preservation(c, q) is False

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
                for u, nbrs in enumerate(gs.adjacency)
                for v in nbrs
            }
            actual = {
                (u, v) for u, nbrs in enumerate(gq.adjacency) for v in nbrs
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
