"""Heap held by the built complexes and the quotient's dual graph, and
transient peaks of the stages that set a verified run's memory, of the
ridge enumeration they read, and of a whole run.

SC(2*10^4, 3) at pipeline seed 1 is staged as run_pipeline stages it: stage
one, refinement, the uniqueness check, the quotient, then the
boundary-preservation check with the quotient's incidence already built, as
the pipeline's earlier verifiers leave it, the quotient's dual graph and its
diameter.  Each measured call runs under tracemalloc started just before
it, so the peak is what the call itself allocates on top of the heap it
finds.  The lane helpers' caches of complex_core (_splat, _iota) are
emptied before each traced call, so a figure does not depend on which
entries an earlier call left in them.  The bounds are per incidence entry,
per ridge and per facet: a per-entry set or dict costs well above them,
flat arrays and bounded sorted runs stay below.

Refinement, the uniqueness check and the boundary check sort through one
helper, complex_core._sorted_runs: array('q') runs of bounded size, merged
a block at a time.  One boxed list of every moved entry costs above the
boundary check's bound, and a boxed list and a set of every pattern code
above the uniqueness check's.  On the quotient's dual, a tree, the diameter
takes two BFS passes with one distance list alive at a time; a third pass
beside the second costs above its bound.  A whole pseudomanifold run on the
boundary of SC(2*10^4, 4) drops the source, its incidence and the colorings
before the quotient's dual graph is built; holding them there costs above
the whole-run bound, per source facet.

Refinement keeps its per-ridge state in array('q'): the ridge columns, the
vertex index, the current pattern codes and the sorted initial ones; its
peak is one boxed run of the index's or the codes' sort keys on top of
those.  A dict from pattern to ridge, or a boxed list of every code, costs
well above its bound.  The dual graph's rows share one int per node, so a
row costs a pointer per neighbour, and each row's list is dropped as its
tuple is made; an int per row entry costs well above the held bound, and
all the lists beside all the tuples above the peak one.

ridges_of holds its d keys per facet as one sorted list of boxed ints and
then as an array('q'), and builds and splits them in lanes of bounded
chunks; a second boxed list beside the first, as the row codes once were,
costs well above its bound.

A built complex holds its facets as d vertex columns of 8-byte integers,
so the corridor and the quotient each hold about 8d bytes per facet; one
facet tuple with its vertex ints costs several times that.
"""

import random
import tracemalloc

import pytest

from corridors import (
    CorridorSpec,
    boundary_corridor,
    diameter_exact,
    first_stage_class_cap,
    intersecting_ridge_bound,
    lll_target_colors,
    moser_tardos_refine,
    pattern_complex,
    run_pipeline,
    straight_corridor,
    verify_boundary_preservation,
    verify_unique_ridge_patterns,
)
from corridors import complex_core
from corridors.complex_core import dual_graph, ridges_of
from corridors.pipeline import DEFAULT_RETRIES, _derive_seed, _first_stage

N, DIM, C1, EPSILON, SEED = 20000, 3, 13, 0.2, 1
CHECK_BYTES_PER_ENTRY = 45
REFINE_BYTES_PER_RIDGE = 170
UNIQUE_BYTES_PER_RIDGE = 60
RIDGES_BYTES_PER_FACET = 200
HELD_BYTES_PER_FACET = 40
DUAL_PEAK_BYTES_PER_FACET = 200
DUAL_HELD_BYTES_PER_FACET = 110
DIAMETER_BYTES_PER_FACET = 65
RUN_BYTES_PER_SOURCE_FACET = 380


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated, traced from its start."""
    clear_lane_caches()
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_held(fn, *args):
    """fn(*args) and the bytes still allocated when it returns, traced from
    its start: what the result holds."""
    clear_lane_caches()
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def clear_lane_caches():
    complex_core._splat.cache_clear()
    complex_core._iota.cache_clear()


def quotient_complex(c, f):
    return pattern_complex(c, f).quotient


@pytest.fixture(scope="module")
def staged():
    corridor = straight_corridor(CorridorSpec(N, DIM))
    cap = first_stage_class_cap(N, DIM, C1, 1, EPSILON)
    master = random.Random(SEED)
    (largest, f, _), _ = _first_stage(corridor, C1, None, master, DEFAULT_RETRIES, cap)
    s = max(largest, cap)
    t = intersecting_ridge_bound("corridor", DIM)
    c2 = lll_target_colors(t, s, DIM)
    refine, refine_peak = traced_peak(
        moser_tardos_refine, corridor, f, s, c2, _derive_seed(master)
    )
    unique, unique_peak = traced_peak(verify_unique_ridge_patterns, corridor, refine.coloring)
    assert unique
    quotient, quotient_held = traced_held(quotient_complex, corridor, refine.coloring)
    q = pattern_complex(corridor, refine.coloring)
    assert q.quotient == quotient
    q.quotient.incidence
    preserved, check_peak = traced_peak(verify_boundary_preservation, corridor, q)
    assert preserved
    _, dual_peak = traced_peak(dual_graph, q.quotient)
    rows, dual_held = traced_held(dual_graph, q.quotient)
    assert len(rows) == q.quotient.facet_count
    diameter, diameter_peak = traced_peak(diameter_exact, rows)
    assert diameter == N - DIM
    return (
        corridor.incidence, refine_peak, check_peak, quotient, quotient_held,
        dual_peak, dual_held, diameter_peak, unique_peak,
    )


def test_boundary_check_peak_per_entry(staged):
    inc, _, check_peak, *_ = staged
    assert check_peak <= CHECK_BYTES_PER_ENTRY * len(inc.fids)


def test_refine_peak_per_ridge(staged):
    inc, refine_peak, *_ = staged
    assert refine_peak <= REFINE_BYTES_PER_RIDGE * len(inc)


def test_uniqueness_check_peak_per_ridge(staged):
    inc, *_, unique_peak = staged
    assert unique_peak <= UNIQUE_BYTES_PER_RIDGE * len(inc)


def test_ridges_of_peak_per_facet():
    c = straight_corridor(CorridorSpec(N, DIM))
    inc, peak = traced_peak(ridges_of, c)
    assert len(inc.fids) == DIM * c.facet_count
    assert peak <= RIDGES_BYTES_PER_FACET * c.facet_count


def test_corridor_held_per_facet():
    c, held = traced_held(straight_corridor, CorridorSpec(N, DIM))
    assert c.facet_count == N - DIM + 1
    assert held <= HELD_BYTES_PER_FACET * c.facet_count


def test_quotient_held_per_facet(staged):
    _, _, _, quotient, held, *_ = staged
    assert held <= HELD_BYTES_PER_FACET * quotient.facet_count


def test_quotient_dual_graph_peak_per_facet(staged):
    _, _, _, quotient, _, peak, *_ = staged
    assert peak <= DUAL_PEAK_BYTES_PER_FACET * quotient.facet_count


def test_quotient_dual_graph_held_per_facet(staged):
    _, _, _, quotient, _, _, held, *_ = staged
    assert held <= DUAL_HELD_BYTES_PER_FACET * quotient.facet_count


def test_quotient_diameter_peak_per_facet(staged):
    _, _, _, quotient, _, _, _, peak, _ = staged
    assert peak <= DIAMETER_BYTES_PER_FACET * quotient.facet_count


def test_pseudomanifold_run_peak_per_source_facet():
    report, peak = traced_peak(run_pipeline, "pseudomanifold", DIM, N, C1, EPSILON, SEED)
    assert report["ok"]
    assert peak <= RUN_BYTES_PER_SOURCE_FACET * boundary_corridor(N, DIM).facet_count
