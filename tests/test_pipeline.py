import hashlib
import json
import math
import pickle
import sys
from array import array

import pytest

from corridors import coloring, complex_core, constructions, pipeline
from corridors import (
    Coloring,
    Complex,
    ImproperColoring,
    InvalidSpec,
    NoLegalColor,
    ResampleCapExceeded,
    RetriesExhausted,
    diameter_lower_bound_boundary,
    run_bench,
    run_pipeline,
    strip_volatile,
)
from corridors.coloring import RefineResult
from conftest import address_space_cap, record_calls, time_limit


@pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
def test_each_complex_enumerates_its_ridges_once(monkeypatch, mode):
    # one enumeration for the target, one for the quotient's own facets
    enumerated = record_calls(monkeypatch, "ridges_of")
    report = run_pipeline(mode, 3, 200, 13, 0.2, 0)
    assert report["ok"]
    assert len(enumerated) == 2
    assert enumerated[0] != enumerated[1]


@pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
def test_quotient_diameter_is_measured_once(monkeypatch, mode):
    # the regular-graph bound reuses the pipeline's own measurement
    measured = record_calls(monkeypatch, "diameter_exact")
    report = run_pipeline(mode, 3, 200, 13, 0.2, 0)
    assert report["ok"]
    assert [len(g) for g in measured] == [report["results"]["facet_count"]]


def test_pseudomanifold_run_builds_no_carrier(monkeypatch):
    # all ten greedy attempts count classes over the boundary's own ridges:
    # no corridor one dimension up is built and no other faces are enumerated
    built = record_calls(monkeypatch, "straight_corridor", constructions)
    enumerated = record_calls(monkeypatch, "face_columns")
    report = run_pipeline("pseudomanifold", 3, 500, 13, 0.2, 0)
    assert report["ok"]
    assert report["results"]["greedy_attempts"] == 10
    assert built == []
    assert enumerated == []


class StageOneDone(Exception):
    pass


@pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
def test_retry_loop_sorts_no_face(monkeypatch, mode):
    # classes are counted by an additive key over the target's incidence:
    # neither pattern_codes nor any sort runs in stage one
    keyed = record_calls(monkeypatch, "pattern_codes", coloring)
    sorted_calls = []

    def counting_sorted(*args, **kwargs):
        sorted_calls.append(args[0])
        return sorted(*args, **kwargs)

    def stop(*args, **kwargs):
        raise StageOneDone

    for mod in (coloring, complex_core, pipeline):
        monkeypatch.setattr(mod, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(pipeline, "moser_tardos_refine", stop)
    with pytest.raises(StageOneDone):
        run_pipeline(mode, 3, 500, 13, 0.2, 0)
    assert keyed == []
    assert sorted_calls == []


# sha256 of the compact JSON of strip_volatile(run_pipeline(mode, d, 250, c1,
# 0.2, 0)) for each grid-small configuration: any change to a draw schedule,
# a class key or a report field shows here
GOLDEN_REPORTS = [
    ("simplicial", 3, 13, "1ead3ad4e2798d8f4b492092068b7353756c17a23fce74cfab3947c3122ce638"),
    ("simplicial", 4, 19, "174cf6e6e6fecdac51078b3cdd75e9d0d1195027d138831c3023581b8b42648e"),
    ("pseudomanifold", 3, 13, "e883795755fac339512c6eb1e272184c50d21ce7600e993c63eed7ce0321821d"),
    ("pseudomanifold", 4, 19, "060887bdc9a250d7c0c9fa8844138389270fdc58dce7c8ab3817e81f9687993e"),
]


@pytest.mark.parametrize("mode,d,c1,digest", GOLDEN_REPORTS)
def test_golden_report(mode, d, c1, digest):
    report = strip_volatile(run_pipeline(mode, d, 250, c1, 0.2, 0))
    data = json.dumps(report, separators=(",", ":")).encode()
    assert hashlib.sha256(data).hexdigest() == digest


class TestSimplicialMode:
    def test_sc_40_3_full_run(self):
        report = run_pipeline("simplicial", 3, 40, 13, 0.2, 7)
        assert report["ok"]
        assert report["results"]["diameter"] == 37
        assert report["results"]["diameter_method"] == "recomputed"
        assert report["results"]["facet_count"] == 38
        assert report["results"]["n_prime"] <= 13 * report["params"]["c2"]
        assert all(report["verification"].values())
        assert report["params"]["t"] == 18
        assert 0 < report["results"]["ratio_achieved"]

    def test_degenerate_single_facet(self):
        report = run_pipeline("simplicial", 3, 3, 13, 0.2, 0)
        assert report["ok"]
        assert report["results"]["diameter"] == 0
        assert report["results"]["facet_count"] == 1

    def test_reports_are_reproducible(self):
        a = run_pipeline("simplicial", 3, 60, 13, 0.2, 5)
        b = run_pipeline("simplicial", 3, 60, 13, 0.2, 5)
        assert strip_volatile(a) == strip_volatile(b)
        assert "timing" in a and a["timing"]["wall_time_s"] >= 0

    def test_different_seeds_differ(self):
        a = run_pipeline("simplicial", 3, 60, 13, 0.2, 5)
        b = run_pipeline("simplicial", 3, 60, 13, 0.2, 6)
        assert strip_volatile(a) != strip_volatile(b)

    def test_window_override(self):
        report = run_pipeline("simplicial", 3, 60, 13, 0.2, 5, window=5)
        assert report["ok"]
        assert report["params"]["window"] == 5


class TestPseudomanifoldMode:
    def test_boundary_40_3_full_run(self):
        report = run_pipeline("pseudomanifold", 3, 40, 13, 0.2, 0)
        assert report["ok"]
        assert report["results"]["facet_count"] == (40 - 3) * 2 + 2
        assert report["results"]["diameter_method"] == "recomputed"
        assert report["verification"]["pseudomanifold_quotient"]
        assert report["verification"]["fvector_identity"]
        assert report["results"]["dist_alpha_omega"] >= math.ceil(
            diameter_lower_bound_boundary(40, 3)
        )
        assert report["bounds"]["lemma8_lower"] == 24

    def test_dimension_4(self):
        report = run_pipeline("pseudomanifold", 4, 24, 19, 0.2, 3)
        assert report["ok"]
        assert report["results"]["facet_count"] == (24 - 4) * 3 + 2
        assert report["params"]["t"] == 125


# one small run per mode, which passes every check untampered
TAMPERED_RUNS = [("simplicial", 60), ("pseudomanifold", 40)]
# the flags that a quotient without its middle facet turns false
DROPPED_FACET_FLAGS = {
    "simplicial": [
        "boundary_preserved", "connected", "diameter_expected", "diameter_within_upper_bound",
    ],
    "pseudomanifold": [
        "boundary_preserved", "pseudomanifold_preserved", "pseudomanifold_quotient",
        "fvector_identity", "dist_alpha_omega_meets_lower_bound", "diameter_within_upper_bound",
    ],
}


class TestVerificationCanFail:
    """A stage that hands on a tampered artifact turns its check false."""

    @pytest.mark.parametrize("mode,n", TAMPERED_RUNS)
    def test_unrefined_coloring(self, monkeypatch, mode, n):
        # refine returns the stage-one coloring, proper but with colliding
        # ridge patterns, so the quotient merges ridges
        monkeypatch.setattr(
            pipeline, "moser_tardos_refine", lambda c, f, *rest: RefineResult(f, 0)
        )
        report = run_pipeline(mode, 3, n, 13, 0.2, 0)
        flags = report["verification"]
        assert flags["proper"]
        assert not flags["ridge_unique"] and not flags["boundary_preserved"]
        assert report["ok"] is False

    @pytest.mark.parametrize("mode,n", TAMPERED_RUNS)
    def test_permuted_facet_map(self, monkeypatch, mode, n):
        # the quotient is right, but its map sends facets 0 and 1 to each
        # other's images: only the incidence comparison can see that
        build = pipeline.pattern_complex

        def swapped(c, f):
            q = build(c, f)
            facet_map = array("q", q.facet_map)
            facet_map[0], facet_map[1] = facet_map[1], facet_map[0]
            return q._replace(facet_map=facet_map)

        monkeypatch.setattr(pipeline, "pattern_complex", swapped)
        report = run_pipeline(mode, 3, n, 13, 0.2, 0)
        failed = [name for name, ok in report["verification"].items() if not ok]
        assert failed == ["boundary_preserved"]
        assert report["ok"] is False


    @pytest.mark.parametrize("mode,n", TAMPERED_RUNS)
    def test_dropped_quotient_facet(self, monkeypatch, mode, n):
        # the quotient loses its middle facet, which cuts a corridor's dual
        # path and opens two ridges of a sphere; the maps are left as built
        build = pipeline.pattern_complex

        def dropped(c, f):
            q = build(c, f)
            m = q.quotient.facet_count
            columns = [col[:m // 2] + col[m // 2 + 1:] for col in q.quotient.columns]
            quotient = Complex._from_columns(q.quotient.dim_facet, q.quotient.n_vertices, columns)
            return q._replace(quotient=quotient)

        monkeypatch.setattr(pipeline, "pattern_complex", dropped)
        report = run_pipeline(mode, 3, n, 13, 0.2, 0)
        failed = [name for name, ok in report["verification"].items() if not ok]
        assert failed == DROPPED_FACET_FLAGS[mode]
        assert report["ok"] is False


    @pytest.mark.parametrize("mode,n", TAMPERED_RUNS)
    def test_improper_product_refused(self, monkeypatch, mode, n):
        # one color for every vertex: pattern_complex refuses the product
        # before any flag is computed, so `proper` is never false in a report
        monkeypatch.setattr(
            pipeline,
            "moser_tardos_refine",
            lambda c, f, *rest: RefineResult(Coloring((1,) * c.n_vertices, 1), 0),
        )
        with pytest.raises(ImproperColoring, match="^two adjacent vertices share a color$"):
            run_pipeline(mode, 3, n, 13, 0.2, 0)

    @pytest.mark.parametrize("mode,n", TAMPERED_RUNS)
    def test_product_over_the_color_budget(self, monkeypatch, mode, n):
        # refine returns a color per vertex, which is proper and separates
        # every ridge, but uses more than c1 * c2 = 26 colors
        monkeypatch.setattr(
            pipeline,
            "moser_tardos_refine",
            lambda c, f, *rest: RefineResult(
                Coloring(tuple(range(1, c.n_vertices + 1)), c.n_vertices), 0
            ),
        )
        report = run_pipeline(mode, 3, n, 13, 0.2, 0, c2=2)
        assert report["results"]["n_prime"] == n > 13 * 2
        failed = [name for name, ok in report["verification"].items() if not ok]
        assert failed == ["n_prime_within_budget"]
        assert report["ok"] is False

    @pytest.mark.parametrize("mode,n", TAMPERED_RUNS)
    def test_pseudomanifold_flag_reads_the_source(self, monkeypatch, mode, n):
        # the source's pseudomanifold test is read before the source is
        # dropped: flipping its answer, and only its, fails the comparison
        targets = []
        for name in ("straight_corridor", "boundary_corridor"):
            build = getattr(pipeline, name)
            monkeypatch.setattr(
                pipeline, name, lambda *args, build=build: targets.append(build(*args)) or targets[-1]
            )
        check = pipeline.is_pseudomanifold
        monkeypatch.setattr(pipeline, "is_pseudomanifold", lambda c: check(c) != (c is targets[0]))
        report = run_pipeline(mode, 3, n, 13, 0.2, 0)
        failed = [name for name, ok in report["verification"].items() if not ok]
        assert failed == ["pseudomanifold_preserved"]
        assert report["ok"] is False


class TargetBuilt(Exception):
    pass


@pytest.fixture
def no_target(monkeypatch):
    """Building either pipeline target raises TargetBuilt."""

    def build(*args, **kwargs):
        raise TargetBuilt

    for name in ("straight_corridor", "boundary_corridor"):
        monkeypatch.setattr(pipeline, name, build)


# stage parameters out of range, and the message of each
STAGE_PARAMETER_ERRORS = [
    ({"window": -1}, "window must be nonnegative, got -1"),
    ({"c2": 0}, "need at least one refinement color, got 0"),
    ({"max_resamples": -1}, "resample cap must be nonnegative"),
]


class TestParameterGuards:
    @pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
    @pytest.mark.parametrize(
        "c1,kwargs,message",
        [
            (c1, {}, f"need c1 <= {sys.maxsize}, got {c1}")
            for c1 in (sys.maxsize + 1, 10**20)
        ]
        + [(13, kwargs, message) for kwargs, message in STAGE_PARAMETER_ERRORS],
    )
    def test_stage_parameters_checked_before_the_target(
        self, no_target, mode, c1, kwargs, message
    ):
        with pytest.raises(InvalidSpec) as info:
            run_pipeline(mode, 3, 40, c1, 0.2, 0, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
    def test_window_excluding_every_color_checked_before_the_target(
        self, no_target, mode
    ):
        with pytest.raises(NoLegalColor) as info:
            run_pipeline(mode, 3, 40, 13, 0.2, 0, window=13)
        assert str(info.value) == "window 13 excludes all 13 colors"

    @pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
    def test_valid_parameters_reach_the_target(self, no_target, mode):
        with pytest.raises(TargetBuilt):
            run_pipeline(mode, 3, 40, 13, 0.2, 0, window=12, c2=1, max_resamples=0)

    def test_mode_checked(self):
        with pytest.raises(InvalidSpec):
            run_pipeline("spherical", 3, 40, 13, 0.2, 0)

    def test_dimension_checked(self):
        with pytest.raises(InvalidSpec):
            run_pipeline("simplicial", 2, 40, 13, 0.2, 0)

    def test_c1_floor_checked(self):
        with pytest.raises(InvalidSpec):
            run_pipeline("simplicial", 3, 40, 12, 0.2, 0)

    def test_policy_checked(self):
        with pytest.raises(InvalidSpec):
            run_pipeline("simplicial", 3, 40, 13, 0.2, 0, s_policy="hope")

    @pytest.mark.parametrize("epsilon", [0, float("nan"), float("inf")])
    def test_epsilon_checked(self, epsilon):
        with pytest.raises(InvalidSpec, match="epsilon"):
            run_pipeline("simplicial", 3, 40, 13, epsilon, 0)

    def test_retry_budget_checked(self):
        with pytest.raises(InvalidSpec):
            run_pipeline("simplicial", 3, 40, 13, 0.2, 0, retries=0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_boundary_size_checked(self, n):
        # the boundary needs d + 2 vertices, one more than its corridor
        with pytest.raises(InvalidSpec) as info:
            run_pipeline("pseudomanifold", 3, n, 13, 0.2, 0)
        assert str(info.value) == f"need at least 5 vertices, got {n}"

    @pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
    def test_c1_beyond_memory_checked(self, mode):
        # sys.maxsize passes the range check, and list() refuses that many
        # colors before it allocates; no smaller c1 is run, as it would be
        with pytest.raises(InvalidSpec) as info:
            run_pipeline(mode, 3, 40, sys.maxsize, 0.2, 0)
        assert str(info.value) == f"no memory for a list of c1 = {sys.maxsize} colors"


class TestExhaustion:
    def test_strict_policy_fails_at_desk_scale(self):
        # the formula cap is asymptotic; N=40 cannot meet it, so strict raises
        with pytest.raises(RetriesExhausted):
            run_pipeline("simplicial", 3, 40, 13, 0.2, 0, s_policy="strict")

    def test_resample_cap_propagates(self):
        with pytest.raises(ResampleCapExceeded):
            run_pipeline("simplicial", 3, 200, 13, 0.2, 0, c2=2, max_resamples=1)

    def test_one_refinement_color_fails_at_once(self):
        # no redraw can resolve a collision, so none of the 10^6 is tried
        with time_limit(1), pytest.raises(ResampleCapExceeded) as info:
            run_pipeline("simplicial", 3, 40, 13, 0.2, 0, c2=1)
        assert info.value.resamples == 0 and info.value.violating > 0

    def test_resample_cap_carries_its_state(self):
        with pytest.raises(ResampleCapExceeded) as info:
            run_pipeline("simplicial", 3, 200, 13, 0.2, 0, c2=2, max_resamples=1)
        exc = info.value
        assert (exc.violating, exc.resamples) == (118, 1)
        assert str(exc) == "118 colliding patterns left after 1 resamples"

    def test_retries_exhausted_carries_its_state(self):
        with pytest.raises(RetriesExhausted) as info:
            run_pipeline("simplicial", 3, 40, 13, 0.2, 0, s_policy="strict", retries=3)
        exc = info.value
        assert (exc.best, exc.cap, exc.attempts) == (3, 1, 3)
        assert str(exc) == "best class size 3 > cap 1 after 3 attempts"

    def test_exhaustion_state_survives_pickling(self):
        # the fields are the args, which pickling and repr read
        for exc in (ResampleCapExceeded(118, 1), RetriesExhausted(3, 1, 3)):
            again = pickle.loads(pickle.dumps(exc))
            assert type(again) is type(exc)
            assert vars(again) == vars(exc) and str(again) == str(exc)

    def test_bench_row_prints_the_state(self):
        capped = run_bench("simplicial", [3], [200], [13], [0], c2=2, max_resamples=1)
        strict = run_bench("simplicial", [3], [40], [13], [0], s_policy="strict", retries=3)
        assert [row["status"] for row in capped["rows"] + strict["rows"]] == ["failed"] * 2
        assert capped["rows"][0]["error"] == (
            "ResampleCapExceeded: 118 colliding patterns left after 1 resamples"
        )
        assert strict["rows"][0]["error"] == (
            "RetriesExhausted: best class size 3 > cap 1 after 3 attempts"
        )

    def test_adaptive_records_fallback(self):
        report = run_pipeline("simplicial", 3, 40, 13, 0.2, 0)
        assert report["params"]["s_source"] == "observed"
        assert report["params"]["s_used"] == report["results"]["histogram_max"]


class TestBench:
    def test_small_grid(self):
        table = run_bench("simplicial", [3], [30, 40], [13], [0, 1])
        assert len(table["rows"]) == 4
        assert all(row["status"] == "ok" for row in table["rows"])
        assert len(table["aggregates"]) == 2
        agg = table["aggregates"][0]
        assert agg["cells"] == 2 and agg["ok"] == 2
        assert agg["max_n_prime"] >= agg["mean_n_prime"]
        assert agg["ratio_asymptotic"] == pytest.approx(1 / (4 * 2.718281828459045 * 9))

    @pytest.mark.parametrize(
        "dims,ns,seeds", [([3, 3], [40], [0]), ([3], [30, 30], [0, 1]), ([3], [30, 40], [])]
    )
    def test_aggregates_count_each_cell_once(self, dims, ns, seeds):
        # a repeated grid value is its own point, with its own cells; no
        # seeds still give one aggregate, of no cells, per point
        table = run_bench("simplicial", dims, ns, [13], seeds)
        aggregates = table["aggregates"]
        assert len(aggregates) == len(dims) * len(ns)
        assert sum(agg["cells"] for agg in aggregates) == len(table["rows"])
        assert [agg["cells"] for agg in aggregates] == [len(seeds)] * len(aggregates)

    def test_empty_grid(self):
        table = run_bench("simplicial", [], [], [], [])
        assert table["rows"] == [] and table["aggregates"] == []

    def test_precondition_failure_is_per_cell(self):
        table = run_bench("simplicial", [3], [40], [12, 13], [0])
        statuses = {row["c1"]: row["status"] for row in table["rows"]}
        assert statuses[12] == "precondition-failed"
        assert statuses[13] == "ok"

    @pytest.mark.parametrize("kwargs,message", STAGE_PARAMETER_ERRORS)
    def test_stage_parameter_errors_fail_as_preconditions(self, kwargs, message):
        table = run_bench("simplicial", [3], [1000], [13], [1], **kwargs)
        assert [(row["status"], row["error"]) for row in table["rows"]] == [
            ("precondition-failed", message)
        ]

    def test_window_excluding_every_color_fails_as_a_precondition(self):
        table = run_bench("simplicial", [3], [40], [13], [0], window=13)
        assert [(row["status"], row["error"]) for row in table["rows"]] == [
            ("precondition-failed", "window 13 excludes all 13 colors")
        ]

    def test_c1_beyond_memory_fails_as_a_precondition(self):
        table = run_bench("simplicial", [3], [40], [sys.maxsize], [0])
        assert [(row["status"], row["error"]) for row in table["rows"]] == [
            ("precondition-failed", f"no memory for a list of c1 = {sys.maxsize} colors")
        ]

    def test_vertex_count_past_2_63_fails_as_a_precondition(self):
        # the target's array('q') columns could not hold the vertices
        n = 2**63
        with address_space_cap(), time_limit(1):
            table = run_bench("simplicial", [3], [n], [13], [0])
        assert [(row["status"], row["error"]) for row in table["rows"]] == [
            ("precondition-failed", f"vertex count must be below 2**63, got {n}")
        ]

    @pytest.mark.parametrize("epsilon", [0, -0.5, float("nan"), float("inf")])
    def test_bad_epsilon_rejected_before_any_cell(self, monkeypatch, epsilon):
        monkeypatch.setattr(
            pipeline, "run_pipeline", lambda *a, **k: pytest.fail("a cell ran")
        )
        with pytest.raises(InvalidSpec):
            run_bench("simplicial", [3], [30], [13], [0, 1], epsilon=epsilon)
