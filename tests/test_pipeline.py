import hashlib
import json
import math
import pickle

import pytest

from corridors import coloring, complex_core, pipeline
from corridors import (
    InvalidSpec,
    ResampleCapExceeded,
    RetriesExhausted,
    diameter_lower_bound_boundary,
    run_bench,
    run_pipeline,
    strip_volatile,
)
from conftest import record_calls


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
    assert [g.n_nodes for g in measured] == [report["results"]["facet_count"]]


def test_carrier_faces_are_enumerated_once(monkeypatch):
    # all ten greedy attempts count classes over one enumeration
    enumerated = record_calls(monkeypatch, "face_columns")
    report = run_pipeline("pseudomanifold", 3, 500, 13, 0.2, 0)
    assert report["ok"]
    assert report["results"]["greedy_attempts"] == 10
    assert [c.dim_facet for c in enumerated] == [4]


class StageOneDone(Exception):
    pass


@pytest.mark.parametrize("mode,sorts", [("simplicial", 0), ("pseudomanifold", 1)])
def test_retry_loop_sorts_no_face(monkeypatch, mode, sorts):
    # classes are counted by an additive key: neither pattern_codes nor a
    # per-face sort runs, only face_columns' one sort of the codim-2 face codes
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
    assert len(sorted_calls) == sorts


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


class TestParameterGuards:
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


class TestExhaustion:
    def test_strict_policy_fails_at_desk_scale(self):
        # the formula cap is asymptotic; N=40 cannot meet it, so strict raises
        with pytest.raises(RetriesExhausted):
            run_pipeline("simplicial", 3, 40, 13, 0.2, 0, s_policy="strict")

    def test_resample_cap_propagates(self):
        with pytest.raises(ResampleCapExceeded):
            run_pipeline("simplicial", 3, 200, 13, 0.2, 0, c2=2, max_resamples=1)

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
        # bench workers send results between processes
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

    def test_empty_grid(self):
        table = run_bench("simplicial", [], [], [], [])
        assert table["rows"] == [] and table["aggregates"] == []

    def test_precondition_failure_is_per_cell(self):
        table = run_bench("simplicial", [3], [40], [12, 13], [0])
        statuses = {row["c1"]: row["status"] for row in table["rows"]}
        assert statuses[12] == "precondition-failed"
        assert statuses[13] == "ok"

    def test_parallel_matches_serial(self):
        serial = run_bench("simplicial", [3], [30], [13], [0, 1], jobs=1)
        parallel = run_bench("simplicial", [3], [30], [13], [0, 1], jobs=2)
        assert serial["rows"] == parallel["rows"]

    def test_workers_capped_at_cell_count(self, monkeypatch):
        # a pool may start all max_workers processes at its first submit, so
        # this stand-in records the request and runs the cells inline
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
        table = run_bench("simplicial", [3], [30], [13], [0, 1], jobs=5000)
        assert requested == [2]
        assert [row["status"] for row in table["rows"]] == ["ok", "ok"]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(InvalidSpec):
            run_bench("simplicial", [3], [30], [13], [0, 1], jobs=jobs)

    @pytest.mark.parametrize("epsilon", [0, -0.5, float("nan"), float("inf")])
    def test_bad_epsilon_rejected_before_any_cell(self, monkeypatch, epsilon):
        monkeypatch.setattr(
            pipeline, "run_pipeline", lambda *a, **k: pytest.fail("a cell ran")
        )
        with pytest.raises(InvalidSpec):
            run_bench("simplicial", [3], [30], [13], [0, 1], epsilon=epsilon)
