import sys

import pytest

from corridors import complex_core, pipeline
from corridors import (
    InvalidSpec,
    ResampleCapExceeded,
    RetriesExhausted,
    lemma8_floor,
    run_bench,
    run_pipeline,
    strip_volatile,
)


@pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
def test_each_complex_enumerates_its_ridges_once(monkeypatch, mode):
    # one enumeration for the target, one for the quotient's own facets
    original = complex_core.ridges_of
    enumerated = []

    def counting(c):
        enumerated.append(c)
        return original(c)

    for name, mod in list(sys.modules.items()):
        if name.startswith("corridors") and getattr(mod, "ridges_of", None) is original:
            monkeypatch.setattr(mod, "ridges_of", counting)
    report = run_pipeline(mode, 3, 200, 13, 0.2, 0)
    assert report["ok"]
    assert len(enumerated) == 2
    assert enumerated[0] != enumerated[1]


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
        assert report["results"]["dist_alpha_omega"] >= lemma8_floor(40, 3)
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
