"""The library calls of perfbench/bench_workloads.py, run in the test suite.

The benchmark's workload file reads the program through a few names:
`constructions.CorridorSpec`, `straight_corridor` and `boundary_corridor`
(`_pipeline_target`), `Complex.facets` (`ridge_count`) and
`complex_core.read_complex` (`unit_counters`).  The benchmark's own tests
never call them, so a change that breaks one would first show as a failed
benchmark run.  This module loads the file as it stands and calls them.
"""

import importlib.util
from pathlib import Path

import pytest

from corridors import (
    CorridorSpec,
    boundary_corridor,
    straight_corridor,
    write_complex,
)
from corridors.complex_core import ridges_of

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "bench_workloads.py"


@pytest.fixture(scope="module")
def wl():
    # a name of its own, so the benchmark's tests keep their import
    spec = importlib.util.spec_from_file_location("workloads_as_loaded", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "mode,d,n,expected",
    [
        ("simplicial", 3, 30, lambda: straight_corridor(CorridorSpec(30, 3))),
        ("simplicial", 4, 20, lambda: straight_corridor(CorridorSpec(20, 4))),
        ("pseudomanifold", 3, 30, lambda: boundary_corridor(30, 3)),
        ("pseudomanifold", 4, 20, lambda: boundary_corridor(20, 4)),
    ],
)
def test_pipeline_target_and_its_ridges(wl, mode, d, n, expected):
    target = wl._pipeline_target(mode, d, n)
    assert target == expected()
    assert wl.ridge_count(target) == len(ridges_of(target))


def test_unit_counters_of_a_pipeline_record(wl, tmp_path):
    cell = ("pseudomanifold", 3, 40, 13, wl.EPSILON, 0)
    _, records = wl.run_unit([cell], tmp_path)
    assert records[0]["error"] is None
    report = records[0]["output"]
    # a staged quotient record reads both complexes back from its directory
    target = boundary_corridor(40, 3)
    write_complex(target, tmp_path / "bd.cplx")
    write_complex(target, tmp_path / "q.cplx")
    records.append({"key": "quotient", "output": {"exit": 0, "stdout": ""}})

    cache = {}
    totals = wl.unit_counters(records, tmp_path, cache)
    ridges = len(ridges_of(target))
    assert cache == {("pseudomanifold", 3, 40): ridges}
    assert totals == {
        "greedy_attempts": report["results"]["greedy_attempts"],
        "greedy_accepted": report["params"]["s_source"] == "formula",
        "resamples": report["results"]["resamples"],
        "ridges": 4 * ridges,
    }
