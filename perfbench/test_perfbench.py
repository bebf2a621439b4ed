"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import copy
import random
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import corridors  # noqa: E402
import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def report():
    return corridors.run_pipeline("pseudomanifold", 3, 60, 13, 0.2, 0)


def pinned(report, key="cell"):
    return {key: wl.digest(corridors.strip_volatile(report))}


def test_gate_passes_a_good_report_and_ignores_timing(report):
    moved = copy.deepcopy(report)
    moved["timing"]["wall_time_s"] += 1.0
    assert wl.gate_report(report, "cell", pinned(report), {}) is None
    assert wl.gate_report(moved, "cell", pinned(report), {}) is None


def test_gate_catches_a_corrupted_report(report):
    bad = copy.deepcopy(report)
    bad["results"]["diameter"] += 1
    reason = wl.gate_report(bad, "cell", pinned(report), {})
    assert reason is not None and "digest" in reason


@pytest.mark.parametrize("expected", [None, "pinned"])
def test_gate_catches_a_flipped_verification_flag(report, expected):
    bad = copy.deepcopy(report)
    bad["verification"]["boundary_preserved"] = False
    want = pinned(report) if expected else None
    assert "boundary_preserved" in wl.gate_report(bad, "cell", want, {})
    bad["verification"]["boundary_preserved"] = True
    bad["ok"] = False
    assert wl.gate_report(bad, "cell", want, {}) == "ok is not true"


def test_gate_off_the_default_seed_requires_repeats_to_match(report):
    seen = {}
    assert wl.gate_report(report, "cell", None, seen) is None
    assert wl.gate_report(report, "cell", None, seen) is None
    drifted = copy.deepcopy(report)
    drifted["results"]["resamples"] += 1
    assert "digest" in wl.gate_report(drifted, "cell", None, seen)


def test_gate_counts_a_nonzero_exit_and_an_exception():
    records = [
        {"key": "diameter", "error": None, "output": {"exit": 2, "stdout": ""}},
        {"key": "quotient", "error": "OSError: gone", "output": None},
    ]
    assert wl.gate(records, ".", None, {}) == ["exit code 2", "OSError: gone"]


def test_self_times_subtract_child_coverage():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["overlap", 0.0, 6.0, None],
        ["x", 1.0, 4.0, 4],
        ["y", 3.0, 8.0, 4],
    ]
    assert bench_trace.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0, 3.0, 5.0]


def test_tracer_records_nested_spans_and_restores_originals():
    originals = {
        (mod, attr): value
        for mod in (corridors, corridors.complex_core, corridors.pipeline,
                    corridors.quotient, corridors.cli)
        for attr, value in vars(mod).items()
    }
    tracer = bench_trace.Tracer()
    c = corridors.straight_corridor(corridors.CorridorSpec(8, 3))
    with tracer.installed():
        assert corridors.pipeline.dual_graph is corridors.complex_core.dual_graph
        assert corridors.pipeline.dual_graph is not originals[(corridors.pipeline, "dual_graph")]
        with pytest.raises(RuntimeError):
            bench_trace.assert_clean()
        with tracer.span("bench"):
            corridors.complex_core.dual_graph(c)
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [
        ("bench", None),
        ("complex_core.dual_graph", 0),
        ("complex_core.ridges_of", 1),
    ]
    assert tracer.items["complex_core.ridges_of"] == 13
    for (mod, attr), value in originals.items():
        assert getattr(mod, attr) is value
    bench_trace.assert_clean()
    totals = tracer.per_function()
    root = tracer.spans[0]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root[2] - root[1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    random.seed(1)
    first = wl.inputs(workload, 5)
    random.seed(2)
    assert wl.inputs(workload, 5) == first
    assert wl.inputs(workload, 6) != first
    assert len({wl.cell_key(cell) for cell in first}) == len(first)


def test_tail_is_the_eleventh_slowest_cell():
    assert run.tail_latency([float(i) for i in range(48)]) == (37.0, 100 * 38 / 48)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def synthetic_probe(samples):
    probe = bench_speed.SpeedProbe()
    for start, end in samples:
        probe.starts.append(start)
        probe.ends.append(end)
        probe.kernel_s.append(end - start)
    return probe


def test_probe_takes_its_own_samples_out_of_a_cell():
    ref = bench_speed.REFERENCE_S
    probe = synthetic_probe([(0.0, ref), (1.0, 1.0 + 2 * ref), (2.0, 2.0 + 2 * ref),
                             (3.0, 3.0 + 2 * ref), (4.0, 4.0 + ref)])
    # inside [0.5, 3.5]: the samples at 1, 2 and 3; around them the ones at 0 and 4
    assert probe.own_time(0.5, 3.5) == pytest.approx(3.0 - 6 * ref)
    assert probe.factor(0.5, 3.5) == pytest.approx(0.5)
    assert probe.rescaled(0.5, 3.5) == pytest.approx((3.0 - 6 * ref) / 2)
    # no sample inside: the neighbours on either side set the speed
    assert probe.own_time(0.1, 0.9) == pytest.approx(0.8)
    assert probe.factor(0.1, 0.9) == pytest.approx(ref / (1.5 * ref))


def test_probe_restores_the_signal_handler_and_samples_while_running():
    before = signal.getsignal(signal.SIGALRM)
    probe = bench_speed.SpeedProbe()
    with probe.running():
        deadline = time.perf_counter() + 6 * bench_speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.kernel_s) >= 4
    assert probe.starts == sorted(probe.starts)
