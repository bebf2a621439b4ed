"""Benchmark command for the corridors pipeline.

    python3 perfbench/run.py --workload sc3-1e5 --seed 0 --seconds 35 --trace 0

Run from the repository root.  The program is imported from ./src of the
same checkout (nothing is installed); without it the command fails before
measuring.  --trace 0 measures the end-to-end metrics with no wrapper in the
program, its times rescaled to a reference host speed (bench_speed); --trace 1
alternates untraced and traced units and reports the per-layer metrics, in
measured seconds.  The last stdout line is the JSON result; a readable
summary goes to stderr and the full record (with the environment) to
.bench_out/.  The exit code is 1 when any operation fails its gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_TRIES = 4
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import corridors, corridors.cli; "
    "print(time.perf_counter() - t)"
)
RSS_NOTE = (
    "peak_rss_mb is this process's own getrusage ru_maxrss; "
    "no system-wide tracing is used"
)


def load_program():
    """Import corridors from this checkout's src, or exit nonzero."""
    if not (SRC / "corridors" / "__init__.py").is_file():
        sys.exit(f"error: no corridors package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import corridors

    if Path(corridors.__file__).resolve().parent != (SRC / "corridors").resolve():
        sys.exit(f"error: imported corridors from {corridors.__file__}, not {SRC}")


def environment() -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": src_hash.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "rss_note": RSS_NOTE,
    }


def measure_setup(probe) -> list:
    """SETUP_TRIES fresh-interpreter imports of corridors and corridors.cli.

    Each import time is rescaled by the probe samples taken just before and
    just after it.
    """
    times = []
    for _ in range(SETUP_TRIES):
        probe.sample()
        done = subprocess.run(
            [sys.executable, "-E", "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        probe.sample()
        times.append(float(done.stdout) * probe.factor(probe.ends[-2], probe.starts[-1]))
    return times


def tail_latency(latencies):
    """(value, percentile) of the highest percentile with ten cells beyond it.

    With m >= 11 cells that is the 11th slowest, percentile 100 (m - 10) / m;
    with fewer cells it is the slowest one.
    """
    ordered = sorted(latencies)
    m = len(ordered)
    if m < 11:
        return ordered[-1], 100.0
    return ordered[m - 11], 100 * (m - 10) / m


def fits(start, seconds, walls) -> bool:
    """True while one more unit, as fast as the fastest so far, ends in time."""
    return time.perf_counter() - start + min(walls) <= seconds


def untraced_run(wl, trace, speed, cells, workdir, expected, seconds):
    """Repeat the unit; each cell's latency is the median of its repeats.

    Every latency is rescaled to the reference host speed by a
    bench_speed.SpeedProbe that runs during the units, so that contention
    from other tenants of the machine, which comes in phases of seconds to
    minutes, cancels out.  wall_s is the sum of the cells' medians: one unit
    at the median.  setup_s is the median of the rescaled set-ups spread
    between the units.
    """
    probe = speed.SpeedProbe()
    measure_setup(probe)  # compiles bytecode, which users do not pay per call
    setup = measure_setup(probe)
    walls, latencies, raw, reasons, seen = [], [[] for _ in cells], [[] for _ in cells], [], {}
    start = time.perf_counter()
    while not walls or fits(start, seconds, walls):
        trace.assert_clean()
        with probe.running():
            wall, records = wl.run_unit(cells, workdir)
        walls.append(wall)
        for rescaled, measured, rec in zip(latencies, raw, records):
            rescaled.append(probe.rescaled(rec["start"], rec["end"]))
            measured.append(rec["latency_s"])
        reasons += wl.gate(records, workdir, expected, seen)
        setup += measure_setup(probe)
    cell = [statistics.median(samples) for samples in latencies]
    tail, percentile = tail_latency(cell)
    values = {
        "wall_s": sum(cell),
        "cell_p50_s": statistics.median(cell),
        "cell_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    details = {
        "units": len(walls),
        "unit_wall_s": walls,
        "cells": len(cell),
        "cell_tail_percentile": percentile,
        "measured_cell_median_s": [statistics.median(samples) for samples in raw],
        "rescaled_cell_median_s": cell,
        "setup_samples_s": setup,
        "probe_samples": len(probe.kernel_s),
        "probe_kernel_median_s": statistics.median(probe.kernel_s),
        "probe_reference_s": speed.REFERENCE_S,
    }
    return values, details, reasons


def traced_run(wl, trace, cells, workdir, expected, seconds, per_layer, out_path):
    """Untraced and traced units in the order U T T U U T ..., until time is up.

    At least one unit of each kind runs; the flipped pairs keep warm-up and
    drift from landing on one side of the overhead estimate.
    """
    tracer = trace.Tracer()
    walls = {False: [], True: []}
    reasons, seen, totals, target_ridges = [], {}, Counter(), {}
    start = time.perf_counter()
    index = 0
    while not (walls[True] and walls[False]) or fits(
        start, seconds, walls[True] + walls[False]
    ):
        traced = index % 4 in (1, 2)
        index += 1
        if traced:
            with tracer.installed(), tracer.span("bench"):
                wall, records = wl.run_unit(cells, workdir)
        else:
            trace.assert_clean()
            wall, records = wl.run_unit(cells, workdir)
        walls[traced].append(wall)
        unit_reasons = wl.gate(records, workdir, expected, seen)
        reasons += unit_reasons
        if traced and not any(unit_reasons):
            totals.update(wl.unit_counters(records, workdir, target_ridges))

    units = len(walls[True])
    per_function = tracer.per_function()
    traced_wall = statistics.fmean(walls[True])
    counters = {
        "coloring.greedy_attempts": totals["greedy_attempts"] / units,
        "coloring.resamples": totals["resamples"] / units,
        "coloring.greedy_yield": (
            totals["greedy_accepted"] / totals["greedy_attempts"]
            if totals["greedy_attempts"] else 0.0
        ),
        "complex_core.ridge_redundancy": (
            tracer.items["complex_core.ridges_of"] / totals["ridges"]
            if totals["ridges"] else 0.0
        ),
        "traced_wall_s": traced_wall,
        "trace_overhead_s": traced_wall - statistics.fmean(walls[False]),
    }
    listed = {
        name.rsplit(".", 1)[0] for name in per_layer if name not in counters
    }
    other = [fn for fn in per_function if fn not in listed]
    values = {}
    for name in per_layer:
        if name in counters:
            values[name] = counters[name]
            continue
        fn, kind = name.rsplit(".", 1)
        if kind not in ("self_s", "calls"):
            raise ValueError(f"per-layer metric {name} has no source")
        group = other if fn == "other" else [fn]
        values[name] = sum(per_function.get(f, {}).get(kind, 0) for f in group) / units
    out_path.write_text(json.dumps({
        "spans": tracer.spans,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "per_function": per_function,
        "traced_units": units,
    }) + "\n")
    details = {
        "traced_units": units,
        "untraced_units": len(walls[False]),
        "traced_unit_wall_s": walls[True],
        "untraced_unit_wall_s": walls[False],
        "other_functions": sorted(other),
        "trace_file": str(out_path.relative_to(ROOT)),
    }
    return values, details, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    sys.path.insert(0, str(BENCH_DIR))
    import bench_speed
    import bench_trace
    import bench_workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    cells = wl.inputs(args.workload, args.seed)
    expected = (
        wl.load_expected(args.workload) if args.seed == wl.DEFAULT_SEED else None
    )
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.trace:
            values, details, reasons = traced_run(
                wl, bench_trace, cells, workdir, expected, args.seconds,
                list(units), OUT_DIR / f"spans-{tag}.json",
            )
        else:
            values, details, reasons = untraced_run(
                wl, bench_trace, bench_speed, cells, workdir, expected, args.seconds
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in reasons if r is not None]
    result = {
        "correct": not failures,
        "attempted": len(reasons),
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    env = environment()
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "result": result,
        "details": details,
        "fail_rate": len(failures) / len(reasons),
        "failures": failures[:20],
    }, indent=1) + "\n")

    log = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}", file=log)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=log)
    print(f"  fail_rate = {len(failures)}/{len(reasons)}", file=log)
    for key, value in details.items():
        if not isinstance(value, list):
            print(f"  {key}: {value}", file=log)
    for key, value in env.items():
        print(f"  {key}: {value}", file=log)
    for reason in failures[:20]:
        print(f"  FAILED: {reason}", file=log)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
