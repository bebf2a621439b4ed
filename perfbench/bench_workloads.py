"""The three corridors workloads: inputs from a seed, one timed unit, output gate.

A unit is the workload's timed section: one pipeline call (sc3-1e5), one
48-cell sweep (grid-small) or one seven-step CLI chain through files
(staged-pm3).  A cell is one operation inside a unit: a run_pipeline call or
a cli.main call.  Every cell is gated: an exception, ``ok: false``, a false
verification flag, a nonzero exit code or an output-digest mismatch fails it.
At the default seed the digests are pinned in expected.json; at any other
seed a repeated cell must reproduce the digest of its first run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import time
from pathlib import Path

import corridors.cli
import corridors.complex_core
import corridors.constructions
import corridors.pipeline

DEFAULT_SEED = 0
EPSILON = 0.2
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("sc3-1e5", "grid-small", "staged-pm3")

GRID_CONFIGS = (
    ("simplicial", 3, 13),
    ("simplicial", 4, 19),
    ("pseudomanifold", 3, 13),
    ("pseudomanifold", 4, 19),
)
GRID_NS = (250, 500, 1000)
GRID_SEEDS_PER_CONFIG = 4

STAGED_N = 20000
STAGED_DIGESTED = {"refine": ("fg.coloring",), "quotient": ("q.cplx", "q.json")}


def inputs(workload: str, seed: int) -> list:
    """The workload's cells as plain data; a pure function of (workload, seed).

    Pipeline cells are run_pipeline argument tuples; staged cells are
    (step, argv) pairs whose file arguments carry a "{dir}" placeholder.
    """
    if workload == "sc3-1e5":
        return [("simplicial", 3, 100000, 13, EPSILON, seed)]
    if workload == "grid-small":
        return [
            (mode, d, n, c1, EPSILON, GRID_SEEDS_PER_CONFIG * seed + k)
            for mode, d, c1 in GRID_CONFIGS
            for n in GRID_NS
            for k in range(GRID_SEEDS_PER_CONFIG)
        ]
    if workload == "staged-pm3":
        n, s = str(STAGED_N), str(seed)
        return [
            ("build-corridor", ["build", "corridor", "--n", n, "--dim", "4",
                                "--out", "{dir}/sc.cplx", "--quiet"]),
            ("build-boundary", ["build", "boundary", "--n", n, "--dim", "3",
                                "--out", "{dir}/bd.cplx", "--labels", "--quiet"]),
            ("color", ["color", "--in", "{dir}/sc.cplx", "--codim", "2",
                       "--c1", "13", "--epsilon", str(EPSILON), "--seed", s,
                       "--out", "{dir}/f.coloring", "--json"]),
            ("refine", ["refine", "--in", "{dir}/bd.cplx", "--coloring",
                        "{dir}/f.coloring", "--shape", "boundary", "--seed", s,
                        "--out", "{dir}/fg.coloring", "--json"]),
            ("quotient", ["quotient", "--in", "{dir}/bd.cplx", "--coloring",
                          "{dir}/fg.coloring", "--out", "{dir}/q.cplx",
                          "--report", "{dir}/q.json", "--json"]),
            ("verify", ["verify", "--in", "{dir}/bd.cplx", "--coloring",
                        "{dir}/fg.coloring", "--against", "{dir}/q.cplx",
                        "--expect-pm", "--json"]),
            ("diameter", ["diameter", "--in", "{dir}/q.cplx", "--json"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def cell_key(cell) -> str:
    if isinstance(cell[1], list):
        return cell[0]
    return "-".join(map(str, cell))


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def load_expected(workload: str) -> dict:
    return json.loads(EXPECTED_PATH.read_text())[workload]


# ---------------------------------------------------------------------------
# one timed unit


def run_unit(cells, workdir):
    """Run every cell once, timing each; returns (wall seconds, records).

    A record is {"key", "start", "end", "latency_s", "error", "output"}:
    start and end are perf_counter readings, and output is the pipeline
    report, or the exit code and captured stdout of a CLI step.
    The program is looked up through its modules at call time, so a tracer
    installed on them sees every call.
    """
    records = []
    start = time.perf_counter()
    for cell in cells:
        t0 = time.perf_counter()
        output, error = None, None
        try:
            if isinstance(cell[1], list):
                argv = [arg.format(dir=workdir) for arg in cell[1]]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = corridors.cli.main(argv)
                output = {"exit": code, "stdout": out.getvalue()}
            else:
                output = corridors.pipeline.run_pipeline(*cell)
        except Exception as exc:  # a failing cell is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        records.append({
            "key": cell_key(cell),
            "start": t0,
            "end": t1,
            "latency_s": t1 - t0,
            "error": error,
            "output": output,
        })
    return time.perf_counter() - start, records


# ---------------------------------------------------------------------------
# output gate


def check_digest(key, actual, expected, seen) -> str | None:
    """Compare against the pinned digest, or else against this run's first."""
    want = expected.get(key) if expected is not None else seen.get(key)
    if expected is not None and want is None:
        return f"no pinned digest for {key}"
    seen.setdefault(key, actual)
    if want is not None and actual != want:
        return f"digest of {key} is {actual[:12]}, expected {want[:12]}"
    return None


def gate_report(report, key, expected, seen) -> str | None:
    """Failure reason for one pipeline report, or None when it passes."""
    if report.get("ok") is not True:
        return "ok is not true"
    false_flags = [k for k, v in report["verification"].items() if v is not True]
    if false_flags:
        return f"verification flags not true: {false_flags}"
    stripped = corridors.pipeline.strip_volatile(report)
    return check_digest(key, digest(stripped), expected, seen)


def gate_step(step, output, workdir, expected, seen) -> str | None:
    """Failure reason for one CLI step of the staged chain, or None."""
    if output["exit"] != 0:
        return f"exit code {output['exit']}"
    stdout = output["stdout"]
    if step == "refine" and json.loads(stdout)["ridge_patterns_unique"] is not True:
        return "refined ridge patterns are not unique"
    if step == "quotient":
        fragment = json.loads(stdout)
        flags = ("facets_injective", "ridges_injective", "boundary_preserved",
                 "pseudomanifold_source", "pseudomanifold_quotient")
        false_flags = [k for k in flags if fragment[k] is not True]
        if false_flags:
            return f"quotient flags not true: {false_flags}"
    if step == "verify":
        verdict = json.loads(stdout)
        if verdict["ok"] is not True or not all(verdict["checks"].values()):
            return f"verify checks failed: {verdict['checks']}"
    for name in STAGED_DIGESTED.get(step, ()):
        data = (Path(workdir) / name).read_bytes()
        reason = check_digest(name, digest(data), expected, seen)
        if reason:
            return reason
    return None


def gate(records, workdir, expected, seen) -> list:
    """Failure reasons of a unit's records (None for a passing cell)."""
    reasons = []
    for rec in records:
        if rec["error"] is not None:
            reasons.append(rec["error"])
            continue
        try:
            if "exit" in rec["output"]:
                reason = gate_step(rec["key"], rec["output"], workdir, expected, seen)
            else:
                reason = gate_report(rec["output"], rec["key"], expected, seen)
        except (KeyError, ValueError, OSError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        reasons.append(reason)
    return reasons


# ---------------------------------------------------------------------------
# counters read from outputs


def ridge_count(c) -> int:
    """Distinct ridges of a complex, counted without the program's code."""
    size = c.dim_facet - 1
    return len({r for F in c.facets for r in itertools.combinations(F, size)})


def _pipeline_target(mode, d, n):
    if mode == "simplicial":
        return corridors.constructions.straight_corridor(
            corridors.constructions.CorridorSpec(n, d)
        )
    return corridors.constructions.boundary_corridor(n, d)


def unit_counters(records, workdir, target_ridges: dict) -> dict:
    """Greedy attempts and acceptances, resamples, and target+quotient ridges.

    For pipeline cells the quotient's ridge count equals the target's: the
    gate requires boundary_preserved, whose check fails unless the ridge
    map is a bijection.  target_ridges caches counts across units.
    """
    totals = {"greedy_attempts": 0, "greedy_accepted": 0, "resamples": 0, "ridges": 0}
    for rec in records:
        out = rec["output"]
        if out is None:
            continue
        if "exit" not in out:
            totals["greedy_attempts"] += out["results"]["greedy_attempts"]
            totals["greedy_accepted"] += out["params"]["s_source"] == "formula"
            totals["resamples"] += out["results"]["resamples"]
            mode, d, n = rec["key"].split("-")[:3]
            shape = (mode, int(d), int(n))
            if shape not in target_ridges:
                target_ridges[shape] = ridge_count(_pipeline_target(*shape))
            totals["ridges"] += 2 * target_ridges[shape]
        elif rec["key"] == "color":
            stats = json.loads(out["stdout"])
            totals["greedy_attempts"] += 1
            totals["greedy_accepted"] += stats["max_class_size"] <= stats["class_cap"]
        elif rec["key"] == "refine":
            totals["resamples"] += json.loads(out["stdout"])["resamples"]
        elif rec["key"] == "quotient":
            for name in ("bd.cplx", "q.cplx"):
                totals["ridges"] += ridge_count(
                    corridors.complex_core.read_complex(Path(workdir) / name)
                )
    return totals
