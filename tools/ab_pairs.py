"""Run the benchmark alternately in two checkouts and compare the results.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S

Each pair runs `perfbench/run.py --workload W --seed K --seconds S --trace 0`
once in each checkout, each time in a fresh interpreter started there, and
the side that goes first alternates from pair to pair, so a slow phase of a
shared host tends to fall on both sides alike.  The JSON result line (the
last line on stdout) gives the end-to-end metrics.  The runs keep their
records in their own `.bench_out/`, and this script writes no file itself;
after each run it reads that run's record for two more figures.

For every end-to-end metric of CHANGE_DIR's BENCHMARK.json it prints the
first quartile, median and third quartile of each side, and in how many
pairs the change was strictly better (lower or higher, as the metric
declares).  Under them come the same quartiles of each record's raw time,
the sum of its measured (not rescaled) cell medians, and of its speed
probe's median kernel time.  The rescaled times divide by the probe's
speed, so a change that makes the probe run faster or slower beside it
moves them with no change in the raw time.  The exit code is 1 when a run
fails its gate or exits nonzero.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The result dict of one benchmark run in `checkout`, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def record_figures(checkout: Path, workload: str, seed: int):
    """(raw seconds, probe kernel seconds) of the last untraced run's record
    in `checkout`: the sum of its measured cell medians, and its speed
    probe's median kernel time."""
    path = checkout / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    details = json.loads(path.read_text())["details"]
    return sum(details["measured_cell_median_s"]), details["probe_kernel_median_s"]


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    # runs[side][pair] is that run's metric values, or None if it failed
    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, args.seconds)
            if result is None:
                print(f"pair {pair + 1}: the {side} run failed; its record is in "
                      f"{sides[side] / '.bench_out'}", file=sys.stderr)
                runs[side].append(None)
            else:
                values = {n: result["metrics"][n]["value"] for n in lower}
                values["raw_s"], values["probe_s"] = record_figures(
                    sides[side], args.workload, args.seed
                )
                runs[side].append(values)
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    both = [(a, b) for a, b in zip(runs["parent"], runs["change"]) if a and b]
    print(f"workload {args.workload}, {args.pairs} pairs of --seconds {args.seconds:g}")
    print(f"{'metric':<14}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}  change better")
    # the probe's time has no better side: beside the raw time it tells a
    # probe effect from a change in the program
    for name, is_lower in [*lower.items(), ("raw_s", True), ("probe_s", None)]:
        for side in sides:
            vals = [run[name] for run in runs[side] if run]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            wins = ""
            if side == "change" and is_lower is not None:
                won = sum((b[name] < a[name]) if is_lower else (b[name] > a[name])
                          for a, b in both)
                wins = f"  {won}/{len(both)}"
            print(f"{name:<14}{side:<8}{q1:>12.6g}{med:>12.6g}{q3:>12.6g}{wins}")
    failed = any(run is None for side in sides for run in runs[side])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
