"""Print the time and peak RSS after each stage of one pipeline run.

    python3 tools/stage_rss.py [--mode simplicial] [--dim 3] [--n 100000]
        [--c1 13] [--epsilon 0.2] [--seed 0] [--src DIR]

The script runs run_pipeline once, in the interpreter it starts, and prints
one row per stage call: the seconds the call took and the process's
getrusage ru_maxrss in MB (Linux reports KiB) when it returned.  A stage is
any function that corridors.pipeline calls through its own module
namespace, directly or through a corridors module it imports (bounds), and
complex_core.ridges_of, which a complex's first `incidence` access runs
inside whichever stage reads it first.  Those names are wrapped in place,
so the script keeps no copy of the pipeline's call sequence; a call made
inside another stage is indented under it, and its time is part of the
outer call's.  --src picks the source tree to import, ./src of this
checkout by default, so two checkouts can be compared.  The exit code is 1
when the run's report is not ok.
"""

import argparse
import functools
import inspect
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def wrap(namespace: dict, name: str, rows: list, depth: list) -> None:
    """Replace namespace[name] by a wrapper that appends (depth, name,
    seconds, max RSS) to rows when the call returns; the row's slot is taken
    when the call starts, so rows stay in call order."""
    fn = namespace[name]

    @functools.wraps(fn)
    def stage(*args, **kwargs):
        slot = len(rows)
        rows.append(None)
        depth[0] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            rows[slot] = (depth[0], name, time.perf_counter() - start, max_rss_mb())

    namespace[name] = stage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=["simplicial", "pseudomanifold"], default="simplicial")
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--n", type=int, default=100000)
    parser.add_argument("--c1", type=int, default=13)
    parser.add_argument("--epsilon", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src))
    from corridors import complex_core, pipeline

    start_rss = max_rss_mb()
    rows, depth = [], [0]
    # the functions pipeline imports, those of the corridors modules it
    # imports whole, and ridges_of, where Complex.incidence looks it up
    targets = [(vars(pipeline), pipeline.__name__)]
    targets += [
        (vars(mod), None) for mod in vars(pipeline).values()
        if inspect.ismodule(mod) and mod.__name__.startswith("corridors.")
    ]
    for namespace, own in targets:
        for name, fn in list(namespace.items()):
            if inspect.isfunction(fn) and fn.__module__.startswith("corridors.") \
                    and fn.__module__ != own:
                wrap(namespace, name, rows, depth)
    wrap(vars(complex_core), "ridges_of", rows, depth)
    report = pipeline.run_pipeline(
        args.mode, args.dim, args.n, args.c1, args.epsilon, args.seed
    )

    print(f"{'stage':<36} {'seconds':>8} {'max_rss_mb':>11}")
    print(f"{'(imports)':<36} {'':>8} {start_rss:11.1f}")
    for level, name, seconds, rss in rows:
        print(f"{'  ' * level + name:<36} {seconds:8.3f} {rss:11.1f}")
    print(f"ok={report['ok']} wall_time_s={report['timing']['wall_time_s']:.3f}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
