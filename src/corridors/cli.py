"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parameter error or an
input that does not fit in memory, 3 resample/retry exhaustion.  Each command computes everything it reports
before it writes a file, so a failed computation leaves no output behind;
a failed write removes the files the command already wrote, so a command
that exits 2 leaves none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import bounds as bounds_mod
from .coloring import (
    DEFAULT_MAX_RESAMPLES,
    _require_greedy_params,
    _require_refine_params,
    _require_total,
    class_sizes,
    default_window,
    first_stage_class_cap,
    greedy_window_coloring,
    intersecting_ridge_bound,
    lll_target_colors,
    moser_tardos_refine,
    read_coloring,
    verify_proper,
    verify_unique_ridge_patterns,
    write_coloring,
)
from .complex_core import (
    diameter_exact,
    double_sweep_lower_bound,
    dual_graph,
    face_columns,
    is_pseudomanifold,
    is_strongly_connected,
    pair_distance,
    read_complex,
    write_complex,
)
from .constructions import CorridorSpec, boundary_corridor, facet_labels, straight_corridor
from .errors import EXHAUSTION_ERRORS, CorridorsError, InvalidSpec
from .pipeline import DEFAULT_RETRIES, _require_epsilon, run_bench, run_pipeline
from .quotient import pattern_complex, quotient_report, verify_boundary_preservation


def _say(args, message):
    if not args.quiet:
        print(message)


def _emit_json(payload):
    print(json.dumps(payload, indent=2))


def _write_text(text, path):
    Path(path).write_text(text, encoding="utf-8")


def _write_json(payload, path):
    _write_text(json.dumps(payload, indent=2) + "\n", path)


def _require_distinct(paths):
    """InvalidSpec if two output paths resolve to one file, since the later
    write would replace the earlier output.

    A command with two outputs calls this before it reads or builds
    anything, so the refusal costs no work.
    """
    # realpath, unlike Path.resolve before 3.13, leaves a symlink loop to
    # the write, whose OSError is a parameter error
    if len(set(map(os.path.realpath, paths))) < len(paths):
        raise InvalidSpec("two outputs name one file: " + ", ".join(paths))


def _write_all(writes):
    """Call each (path, write) pair's write(path) in order.

    If one write raises, the files the earlier ones wrote are removed before
    the error propagates, so the command leaves either every file or none.
    """
    written = []
    try:
        for path, write in writes:
            write(path)
            written.append(path)
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise


def _int_list(option, text):
    """Comma-separated integers of a list option, at least one; a bad token
    names both."""
    values = []
    for tok in filter(None, text.split(",")):
        try:
            values.append(int(tok))
        except ValueError:
            raise InvalidSpec(f"{option} needs integers, got {tok!r}") from None
    if not values:
        raise InvalidSpec(f"{option} needs at least one integer")
    return values


def cmd_build(args):
    if args.labels:
        if args.kind == "corridor":
            raise InvalidSpec("--labels applies only to boundary complexes")
        _require_distinct([args.out, args.out + ".labels"])
    if args.kind == "corridor":
        c = straight_corridor(CorridorSpec(args.n, args.dim))
    else:
        c = boundary_corridor(args.n, args.dim)
    writes = [(args.out, partial(write_complex, c))]
    if args.labels:
        text = "\n".join(facet_labels(args.n, args.dim)) + "\n"
        writes.append((args.out + ".labels", partial(_write_text, text)))
    _write_all(writes)
    _say(args, f"wrote {c.facet_count} facets to {args.out}")
    return 0


def cmd_color(args):
    c = read_complex(args.infile)
    window = args.window if args.window is not None else default_window(c.dim_facet)
    # a bad c1 or window is reported before a bad epsilon, and both before the draw
    _require_greedy_params(args.c1, window)
    _require_epsilon(args.epsilon)
    f = greedy_window_coloring(c, args.c1, args.seed, window)
    sizes = class_sizes(f.colors, f.c, face_columns(c, args.codim))
    stats = {
        "c1": args.c1,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "window": window,
        "codim": args.codim,
        "face_count": sum(sizes.values()),
        "class_count": len(sizes),
        "max_class_size": max(sizes.values(), default=0),
        "class_cap": first_stage_class_cap(
            c.n_vertices, c.dim_facet, args.c1, args.codim, args.epsilon
        ),
    }
    write_coloring(f, args.out)
    if args.json or not args.quiet:
        _emit_json(stats)
    return 0


def cmd_refine(args):
    c = read_complex(args.infile)
    f = read_coloring(args.coloring)
    t = intersecting_ridge_bound(args.shape, c.dim_facet)
    if args.class_cap is not None:
        s = args.class_cap
    else:
        # a short coloring would index past its colors in class_sizes
        _require_total(c, f)
        s = max(class_sizes(f.colors, f.c, face_columns(c, 1)).values(), default=0)
    _require_refine_params(s, args.c2, args.max_resamples)
    c2 = args.c2 if args.c2 is not None else lll_target_colors(t, s, c.dim_facet)
    result = moser_tardos_refine(c, f, s, c2, args.seed, args.max_resamples)
    unique = verify_unique_ridge_patterns(c, result.coloring)
    write_coloring(result.coloring, args.out)
    stats = {
        "shape": args.shape,
        "t": t,
        "S": s,
        "c2": c2,
        "seed": args.seed,
        "resamples": result.resamples,
        "colors_total": result.coloring.c,
        "ridge_patterns_unique": unique,
    }
    if args.json or not args.quiet:
        _emit_json(stats)
    return 0 if unique else 1


def cmd_quotient(args):
    if args.report:
        _require_distinct([args.out, args.report])
    c = read_complex(args.infile)
    f = read_coloring(args.coloring)
    q = pattern_complex(c, f)
    fragment = quotient_report(c, q)
    writes = [(args.out, partial(write_complex, q.quotient))]
    if args.report:
        writes.append((args.report, partial(_write_json, fragment)))
    _write_all(writes)
    if args.json or not args.quiet:
        _emit_json(fragment)
    return 0


def cmd_verify(args):
    c = read_complex(args.infile)
    checks = {"connected": is_strongly_connected(c)}
    checks["pseudomanifold"] = is_pseudomanifold(c)
    required = ["connected"]
    if args.expect_pm:
        required.append("pseudomanifold")
    if args.coloring:
        f = read_coloring(args.coloring)
        checks["proper"] = verify_proper(c, f)
        checks["ridge_unique"] = verify_unique_ridge_patterns(c, f)
        required += ["proper", "ridge_unique"]
        if args.against:
            other = read_complex(args.against)
            # an improper coloring has no pattern quotient, so neither check
            # can hold; it fails as a verification, not as an error
            preserved = matches = False
            if checks["proper"]:
                q = pattern_complex(c, f)
                preserved = verify_boundary_preservation(c, q)
                matches = q.quotient == other
            checks["boundary_preserved"] = preserved
            checks["quotient_matches"] = matches
            required += ["boundary_preserved", "quotient_matches"]
    elif args.against:
        raise InvalidSpec("--against needs --coloring")
    ok = all(checks[name] for name in required)
    if args.json:
        _emit_json({"checks": checks, "required": required, "ok": ok})
    else:
        for name, value in checks.items():
            mark = "required" if name in required else "reported"
            _say(args, f"{name}: {'pass' if value else 'FAIL'} ({mark})")
    return 0 if ok else 1


def cmd_diameter(args):
    c = read_complex(args.infile)
    rows = dual_graph(c)
    if args.pair is not None:
        value = pair_distance(rows, args.pair[0], args.pair[1])
        label = f"distance({args.pair[0]}, {args.pair[1]})"
    elif args.method == "double-sweep":
        value = double_sweep_lower_bound(rows)
        label = "diameter lower bound (double sweep)"
    else:
        value = diameter_exact(rows)
        label = "diameter (ifub)"
    if args.json:
        _emit_json({"nodes": len(rows), "value": value, "mode": label})
    else:
        _say(args, f"{label}: {value}")
    return 0


def cmd_bounds(args):
    report = bounds_mod.bound_report(args.n, args.dim)
    if args.json:
        _emit_json(report)
    else:
        for key, value in report.items():
            _say(args, f"{key}: {value}")
    return 0


def cmd_pipeline(args):
    report = run_pipeline(
        args.mode,
        args.dim,
        args.n,
        args.c1,
        args.epsilon,
        args.seed,
        window=args.window,
        c2=args.c2,
        max_resamples=args.max_resamples,
        retries=args.retries,
        s_policy=args.s_policy,
    )
    if args.out:
        _write_json(report, args.out)
    if args.json:
        _emit_json(report)
    else:
        res = report["results"]
        _say(
            args,
            f"{report['mode']}: n'={res['n_prime']} facets={res['facet_count']} "
            f"diameter={res['diameter']} resamples={res['resamples']} "
            f"ok={report['ok']}",
        )
    return 0 if report["ok"] else 1


def cmd_bench(args):
    table = run_bench(
        args.mode,
        _int_list("--dims", args.dims),
        _int_list("--ns", args.ns),
        _int_list("--c1s", args.c1s),
        _int_list("--seeds", args.seeds),
        epsilon=args.epsilon,
    )
    if args.out:
        _write_json(table, args.out)
    if args.json:
        _emit_json(table)
    else:
        for agg in table["aggregates"]:
            _say(args, json.dumps(agg))
        for row in table["rows"]:
            if row["status"] != "ok":
                error = f": {row['error']}" if "error" in row else ""
                _say(args, f"cell {row['cell']}: {row['status']}{error}")
    return 0


def build_parser():
    # each command takes only the shared options it reads: every one reads
    # --quiet, all but build --json, and the three that draw --seed
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress chatter")
    common = argparse.ArgumentParser(add_help=False, parents=[quiet])
    common.add_argument("--json", action="store_true", help="emit JSON output")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="PRNG seed")

    parser = argparse.ArgumentParser(
        prog="corridors",
        description="corridor complexes, window colorings, pattern quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[quiet], help="write a seed complex")
    p.add_argument("kind", choices=["corridor", "boundary"])
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--dim", type=int, required=True, help="facet size")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", action="store_true", help="also write facet labels")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("color", parents=[seeded], help="stage-one greedy coloring")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--codim", type=int, default=1)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("refine", parents=[seeded], help="resample until ridge patterns are unique")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--shape", choices=["corridor", "boundary"], required=True)
    p.add_argument("--c2", type=int, default=None)
    p.add_argument("--class-cap", type=int, default=None, help="override S")
    p.add_argument("--max-resamples", type=int, default=DEFAULT_MAX_RESAMPLES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("quotient", parents=[common], help="pattern quotient of a colored complex")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="write the report fragment here")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("verify", parents=[common], help="run the predicate suite")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--coloring", default=None)
    p.add_argument("--against", default=None, help="expected quotient complex")
    p.add_argument("--expect-pm", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diameter", parents=[common], help="dual-graph diameter")
    p.add_argument("--in", dest="infile", required=True)
    mode = p.add_mutually_exclusive_group()
    # --method has no default: argparse takes an option whose value is its
    # default as absent, so a default "ifub" would let --method ifub pass
    mode.add_argument(
        "--method",
        choices=["ifub", "double-sweep"],
        help="exact fringe-pruned search (default), or a double-sweep lower bound",
    )
    mode.add_argument("--pair", type=int, nargs=2, metavar=("U", "V"))
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("bounds", parents=[common], help="evaluate bound formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("pipeline", parents=[seeded], help="full build-color-refine-quotient run")
    p.add_argument("--mode", choices=["simplicial", "pseudomanifold"], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--c2", type=int, default=None)
    p.add_argument("--max-resamples", type=int, default=DEFAULT_MAX_RESAMPLES)
    p.add_argument("--retries", type=int, default=DEFAULT_RETRIES)
    p.add_argument("--s-policy", choices=["adaptive", "strict"], default="adaptive")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("bench", parents=[common], help="grid of pipeline runs")
    p.add_argument("--mode", choices=["simplicial", "pseudomanifold"], default="simplicial")
    p.add_argument("--dims", default="3")
    p.add_argument("--ns", default="40")
    p.add_argument("--c1s", default="13")
    p.add_argument("--seeds", default="0")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EXHAUSTION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CorridorsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # an input too large for this machine, such as a vertex count below
        # 2**63 whose columns do not fit; outputs are written only once built
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
