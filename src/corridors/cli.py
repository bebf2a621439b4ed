"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parameter error,
3 resample/retry exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from .coloring import (
    FirstColoringParams,
    RefinementParams,
    default_window,
    first_stage_class_cap,
    greedy_window_coloring,
    intersecting_ridge_bound,
    lll_target_colors,
    moser_tardos_refine,
    pattern_class_histogram,
    read_coloring,
    verify_proper,
    verify_unique_ridge_patterns,
    write_coloring,
)
from .complex_core import (
    diameter_exact,
    double_sweep_lower_bound,
    dual_graph,
    is_pseudomanifold,
    is_strongly_connected,
    pair_distance,
    read_complex,
    write_complex,
)
from .constructions import CorridorSpec, boundary_corridor, facet_labels, straight_corridor
from .errors import EXHAUSTION_ERRORS, CorridorsError, InvalidSpec
from .pipeline import run_bench, run_pipeline
from .quotient import pattern_complex, quotient_report, verify_boundary_preservation


def _say(args, message):
    if not getattr(args, "quiet", False):
        print(message)


def _emit_json(payload):
    print(json.dumps(payload, indent=2))


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def cmd_build(args):
    if args.kind == "corridor":
        c = straight_corridor(CorridorSpec(args.n, args.dim))
        if args.labels:
            raise InvalidSpec("--labels applies only to boundary complexes")
    else:
        c = boundary_corridor(args.n, args.dim)
    write_complex(c, args.out)
    if args.labels:
        labels = facet_labels(c)
        with open(args.out + ".labels", "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(lab) for lab in labels) + "\n")
    _say(args, f"wrote {len(c.facets)} facets to {args.out}")
    return 0


def cmd_color(args):
    c = read_complex(args.infile)
    params = FirstColoringParams(args.c1, args.epsilon, args.seed, args.window)
    f = greedy_window_coloring(c, params)
    hist = pattern_class_histogram(c, f, args.codim, args.epsilon)
    write_coloring(f, args.out)
    stats = {
        "c1": args.c1,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "window": params.window if params.window is not None else default_window(c),
        "codim": args.codim,
        "face_count": hist.face_count,
        "class_count": len(hist.counts),
        "max_class_size": hist.max_class_size,
        "class_cap": first_stage_class_cap(
            c.n_vertices, c.dim_facet, args.c1, args.codim, args.epsilon
        ),
    }
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
        s = pattern_class_histogram(c, f, 1).max_class_size
    c2 = args.c2 if args.c2 is not None else lll_target_colors(t, s, c.dim_facet)
    result = moser_tardos_refine(
        c, f, RefinementParams(t, s, c2, args.seed, args.max_resamples)
    )
    write_coloring(result.coloring, args.out)
    unique, witness = verify_unique_ridge_patterns(c, result.coloring)
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
    c = read_complex(args.infile)
    f = read_coloring(args.coloring)
    q = pattern_complex(c, f)
    write_complex(q.quotient, args.out)
    fragment = quotient_report(c, q)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(fragment, fh, indent=2)
            fh.write("\n")
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
        unique, witness = verify_unique_ridge_patterns(c, f)
        checks["ridge_unique"] = unique
        required += ["proper", "ridge_unique"]
        if args.against:
            other = read_complex(args.against)
            q = pattern_complex(c, f)
            preserved = (
                q.facets_injective
                and q.ridges_injective
                and verify_boundary_preservation(c, q)
            )
            checks["boundary_preserved"] = preserved
            checks["quotient_matches"] = q.quotient == other
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
    g = dual_graph(c)
    if args.pair is not None:
        value = pair_distance(g, args.pair[0], args.pair[1])
        label = f"distance({args.pair[0]}, {args.pair[1]})"
    elif args.method == "double-sweep":
        value = double_sweep_lower_bound(g)
        label = "diameter lower bound (double sweep)"
    else:
        value = diameter_exact(g)
        label = "diameter (ifub)"
    if args.json:
        _emit_json({"nodes": g.n_nodes, "value": value, "mode": label})
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
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
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
        _int_list(args.dims),
        _int_list(args.ns),
        _int_list(args.c1s),
        _int_list(args.seeds),
        epsilon=args.epsilon,
        jobs=args.jobs,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2)
            fh.write("\n")
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="PRNG seed")
    common.add_argument("--json", action="store_true", help="emit JSON output")
    common.add_argument("--quiet", action="store_true", help="suppress chatter")

    parser = argparse.ArgumentParser(
        prog="corridors",
        description="corridor complexes, window colorings, pattern quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common], help="write a seed complex")
    p.add_argument("kind", choices=["corridor", "boundary"])
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--dim", type=int, required=True, help="facet size")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", action="store_true", help="also write facet labels")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("color", parents=[common], help="stage-one greedy coloring")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--codim", type=int, default=1)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("refine", parents=[common], help="resample until ridge patterns are unique")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--shape", choices=["corridor", "boundary"], required=True)
    p.add_argument("--c2", type=int, default=None)
    p.add_argument("--class-cap", type=int, default=None, help="override S")
    p.add_argument("--max-resamples", type=int, default=10 ** 6)
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
    p.add_argument(
        "--method",
        choices=["ifub", "double-sweep"],
        default="ifub",
        help="exact fringe-pruned search, or a double-sweep lower bound",
    )
    p.add_argument("--pair", type=int, nargs=2, default=None, metavar=("U", "V"))
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("bounds", parents=[common], help="evaluate bound formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("pipeline", parents=[common], help="full build-color-refine-quotient run")
    p.add_argument("--mode", choices=["simplicial", "pseudomanifold"], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--c2", type=int, default=None)
    p.add_argument("--max-resamples", type=int, default=10 ** 6)
    p.add_argument("--retries", type=int, default=10)
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
    p.add_argument("--jobs", type=int, default=1)
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


if __name__ == "__main__":
    sys.exit(main())
