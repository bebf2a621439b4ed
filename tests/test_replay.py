"""A pipeline report replays through the staged CLI.

A report records the greedy seed it kept, the refinement seed, the class
cap S it used and c2; the staged commands given those values must rebuild
the same quotient from files.  The replay is the README recipe "Re-checking
a report", step by step.
"""

import functools
import json

import pytest

from corridors import run_pipeline
from corridors.cli import main

EPSILON = 0.2

# (mode, d, N, c1, seed, window)
REPLAYED = [
    # the four grid-small configurations at N = 250; each one spends its
    # greedy retries and falls back to the observed class size
    ("simplicial", 3, 250, 13, 0, None),
    ("simplicial", 4, 250, 19, 0, None),
    ("pseudomanifold", 3, 250, 13, 0, None),
    ("pseudomanifold", 4, 250, 19, 0, None),
    # a caller's window
    ("simplicial", 3, 250, 13, 1, 5),
    # within the formula cap, which exceeds the largest class (69 > 68), so
    # a replay without --class-cap refines against another S
    ("pseudomanifold", 3, 1500, 13, 0, None),
]


@functools.cache
def report(config):
    mode, d, n, c1, seed, window = config
    return run_pipeline(mode, d, n, c1, EPSILON, seed, window=window)


def replay(tmp_path, capsys, rep):
    """Run the staged commands on a report's recorded values.

    Returns verify's exit code, refine's JSON stats and the quotient's
    report fragment.
    """
    params, seeds = rep["params"], rep["stage_seeds"]
    d, n = params["d"], params["n_corridor"]
    pm = rep["mode"] == "pseudomanifold"
    codim = 2 if pm else 1

    def cli(*argv):
        code = main([str(arg) for arg in argv])
        out = capsys.readouterr().out
        assert code == 0 or argv[0] == "verify", (argv, code)
        return code, out

    corridor = tmp_path / "sc.cplx"
    f, fg = tmp_path / "f.coloring", tmp_path / "fg.coloring"
    q, fragment = tmp_path / "q.cplx", tmp_path / "q.json"
    cli("build", "corridor", "--n", n, "--dim", d + codim - 1, "--out", corridor)
    color = [
        "color", "--in", corridor, "--codim", codim, "--c1", params["c1"],
        "--seed", seeds["greedy_used"], "--out", f, "--quiet",
    ]
    if params["window"] is not None:
        color += ["--window", params["window"]]
    cli(*color)
    target = corridor
    if pm:
        target = tmp_path / "bd.cplx"
        cli("build", "boundary", "--n", n, "--dim", d, "--out", target)
    _, out = cli(
        "refine", "--in", target, "--coloring", f,
        "--shape", "boundary" if pm else "corridor", "--seed", seeds["refine"],
        "--class-cap", params["s_used"], "--c2", params["c2"], "--out", fg, "--json",
    )
    cli("quotient", "--in", target, "--coloring", fg, "--out", q,
        "--report", fragment, "--quiet")
    verify = ["verify", "--in", target, "--coloring", fg, "--against", q, "--quiet"]
    if pm:
        verify.append("--expect-pm")
    code, _ = cli(*verify)
    return code, json.loads(out), json.loads(fragment.read_text())


@pytest.mark.parametrize("config", REPLAYED, ids=lambda c: "-".join(map(str, c)))
def test_report_replays_through_the_staged_cli(tmp_path, capsys, config):
    rep = report(config)
    assert rep["ok"]
    verified, refined, fragment = replay(tmp_path, capsys, rep)
    assert verified == 0
    params, results = rep["params"], rep["results"]
    assert (refined["t"], refined["S"], refined["c2"]) == (
        params["t"], params["s_used"], params["c2"]
    )
    assert refined["resamples"] == results["resamples"]
    assert refined["ridge_patterns_unique"]
    assert (
        fragment["n_prime"], fragment["facet_count"], fragment["diameter_quotient"]
    ) == (results["n_prime"], results["facet_count"], results["diameter"])


def test_replayed_reports_cover_both_class_cap_sources():
    sources = [report(config)["params"]["s_source"] for config in REPLAYED]
    assert sources.count("observed") == 5 and sources[-1] == "formula"
    last = report(REPLAYED[-1])
    assert last["params"]["s_used"] > last["results"]["histogram_max"]
