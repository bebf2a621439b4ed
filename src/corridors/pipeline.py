"""End-to-end runs: build, color, refine, quotient, verify, report.

A run report is a plain JSON-ready dict with a stable field order; everything
in it except the "timing" section is a pure function of the parameters and
seed.  Every verification flag is recomputed from the finished artifacts
(never trusted from a stage's own post-conditions), and the quotient diameter
is always re-measured by BFS on the quotient's own dual graph.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import ceil, factorial, inf

from . import bounds as bounds_mod
from .coloring import (
    PRNG_ID,
    FirstColoringParams,
    RefinementParams,
    class_sizes,
    first_stage_class_cap,
    greedy_window_coloring,
    intersecting_ridge_bound,
    lll_target_colors,
    moser_tardos_refine,
    verify_proper,
    verify_unique_ridge_patterns,
)
from .complex_core import (
    DisconnectedGraph,
    diameter_exact,
    dual_graph,
    face_columns,
    is_pseudomanifold,
    pair_distance,
)
from .constructions import (
    CorridorSpec,
    boundary_corridor,
    diameter_lower_bound_boundary,
    straight_corridor,
)
from .errors import InvalidSpec, RetriesExhausted
from .quotient import pattern_complex, verify_boundary_preservation

DEFAULT_RETRIES = 10
DEFAULT_MAX_RESAMPLES = 10 ** 6


def _derive_seed(master: random.Random) -> int:
    return master.getrandbits(63)


def _require_epsilon(epsilon) -> None:
    if not 0 < epsilon < inf:
        raise InvalidSpec(f"need a finite positive epsilon, got {epsilon}")


def _first_stage(carrier, codim, c1, epsilon, window, master, retries, cap):
    """Greedy attempts until one's largest codim-k class fits the cap.

    Returns (largest class, coloring, seed) of the best attempt, the first
    one to fit or else the smallest, and the seeds of all attempts.  The
    carrier's faces are enumerated once and dropped on return, before the
    refinement stage allocates its own structures.
    """
    columns = face_columns(carrier, codim)
    seeds = []
    best = None
    for _ in range(retries):
        gseed = _derive_seed(master)
        seeds.append(gseed)
        f = greedy_window_coloring(
            carrier, FirstColoringParams(c1, epsilon, gseed, window)
        )
        largest = max(class_sizes(f.colors, c1, columns).values(), default=0)
        if best is None or largest < best[0]:
            best = (largest, f, gseed)
        if largest <= cap:
            break
    return best, seeds


def run_pipeline(
    mode: str,
    dim: int,
    n_corridor: int,
    c1: int,
    epsilon: float,
    seed: int,
    window: int | None = None,
    c2: int | None = None,
    max_resamples: int = DEFAULT_MAX_RESAMPLES,
    retries: int = DEFAULT_RETRIES,
    s_policy: str = "adaptive",
) -> dict:
    """One full randomized construction at the given scale, fully verified.

    mode "simplicial" quotients the corridor itself; mode "pseudomanifold"
    colors the corridor one dimension up and quotients its boundary sphere.

    The stage-one class cap is the asymptotic formula value; because it only
    binds for large N, s_policy "adaptive" (the default) falls back to the
    best observed class size once the retry budget is spent, while "strict"
    raises RetriesExhausted as the formula-faithful variant.
    """
    t_start = time.perf_counter()
    if mode not in ("simplicial", "pseudomanifold"):
        raise InvalidSpec(f"unknown mode {mode!r}")
    if dim < 3:
        raise InvalidSpec(f"pipeline needs dimension parameter >= 3, got {dim}")
    if c1 <= 6 * (dim - 1):
        raise InvalidSpec(f"need c1 > {6 * (dim - 1)}, got {c1}")
    if s_policy not in ("adaptive", "strict"):
        raise InvalidSpec(f"unknown s_policy {s_policy!r}")
    if retries < 1:
        raise InvalidSpec("need at least one greedy attempt")
    _require_epsilon(epsilon)

    if mode == "simplicial":
        carrier = straight_corridor(CorridorSpec(n_corridor, dim))
        target = carrier
        codim = 1
        t_bound = intersecting_ridge_bound("corridor", dim)
    else:
        carrier = straight_corridor(CorridorSpec(n_corridor, dim + 1))
        target = boundary_corridor(n_corridor, dim)
        codim = 2
        t_bound = intersecting_ridge_bound("boundary", dim)

    s_formula = first_stage_class_cap(
        n_corridor, carrier.dim_facet, c1, codim, epsilon
    )

    master = random.Random(seed)
    best, greedy_seeds = _first_stage(
        carrier, codim, c1, epsilon, window, master, retries, s_formula
    )
    histogram_max, first_coloring, greedy_seed_used = best
    attempts = len(greedy_seeds)
    if histogram_max <= s_formula:
        s_source, s_used = "formula", s_formula
    elif s_policy == "strict":
        raise RetriesExhausted(histogram_max, s_formula, attempts)
    else:
        s_source, s_used = "observed", histogram_max

    refine_seed = _derive_seed(master)
    c2_used = c2 if c2 is not None else lll_target_colors(t_bound, s_used, dim)
    refine = moser_tardos_refine(
        target,
        first_coloring,
        RefinementParams(t_bound, s_used, c2_used, refine_seed, max_resamples),
    )
    product = refine.coloring

    q = pattern_complex(target, product)
    quotient = q.quotient
    n_prime = quotient.n_vertices

    # independent re-checks: none of these reuse a stage's own claims
    proper = verify_proper(target, product)
    ridge_unique, _ = verify_unique_ridge_patterns(target, product)
    preserved = verify_boundary_preservation(target, q)

    qgraph = dual_graph(quotient)
    try:
        diameter, diameter_method = diameter_exact(qgraph), "recomputed"
    except DisconnectedGraph:
        diameter = diameter_method = None
    connected = diameter is not None

    pm_source = is_pseudomanifold(target)
    pm_quotient = is_pseudomanifold(quotient)

    verification = {
        "proper": proper,
        "ridge_unique": ridge_unique,
        "boundary_preserved": preserved,
        "pseudomanifold_preserved": pm_source == pm_quotient,
        "connected": connected,
        "n_prime_within_budget": n_prime <= c1 * c2_used,
    }
    results = {
        "n_prime": n_prime,
        "facet_count": len(quotient.facets),
        "diameter": diameter,
        "diameter_method": diameter_method,
        "resamples": refine.resamples,
        "greedy_attempts": attempts,
        "greedy_retries": attempts - 1,
        "histogram_max": histogram_max,
    }

    d_fact = factorial(dim)
    if diameter is not None and n_prime > 0:
        results["ratio_achieved"] = diameter * d_fact / n_prime ** (dim - 1)

    bounds = {}
    if mode == "simplicial":
        expected = n_corridor - dim
        verification["diameter_expected"] = diameter == expected
        upper = bounds_mod.hs_upper(n_prime, dim)
        bounds["hs_lower_asymptotic"] = float(bounds_mod.hs_lower(n_prime, dim))
        bounds["hs_upper"] = float(upper)
        bounds["ratio_asymptotic"] = float(
            Fraction(1) / (4 * bounds_mod.E * dim * dim)
        )
        verification["diameter_within_upper_bound"] = (
            diameter is not None and diameter <= upper
        )
    else:
        lemma8 = ceil(diameter_lower_bound_boundary(n_corridor, dim))
        sharp, loose = bounds_mod.hpm_upper(n_prime, dim)
        bounds["hpm_lower_asymptotic"] = float(bounds_mod.hpm_lower(n_prime, dim))
        bounds["hpm_upper_sharp"] = float(sharp)
        bounds["hpm_upper_loose"] = float(loose)
        bounds["lemma8_lower"] = lemma8
        bounds["ratio_asymptotic"] = float(
            Fraction(1) / (4 * bounds_mod.E * dim ** 4)
        )

        dist_ao = None
        regular_ok = False
        regular_bound = None
        if connected and q.facets_injective:
            alpha = tuple(range(1, dim + 1))
            omega = tuple(range(n_corridor - dim + 1, n_corridor + 1))
            qa = q.facet_map[target.facets.index(alpha)]
            qo = q.facet_map[target.facets.index(omega)]
            dist_ao = pair_distance(qgraph, qa, qo)
            try:
                check = bounds_mod.check_regular_graph_bound(qgraph, diameter)
                regular_ok = check.ok
                regular_bound = float(check.bound)
            except bounds_mod.NotRegular:
                regular_ok = False
        results["dist_alpha_omega"] = dist_ao
        bounds["regular_bound"] = regular_bound
        verification["pseudomanifold_quotient"] = pm_quotient
        verification["fvector_identity"] = (
            pm_quotient and bounds_mod.pm_fvector_check(quotient)
        )
        verification["dist_alpha_omega_meets_lower_bound"] = (
            dist_ao is not None and dist_ao >= lemma8
        )
        verification["diameter_within_upper_bound"] = regular_ok

    report = {
        "mode": mode,
        "prng": PRNG_ID,
        "params": {
            "d": dim,
            "n_corridor": n_corridor,
            "c1": c1,
            "epsilon": epsilon,
            "seed": seed,
            "window": window,
            "t": t_bound,
            "s_formula": s_formula,
            "s_used": s_used,
            "s_source": s_source,
            "c2": c2_used,
            "max_resamples": max_resamples,
            "retries_allowed": retries,
            "s_policy": s_policy,
        },
        "stage_seeds": {
            "greedy_attempts": greedy_seeds,
            "greedy_used": greedy_seed_used,
            "refine": refine_seed,
        },
        "results": results,
        "bounds": bounds,
        "verification": verification,
        "ok": all(verification.values()),
        "timing": {"wall_time_s": time.perf_counter() - t_start},
    }
    return report


def strip_volatile(report: dict) -> dict:
    """Copy of a report without its timing section, for determinism diffs."""
    return {k: v for k, v in report.items() if k != "timing"}


def _bench_cell(cell) -> dict:
    index, mode, d, n, c1, seed, epsilon, kwargs = cell
    entry = {
        "cell": index,
        "mode": mode,
        "d": d,
        "n_corridor": n,
        "c1": c1,
        "seed": seed,
    }
    try:
        report = run_pipeline(mode, d, n, c1, epsilon, seed, **kwargs)
    except InvalidSpec as exc:
        entry["status"] = "precondition-failed"
        entry["error"] = str(exc)
        return entry
    except Exception as exc:  # per-cell failures are recorded, not fatal
        entry["status"] = "failed"
        entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry
    entry["status"] = "ok" if report["ok"] else "verification-failed"
    entry["n_prime"] = report["results"]["n_prime"]
    entry["diameter"] = report["results"]["diameter"]
    entry["resamples"] = report["results"]["resamples"]
    entry["ratio_achieved"] = report["results"].get("ratio_achieved")
    entry["ratio_asymptotic"] = report["bounds"]["ratio_asymptotic"]
    return entry


def run_bench(
    mode: str,
    dims,
    ns,
    c1s,
    seeds,
    epsilon: float = 0.2,
    jobs: int = 1,
    **pipeline_kwargs,
) -> dict:
    """Grid of pipeline runs with per-cell status and per-parameter aggregates.

    Cells own independent seeds (the grid enumerates them explicitly), so any
    execution order, including the parallel one, yields the same table.  At
    most `jobs` worker processes run, and never more than there are cells.
    A `jobs` below one or an epsilon that is not finite and positive raises
    InvalidSpec before any cell runs.
    """
    if jobs < 1:
        raise InvalidSpec(f"need at least one job, got {jobs}")
    _require_epsilon(epsilon)
    cells = []
    index = 0
    for d in dims:
        for n in ns:
            for c1 in c1s:
                for seed in seeds:
                    cells.append(
                        (index, mode, d, n, c1, seed, epsilon, pipeline_kwargs)
                    )
                    index += 1
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            rows = list(pool.map(_bench_cell, cells))
    else:
        rows = [_bench_cell(cell) for cell in cells]

    aggregates = []
    for d in dims:
        for n in ns:
            for c1 in c1s:
                group = [
                    r
                    for r in rows
                    if r["d"] == d and r["n_corridor"] == n and r["c1"] == c1
                ]
                ok_rows = [r for r in group if r["status"] == "ok"]
                agg = {
                    "mode": mode,
                    "d": d,
                    "n_corridor": n,
                    "c1": c1,
                    "cells": len(group),
                    "ok": len(ok_rows),
                    "failed": len(group) - len(ok_rows),
                }
                if ok_rows:
                    n_primes = [r["n_prime"] for r in ok_rows]
                    ratios = [
                        r["ratio_achieved"]
                        for r in ok_rows
                        if r["ratio_achieved"] is not None
                    ]
                    agg["mean_n_prime"] = sum(n_primes) / len(n_primes)
                    agg["max_n_prime"] = max(n_primes)
                    agg["mean_resamples"] = sum(
                        r["resamples"] for r in ok_rows
                    ) / len(ok_rows)
                    if ratios:
                        agg["mean_ratio"] = sum(ratios) / len(ratios)
                        agg["max_ratio"] = max(ratios)
                    agg["ratio_asymptotic"] = ok_rows[0]["ratio_asymptotic"]
                aggregates.append(agg)
    return {"mode": mode, "rows": rows, "aggregates": aggregates}
