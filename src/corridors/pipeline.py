"""End-to-end runs: build, color, refine, quotient, verify, report.

A run report is a plain JSON-ready dict with a stable field order; everything
in it except the "timing" section is a pure function of the parameters and
seed.  Every verification flag is recomputed from the finished artifacts
(never trusted from a stage's own post-conditions), and the quotient diameter
is always re-measured by BFS on the quotient's own dual graph.

Stage one counts pattern classes over the target's own ridges in both
modes.  The pseudomanifold construction colors the corridor one dimension
up, SC(N, d+1), caps the classes of its codimension-2 faces and quotients
its boundary.  In a stacked ball every face below codimension 1 lies on the
boundary, so those faces are exactly the boundary's ridges, in the same
lexicographic order; and a greedy coloring depends only on the vertex count
and the window, which the two complexes share.  So no second complex is
built: of that corridor only its facet size is kept, for the class cap and
the default window.
"""

from __future__ import annotations

import random
import time
from itertools import product
from math import ceil, factorial, inf

from . import bounds as bounds_mod
from .coloring import (
    DEFAULT_MAX_RESAMPLES,
    PRNG_ID,
    _require_greedy_params,
    _require_refine_params,
    class_sizes,
    default_window,
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


def _derive_seed(master: random.Random) -> int:
    return master.getrandbits(63)


def _require_epsilon(epsilon) -> None:
    if not 0 < epsilon < inf:
        raise InvalidSpec(f"need a finite positive epsilon, got {epsilon}")


def _first_stage(target, c1, window, master, retries, cap):
    """Greedy attempts until one's largest ridge class fits the cap.

    Classes are counted over the target's own ridges, from the incidence
    the later stages read too; in pseudomanifold mode these are the codim-2
    faces of the corridor one dimension up (see the module docstring).  The
    decoded ridge columns are dropped on return, before refinement allocates
    its own structures.  Returns (largest class, coloring, seed) of the best
    attempt, the first one to fit or else the smallest, and the seeds of all
    attempts.
    """
    columns = list(target.incidence.columns())
    seeds = []
    best = None
    for _ in range(retries):
        gseed = _derive_seed(master)
        seeds.append(gseed)
        f = greedy_window_coloring(target, c1, gseed, window)
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
    quotients the boundary sphere of the corridor one dimension up.  Either
    way stage one colors the target and counts classes over its own ridges,
    which are the codim-k faces of the corridor the paper colors (k = 1, or
    2 for the corridor one dimension up).  That corridor's facet size,
    carrier_dim, sets the class cap and the default window 2(carrier_dim - 1);
    the report's params.window is the caller's window, None for the default.
    Every parameter, the stages' too, is checked before the target is built,
    so a bad one costs no construction.

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
    codim = 1 if mode == "simplicial" else 2
    carrier_dim = dim + codim - 1
    greedy_window = window if window is not None else default_window(carrier_dim)
    _require_greedy_params(c1, greedy_window)
    # stage one's S is a class size, never negative
    _require_refine_params(0, c2, max_resamples)

    if mode == "simplicial":
        target = straight_corridor(CorridorSpec(n_corridor, dim))
        t_bound = intersecting_ridge_bound("corridor", dim)
    else:
        target = boundary_corridor(n_corridor, dim)
        t_bound = intersecting_ridge_bound("boundary", dim)
    s_formula = first_stage_class_cap(n_corridor, carrier_dim, c1, codim, epsilon)

    master = random.Random(seed)
    best, greedy_seeds = _first_stage(
        target, c1, greedy_window, master, retries, s_formula
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
        target, first_coloring, s_used, c2_used, refine_seed, max_resamples
    )
    product = refine.coloring

    q = pattern_complex(target, product)

    # independent re-checks: none of these reuse a stage's own claims
    proper = verify_proper(target, product)
    ridge_unique = verify_unique_ridge_patterns(target, product)
    preserved = verify_boundary_preservation(target, q)
    pm_source = is_pseudomanifold(target)

    # the report reads nothing more of the source, its incidence, the
    # colorings or the ridge map, so they go before the quotient's dual
    # graph is built; holding them set the peak memory of large runs
    quotient, facet_map, facets_injective = q.quotient, q.facet_map, q.facets_injective
    resamples = refine.resamples
    del target, q, product, refine, first_coloring, best
    n_prime = quotient.n_vertices

    qgraph = dual_graph(quotient)
    try:
        diameter, diameter_method = diameter_exact(qgraph), "recomputed"
    except DisconnectedGraph:
        diameter = diameter_method = None
    connected = diameter is not None

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
        "facet_count": quotient.facet_count,
        "diameter": diameter,
        "diameter_method": diameter_method,
        "resamples": resamples,
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
        lower = bounds_mod.hs_lower(n_prime, dim)
        upper = bounds_mod.hs_upper(n_prime, dim)
        bounds["hs_lower_asymptotic"] = float(lower)
        bounds["hs_upper"] = float(upper)
        # diameter d! / n'^(d-1) at the lower bound: 1/(4e d^2)
        bounds["ratio_asymptotic"] = float(lower * d_fact / n_prime ** (dim - 1))
        verification["diameter_within_upper_bound"] = (
            diameter is not None and diameter <= upper
        )
    else:
        lemma8 = ceil(diameter_lower_bound_boundary(n_corridor, dim))
        lower = bounds_mod.hpm_lower(n_prime, dim)
        sharp, loose = bounds_mod.hpm_upper(n_prime, dim)
        bounds["hpm_lower_asymptotic"] = float(lower)
        bounds["hpm_upper_sharp"] = float(sharp)
        bounds["hpm_upper_loose"] = float(loose)
        bounds["lemma8_lower"] = lemma8
        # diameter d! / n'^(d-1) at the lower bound: 1/(4e d^4)
        bounds["ratio_asymptotic"] = float(lower * d_fact / n_prime ** (dim - 1))

        dist_ao = None
        regular_ok = False
        regular_bound = None
        if connected and facets_injective:
            # alpha and omega are the boundary's first and last facets
            dist_ao = pair_distance(qgraph, facet_map[0], facet_map[-1])
            try:
                bound = bounds_mod.check_regular_graph_bound(qgraph)
                regular_ok = diameter <= bound
                regular_bound = float(bound)
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


def _bench_cell(index, mode, d, n, c1, seed, epsilon, kwargs) -> dict:
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
    **pipeline_kwargs,
) -> dict:
    """Grid of pipeline runs with per-cell status and per-parameter aggregates.

    Every grid point (d, n, c1), a value a list repeats included, has one
    cell per seed and one aggregate over those cells.  The cells run in
    order in the calling process; each owns its seed (the grid enumerates
    them explicitly), so no cell's row depends on another's.  An epsilon
    that is not finite and positive raises InvalidSpec before any cell
    runs.
    """
    _require_epsilon(epsilon)
    points = list(product(dims, ns, c1s))
    rows = [
        _bench_cell(index, mode, d, n, c1, seed, epsilon, pipeline_kwargs)
        for index, ((d, n, c1), seed) in enumerate(product(points, seeds))
    ]

    # the cells of grid point k are the k-th run of len(seeds) rows
    aggregates = []
    per_point = len(seeds)
    for k, (d, n, c1) in enumerate(points):
        group = rows[k * per_point:(k + 1) * per_point]
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
