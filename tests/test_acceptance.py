"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math

from conftest import incidence_dense, incidence_rows
from corridors import (
    CorridorSpec,
    FirstColoringParams,
    RefinementParams,
    boundary_corridor,
    check_regular_graph_bound,
    diameter_exact,
    diameter_lower_bound_boundary,
    dual_graph,
    facet_labels,
    first_stage_class_cap,
    greedy_window_coloring,
    intersecting_ridge_bound,
    is_pseudomanifold,
    lll_target_colors,
    moser_tardos_refine,
    pattern_class_histogram,
    pattern_complex,
    pm_fvector_check,
    ridges_of,
    run_pipeline,
    scaled_potential,
    straight_corridor,
    strip_volatile,
    verify_boundary_preservation,
    verify_unique_ridge_patterns,
)
from naive_reference import (
    ref_boundary_dense,
    ref_dual_edges,
    ref_is_pseudomanifold,
    ref_ridges,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def sc(n, d):
    return straight_corridor(CorridorSpec(n, d))


def staged_run(target, c1, epsilon, shape, seed, window=None):
    """Greedy -> refine (observed class cap) -> quotient, on one complex."""
    f = greedy_window_coloring(target, FirstColoringParams(c1, epsilon, seed, window))
    s = pattern_class_histogram(target, f, 1).max_class_size
    t = intersecting_ridge_bound(shape, target.dim_facet)
    c2 = lll_target_colors(t, s, target.dim_facet)
    refined = moser_tardos_refine(target, f, RefinementParams(t, s, c2, seed))
    return pattern_complex(target, refined.coloring)


def test_criterion_1_corridor_diameter():
    ok = True
    for d in (3, 4, 5):
        for n in range(d, 61):
            if diameter_exact(dual_graph(sc(n, d))) != n - d:
                ok = False
    report(1, "corridor diameter", ok, "d in {3,4,5}, N up to 60, exact")


def test_criterion_2_boundary_diameter_and_potential():
    ok = True
    detail = []
    for d in (3, 4):
        for n in range(d + 2, 41):
            b = boundary_corridor(n, d)
            if diameter_exact(dual_graph(b)) < math.ceil(diameter_lower_bound_boundary(n, d)):
                ok = False
                detail.append(f"diameter below bound at ({n},{d})")
            labels = facet_labels(b)
            g = dual_graph(b)
            for u, nbrs in enumerate(g.adjacency):
                if labels[u].kind != "middle":
                    continue
                pu = scaled_potential(labels[u], d)
                for v in nbrs:
                    if labels[v].kind != "middle":
                        continue
                    if abs(scaled_potential(labels[v], d) - pu) > d:
                        ok = False
                        detail.append(f"potential step at ({n},{d})")
    report(2, "boundary diameter and potential steps", ok, "; ".join(detail) or "exhaustive")


def test_criterion_3_quotient_preservation():
    failures = []
    for d, n, c1, seeds in ((3, 200, 13, range(50)), (4, 100, 19, range(20))):
        target = sc(n, d)
        for seed in seeds:
            q = staged_run(target, c1, 0.2, "corridor", seed)
            if not verify_boundary_preservation(target, q):
                failures.append((d, n, seed, "preservation"))
                continue
            if diameter_exact(dual_graph(q.quotient)) != n - d:
                failures.append((d, n, seed, "diameter"))
    report(3, "quotient preservation", not failures, f"70 runs, failures: {failures}")


def test_criterion_4_pattern_concentration():
    n, d, c1, epsilon = 10 ** 5, 3, 13, 0.1
    cap = first_stage_class_cap(n, d, c1, 1, epsilon)
    target = sc(n, d)
    hits = 0
    maxima = []
    means = []
    for seed in range(20):
        f = greedy_window_coloring(target, FirstColoringParams(c1, epsilon, seed))
        hist = pattern_class_histogram(target, f, 1)
        maxima.append(hist.max_class_size)
        means.append(hist.face_count / hist.class_count)
        if hist.max_class_size <= cap:
            hits += 1
    detail = (
        f"{hits}/20 seeds within cap {cap}; "
        f"max class sizes {min(maxima)}..{max(maxima)}, "
        f"mean class size {sum(means) / len(means):.1f}"
    )
    report(4, "pattern-class concentration", hits >= 19, detail)


def test_criterion_5_lll_refinement():
    n, d, c1 = 10 ** 4, 3, 13
    target = sc(n, d)
    t = 2 * d * d
    ok = True
    resamples = []
    for seed in range(20):
        f = greedy_window_coloring(target, FirstColoringParams(c1, 0.1, seed))
        s = pattern_class_histogram(target, f, 1).max_class_size
        c2 = lll_target_colors(t, s, d)
        result = moser_tardos_refine(
            target, f, RefinementParams(t, s, c2, seed, max_resamples=10 ** 6)
        )
        resamples.append(result.resamples)
        unique, witness = verify_unique_ridge_patterns(target, result.coloring)
        if not unique:
            ok = False
    detail = f"20/20 refinements converged, resamples {min(resamples)}..{max(resamples)}"
    report(5, "local-lemma refinement", ok, detail)


def test_criterion_6_vertex_economy():
    n, d, c1, epsilon = 10 ** 4, 3, 13, 0.1
    rep = run_pipeline("simplicial", d, n, c1, epsilon, 0)
    n_prime = rep["results"]["n_prime"]
    budget = 2 * math.sqrt(math.factorial(d - 1) * 4 * d ** 3 * n * math.e)
    achieved = rep["results"]["ratio_achieved"]
    asymptotic = rep["bounds"]["ratio_asymptotic"]
    detail = (
        f"n'={n_prime} <= {budget:.1f}; ratio diameter*d!/n'^(d-1) = "
        f"{achieved:.5f} vs asymptotic constant {asymptotic:.5f} (reported, not asserted)"
    )
    report(6, "vertex-count economy", rep["ok"] and n_prime <= budget, detail)


def test_criterion_7_pseudomanifold_pipeline():
    n, d, c1, epsilon = 10 ** 3, 3, 13, 0.2
    carrier = sc(n, d + 1)
    target = boundary_corridor(n, d)
    f = greedy_window_coloring(carrier, FirstColoringParams(c1, epsilon, 0))
    s = pattern_class_histogram(carrier, f, 2).max_class_size
    t = intersecting_ridge_bound("boundary", d)
    c2 = lll_target_colors(t, s, d)
    refined = moser_tardos_refine(target, f, RefinementParams(t, s, c2, 0))
    q = pattern_complex(target, refined.coloring)
    quotient = q.quotient
    pm_ok = is_pseudomanifold(quotient)
    fvec_ok = pm_ok and pm_fvector_check(quotient)
    qgraph = dual_graph(quotient)
    check = check_regular_graph_bound(qgraph, diameter_exact(qgraph))
    preserved = verify_boundary_preservation(target, q)
    ok = pm_ok and fvec_ok and check.ok and preserved
    detail = (
        f"facets={len(quotient.facets)}, diameter={check.actual} <= "
        f"bound={float(check.bound):.1f}, n'={quotient.n_vertices}"
    )
    report(7, "pseudomanifold pipeline", ok, detail)


def test_criterion_8_oracle_equivalence(corpus):
    ok = True
    for c in corpus:
        if c.n_vertices > 12 or c.dim_facet > 4:
            continue
        if incidence_rows(ridges_of(c)) != ref_ridges(c):
            ok = False
        g = dual_graph(c)
        edges = {(u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v}
        if edges != ref_dual_edges(c):
            ok = False
        if incidence_dense(c) != ref_boundary_dense(c):
            ok = False
        if is_pseudomanifold(c) != ref_is_pseudomanifold(c):
            ok = False
    report(8, "oracle equivalence", ok, "all-faces reference on the small corpus")


def test_criterion_9_determinism():
    ok = True
    for mode, n in (("simplicial", 120), ("pseudomanifold", 60)):
        a = run_pipeline(mode, 3, n, 13, 0.2, 9)
        b = run_pipeline(mode, 3, n, 13, 0.2, 9)
        if strip_volatile(a) != strip_volatile(b):
            ok = False
    report(9, "report determinism", ok, "identical modulo the timing section")
