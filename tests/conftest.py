import contextlib
import dataclasses
import random
import signal
import sys
from array import array

import pytest

from corridors import (
    Coloring,
    Complex,
    CorridorSpec,
    DualGraph,
    boundary_corridor,
    complex_core,
    straight_corridor,
)
from naive_reference import ref_ridges


def random_complex(rng, max_vertices=12, max_dim=4):
    """One random pure complex with <= max_vertices vertices."""
    d = rng.randint(2, max_dim)
    n = rng.randint(d, max_vertices)
    vertices = list(range(1, n + 1))
    pool = set()
    for _ in range(rng.randint(1, 12)):
        pool.add(tuple(sorted(rng.sample(vertices, d))))
    return Complex(d, n, tuple(sorted(pool)))


def identity_coloring(n):
    """Vertex v gets color v: proper on every complex, with no collision."""
    return Coloring(tuple(range(1, n + 1)), n)


def graph_from_edges(n_nodes, edges):
    """DualGraph of undirected edges (u, v): orientation does not matter,
    duplicates merge, and a self-loop raises ValueError."""
    pairs = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        pairs.add((u, v) if u < v else (v, u))
    ordered = sorted(pairs)
    tails = array("q", [u for u, _ in ordered])
    heads = array("q", [v for _, v in ordered])
    return DualGraph(n_nodes, tails, heads)


def incidence_dense(c):
    """c.incidence as (rows, cols, dense) in the layout of ref_boundary_dense.

    Rows are the incidence's ridges, columns the facets in sorted order, and
    dense[i][j] is 1 iff facet cols[j] is listed for ridge rows[i].
    """
    pairs = incidence_rows(c.incidence)
    cols = sorted(c.facets)
    col_of = {F: j for j, F in enumerate(cols)}
    dense = [[0] * len(cols) for _ in pairs]
    for row, (_, fids) in zip(dense, pairs):
        for fi in fids:
            row[col_of[c.facets[fi]]] = 1
    return [r for r, _ in pairs], cols, dense


def decode_code(code, n_vertices, size):
    """The sorted size-vertex face whose base-(n_vertices + 1) code is given."""
    digits = []
    for _ in range(size):
        code, v = divmod(code, n_vertices + 1)
        digits.append(v)
    return tuple(reversed(digits))


def incidence_rows(inc):
    """An Incidence decoded from its arrays alone: (ridge, facet ids) rows,
    in ridge order, in the layout of naive_reference.ref_ridges."""
    return [
        (
            decode_code(code, inc.n_vertices, inc.size),
            list(inc.fids[inc.offsets[i]:inc.offsets[i + 1]]),
        )
        for i, code in enumerate(inc.codes)
    ]


def tuple_ridge_map(c, q):
    """q with ridge_map decoded to the dict {source ridge: quotient ridge}.

    Row i of the per-row ridge_map belongs to the i-th source ridge in
    lexicographic order, here taken from the naive enumeration, and holds a
    quotient ridge code; this is the layout naive_reference reads.
    """
    rows = [r for r, _ in ref_ridges(c)]
    n, size = q.quotient.n_vertices, c.dim_facet - 1
    decoded = {r: decode_code(code, n, size) for r, code in zip(rows, q.ridge_map)}
    return dataclasses.replace(q, ridge_map=decoded)


def record_calls(monkeypatch, name, module=complex_core):
    """Rebind module's `name` in every corridors module that imports it.

    Returns the list to which each call appends its first argument.
    """
    original = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("corridors") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return calls


class TimeLimitExceeded(Exception):
    """Raised inside a time_limit block that ran too long; no caller catches it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Interrupt the block with TimeLimitExceeded after `seconds` (SIGALRM).

    A pure-Python loop is interrupted between bytecodes, so a test of a
    runaway loop fails instead of hanging the session.
    """

    def interrupt(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def column_weights(dense):
    return [sum(col) for col in zip(*dense)]


def small_complex_corpus():
    """Deterministic mix of structured and random complexes, <= 12 vertices."""
    corpus = [
        straight_corridor(CorridorSpec(5, 3)),
        straight_corridor(CorridorSpec(4, 3)),
        straight_corridor(CorridorSpec(3, 3)),
        straight_corridor(CorridorSpec(10, 3)),
        straight_corridor(CorridorSpec(9, 4)),
        boundary_corridor(6, 3),
        boundary_corridor(8, 3),
        boundary_corridor(8, 2),
        boundary_corridor(7, 4),
        Complex(2, 3, ((1, 2), (1, 3), (2, 3))),  # triangle boundary
        Complex(3, 6, ((1, 2, 3), (4, 5, 6))),  # disconnected
        Complex(3, 3, ((1, 2, 3),)),  # single facet
    ]
    rng = random.Random(823)
    corpus.extend(random_complex(rng) for _ in range(40))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return small_complex_corpus()
