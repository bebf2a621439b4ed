import contextlib
import random
import resource
import signal
import sys
from operator import indexOf

import pytest

from corridors import (
    Coloring,
    Complex,
    CorridorSpec,
    CorridorsError,
    boundary_corridor,
    complex_core,
    straight_corridor,
)
from corridors.coloring import class_sizes
from naive_reference import UnknownFacet, ref_facet_label, ref_ridges


def random_facets(rng, max_vertices=12, max_dim=4):
    """(d, n, facets) of one random pure complex with <= max_vertices
    vertices: distinct sorted facet tuples, in lexicographic order."""
    d = rng.randint(2, max_dim)
    n = rng.randint(d, max_vertices)
    vertices = list(range(1, n + 1))
    pool = set()
    for _ in range(rng.randint(1, 12)):
        pool.add(tuple(sorted(rng.sample(vertices, d))))
    return d, n, tuple(sorted(pool))


def random_complex(rng, max_vertices=12, max_dim=4):
    """One random pure complex with <= max_vertices vertices."""
    return Complex(*random_facets(rng, max_vertices, max_dim))


def lane_limit(digits, shift=0):
    """The largest vertex count n with (n + 1)**digits << shift <= 2**62:
    up to it, complex_core computes codes of `digits` vertices, shifted left
    by `shift` bits, in 64-bit lanes."""
    n = int(2 ** ((62 - shift) / digits))
    while (n + 1) ** digits << shift > 2 ** 62:
        n -= 1
    while (n + 2) ** digits << shift <= 2 ** 62:
        n += 1
    return n


def spread_vertex(v, n, big, keep):
    """v under the monotone map of 1..n into 1..big that fixes 1..keep and
    moves keep+1..n to the top of the range; a value outside 1..n stays on
    its side of the range (n + 1 goes to big + 1), so every facet keeps its
    order, its repeats and its range faults."""
    if v > n:
        return big + v - n
    return v if v <= keep else big - n + v


def spread_facets(facets, n, big, rng):
    """The facets after one random spread_vertex map of 1..n into 1..big."""
    keep = rng.randint(0, n)
    return tuple(tuple(spread_vertex(v, n, big, keep) for v in F) for F in facets)


def identity_coloring(n):
    """Vertex v gets color v: proper on every complex, with no collision."""
    return Coloring(tuple(range(1, n + 1)), n)


def face_classes(c, f, codim):
    """class_sizes of coloring f over the codim-k faces of c."""
    return class_sizes(f.colors, f.c, complex_core.face_columns(c, codim))


def graph_from_edges(n_nodes, edges):
    """Adjacency rows, as dual_graph returns them, of undirected edges
    (u, v): orientation does not matter, duplicates merge, and a self-loop
    raises ValueError."""
    nbrs = [set() for _ in range(n_nodes)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(tuple(sorted(row)) for row in nbrs)


def adjacency_edges(rows):
    """The edges (u, v), u < v, of adjacency rows, after checking that every
    row is sorted, loop-free and symmetric, each neighbour once."""
    for u, row in enumerate(rows):
        assert list(row) == sorted(set(row)) and u not in row
        assert all(u in rows[v] for v in row)
    return {(u, v) for u, row in enumerate(rows) for v in row if u < v}


def complex_from_facets(facets, n_vertices=None):
    """Complex of any iterable of vertex collections, each sorted; the
    vertex count defaults to the largest vertex."""
    norm = tuple(tuple(sorted(F)) for F in facets)
    if not norm:
        raise ValueError("complex_from_facets needs at least one facet")
    if n_vertices is None:
        n_vertices = max(F[-1] for F in norm)
    return Complex(len(norm[0]), n_vertices, norm)


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


def incidence_ridges(inc):
    """Every ridge of an Incidence as a sorted vertex tuple, in ridge order,
    decoded from its columns."""
    if not inc.size:
        return [()] * len(inc)
    return list(zip(*inc.columns()))


def facet_index(c, facet):
    """Position of a facet in c's facet order, found by its packed code over
    the columns; ValueError if it is not a facet of c."""
    F = tuple(facet)
    n = c.n_vertices
    try:
        # in range, the code of a d-tuple names that tuple alone
        if c.columns and len(F) == c.dim_facet and all(1 <= v <= n for v in F):
            code = next(iter(complex_core._encode_columns([[v] for v in F], n + 1)))
            return indexOf(complex_core._encode_columns(c.columns, n + 1), code)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{F} is not a facet of the complex")


def facet_label(c, facet):
    """The reference label of one facet of a boundary corridor c;
    UnknownFacet if it is not a facet of c."""
    F = tuple(facet)
    try:
        facet_index(c, F)
    except ValueError:
        raise UnknownFacet(f"{F} is not a facet of the complex") from None
    return ref_facet_label(F, c.n_vertices, c.dim_facet)


class NotMiddleFacet(CorridorsError):
    """Potential values exist only for middle facets, not the two end facets."""


def scaled_potential(label, dim_facet):
    """Integer potential i*(d-1) - j of a middle facet, the potential
    i - j/(d-1) of the paper's Lemma 8 scaled by d-1: order and step sizes
    are kept and comparisons stay exact.  Moving between adjacent middle
    facets changes it by at most d in absolute value."""
    if label.kind != "middle":
        raise NotMiddleFacet(f"potential undefined for {label.kind}")
    return label.i * (dim_facet - 1) - label.j


def tuple_ridge_map(c, q):
    """q with ridge_map decoded to the dict {source ridge: quotient ridge}.

    Row i of the per-row ridge_map belongs to the i-th source ridge in
    lexicographic order, here taken from the naive enumeration, and holds a
    quotient ridge code; this is the layout naive_reference reads.
    """
    rows = [r for r, _ in ref_ridges(c)]
    n, size = q.quotient.n_vertices, c.dim_facet - 1
    decoded = {r: decode_code(code, n, size) for r, code in zip(rows, q.ridge_map)}
    return q._replace(ridge_map=decoded)


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


def parse_outcome(parse, text):
    """What parsing text gives: the object, or the error's type and message."""
    try:
        return parse(text)
    except (ValueError, CorridorsError) as exc:
        return type(exc), str(exc)


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


@contextlib.contextmanager
def address_space_cap(extra=2**30):
    """Cap this process's address space at its present size plus `extra`
    bytes for the block (the soft RLIMIT_AS, restored after), so that a
    runaway allocation raises MemoryError instead of filling the machine.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    cap = size + extra
    if soft != resource.RLIM_INFINITY:
        cap = min(cap, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


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
