import random

import pytest

from corridors import Complex, CorridorSpec, boundary_corridor, straight_corridor


def random_complex(rng, max_vertices=12, max_dim=4):
    """One random pure complex with <= max_vertices vertices."""
    d = rng.randint(2, max_dim)
    n = rng.randint(d, max_vertices)
    vertices = list(range(1, n + 1))
    pool = set()
    for _ in range(rng.randint(1, 12)):
        pool.add(tuple(sorted(rng.sample(vertices, d))))
    return Complex(d, n, tuple(sorted(pool)))


def incidence_dense(c):
    """c.incidence as (rows, cols, dense) in the layout of ref_boundary_dense.

    Rows are the incidence's ridges, columns the facets in sorted order, and
    dense[i][j] is 1 iff facet cols[j] is listed for ridge rows[i].
    """
    inc = c.incidence
    cols = sorted(c.facets)
    col_of = {F: j for j, F in enumerate(cols)}
    dense = [[0] * len(cols) for _ in inc.ridges]
    for row, fids in zip(dense, inc.facets_of):
        for fi in fids:
            row[col_of[c.facets[fi]]] = 1
    return list(inc.ridges), cols, dense


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
