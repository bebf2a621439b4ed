"""Check complex_core's 64-bit lane kernels against its boxed path.

    python3 tools/lane_smoke.py [--cases N] [--seed S]

Needs no pytest, so any interpreter can run it.  Each case builds a random
complex, some with more facets than one lane chunk holds and some with
vertex counts just below the lane limit, and computes with lanes allowed
and then with lanes refused (`_fits_lanes` patched to return False):
the incidence fields, the facet codes and the column checks must agree.
Faulty columns (a vertex out of range, a swapped or repeated vertex, a
repeated facet) must be refused by both paths.  Prints one summary line, and exits 1 on
the first mismatch.
"""

import argparse
import random
import sys
from array import array
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from corridors import Complex, complex_core  # noqa: E402

FIELDS = ("n_vertices", "size", "codes", "offsets", "fids")


def random_columns(rng):
    """(d, n, columns) of distinct sorted facets, in lexicographic or
    random order."""
    d = rng.randint(1, 4)
    # vertex counts up to just below the lane limit of d-vertex codes
    n = rng.choice([d + 3, 60, 10 ** 4, int(2 ** (62 / d)) - 2])
    m = min(rng.choice([1, 5, 300, 4097, 9000]), comb(n, d))
    facets = set()
    while len(facets) < m:
        facets.add(tuple(sorted(rng.sample(range(1, n + 1), d))))
    facets = sorted(facets)
    if rng.random() < 0.5:
        rng.shuffle(facets)
    return d, n, [array("q", col) for col in zip(*facets)]


def faulty(rng, d, n, columns):
    """The columns with one fault in a random facet."""
    columns = [array("q", col) for col in columns]
    i = rng.randrange(len(columns[0]))
    kind = rng.randrange(4)
    if kind == 0:
        columns[rng.randrange(d)][i] = rng.choice([0, -1, n + 1, 2 ** 62 + 3])
    elif kind == 1 and d > 1:
        j = rng.randrange(d - 1)
        columns[j][i], columns[j + 1][i] = columns[j + 1][i], columns[j][i]
    elif kind == 2 and d > 1:
        j = rng.randrange(d - 1)
        columns[j + 1][i] = columns[j][i]
    else:
        k = rng.randrange(len(columns[0]))
        for col in columns:
            col[k] = col[i]
    return columns


def both_paths(fn, *args):
    """fn(*args) with lanes allowed, then with lanes refused."""
    with_lanes = fn(*args)
    allowed = complex_core._fits_lanes
    complex_core._fits_lanes = lambda columns, top: False
    try:
        boxed = fn(*args)
    finally:
        complex_core._fits_lanes = allowed
    return with_lanes, boxed


def incidence_fields(c):
    # an array never equals a list, so the storage types are compared too
    inc = complex_core.ridges_of(c)
    return [getattr(inc, name) for name in FIELDS]


def check(rng):
    d, n, columns = random_columns(rng)
    lanes, boxed = both_paths(complex_core._columns_valid, d, n, columns)
    assert lanes is boxed is True, ("valid columns", d, n)
    c = Complex._from_columns(d, n, columns)
    lanes, boxed = both_paths(incidence_fields, c)
    assert lanes == boxed, ("incidence", d, n)
    lanes, boxed = both_paths(lambda: list(complex_core._encode_columns(columns, n + 1)))
    assert lanes == boxed, ("facet codes", d, n)
    bad = faulty(rng, d, n, columns)
    lanes, boxed = both_paths(complex_core._columns_valid, d, n, bad)
    assert lanes == boxed, ("faulty columns", d, n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    version = ".".join(map(str, sys.version_info[:3]))
    for case in range(args.cases):
        try:
            check(rng)
        except AssertionError as exc:
            print(f"Python {version}: case {case} differs: {exc}")
            return 1
    print(f"Python {version}: lanes match the boxed path in {args.cases} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
