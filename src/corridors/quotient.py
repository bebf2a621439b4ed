"""Pattern quotients and the incidence-preservation check that justifies them.

Collapsing each vertex to its color turns facets into their patterns; when no
two ridges share a pattern, the collapse is a bijection on facets and ridges,
and the GF(2) boundary matrices of source and quotient agree entry for entry.
Everything downstream of the boundary matrix (dual graph, diameter,
pseudomanifold-ness) then transfers for free, but is still re-measured
directly on the quotient's own facets.  A facet or ridge collision leaves
no bijection, so verify_boundary_preservation fails (returns False);
quotient_report, which only describes, records its result as None there.

Injectivity is a count.  Every quotient facet is the pattern of a source
facet, and under a proper coloring every quotient ridge, a facet's pattern
less one color, is the pattern of that source facet's ridge less the
vertex of that color: both correspondences are onto.  So each is injective
exactly when source and quotient have equally many faces, which
QuotientResult reads from the quotient's own facets and incidence, and no
colliding pair is searched for.

Both sides are flat integer incidences (see complex_core), and the source's
ridges are decoded by its own Incidence.columns.  The facet map
is one quotient facet index per source facet, shared where patterns
collide, and the ridge map one quotient ridge code per source ridge row,
both flat integer sequences.  The preservation check codes every matrix
entry as one integer, sorts the moved source entries in bounded runs
merged a block at a time and compares them in step with the quotient's,
which its incidence yields ascending; no set is built.  Quotient vertices
are the used colors renumbered in color order, so the pattern code of a
face (coloring.pattern_codes, base n'+1) is the code of its image in the
quotient's incidence: the quotient facets are the distinct facet codes,
ascending and decoded once here, and no pattern tuple is built.  Those
facet codes and the comparison of the quotient's ridge codes with
ridge_map are the module's only uses of the code format.  Codes order
faces as tuples do, so the quotient's facet order is the one a tuple sort
would give.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import chain, repeat
from operator import add, eq, mul

from .complex_core import (
    _RUN,
    Complex,
    _decode_codes,
    _encode_columns,
    _merged_blocks,
    _store_codes,
    diameter_exact,
    dual_graph,
    is_pseudomanifold,
)
from .coloring import (
    Coloring,
    _require_total,
    pattern_codes,
    verify_proper,
)
from .errors import ImproperColoring


class QuotientResult(
    namedtuple("QuotientResult", ("quotient", "facet_map", "ridge_map"))
):
    """Quotient complex plus the facet and ridge correspondences.

    facet_map[i] is the quotient facet index of source facet i, an
    array('q'), shared by the source facets whose patterns collide.
    ridge_map[i] is the code, in the quotient's own incidence base, of the
    quotient ridge that source ridge row i becomes, collisions included; it
    is an array('q'), or an int list when codes outgrow 64 bits.  Both maps
    are onto, so each is injective exactly when the quotient has as many
    facets or ridges as it has entries (see the module docstring).
    Quotient vertex i is the i-th smallest color the facets use.
    """

    __slots__ = ()

    @property
    def facets_injective(self) -> bool:
        return self.quotient.facet_count == len(self.facet_map)

    @property
    def ridges_injective(self) -> bool:
        return len(self.quotient.incidence) == len(self.ridge_map)


def pattern_complex(c: Complex, f: Coloring) -> QuotientResult:
    """Quotient of c by the coloring f: facets become their color patterns.

    Requires f proper (ImproperColoring otherwise), so patterns are genuine
    vertex sets.  Quotient vertices are the used colors renumbered 1..n',
    ascending by color.  Facet or ridge pattern collisions are flagged, not
    fatal: the quotient complex always exists, only the bijections vanish.
    """
    _require_total(c, f)
    if not verify_proper(c, f):
        raise ImproperColoring("two adjacent vertices share a color")
    colors = f.colors

    # the colors of the vertices the facets use, read column by column
    color_of = [None, *colors].__getitem__
    used = sorted(set().union(*(map(color_of, col) for col in c.columns)))
    n_prime, base = len(used), len(used) + 1
    color_to_vertex = {col: i for i, col in enumerate(used, start=1)}
    # qcolor_of[v] is vertex v's quotient vertex; renumbering is monotone,
    # so the codes order patterns as the colors do
    qcolor_of = [None, *map(color_to_vertex.get, colors)]

    facet_codes = pattern_codes(qcolor_of, c.columns, base)
    qcodes = sorted(set(facet_codes))
    qcolumns = _decode_codes(qcodes, n_prime, c.dim_facet)
    quotient = Complex._from_columns(
        c.dim_facet, n_prime, [array("q", col) for col in qcolumns]
    )
    del qcolumns
    qfacet_index = dict(zip(qcodes, range(len(qcodes))))
    del qcodes
    facet_map = array("q", map(qfacet_index.__getitem__, facet_codes))
    # the pattern tables go before ridge_map is built; holding both set the
    # peak memory of large runs
    del qfacet_index, facet_codes

    inc = c.incidence
    # a proper coloring keeps each ridge's colors distinct, so its pattern
    # code is the code of a quotient ridge in the quotient's own base
    codes = repeat(0, len(inc))
    if inc.size:
        codes = pattern_codes(qcolor_of, inc.columns(), base)
    ridge_map = _store_codes(codes, n_prime, inc.size)
    del codes
    return QuotientResult(quotient=quotient, facet_map=facet_map, ridge_map=ridge_map)


def verify_boundary_preservation(c: Complex, q: QuotientResult) -> bool:
    """Entry-exact equality of the GF(2) boundary matrices through the bijections.

    Reads the ridge-facet incidences of c and of the quotient, the latter
    enumerated from the quotient's own facets.  Each entry of a matrix is
    coded as (ridge code) * (facet count) + facet.  Source row i takes the
    ridge code ridge_map[i] and its facets their images under facet_map,
    which must all lie in the quotient's code and facet ranges; the moved
    entry codes, sorted, must then match the quotient's element by
    element.  The quotient's incidence yields its codes ascending (rows in
    code order, facets ascending within a row), so equal sorted lists of
    equal length mean equal multisets of entries, and the quotient's are
    distinct: the matrices are equal.  Every quotient row holds an entry,
    and every facet on either side holds the same number, so they also make
    both maps bijections.  A collision leaves no bijection, and the count
    checks below already fail on it: it leaves the quotient fewer ridges or
    facets than the source.  The length and range checks also reject a map
    that was not made for this quotient.

    The moved codes are built in lanes from two per-entry array('q')
    columns, the ridge codes and the facet images, then sorted in runs of
    complex_core._RUN and merged a block at a time, so no boxed list of
    every entry is built; the quotient's side is a lazy stream.  Where
    lanes cannot hold the entry codes, as past 62 bits or with ridge codes
    past 64 bits, one sort of boxed ints orders them.
    """
    src, dst = c.incidence, q.quotient.incidence
    facet_map, ridge_map, m = q.facet_map, q.ridge_map, q.quotient.facet_count
    codes_top = (q.quotient.n_vertices + 1) ** dst.size
    if (
        not len(ridge_map) == len(src) == len(dst)
        or not c.facet_count == len(facet_map) == m
        or len(src.fids) != len(dst.fids)
        or (m and (min(facet_map) < 0 or max(facet_map) >= m))
        or (len(dst) and (min(ridge_map) < 0 or max(ridge_map) >= codes_top))
    ):
        return False
    codes = chain.from_iterable(map(repeat, ridge_map, src.widths()))
    if type(ridge_map) is array:
        codes = array("q", codes)
    image = array("q", map(facet_map.__getitem__, src.fids))
    # every moved entry code is below codes_top * m
    moved = _encode_columns((codes, image), m, codes_top * m)
    del codes, image
    if type(moved) is array:
        runs = [
            array("q", sorted(moved[start:start + _RUN])) for start in range(0, len(moved), _RUN)
        ]
        moved = chain.from_iterable(_merged_blocks(runs))
    else:
        moved = sorted(moved)
    dst_codes = chain.from_iterable(map(repeat, dst.codes, dst.widths()))
    expected = map(add, map(mul, dst_codes, repeat(m)), dst.fids)
    return all(map(eq, moved, expected))


def quotient_report(c: Complex, q: QuotientResult) -> dict:
    """Summary fragment comparing source and quotient.

    boundary_preserved is None when a pattern collision leaves no
    bijection to check.  Diameters are always re-measured by BFS on both
    sides, each from its own dual graph; DisconnectedGraph propagates.
    """
    preserved = None
    if q.facets_injective and q.ridges_injective:
        preserved = verify_boundary_preservation(c, q)
    return {
        "n_prime": q.quotient.n_vertices,
        "source_vertices": c.n_vertices,
        "facet_count": q.quotient.facet_count,
        "source_facet_count": c.facet_count,
        "facets_injective": q.facets_injective,
        "ridges_injective": q.ridges_injective,
        "boundary_preserved": preserved,
        "pseudomanifold_source": is_pseudomanifold(c),
        "pseudomanifold_quotient": is_pseudomanifold(q.quotient),
        "diameter_source": diameter_exact(dual_graph(c)),
        "diameter_quotient": diameter_exact(dual_graph(q.quotient)),
        "diameter_method": "recomputed-both",
    }
