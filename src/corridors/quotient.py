"""Pattern quotients and the incidence-preservation check that justifies them.

Collapsing each vertex to its color turns facets into their patterns; when no
two ridges share a pattern, the collapse is a bijection on facets and ridges,
and the GF(2) boundary matrices of source and quotient agree entry for entry.
Everything downstream of the boundary matrix (dual graph, diameter,
pseudomanifold-ness) then transfers for free, but is still re-measured
directly on the quotient's own facets.

Both sides are flat integer incidences (see complex_core): the ridge map is
one quotient ridge code per source ridge row, and the preservation check
compares the two CSR matrices entry by entry as integer codes.  Codes order
faces as tuples do, so the first-collision witnesses are the pairs a tuple
scan would find.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, mul

from .complex_core import (
    Complex,
    _encode_columns,
    _store_codes,
    diameter_exact,
    dual_graph,
    is_pseudomanifold,
)
from .coloring import (
    Coloring,
    _first_repeat,
    _require_total,
    pattern_keys,
    verify_proper,
)
from .errors import ImproperColoring, MissingBijection


@dataclass(frozen=True)
class QuotientResult:
    """Quotient complex plus the facet/ridge correspondences, where defined.

    facet_map sends a source facet index to a quotient facet index and only
    contains facets whose pattern is unique; it is total exactly when
    facets_injective.  ridge_map[i] is the code, in the quotient's own
    incidence base, of the quotient ridge that source ridge row i becomes;
    it is an array('q'), or an int list when codes outgrow 64 bits, and None
    as soon as two ridges collide.  Collision witnesses hold the first
    offending pair in scan order, as vertex tuples.
    """

    quotient: Complex
    color_to_vertex: dict
    facet_map: dict
    ridge_map: array | list | None
    facets_injective: bool
    ridges_injective: bool
    facet_collision: tuple | None
    ridge_collision: tuple | None

    @property
    def facet_bijection(self):
        return self.facet_map if self.facets_injective else None


def _facet_correspondence(facet_patterns, qfacets):
    """Map of the facets whose pattern is unique, and the first collision.

    A function of its own so that its pattern tables are freed before
    pattern_complex builds ridge_map; holding both set the peak memory of
    large runs.
    """
    qfacet_index = {F: i for i, F in enumerate(qfacets)}
    pattern_count = Counter(facet_patterns)
    first_with_pattern: dict = {}
    facet_collision = None
    for fi, pat in enumerate(facet_patterns):
        if pat in first_with_pattern:
            if facet_collision is None:
                facet_collision = (first_with_pattern[pat], fi)
        else:
            first_with_pattern[pat] = fi
    facet_map = {
        fi: qfacet_index[pat]
        for fi, pat in enumerate(facet_patterns)
        if pattern_count[pat] == 1
    }
    return facet_map, facet_collision


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

    used = sorted({colors[v - 1] for F in c.facets for v in F})
    color_to_vertex = {col: i for i, col in enumerate(used, start=1)}
    # renumbering is monotone, so sorting renumbered colors keeps the order
    qcolors = [color_to_vertex.get(col) for col in colors]

    facet_patterns = pattern_keys(qcolors, list(zip(*c.facets)))
    qfacets = tuple(sorted(set(facet_patterns)))
    quotient = Complex(c.dim_facet, len(used), qfacets)
    facet_map, facet_collision = _facet_correspondence(facet_patterns, qfacets)
    facets_injective = facet_collision is None
    del facet_patterns

    inc = c.incidence
    n_prime, size = len(used), inc.size
    # a proper coloring keeps each ridge's colors distinct, so its sorted
    # pattern is a face of the quotient with a code in the quotient's base
    patterns = list(zip(*pattern_keys(qcolors, inc.columns())))
    codes = _encode_columns(patterns, n_prime) if size else repeat(0, len(inc))
    ridge_map = _store_codes(codes, n_prime, size)
    del patterns
    pair = _first_repeat(ridge_map)
    ridge_collision = None if pair is None else tuple(map(inc.ridge, pair))
    ridges_injective = ridge_collision is None

    return QuotientResult(
        quotient=quotient,
        color_to_vertex=color_to_vertex,
        facet_map=facet_map,
        ridge_map=ridge_map if ridges_injective else None,
        facets_injective=facets_injective,
        ridges_injective=ridges_injective,
        facet_collision=facet_collision,
        ridge_collision=ridge_collision,
    )


def verify_boundary_preservation(c: Complex, q: QuotientResult) -> bool:
    """Entry-exact equality of the GF(2) boundary matrices through the bijections.

    Reads the ridge-facet incidences of c and of the quotient, the latter
    enumerated from the quotient's own facets.  Each entry of a matrix is
    coded as (ridge code) * (facet count) + facet.  Source row i takes the
    ridge code ridge_map[i] and its facets their images under facet_map; the
    moved entries must then be exactly the quotient's.  Both sides hold the
    same number of entries and the quotient's are distinct, so equal sets
    mean equal matrices; every quotient row holds a facet, so they also make
    the row map a bijection onto the quotient's ridges.  Requires both
    bijections (MissingBijection otherwise); any count mismatch is a
    failure, not an error.
    """
    if not (q.facets_injective and q.ridges_injective) or q.ridge_map is None:
        raise MissingBijection("quotient has a facet or ridge pattern collision")
    src, dst = c.incidence, q.quotient.incidence
    m = len(q.quotient.facets)
    if (
        not len(q.ridge_map) == len(src) == len(dst)
        or len(c.facets) != m
        or len(src.fids) != len(dst.fids)
    ):
        return False
    try:
        image = list(map(q.facet_map.__getitem__, src.fids))
    except KeyError:
        return False
    moved_codes = chain.from_iterable(map(repeat, q.ridge_map, src.widths()))
    moved = set(map(add, map(mul, moved_codes, repeat(m)), image))
    dst_codes = chain.from_iterable(map(repeat, dst.codes, dst.widths()))
    return moved == set(map(add, map(mul, dst_codes, repeat(m)), dst.fids))


def quotient_report(c: Complex, q: QuotientResult) -> dict:
    """Summary fragment comparing source and quotient.

    Diameters are always re-measured by BFS on both sides, each from its
    own dual graph; DisconnectedGraph propagates.
    """
    preserved = None
    if q.facets_injective and q.ridges_injective:
        preserved = verify_boundary_preservation(c, q)
    return {
        "n_prime": q.quotient.n_vertices,
        "source_vertices": c.n_vertices,
        "facet_count": len(q.quotient.facets),
        "source_facet_count": len(c.facets),
        "facets_injective": q.facets_injective,
        "ridges_injective": q.ridges_injective,
        "boundary_preserved": preserved,
        "pseudomanifold_source": is_pseudomanifold(c),
        "pseudomanifold_quotient": is_pseudomanifold(q.quotient),
        "diameter_source": diameter_exact(dual_graph(c)),
        "diameter_quotient": diameter_exact(dual_graph(q.quotient)),
        "diameter_method": "recomputed-both",
    }
