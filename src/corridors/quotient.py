"""Pattern quotients and the incidence-preservation check that justifies them.

Collapsing each vertex to its color turns facets into their patterns; when no
two ridges share a pattern, the collapse is a bijection on facets and ridges,
and the GF(2) boundary matrices of source and quotient agree entry for entry.
Everything downstream of the boundary matrix (dual graph, diameter,
pseudomanifold-ness) then transfers for free, but is still re-measured
directly on the quotient's own facets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .complex_core import (
    Complex,
    Ridge,
    diameter_exact,
    dual_graph,
    is_pseudomanifold,
)
from .coloring import Coloring, _require_total, pattern_keys, verify_proper
from .errors import ImproperColoring, MissingBijection


@dataclass(frozen=True)
class QuotientResult:
    """Quotient complex plus the facet/ridge correspondences, where defined.

    facet_map sends a source facet index to a quotient facet index and only
    contains facets whose pattern is unique; it is total exactly when
    facets_injective.  ridge_map is None as soon as two ridges collide.
    Collision witnesses hold the first offending pair in scan order.
    """

    quotient: Complex
    color_to_vertex: dict
    facet_map: dict
    ridge_map: dict | None
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

    facet_patterns = pattern_keys(qcolors, c.facets)
    qfacets = tuple(sorted(set(facet_patterns)))
    quotient = Complex(c.dim_facet, len(used), qfacets)
    facet_map, facet_collision = _facet_correspondence(facet_patterns, qfacets)
    facets_injective = facet_collision is None

    ridge_map: dict[Ridge, Ridge] = {}
    seen_ridge: dict = {}
    ridge_collision = None
    ridges = c.incidence.ridges
    for ridge, pat in zip(ridges, pattern_keys(qcolors, ridges)):
        if pat in seen_ridge:
            ridge_collision = (seen_ridge[pat], ridge)
            break
        seen_ridge[pat] = ridge
        ridge_map[ridge] = pat
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
    enumerated from the quotient's own facets.  Rows are matched through
    ridge_map, which must hit every quotient ridge exactly once, and each
    row's facets, sent through facet_map, must be exactly the facets of its
    image.  Requires both bijections (MissingBijection otherwise); any count
    mismatch is a failure, not an error.
    """
    if not (q.facets_injective and q.ridges_injective) or q.ridge_map is None:
        raise MissingBijection("quotient has a facet or ridge pattern collision")
    src, dst = c.incidence, q.quotient.incidence
    if len(src.ridges) != len(dst.ridges) or len(c.facets) != len(q.quotient.facets):
        return False

    ridge_map, facet_map = q.ridge_map, q.facet_map
    dst_row_of_ridge = {r: i for i, r in enumerate(dst.ridges)}
    hit = bytearray(len(dst.ridges))
    for ridge, fids in zip(src.ridges, src.facets_of):
        di = dst_row_of_ridge.get(ridge_map.get(ridge))
        if di is None or hit[di]:
            return False
        hit[di] = 1
        image = [facet_map.get(fi) for fi in fids]
        if None in image or tuple(sorted(image)) != dst.facets_of[di]:
            return False
    # equal row counts and an injective row map: every quotient row was hit
    return True


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
