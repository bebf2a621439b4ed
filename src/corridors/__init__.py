"""Corridor complexes, window colorings, and diameter-preserving quotients.

The package exports the runs (`run_pipeline`, `run_bench`, `strip_volatile`),
what `run_pipeline` calls in the layers, the records and file formats the
stages take or make, and the errors those raise.  Everything else stays in
its module, where the CLI and the tests import it: helpers only a command
calls, such as `bounds.bound_report` and `complex_core.is_strongly_connected`,
and helpers only a layer uses, such as `complex_core.ridges_of` (stages read
`Complex.incidence`).  What only the tests read lives in the tests.
"""

from .bounds import (
    check_regular_graph_bound,
    hpm_lower,
    hpm_upper,
    hs_lower,
    hs_upper,
    pm_fvector_check,
)
from .coloring import (
    PRNG_ID,
    Coloring,
    coloring_from_text,
    coloring_to_text,
    first_stage_class_cap,
    greedy_window_coloring,
    intersecting_ridge_bound,
    lll_target_colors,
    moser_tardos_refine,
    read_coloring,
    verify_proper,
    verify_unique_ridge_patterns,
    write_coloring,
)
from .complex_core import (
    Complex,
    complex_from_text,
    complex_to_text,
    diameter_exact,
    dual_graph,
    is_pseudomanifold,
    pair_distance,
    read_complex,
    write_complex,
)
from .constructions import (
    CorridorSpec,
    boundary_corridor,
    diameter_lower_bound_boundary,
    straight_corridor,
)
from .errors import (
    CorridorsError,
    DimensionTooSmall,
    DisconnectedGraph,
    ImproperColoring,
    IncompleteColoring,
    InvalidSpec,
    NoLegalColor,
    NotPseudomanifold,
    NotRegular,
    PreconditionViolated,
    ResampleCapExceeded,
    RetriesExhausted,
)
from .pipeline import run_bench, run_pipeline, strip_volatile
from .quotient import (
    QuotientResult,
    pattern_complex,
    verify_boundary_preservation,
)

__all__ = [
    "check_regular_graph_bound",
    "hpm_lower",
    "hpm_upper",
    "hs_lower",
    "hs_upper",
    "pm_fvector_check",
    "PRNG_ID",
    "Coloring",
    "coloring_from_text",
    "coloring_to_text",
    "first_stage_class_cap",
    "greedy_window_coloring",
    "intersecting_ridge_bound",
    "lll_target_colors",
    "moser_tardos_refine",
    "read_coloring",
    "verify_proper",
    "verify_unique_ridge_patterns",
    "write_coloring",
    "Complex",
    "complex_from_text",
    "complex_to_text",
    "diameter_exact",
    "dual_graph",
    "is_pseudomanifold",
    "pair_distance",
    "read_complex",
    "write_complex",
    "CorridorSpec",
    "boundary_corridor",
    "diameter_lower_bound_boundary",
    "straight_corridor",
    "CorridorsError",
    "DimensionTooSmall",
    "DisconnectedGraph",
    "ImproperColoring",
    "IncompleteColoring",
    "InvalidSpec",
    "NoLegalColor",
    "NotPseudomanifold",
    "NotRegular",
    "PreconditionViolated",
    "ResampleCapExceeded",
    "RetriesExhausted",
    "run_bench",
    "run_pipeline",
    "strip_volatile",
    "QuotientResult",
    "pattern_complex",
    "verify_boundary_preservation",
]
