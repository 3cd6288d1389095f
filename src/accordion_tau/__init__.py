"""Accordion complexes of polygon dissections, 2-term silting complexes of
gentle algebras, and exact g-vector comparisons between the two."""

from .accordion import accordion_complex
from .complexes import dual_graph, generic_iso, iso_by_gvectors, is_pseudomanifold
from .geometry import Dissection, all_dissections, validate_dissection
from .quiver import (
    GentleQuiver,
    algebra_basis,
    check_gentle,
    idempotent_subalgebra_check,
    quiver_of_dissection,
    shortcut_quiver,
)
from .rigidity import (
    enumerate_strings,
    hom_shift,
    min_presentation,
    silting_complex,
    silting_vertices,
    string_module,
)
from .verify import (
    verify_idempotent_reduction,
    verify_main,
    verify_main_exhaustive,
    verify_nested,
)

__version__ = "0.1.0"

__all__ = [
    "Dissection",
    "GentleQuiver",
    "accordion_complex",
    "algebra_basis",
    "all_dissections",
    "check_gentle",
    "dual_graph",
    "enumerate_strings",
    "generic_iso",
    "hom_shift",
    "idempotent_subalgebra_check",
    "is_pseudomanifold",
    "iso_by_gvectors",
    "min_presentation",
    "quiver_of_dissection",
    "shortcut_quiver",
    "silting_complex",
    "silting_vertices",
    "string_module",
    "validate_dissection",
    "verify_idempotent_reduction",
    "verify_main",
    "verify_main_exhaustive",
    "verify_nested",
    "__version__",
]
