"""thomstem: Thom-space cell calculus over Picard tori.

Exact exterior-algebra classes, index-bundle Chern characters,
Steenrod-square detection of attaching maps, and Atiyah-Hirzebruch
assembly of stable cohomotopy groups, with trivial/nontrivial/unknown
verdicts for user-supplied class assignments.
"""

from .ahss import (ColumnEntry, GroupReport, assemble, evaluate_class,
                   vanishing_certificate)
from .chern import (BundleData, ManifoldData, chern_character_index,
                    connected_sum, index_bundle, make_homology_torus)
from .exterior import ExteriorClass, Monomial
from .stems import (AbelianGroup, OutOfTableError, StemElement, compose,
                    eta, eta_sq, nu_multiple, one, stem_group, zero)
from .thom import (AttachLabel, AttachmentView, LabelRules, StableCell,
                   StableCellComplex, infer_attachments, skeletal_quotient,
                   sphere_bundle_quotient, thom_cells)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "AttachLabel", "AttachmentView", "BundleData",
    "ColumnEntry", "ExteriorClass", "GroupReport", "LabelRules",
    "ManifoldData", "Monomial", "OutOfTableError",
    "StableCell", "StableCellComplex", "StemElement", "assemble",
    "chern_character_index", "compose", "connected_sum", "eta", "eta_sq",
    "evaluate_class", "index_bundle", "infer_attachments",
    "make_homology_torus", "nu_multiple", "one", "skeletal_quotient",
    "sphere_bundle_quotient", "stem_group", "thom_cells",
    "vanishing_certificate", "zero",
]
