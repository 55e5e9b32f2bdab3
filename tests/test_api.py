"""The public API: removing or adding a name is a deliberate change."""

import thomstem
from thomstem.exterior import ExteriorClass


def test_public_names():
    assert sorted(thomstem.__all__) == [
        "AbelianGroup", "AttachLabel", "AttachmentView", "BundleData",
        "ColumnEntry", "ExteriorClass", "GroupReport", "LabelRules",
        "ManifoldData", "Monomial", "OutOfTableError", "StableCell",
        "StableCellComplex", "StemElement", "assemble",
        "chern_character_index", "compose", "connected_sum", "eta",
        "eta_sq", "evaluate_class", "index_bundle", "infer_attachments",
        "make_homology_torus", "nu_multiple", "one", "skeletal_quotient",
        "sphere_bundle_quotient", "stem_group", "thom_cells",
        "vanishing_certificate", "zero",
    ]
    assert all(hasattr(thomstem, name) for name in thomstem.__all__)


def test_exterior_arithmetic_is_spelled_by_methods():
    # a class is scaled and reduced mod 2; the package has no ring product
    for dunder in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "__xor__"):
        assert not hasattr(ExteriorClass, dunder), dunder
    for method in ("scale", "mod2", "format"):
        assert callable(getattr(ExteriorClass, method))
    for gone in ("wedge", "add", "top_coefficient", "degree_part"):
        assert not hasattr(ExteriorClass, gone), gone
