"""The package's public names: the same 77 names, each the object its
module defines, however they are reached."""

import importlib

import pytest

import jsrkit

# module -> the public names it defines; each module is public too
PUBLIC = {
    "algebra": ["ChainReport", "ChainRow", "FDAlgebra", "Ideal", "InessentialReport",
                "NilpotentSpanReport", "QuotientAlgebra", "RcqReport", "check_inessential",
                "check_nilpotent_span", "generated_subalgebra", "hypocompact_radical",
                "ideal_chain_monotonicity", "jacobson_radical", "quotient",
                "radical_power_chain", "rcq_membership"],
    "bounds": ["BergerWangReport", "BoundsReport", "ContinuityRow", "LowerBound",
               "continuity_probe", "interval_distance", "lower_bound_r",
               "perturbation_directions", "refine", "sandwich_profiles", "upper_bound",
               "verify_berger_wang"],
    "config": ["NORM_FROBENIUS", "NORM_SPECTRAL"],
    "errors": ["BudgetExceeded", "CapExceeded", "DimensionCap", "DimensionMismatch",
               "DimensionOverflow", "IllConditioned", "IndexOutOfRange", "InvalidBasis",
               "JsrError", "NonConvergence", "NotAChain", "NotAnIdeal", "NotClosed",
               "NotInAlgebra", "ParseError", "PreconditionNotCertified", "SelfCheckFailed",
               "ShapeError"],
    "lift": ["LiftIdentityReport", "check_lift_identities", "check_w_product_identity",
             "lift_LR", "lift_set", "noncompactness_radius", "unvec", "vec"],
    "matrices": ["as_matrix", "frobenius_norm", "kron", "op_norm", "spectral_radius"],
    "sets": ["LeadingProduct", "MatrixSet", "Word", "evaluate", "leading_products",
             "normalized_leading_sequence", "set_norm", "tree_size"],
}
NAMES = sorted([*PUBLIC, *(n for names in PUBLIC.values() for n in names)])
OWNER = [(n, m) for m, names in PUBLIC.items() for n in (m, *names)]


def test_all_lists_the_77_names():
    assert len(NAMES) == 77
    assert jsrkit.__all__ == NAMES


@pytest.mark.parametrize("name,module", OWNER, ids=[n for n, _ in OWNER])
def test_each_name_is_its_modules_object(name, module):
    owner = importlib.import_module(f"jsrkit.{module}")
    want = owner if name == module else getattr(owner, name)
    assert getattr(jsrkit, name) is want
    assert vars(jsrkit)[name] is want  # cached: later reads skip __getattr__


def test_star_import_and_dir_cover_every_name():
    namespace = {}
    exec("from jsrkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert set(NAMES) <= set(dir(jsrkit))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        jsrkit.no_such_name
    assert not hasattr(jsrkit, "refine_pass")  # a submodule's name, not the package's
