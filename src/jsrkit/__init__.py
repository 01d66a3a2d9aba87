"""jsrkit: certified joint-spectral-radius bounds for finite complex
matrix sets, multiplication-operator lifts, and a finite-dimensional
algebra engine (generated subalgebras, Jacobson radical, quotients).

The public names load with their module on first access (PEP 562), so
`import jsrkit` alone imports neither numpy nor any submodule.
"""

import importlib as _importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; each submodule is public too
_EXPORTS = {
    "algebra": ("ChainReport", "ChainRow", "FDAlgebra", "Ideal", "InessentialReport",
                "NilpotentSpanReport", "QuotientAlgebra", "RcqReport", "check_inessential",
                "check_nilpotent_span", "generated_subalgebra", "hypocompact_radical",
                "ideal_chain_monotonicity", "jacobson_radical", "quotient",
                "radical_power_chain", "rcq_membership"),
    "bounds": ("BergerWangReport", "BoundsReport", "ContinuityRow", "LowerBound",
               "continuity_probe", "interval_distance", "lower_bound_r",
               "perturbation_directions", "refine", "sandwich_profiles", "upper_bound",
               "verify_berger_wang"),
    "config": ("NORM_FROBENIUS", "NORM_SPECTRAL"),
    "errors": ("BudgetExceeded", "CapExceeded", "DimensionCap", "DimensionMismatch",
               "DimensionOverflow", "IllConditioned", "IndexOutOfRange", "InvalidBasis",
               "JsrError", "NonConvergence", "NotAChain", "NotAnIdeal", "NotClosed",
               "NotInAlgebra", "ParseError", "PreconditionNotCertified", "SelfCheckFailed",
               "ShapeError"),
    "lift": ("LiftIdentityReport", "check_lift_identities", "check_w_product_identity",
             "lift_LR", "lift_set", "noncompactness_radius", "unvec", "vec"),
    "matrices": ("as_matrix", "frobenius_norm", "kron", "op_norm", "spectral_radius"),
    "sets": ("LeadingProduct", "MatrixSet", "Word", "evaluate", "leading_products",
             "normalized_leading_sequence", "set_norm", "tree_size"),
}
# public name -> the submodule that defines it (a submodule names itself)
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    owner = _MODULE_OF.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{owner}")
    value = module if name == owner else getattr(module, name)
    globals()[name] = value  # later reads find it without calling __getattr__
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
