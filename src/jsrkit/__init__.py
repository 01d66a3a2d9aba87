"""jsrkit: certified joint-spectral-radius bounds for finite complex
matrix sets, multiplication-operator lifts, and a finite-dimensional
algebra engine (generated subalgebras, Jacobson radical, quotients).
"""

__version__ = "0.1.0"

from . import config
from .config import NORM_FROBENIUS, NORM_SPECTRAL
from .algebra import (ChainReport, ChainRow, FDAlgebra, Ideal,
                      InessentialReport, NilpotentSpanReport, QuotientAlgebra,
                      RcqReport, check_inessential, check_nilpotent_span,
                      generated_subalgebra, hypocompact_radical,
                      ideal_chain_monotonicity, jacobson_radical, quotient,
                      radical_power_chain, rcq_membership)
from .bounds import (BergerWangReport, BoundsReport, ContinuityRow,
                     LowerBound, continuity_probe, interval_distance,
                     lower_bound_r, perturbation_directions, refine,
                     sandwich_profiles, upper_bound, verify_berger_wang)
from .errors import (BudgetExceeded, CapExceeded, DimensionCap,
                     DimensionMismatch, DimensionOverflow, IllConditioned,
                     IndexOutOfRange, InvalidBasis, JsrError, NonConvergence,
                     NotAChain, NotAnIdeal, NotClosed, NotInAlgebra,
                     ParseError, PreconditionNotCertified, SelfCheckFailed,
                     ShapeError)
from .lift import (LiftIdentityReport, check_lift_identities,
                   check_w_product_identity, lift_LR, lift_set,
                   noncompactness_radius, unvec, vec)
from .matrices import (as_matrix, frobenius_norm, kron, op_norm,
                       spectral_radius)
from .sets import (LeadingProduct, MatrixSet, Word, evaluate,
                   leading_products, normalized_leading_sequence, set_norm,
                   tree_size)

__all__ = [name for name in dir() if not name.startswith("_")]
