"""Multiplication-operator lifts x -> a x b realized on vectorized matrices.

With column-major vectorization, the operator x -> a x b has matrix
b^T (x) a (Kronecker product, transpose without conjugation).  Two-sided
multiplications w_a : x -> a x a and the one-sided families l_a, r_b are
all instances.  Spectral facts exercised here: eigenvalues of b^T (x) a
are pairwise products, so spectral radii multiply exactly, and the
lifted set {l_a r_b : a, b in M} has joint spectral radius rho(M)^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .bounds import _as_dict, _lower_profile, _positive_finite, interval_distance, refine
from .errors import DimensionOverflow, SelfCheckFailed
from .matrices import as_matrix, require_same_dim
from .sets import MatrixSet

_SELF_CHECK_SEED = 421
_SELF_CHECK_TRIALS = 20
_SELF_CHECK_TOL = 1e-10


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major vectorization (stack columns)."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def _lifts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lifts x -> a[i] x b[i] of two (n, d, d) stacks, as an (n, d^2, d^2) stack.

    Lift i is kron(b[i]^T, a[i]), one complex product per entry as np.kron
    forms it, so it equals np.kron bit for bit.  Every lift is replayed on
    the same 20 seeded random matrices x, and SelfCheckFailed is raised
    when one disagrees with a[i] x b[i] beyond 1e-10 relative, or when a
    residual or its tolerance is not finite (the lift or its check left
    the double range).  DimensionOverflow when d^2 exceeds config.KRON_CAP.
    """
    n, d, _ = a.shape
    if d * d > config.KRON_CAP:
        raise DimensionOverflow(f"lift would act in dimension {d * d} > cap {config.KRON_CAP}")
    z = np.random.default_rng(_SELF_CHECK_SEED).standard_normal((_SELF_CHECK_TRIALS, 2, d, d))
    x = z[:, 0] + 1j * z[:, 1]
    # overflow shows as a residual or tolerance that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        L = b.transpose(0, 2, 1)[:, :, None, :, None] * a[:, None, :, None, :]
        L = L.reshape(n, d * d, d * d)
        # column-major vec of each x, and of each a[i] x b[i]
        got = L[:, None] @ x.transpose(0, 2, 1).reshape(-1, d * d, 1)
        want = (a[:, None] @ x @ b[:, None]).transpose(0, 1, 3, 2).reshape(got.shape)
        resid = np.linalg.norm((got - want)[..., 0], axis=-1)
        scale = np.maximum(1.0, np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2)))
        limit = _SELF_CHECK_TOL * scale[:, None] * np.maximum(1.0, np.linalg.norm(x, axis=(1, 2)))
    bad = ~(resid <= limit) | np.isinf(limit)
    if bad.any():
        r, t = resid[bad][0], limit[bad][0]
        raise SelfCheckFailed(f"lift action residual {r:.3e} is not within tolerance {t:.3e}")
    return L


def lift_LR(a, b) -> np.ndarray:
    """The d^2 x d^2 matrix of x -> a x b on vectorized x: kron(b^T, a).

    Apply it as unvec(L @ vec(x), d).  The matrix is replayed on 20
    seeded random matrices and refused (SelfCheckFailed) where it
    disagrees with a x b beyond 1e-10 relative.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    require_same_dim(a, b)
    return _lifts(a[None], b[None])[0]


def lift_set(M: MatrixSet) -> MatrixSet:
    """All two-sided multiplications {x -> a_i x b_j} of a set.

    Generators appear in row-major (i, j) order: generator i*size + j is
    x -> a_i x b_j.  Products then compose as
    (l_a r_b)(l_c r_d) : x -> (a c) x (d b), the b-side reversing order.
    """
    i, j = np.divmod(np.arange(M.size * M.size), M.size)
    name = f"{M.name}:lift" if M.name else None
    return MatrixSet(_lifts(M.gens[i], M.gens[j]), name)


@dataclass(frozen=True)
class LiftIdentityReport:
    """Spectral agreement between a set and its lifted set.

    rho_sq_gap: relative distance between the squared refine interval of M
    and the refine interval of the lifted set.  r_exact_gap: worst
    relative mismatch of per-depth spectral-radius roots r_k(lift) vs
    r_k(M)^2 for k = 1..depth.  passed: both within tol.
    """

    rho_sq_gap: float
    r_exact_gap: float
    passed: bool
    depth: int
    interval: tuple[float, float]
    lifted_interval: tuple[float, float]

    to_dict = _as_dict


def check_lift_identities(M: MatrixSet, n: int = 4, *, tol: float = 1e-7,
                          width: float = 0.05, budget: int = 200_000,
                          frobenius: bool = False) -> LiftIdentityReport:
    """Check rho(lift) = rho(M)^2 and r_k(lift) = r_k(M)^2 for k <= n."""
    _positive_finite(tol, "tol")
    _positive_finite(width, "width")
    lifted = lift_set(M)
    r_m = _lower_profile(M, n, budget)
    r_l = _lower_profile(lifted, n, budget)
    want = r_m ** 2
    r_gap = float(np.max(np.abs(r_l - want) / np.maximum(1.0, want)))

    box = refine(M, width, budget, frobenius=frobenius)
    box_l = refine(lifted, width, budget, frobenius=frobenius)
    sq = (box.lower ** 2, box.upper ** 2)
    rho_gap = interval_distance(sq, box_l.interval) / max(1.0, sq[1])
    passed = bool(r_gap <= tol and rho_gap <= tol)
    return LiftIdentityReport(rho_sq_gap=rho_gap, r_exact_gap=r_gap,
                              passed=passed, depth=n, interval=box.interval,
                              lifted_interval=box_l.interval)


def check_w_product_identity(a, b) -> float:
    """Residual of the two factorizations of w_{ba} : x -> (ba) x (ba).

    Returns the larger Frobenius residual of
        w_{ba} = l_b w_a r_b   and   w_{ba} = r_a w_b l_a
    as matrices on vectorized x.  Exact algebraically; the float residual
    should sit at rounding level, <= 1e-10 * (||a|| ||b||)^2.
    SelfCheckFailed is raised when a residual is not finite.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    eye = np.eye(require_same_dim(a, b), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        ba = b @ a
        w_ba, l_b, w_a, r_b, r_a, w_b, l_a = _lifts(np.stack([ba, b, a, eye, eye, b, a]),
                                                    np.stack([ba, eye, a, b, a, b, eye]))
        r1 = float(np.linalg.norm(w_ba - l_b @ w_a @ r_b))
        r2 = float(np.linalg.norm(w_ba - r_a @ w_b @ l_a))
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise SelfCheckFailed(f"w-product residual {max(r1, r2)} is not finite")
    return max(r1, r2)


def noncompactness_radius(M: MatrixSet) -> float:
    """Measure-of-noncompactness analogue of rho; identically 0 here.

    Every bounded operator on a finite-dimensional space is compact, so
    this radius collapses to zero for any finite matrix set.  Exposed so
    callers porting from the general theory keep a total interface.
    """
    _ = M.gens
    return 0.0
