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
from .bounds import interval_distance, refine, sandwich_profiles
from .errors import DimensionOverflow, SelfCheckFailed
from .matrices import as_matrix, frobenius_norm, kron, require_same_dim
from .sets import MatrixSet

_SELF_CHECK_SEED = 421
_SELF_CHECK_TRIALS = 20
_SELF_CHECK_TOL = 1e-10


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major vectorization (stack columns)."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


@dataclass(frozen=True)
class LiftedOperator:
    """A d^2 x d^2 matrix acting on vectorized d x d matrices."""

    source_dim: int
    matrix: np.ndarray
    tag: str | None = None

    def apply(self, x) -> np.ndarray:
        x = as_matrix(x)
        return unvec(self.matrix @ vec(x), self.source_dim)


def _check_action(L: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    d = a.shape[0]
    scale = max(1.0, frobenius_norm(a) * frobenius_norm(b))
    rng = np.random.default_rng(_SELF_CHECK_SEED)
    for _ in range(_SELF_CHECK_TRIALS):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        got = unvec(L @ vec(x), d)
        want = a @ x @ b
        resid = np.linalg.norm(got - want)
        if resid > _SELF_CHECK_TOL * scale * max(1.0, float(np.linalg.norm(x))):
            raise SelfCheckFailed(
                f"lift action residual {resid:.3e} exceeds tolerance")


def lift_LR(a, b, *, cap: int = config.KRON_CAP, tag: str | None = None) -> LiftedOperator:
    """The operator x -> a x b as a matrix on vectorized x.

    The constructor replays the action on 20 seeded random matrices and
    refuses to return an operator that disagrees with a x b beyond 1e-10
    relative.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    d = require_same_dim(a, b)
    if d * d > cap:
        raise DimensionOverflow(f"lift would act in dimension {d * d} > cap {cap}")
    L = kron(b.T, a, cap=cap)
    _check_action(L, a, b)
    return LiftedOperator(source_dim=d, matrix=L, tag=tag)


def lift_set(M: MatrixSet, *, cap: int = config.KRON_CAP) -> MatrixSet:
    """All two-sided multiplications {x -> a_i x b_j} of a set.

    Generators appear in row-major (i, j) order: generator i*size + j is
    x -> a_i x b_j.  Products then compose as
    (l_a r_b)(l_c r_d) : x -> (a c) x (d b), the b-side reversing order.
    """
    ops = []
    for i in range(M.size):
        for j in range(M.size):
            ops.append(lift_LR(M.gens[i], M.gens[j], cap=cap,
                               tag=f"{i},{j}").matrix)
    name = f"{M.name}:lift" if M.name else None
    return MatrixSet(np.stack(ops), name)


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

    def to_dict(self) -> dict:
        return {
            "rho_sq_gap": self.rho_sq_gap,
            "r_exact_gap": self.r_exact_gap,
            "pass": self.passed,
            "depth": self.depth,
            "interval": list(self.interval),
            "lifted_interval": list(self.lifted_interval),
        }


def check_lift_identities(M: MatrixSet, n: int = 4, *, tol: float = 1e-7,
                          width: float = 0.05, budget: int = 200_000,
                          cap: int = config.KRON_CAP,
                          frobenius: bool = False) -> LiftIdentityReport:
    """Check rho(lift) = rho(M)^2 and r_k(lift) = r_k(M)^2 for k <= n."""
    lifted = lift_set(M, cap=cap)
    r_m, _ = sandwich_profiles(M, n, budget=budget, frobenius=frobenius)
    r_l, _ = sandwich_profiles(lifted, n, budget=budget, frobenius=frobenius)
    r_gap = 0.0
    for k in range(n):
        want = r_m[k] ** 2
        r_gap = max(r_gap, abs(r_l[k] - want) / max(1.0, want))

    box = refine(M, width, budget, frobenius=frobenius)
    box_l = refine(lifted, width, budget, frobenius=frobenius)
    sq = (box.lower ** 2, box.upper ** 2)
    rho_gap = interval_distance(sq, box_l.interval) / max(1.0, sq[1])
    passed = bool(r_gap <= tol and rho_gap <= tol)
    return LiftIdentityReport(rho_sq_gap=rho_gap, r_exact_gap=r_gap,
                              passed=passed, depth=n, interval=box.interval,
                              lifted_interval=box_l.interval)


def check_w_product_identity(a, b, *, cap: int = config.KRON_CAP) -> float:
    """Residual of the two factorizations of w_{ba} : x -> (ba) x (ba).

    Returns the larger Frobenius residual of
        w_{ba} = l_b w_a r_b   and   w_{ba} = r_a w_b l_a
    as matrices on vectorized x.  Exact algebraically; the float residual
    should sit at rounding level, <= 1e-10 * (||a|| ||b||)^2.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    d = require_same_dim(a, b)
    eye = np.eye(d, dtype=np.complex128)
    ba = b @ a
    w_ba = lift_LR(ba, ba, cap=cap).matrix
    l_b = lift_LR(b, eye, cap=cap).matrix
    w_a = lift_LR(a, a, cap=cap).matrix
    r_b = lift_LR(eye, b, cap=cap).matrix
    r_a = lift_LR(eye, a, cap=cap).matrix
    w_b = lift_LR(b, b, cap=cap).matrix
    l_a = lift_LR(a, eye, cap=cap).matrix
    r1 = float(np.linalg.norm(w_ba - l_b @ w_a @ r_b))
    r2 = float(np.linalg.norm(w_ba - r_a @ w_b @ l_a))
    return max(r1, r2)


def noncompactness_radius(M: MatrixSet) -> float:
    """Measure-of-noncompactness analogue of rho; identically 0 here.

    Every bounded operator on a finite-dimensional space is compact, so
    this radius collapses to zero for any finite matrix set.  Exposed so
    callers porting from the general theory keep a total interface.
    """
    _ = M.gens
    return 0.0
