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
from ._kernels import _fit_rows, scale
from .bounds import _as_dict, _lower_profile, _positive_finite, interval_distance, refine
from .errors import DimensionOverflow, SelfCheckFailed
from .matrices import as_matrix, frobenius_norm, require_same_dim
from .sets import MatrixSet

_SELF_CHECK_TRIALS = 20
_SELF_CHECK_TOL = 1e-10
_GOLDEN = (1 + math.sqrt(5)) / 2


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major vectorization (stack columns)."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def _lifts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lifts x -> a[i] x b[i] of two (n, d, d) stacks, as an (n, d^2, d^2) stack.

    Each matrix of a and b is fitted by _kernels._fit_rows (a no-op in
    band).  Lift i is kron(b[i]^T, a[i]) of the fitted pair, as np.kron
    forms it, replayed by _self_check on 20 fixed probes x and scaled back
    exactly; SelfCheckFailed also where that would pass 2**1024.
    DimensionOverflow when d^2 exceeds config.KRON_CAP.
    """
    n, d, _ = a.shape
    if d * d > config.KRON_CAP:
        raise DimensionOverflow(f"lift would act in dimension {d * d} > cap {config.KRON_CAP}")
    (a, ea), (b, eb) = _fit_rows(a), _fit_rows(b)
    L = b.transpose(0, 2, 1)[:, :, None, :, None] * a[:, None, :, None, :]
    L = L.reshape(n, d * d, d * d)
    _self_check(L, a, b)
    # ldexp overflows exactly where frexp's exponent plus e passes 1024
    e = np.reshape(ea + eb, (-1, 1, 1))
    top = int((np.frexp(abs(L.view(np.float64)).max(axis=(1, 2), keepdims=True))[1] + e).max())
    if top > 1024:
        raise SelfCheckFailed(f"lift action residual is not finite: entries reach 2**{top - 1}")
    return np.ldexp(L.view(np.float64), e).view(L.dtype)


def _self_check(L: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """SelfCheckFailed unless each L[i] acts as x -> a[i] x b[i] on every probe x,
    entry by entry: each entry of the two sides agrees within 1e-10 of its
    own scale, the entry of |a[i]| |x| |b[i]| (the entry of |L[i]| |vec x|,
    which bounds the rounding of both sides), plus 2**-1022 for products
    that underflow.  A limit from the norms of a, b and x would grow with d
    against the share of one entry, and pass a lift with one entry off by
    1e-8 from d = 6 on."""
    d = a.shape[-1]
    x = _probes(d)
    # column-major vec of each x, and of each a[i] x b[i]
    got = L[:, None] @ x.transpose(0, 2, 1).reshape(-1, d * d, 1)
    want = (a[:, None] @ x @ b[:, None]).transpose(0, 1, 3, 2).reshape(got.shape)
    resid = abs(got - want)
    own = (abs(a)[:, None] @ abs(x) @ abs(b)[:, None]).transpose(0, 1, 3, 2).reshape(got.shape)
    limit = _SELF_CHECK_TOL * own + 2.0**-1022
    bad = ~(resid <= limit)
    if bad.any():
        r, t = resid[bad][0], limit[bad][0]
        raise SelfCheckFailed(f"lift action residual {r:.3e} is not within tolerance {t:.3e}")


def _probes(d: int) -> np.ndarray:
    """The self-check's 20 complex d x d probes.

    Their real, then imaginary, parts are filled in C order from the
    quadratic Weyl sequence frac(k^2 phi) - 1/2, k = 1, 2, ...: fixed and
    as well spread as a seeded normal draw, without loading numpy.random.
    (The linear frac(k phi) repeats too few patterns: its probes at
    d = 4..6 are linearly dependent.)
    """
    k = np.arange(1, 2 * _SELF_CHECK_TRIALS * d * d + 1, dtype=np.float64)
    z = ((k * k * _GOLDEN) % 1.0 - 0.5).reshape(_SELF_CHECK_TRIALS, 2, d, d)
    return z[:, 0] + 1j * z[:, 1]


def lift_LR(a, b) -> np.ndarray:
    """The d^2 x d^2 matrix of x -> a x b on vectorized x: kron(b^T, a).

    Apply it as unvec(L @ vec(x), d).  Built and self-checked by _lifts.
    """
    a, b = as_matrix(a), as_matrix(b)
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
    w_residual_max: largest check_w_product_identity over ordered generator
    pairs.  w_pass: its root is <= 1e-5 top^2, top the largest generator
    Frobenius norm, compared on the set scaled into [0.5, 1).
    """

    rho_sq_gap: float
    r_exact_gap: float
    passed: bool
    depth: int
    interval: tuple[float, float]
    lifted_interval: tuple[float, float]
    w_residual_max: float
    w_pass: bool

    to_dict = _as_dict


def check_lift_identities(M: MatrixSet, n: int = 4, *, tol: float = 1e-7,
                          width: float = 0.05, budget: int = 200_000,
                          frobenius: bool = False) -> LiftIdentityReport:
    """Check rho(lift) = rho(M)^2, r_k(lift) = r_k(M)^2 for k <= n, and the w
    identity on every ordered generator pair (w_residual_max, w_pass).
    SelfCheckFailed where a lift, the w residual or rho(M)^2 passes 2**1024."""
    _positive_finite(tol, "tol")
    _positive_finite(width, "width")
    lifted = lift_set(M)
    w_resid, w_pass = _w_identity(M.gens, *np.divmod(np.arange(M.size * M.size), M.size))
    r_m = _lower_profile(M, n, budget)
    box = refine(M, width, budget, frobenius=frobenius)
    if not max(r_m.max(), box.upper) < 2.0**512:
        raise SelfCheckFailed(f"rho(M)^2 is not finite: rho(M) <= {box.upper!r} reaches 2**512")
    r_l = _lower_profile(lifted, n, budget)
    want = r_m ** 2
    r_gap = float(np.max(np.abs(r_l - want) / np.maximum(1.0, want)))
    box_l = refine(lifted, width, budget, frobenius=frobenius)
    sq = (box.lower ** 2, box.upper ** 2)
    rho_gap = interval_distance(sq, box_l.interval) / max(1.0, sq[1])
    return LiftIdentityReport(rho_sq_gap=rho_gap, r_exact_gap=r_gap,
                              passed=bool(r_gap <= tol and rho_gap <= tol), depth=n,
                              interval=box.interval, lifted_interval=box_l.interval,
                              w_residual_max=w_resid, w_pass=w_pass)


def _w_identity(gens: np.ndarray, i, j) -> tuple[float, bool]:
    """(w_residual_max, w_pass) over a = gens[i], b = gens[j], from one _lifts call
    (l_g, r_g, w_g, w_ba) on gens / 2**s, largest entry in [0.5, 1); the degree-4
    residual is scaled back by 2**(4 s), SelfCheckFailed if that is no double."""
    m, d, _ = gens.shape
    s = math.frexp(float(abs(gens.view(np.float64)).max()))[1]
    g = np.ldexp(gens.view(np.float64), -s).view(gens.dtype)
    eye = np.repeat(np.eye(d, dtype=gens.dtype)[None], m, axis=0)
    ba = g[j] @ g[i]
    L = _lifts(np.concatenate([g, eye, g, ba]), np.concatenate([eye, g, g, ba]))
    l, r, w, w_ba = np.split(L, [m, 2 * m, 3 * m])
    u, v = w_ba - l[j] @ w[i] @ r[j], w_ba - r[i] @ w[j] @ l[i]
    resid = max(float(np.linalg.norm(x)) for x in (*u, *v))
    back = scale(resid, 4 * s)
    if not math.isfinite(back):
        raise SelfCheckFailed(f"w-product residual {resid:.3e} * 2**{4 * s} is not finite")
    top = max(frobenius_norm(a) for a in g)
    return back, math.sqrt(resid) <= 1e-5 * top * top


def check_w_product_identity(a, b) -> float:
    """Residual of the two factorizations of w_{ba} : x -> (ba) x (ba).

    Returns the larger Frobenius residual of
        w_{ba} = l_b w_a r_b   and   w_{ba} = r_a w_b l_a
    as matrices on vectorized x: zero algebraically, at rounding level
    (<= 1e-10 (||a|| ||b||)^2) in floats.  Taken on the pair scaled into
    [0.5, 1), scaled back exactly; SelfCheckFailed if not a finite double.
    """
    a, b = as_matrix(a), as_matrix(b)
    require_same_dim(a, b)
    return _w_identity(np.stack([a, b]), [0], [1])[0]


def noncompactness_radius(M: MatrixSet) -> float:
    """Measure-of-noncompactness analogue of rho; identically 0 here.

    Every bounded operator on a finite-dimensional space is compact, so
    this radius collapses to zero for any finite matrix set.  Exposed so
    callers porting from the general theory keep a total interface.
    """
    _ = M.gens
    return 0.0
