"""Square complex matrices: validation, norms, spectral radius, Kronecker.

Matrices are stored complex128 regardless of input dtype.  Norms and
spectral radii are computed by the product-tree engine (_kernels), in
float64 for a matrix none of whose entries has an imaginary part and in
complex128 otherwise.
"""

import numpy as np

from . import config
from ._kernels import norms, peak, radii
from .errors import DimensionMismatch, DimensionOverflow, ShapeError


def as_matrix(entries, *, index: int | None = None) -> np.ndarray:
    """Coerce to a square, finite, C-contiguous complex128 array."""
    a = np.asarray(entries)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ShapeError(f"expected a nonempty square matrix, got shape {a.shape}", index)
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ShapeError("matrix entries must be finite", index)
    return a


def frobenius_norm(a) -> float:
    return op_norm(a, frobenius=True)


def op_norm(a, *, frobenius: bool = False) -> float:
    """Matrix norm used by every bound in this package.

    Defaults to the operator 2-norm (largest singular value, computed as
    the root of the top eigenvalue of the Gram matrix a^H a); pass
    frobenius=True for the cheaper Frobenius norm.  Both are
    submultiplicative, so certified bounds stay valid under either choice.
    NonConvergence when the Gram eigensolve fails.
    """
    return peak(lambda s: norms(s, frobenius), as_matrix(a)[None])


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus, via Hessenberg reduction + shifted QR.

    Raises NonConvergence when the QR iteration gives up (pathological
    input).
    """
    return peak(radii, as_matrix(a)[None])


def kron(a, b) -> np.ndarray:
    """Kronecker product; DimensionOverflow past config.KRON_CAP."""
    a = as_matrix(a)
    b = as_matrix(b)
    d = a.shape[0] * b.shape[0]
    if d > config.KRON_CAP:
        raise DimensionOverflow(f"kron would produce dimension {d} > cap {config.KRON_CAP}")
    return np.kron(a, b)


def require_same_dim(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    return a.shape[0]
