"""Finite-dimensional algebras of matrices: generated subalgebras, the
Jacobson radical via the trace form, quotients with faithful matrix
representations, and nilpotency certificates.

Coefficient convention: an algebra with basis (b_1, .., b_m) stores
structure constants c with b_i b_j = sum_k c[i,j,k] b_k; elements are
coefficient vectors in C^m.  The trace form G[i,j] = tr(b_i b_j) is
bilinear (no conjugation); in characteristic zero its null space is the
Jacobson radical for any faithful matrix realization.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .bounds import BoundsReport, _as_dict, interval_distance, refine
from .errors import (DimensionCap, IllConditioned, InvalidBasis, NotAChain,
                     NotAnIdeal, NotClosed, NotInAlgebra,
                     PreconditionNotCertified, SelfCheckFailed, ShapeError)
from .matrices import as_matrix
from .sets import MatrixSet, Word, _sweep, _word_at, tree_size


def _vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x).reshape(-1)


def _orthonormal_columns(vectors: np.ndarray, tol: float = 1e-9,
                         floor: float = 0.0) -> np.ndarray:
    """Deterministic orthonormal basis (SVD) of the column span.

    floor is an absolute singular-value cutoff on top of the relative
    one; span iterations need it so a span that only survives at
    roundoff scale counts as zero.
    """
    if vectors.size == 0:
        return np.zeros((vectors.shape[0], 0), np.complex128)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((vectors.shape[0], 0), np.complex128)
    rank = int(np.sum(s > max(tol * s[0], floor)))
    return np.ascontiguousarray(u[:, :rank])


def _find_unit(structure: np.ndarray):
    """Coefficients of the two-sided unit of an algebra given by its
    structure constants, or None when it has none (residual 1e-8)."""
    m = structure.shape[0]
    left = np.transpose(structure, (1, 2, 0)).reshape(m * m, m)
    right = np.transpose(structure, (0, 2, 1)).reshape(m * m, m)
    lhs = np.vstack([left, right])
    target = np.eye(m, dtype=np.complex128).reshape(-1)
    rhs = np.concatenate([target, target])
    xi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    resid = float(np.linalg.norm(lhs @ xi - rhs))
    if resid <= 1e-8 * math.sqrt(2 * m):
        return xi
    return None


class FDAlgebra:
    """A multiplicatively closed span of square complex matrices.

    Construction validates linear independence of the basis (rank
    tolerance 1e-9 relative) and multiplicative closure (residual of each
    basis product against the span, 1e-9 relative), computes structure
    constants, and detects a two-sided unit if one exists.
    """

    def __init__(self, basis, *, tol: float = 1e-9):
        mats = [as_matrix(b, index=i) for i, b in enumerate(basis)]
        if not mats:
            raise InvalidBasis("an algebra needs at least one basis element")
        d = mats[0].shape[0]
        for i, b in enumerate(mats):
            if b.shape[0] != d:
                raise ShapeError(f"basis element {i} has dimension {b.shape[0]}, expected {d}")
        m = len(mats)
        if m > d * d:
            raise InvalidBasis(f"{m} elements cannot be independent in dimension {d}x{d}")
        V = np.stack([_vec(b) for b in mats], axis=1)  # (d*d, m)
        s = np.linalg.svd(V, compute_uv=False)
        if s[-1] <= tol * s[0]:
            raise InvalidBasis(
                f"basis is numerically dependent (sigma ratio {s[-1] / s[0]:.2e})")
        pinv = np.linalg.pinv(V)

        structure = np.empty((m, m, m), np.complex128)
        for i in range(m):
            for j in range(m):
                w = _vec(mats[i] @ mats[j])
                coeff = pinv @ w
                resid = float(np.linalg.norm(V @ coeff - w))
                scale = max(1.0, float(np.linalg.norm(mats[i]) * np.linalg.norm(mats[j])))
                if resid > tol * scale:
                    raise NotClosed(
                        f"product b_{i} b_{j} leaves the span (residual {resid:.2e})")
                structure[i, j, :] = coeff

        self.ambient_dim = d
        self._mats = np.stack(mats)
        self._mats.setflags(write=False)
        self._V = V
        self._pinv = pinv
        self.structure = structure
        self.structure.setflags(write=False)
        self.unit_coeffs = _find_unit(structure)
        self.unital = self.unit_coeffs is not None
        self._gram = None

    # -- basic structure ------------------------------------------------

    @property
    def dim(self) -> int:
        return self.structure.shape[0]

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        return tuple(self._mats[i] for i in range(self.dim))

    def element(self, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if c.shape[0] != self.dim:
            raise ShapeError(f"expected {self.dim} coefficients, got {c.shape[0]}")
        return (self._V @ c).reshape(self.ambient_dim, self.ambient_dim)

    def coeffs_of(self, x, *, tol: float = 1e-8) -> np.ndarray:
        """Coefficients of an ambient matrix, or NotInAlgebra."""
        x = as_matrix(x)
        if x.shape[0] != self.ambient_dim:
            raise ShapeError(f"expected dimension {self.ambient_dim}, got {x.shape[0]}")
        w = _vec(x)
        c = self._pinv @ w
        resid = float(np.linalg.norm(self._V @ c - w))
        if resid > tol * max(1.0, float(np.linalg.norm(x))):
            raise NotInAlgebra(f"element outside the span (residual {resid:.2e})")
        return c

    def multiply(self, u, v) -> np.ndarray:
        return np.einsum("i,j,ijk->k", np.asarray(u), np.asarray(v), self.structure)

    def left_mult_matrix(self, u) -> np.ndarray:
        """Matrix of v -> u*v on coefficient space."""
        return np.einsum("i,ijk->kj", np.asarray(u), self.structure)

    def right_mult_matrix(self, u) -> np.ndarray:
        """Matrix of v -> v*u on coefficient space."""
        return np.einsum("j,ijk->ki", np.asarray(u), self.structure)

    @property
    def gram(self) -> np.ndarray:
        """Trace form G[i,j] = tr(b_i b_j) (bilinear, not conjugated)."""
        if self._gram is None:
            g = np.einsum("iab,jba->ij", self._mats, self._mats)
            g.setflags(write=False)
            self._gram = g
        return self._gram


class Ideal:
    """A two-sided ideal of an FDAlgebra, stored as an orthonormal
    coefficient-space basis.  Construction verifies two-sidedness:
    multiplying each ideal basis vector by each algebra basis element must
    stay in the span (residual 1e-9 relative).
    """

    def __init__(self, parent: FDAlgebra, coeff_vectors, *, tol: float = 1e-9):
        if not isinstance(parent, FDAlgebra):
            raise TypeError("parent must be an FDAlgebra")
        raw = np.asarray(coeff_vectors, dtype=np.complex128)
        if raw.ndim == 1:
            raw = raw.reshape(-1, 1)
        if raw.size and raw.shape[0] != parent.dim:
            raise ShapeError(f"coefficient vectors must have length {parent.dim}")
        if raw.size == 0:
            raw = np.zeros((parent.dim, 0), np.complex128)
        Q = _orthonormal_columns(raw, tol)
        m = parent.dim
        eye = np.eye(m)
        for col in range(Q.shape[1]):
            v = Q[:, col]
            for i in range(m):
                for prod in (parent.multiply(eye[i], v), parent.multiply(v, eye[i])):
                    resid = float(np.linalg.norm(prod - Q @ (Q.conj().T @ prod)))
                    if resid > tol * max(1.0, float(np.linalg.norm(prod))):
                        raise NotAnIdeal(
                            f"b_{i} * (ideal vector {col}) leaves the span "
                            f"(residual {resid:.2e})")
        Q.setflags(write=False)
        self.parent = parent
        self.coeffs = Q

    @classmethod
    def zero(cls, parent: FDAlgebra) -> "Ideal":
        return cls(parent, np.zeros((parent.dim, 0)))

    @classmethod
    def whole(cls, parent: FDAlgebra) -> "Ideal":
        return cls(parent, np.eye(parent.dim))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def contains(self, coeff_vector, *, tol: float = 1e-8) -> bool:
        v = np.asarray(coeff_vector, dtype=np.complex128).reshape(-1)
        resid = float(np.linalg.norm(v - self.coeffs @ (self.coeffs.conj().T @ v)))
        return resid <= tol * max(1.0, float(np.linalg.norm(v)))


def generated_subalgebra(M: MatrixSet, max_dim: int | None = None, *,
                         tol: float = 1e-9) -> FDAlgebra:
    """Smallest closed span containing the generators (no unit adjoined).

    Adjoins products b_i b_j until the span stabilizes, keeping a
    Frobenius-orthonormal basis (rank-revealing elimination at 1e-9
    relative).  DimensionCap if the closure would exceed max_dim
    (default: ambient dim squared).
    """
    d = M.dim
    cap = min(max_dim if max_dim is not None else d * d, d * d)
    mats: list[np.ndarray] = []
    Q = np.zeros((d * d, 0), np.complex128)

    def adjoin(x: np.ndarray) -> bool:
        nonlocal Q
        v = _vec(x)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return False
        r = v - Q @ (Q.conj().T @ v)
        nr = float(np.linalg.norm(r))
        if nr <= tol * nv:
            return False
        if len(mats) >= cap:
            raise DimensionCap(
                f"closure exceeds the dimension cap {cap}")
        r = r / nr
        Q = np.hstack([Q, r.reshape(-1, 1)])
        mats.append(r.reshape(d, d))
        return True

    for g in M.generators:
        adjoin(g)
    if not mats:
        raise InvalidBasis("all generators are zero; the generated algebra is {0}")
    changed = True
    while changed:
        changed = False
        cur = len(mats)
        for i in range(cur):
            for j in range(cur):
                if adjoin(mats[i] @ mats[j]):
                    changed = True
    return FDAlgebra(mats, tol=tol)


def jacobson_radical(A: FDAlgebra, *, threshold: float = 1e-8,
                     gap_factor: float = 1e3) -> Ideal:
    """Radical = null space of the trace form (characteristic zero).

    Works on the singular values of G: directions with sigma <= threshold
    * sigma_max belong to the radical.  If any singular value falls within
    a factor of gap_factor of that cut the rank decision is ambiguous and
    IllConditioned is raised.  G identically zero means the whole algebra
    is its own radical.
    """
    G = A.gram
    u, s, vh = np.linalg.svd(G)
    if s[0] == 0.0:
        return Ideal.whole(A)
    thr = threshold * s[0]
    ambiguous = np.sum((s > thr / gap_factor) & (s < thr * gap_factor))
    if ambiguous:
        raise IllConditioned(
            f"{int(ambiguous)} singular value(s) within a factor of "
            f"{gap_factor:g} of the rank threshold")
    rank = int(np.sum(s > thr))
    null = vh[rank:].conj().T
    return Ideal(A, null)


def hypocompact_radical(A: FDAlgebra) -> Ideal:
    """Largest hypocompact ideal; the whole algebra here.

    In finite dimension every bounded multiplication is compact, so this
    radical never cuts anything down.  Exposed as a documented constant
    for interface completeness.
    """
    return Ideal.whole(A)


class QuotientAlgebra:
    """A/J with a faithful matrix representation.

    The representation is the left regular action of A/J on itself (on
    its unitization when the quotient has no unit), written in an
    orthonormal complement basis of J.  rep vanishes exactly on J and is
    multiplicative; both are replayed at construction on all basis pairs
    (tolerance 1e-8) and SelfCheckFailed is raised on disagreement.
    """

    def __init__(self, parent: FDAlgebra, ideal: Ideal, *, tol: float = 1e-8):
        if ideal.parent is not parent:
            raise NotAnIdeal("ideal was built for a different algebra")
        m = parent.dim
        r = ideal.dim
        QJ = ideal.coeffs
        q = m - r
        if r == 0:
            K = np.eye(m, dtype=np.complex128)
        elif q == 0:
            K = np.zeros((m, 0), np.complex128)
        else:
            P = np.eye(m, dtype=np.complex128) - QJ @ QJ.conj().T
            u, s, _ = np.linalg.svd(P)
            K = np.ascontiguousarray(u[:, :q])

        # structure constants of the quotient in the complement basis
        if q > 0:
            T = np.einsum("ia,jb,ijk->abk", K, K, parent.structure)
            cq = np.einsum("abk,kc->abc", T, np.conj(K))
        else:
            cq = np.zeros((0, 0, 0), np.complex128)

        unit_q = _find_unit(cq) if q > 0 else None
        unital = unit_q is not None
        rep_dim = q if unital else q + 1

        self.parent = parent
        self.ideal = ideal
        self.complement = K
        self.structure = cq
        self.unital = unital
        self.unit_coeffs = unit_q
        self.rep_dim = rep_dim
        self._tol = tol
        self._self_check()

    @property
    def dim(self) -> int:
        """Dimension of A/J (not of the representation space)."""
        return self.complement.shape[1]

    def project(self, coeffs) -> np.ndarray:
        """Quotient coordinates (complement components) of a parent element."""
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        return self.complement.conj().T @ c

    def rep_coeffs(self, coeffs) -> np.ndarray:
        """Representation matrix of a parent element given by coefficients."""
        beta = self.project(coeffs)
        q = self.dim
        if q > 0:
            L = np.einsum("i,ijk->kj", beta, self.structure)
        else:
            L = np.zeros((0, 0), np.complex128)
        if self.unital:
            return L
        out = np.zeros((q + 1, q + 1), np.complex128)
        out[:q, :q] = L
        out[:q, q] = beta
        return out

    def rep(self, x) -> np.ndarray:
        """Representation matrix of an ambient matrix lying in the parent."""
        return self.rep_coeffs(self.parent.coeffs_of(x))

    def rep_set(self, M: MatrixSet) -> MatrixSet:
        mats = [self.rep(g) for g in M.generators]
        name = f"{M.name}/J" if M.name else None
        return MatrixSet(np.stack([np.ascontiguousarray(a) for a in mats]), name)

    def as_algebra(self) -> FDAlgebra:
        """The representation image span as a standalone algebra."""
        if self.dim == 0:
            raise InvalidBasis("the zero quotient has no basis")
        mats = [self.rep_coeffs(self.complement[:, i]) for i in range(self.dim)]
        return FDAlgebra(mats)

    def _self_check(self):
        m = self.parent.dim
        eye = np.eye(m)
        reps = [self.rep_coeffs(eye[i]) for i in range(m)]
        for i in range(m):
            for j in range(m):
                prod = self.parent.multiply(eye[i], eye[j])
                want = self.rep_coeffs(prod)
                got = reps[i] @ reps[j]
                scale = max(1.0, float(np.linalg.norm(reps[i]) * np.linalg.norm(reps[j])))
                if float(np.linalg.norm(got - want)) > self._tol * scale:
                    raise SelfCheckFailed(
                        f"quotient representation is not multiplicative at ({i},{j})")
        for col in range(self.ideal.dim):
            img = self.rep_coeffs(self.ideal.coeffs[:, col])
            if float(np.linalg.norm(img)) > self._tol:
                raise SelfCheckFailed(
                    "quotient representation does not vanish on the ideal")


def quotient(A: FDAlgebra, J: Ideal) -> QuotientAlgebra:
    """A/J with its faithful representation; NotAnIdeal on a mismatch."""
    return QuotientAlgebra(A, J)


class InessentialReport(NamedTuple):
    rho_full: tuple[float, float]
    rho_quotient: tuple[float, float]
    gap: float
    passed: bool
    algebra_dim: int
    radical_dim: int

    to_dict = _as_dict


def check_inessential(M: MatrixSet, *, width: float = 0.05,
                      budget: int = 200_000, widen: float = 1e-6,
                      max_dim: int | None = None,
                      frobenius: bool = False) -> InessentialReport:
    """Does killing the radical of A(M) leave rho unchanged?

    Boxes rho(M) in the ambient algebra and rho of the image of M in
    A(M)/Rad, then checks that the two intervals intersect after a
    relative widening of `widen`.  Both intervals are certified whether
    or not the refines converged.
    """
    A = generated_subalgebra(M, max_dim)
    rad = jacobson_radical(A)
    Q = quotient(A, rad)
    full = refine(M, width, budget // 2, frobenius=frobenius)
    quot = refine(Q.rep_set(M), width, budget // 2, frobenius=frobenius)
    gap = interval_distance(full.interval, quot.interval)
    slack = widen * max(1.0, full.upper, quot.upper)
    return InessentialReport(rho_full=full.interval, rho_quotient=quot.interval,
                             gap=gap, passed=gap <= slack,
                             algebra_dim=A.dim, radical_dim=rad.dim)


class RcqReport(NamedTuple):
    member: bool
    nil_degree: int | None
    witness_word: Word | None
    witness_rho: float | None
    ideal_dim: int

    to_dict = _as_dict


def _power_spans(A: FDAlgebra, base: np.ndarray):
    """Orthonormal spans of I, I^2, I^3, ... and the nil degree of I.

    base is an orthonormal basis of I.  Returns (spans, nil_degree): the
    spans of the powers while their dimension strictly falls, and the
    first k with I^k = 0, or None when the powers stop shrinking at a
    nonzero span.  The dimensions start at most dim A and must strictly
    fall, so the iteration ends after at most dim A + 1 products.
    """
    spans = []
    cur = base
    while cur.shape[1] > 0:
        if spans and cur.shape[1] >= spans[-1].shape[1]:
            return spans, None
        spans.append(cur)
        cols = [A.multiply(cur[:, a], base[:, b])
                for a in range(cur.shape[1]) for b in range(base.shape[1])]
        # inputs are unit coefficient vectors, so a genuinely nonzero
        # product span sits far above the 1e-10 roundoff floor
        cur = _orthonormal_columns(np.stack(cols, axis=1), floor=1e-10)
    return spans, len(spans) + 1


def rcq_membership(A: FDAlgebra, x, *, depth: int = 8,
                   rho_tol: float = 1e-8) -> RcqReport:
    """Is x in the compactly-quasinilpotent radical of A?

    In finite dimension that radical is the Jacobson radical, and x
    belongs to it exactly when the two-sided ideal of A^1 generated by x
    is nilpotent.  The verdict comes from span iteration on the powers of
    that ideal; a False verdict is accompanied (when one exists within
    `depth`) by a word over {x} u {x b_i} whose product has spectral
    radius above rho_tol.  x is first scaled to unit coefficient norm
    (membership is scale invariant).
    """
    if isinstance(x, np.ndarray) and x.ndim == 1:
        xi = np.asarray(x, dtype=np.complex128)
        if xi.shape[0] != A.dim:
            raise ShapeError(f"expected {A.dim} coefficients")
        x_mat = A.element(xi)
    else:
        x_mat = as_matrix(x)
        xi = A.coeffs_of(x_mat)
    scale = float(np.linalg.norm(xi))
    if scale > 0.0:
        xi = xi / scale
        x_mat = x_mat / scale

    m = A.dim
    eye = np.eye(m)
    cols = [xi]
    for i in range(m):
        cols.append(A.multiply(eye[i], xi))
        cols.append(A.multiply(xi, eye[i]))
        for j in range(m):
            cols.append(A.multiply(eye[i], A.multiply(xi, eye[j])))
    ideal_span = _orthonormal_columns(np.stack(cols, axis=1))

    _, nil_degree = _power_spans(A, ideal_span)
    if nil_degree is not None:
        return RcqReport(member=True, nil_degree=nil_degree, witness_word=None,
                         witness_rho=None, ideal_dim=ideal_span.shape[1])

    gens = [x_mat] + [x_mat @ b for b in A.basis]
    S = MatrixSet(np.stack([np.ascontiguousarray(g) for g in gens]))
    # cap the witness sweep; witnesses are short when they exist at all,
    # so deepen one level at a time and stop at the first hit
    witness_budget = 200_000
    n_cap = depth
    while n_cap > 1 and tree_size(S.size, n_cap) > witness_budget:
        n_cap -= 1
    wit_word = None
    wit_rho = 0.0
    for n in range(1, n_cap + 1):
        [(best_rho, rho_ranks)] = _sweep(S, n, (_kernels.radii,), witness_budget + S.size)
        v = float(best_rho[n])
        if v > rho_tol:
            wit_word = _word_at(rho_ranks, n, S.size)
            wit_rho = v
            break
        wit_rho = max(wit_rho, v)
    return RcqReport(member=False, nil_degree=None, witness_word=wit_word,
                     witness_rho=wit_rho, ideal_dim=ideal_span.shape[1])


class NilpotentSpanReport(NamedTuple):
    passed: bool
    nil_degree: int | None
    certified_upper: float
    algebra_dim: int

    to_dict = _as_dict


def check_nilpotent_span(M: MatrixSet, *, width: float = 1e-13,
                         budget: int = 100_000, max_dim: int | None = None,
                         frobenius: bool = False) -> NilpotentSpanReport:
    """Certify rho(M) = 0, then verify A(M) is nilpotent by span iteration.

    Refuses to proceed (PreconditionNotCertified) unless refine pushes the
    upper bound below 1e-12.  Then checks A(M)^k = 0 for some
    k <= dim(A(M)) + 1.
    """
    box = refine(M, width, budget, frobenius=frobenius)
    if not (box.upper < 1e-12):
        raise PreconditionNotCertified(
            f"refine only certified upper bound {box.upper:.3e} (need < 1e-12)")
    if not np.any(M.gens):
        return NilpotentSpanReport(passed=True, nil_degree=1,
                                   certified_upper=box.upper, algebra_dim=0)
    A = generated_subalgebra(M, max_dim)
    _, nil_degree = _power_spans(A, np.eye(A.dim, dtype=np.complex128))
    return NilpotentSpanReport(passed=nil_degree is not None,
                               nil_degree=nil_degree,
                               certified_upper=box.upper, algebra_dim=A.dim)


class ChainRow(NamedTuple):
    ideal_dim: int
    lower: float
    upper: float
    converged: bool


class ChainReport(NamedTuple):
    rows: tuple[ChainRow, ...]
    final_direct: ChainRow

    to_dict = _as_dict


def _quotient_box(A: FDAlgebra, J: Ideal, gen_coeffs, width, budget,
                  name, frobenius) -> BoundsReport:
    Q = quotient(A, J)
    mats = [np.ascontiguousarray(Q.rep_coeffs(c)) for c in gen_coeffs]
    return refine(MatrixSet(np.stack(mats), name), width, budget, frobenius=frobenius)


def ideal_chain_monotonicity(M: MatrixSet, chain: Sequence[Ideal], *,
                             width: float = 0.02, budget: int = 100_000,
                             tol: float = 1e-8, frobenius: bool = False) -> ChainReport:
    """rho estimates of M along quotients by a strictly increasing chain.

    Validates the chain (shared parent containing M, strictly increasing
    nested spans; NotAChain otherwise), boxes rho of the image of M in
    each quotient, and asserts the upper endpoints are nonincreasing
    within tol (SelfCheckFailed otherwise).  The last row is recomputed
    from scratch and must reproduce exactly.
    """
    chain = list(chain)
    if not chain:
        raise NotAChain("chain must contain at least one ideal")
    A = chain[0].parent
    for k, J in enumerate(chain):
        if J.parent is not A:
            raise NotAChain(f"ideal {k} belongs to a different algebra")
    for k in range(len(chain) - 1):
        a, b = chain[k], chain[k + 1]
        if a.dim >= b.dim:
            raise NotAChain(f"ideal {k + 1} does not strictly enlarge ideal {k}")
        for col in range(a.dim):
            if not b.contains(a.coeffs[:, col]):
                raise NotAChain(f"ideal {k} is not contained in ideal {k + 1}")
    gen_coeffs = [A.coeffs_of(g) for g in M.generators]

    rows = []
    for J in chain:
        box = _quotient_box(A, J, gen_coeffs, width, budget, M.name, frobenius)
        rows.append(ChainRow(J.dim, box.lower, box.upper, box.converged))
    for k in range(len(rows) - 1):
        if rows[k + 1].upper > rows[k].upper + tol:
            raise SelfCheckFailed(
                f"upper endpoint grew along the chain: row {k} gives "
                f"{rows[k].upper:.12g}, row {k + 1} gives {rows[k + 1].upper:.12g}")
    direct = _quotient_box(A, chain[-1], gen_coeffs, width, budget, M.name, frobenius)
    final = ChainRow(chain[-1].dim, direct.lower, direct.upper, direct.converged)
    if (final.lower, final.upper) != (rows[-1].lower, rows[-1].upper):
        raise SelfCheckFailed("direct recomputation of the last quotient differs")
    return ChainReport(rows=tuple(rows), final_direct=final)


def radical_power_chain(A: FDAlgebra) -> list[Ideal]:
    """Canonical strictly increasing chain Rad^p < ... < Rad^2 < Rad.

    Returns [zero ideal] when the radical is zero.
    """
    rad = jacobson_radical(A)
    if rad.dim == 0:
        return [Ideal.zero(A)]
    spans, _ = _power_spans(A, rad.coeffs)
    return [Ideal(A, s) for s in reversed(spans)]
