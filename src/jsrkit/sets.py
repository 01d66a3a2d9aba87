"""Finite matrix sets, product words, and exhaustive norm sweeps."""

from dataclasses import dataclass
from functools import partial
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels, config
from .errors import BudgetExceeded, DimensionMismatch, IndexOutOfRange, ShapeError
from .matrices import as_matrix

Word = tuple[int, ...]


@dataclass(frozen=True)
class MatrixSet:
    """An ordered finite set of same-dimension complex matrices.

    gens is a read-only (size, dim, dim) complex128 array; generator order
    is significant (words index into it).
    """

    gens: np.ndarray
    name: str | None = None

    def __post_init__(self):
        g = np.asarray(self.gens)
        if g.ndim != 3 or g.shape[1] != g.shape[2] or g.shape[0] == 0 or g.shape[1] == 0:
            raise ShapeError(f"expected (size, dim, dim) with size, dim >= 1, got {g.shape}")
        g = np.ascontiguousarray(g, dtype=np.complex128)
        if not np.all(np.isfinite(g.real)) or not np.all(np.isfinite(g.imag)):
            raise ShapeError("generator entries must be finite")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gens", g)

    @classmethod
    def from_matrices(cls, mats: Iterable, name: str | None = None) -> "MatrixSet":
        mats = list(mats)
        if not mats:
            raise ShapeError("a matrix set needs at least one generator")
        arrs = [as_matrix(m, index=i) for i, m in enumerate(mats)]
        d = arrs[0].shape[0]
        for i, a in enumerate(arrs):
            if a.shape[0] != d:
                raise DimensionMismatch(f"matrix {i} has dimension {a.shape[0]}, expected {d}")
        return cls(np.stack(arrs), name)

    @property
    def dim(self) -> int:
        return self.gens.shape[1]

    @property
    def size(self) -> int:
        return self.gens.shape[0]

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        return tuple(self.gens[i] for i in range(self.size))

    def scaled(self, c: complex) -> "MatrixSet":
        return MatrixSet(np.ascontiguousarray(self.gens * c), self.name)


class LeadingProduct(NamedTuple):
    n: int
    word: Word
    norm: float


def evaluate(M: MatrixSet, word: Iterable[int]) -> np.ndarray:
    """Left-to-right product of the generators named by the word."""
    w = tuple(int(i) for i in word)
    if len(w) == 0:
        raise ShapeError("word must have length >= 1")
    for i in w:
        if i < 0 or i >= M.size:
            raise IndexOutOfRange(f"letter {i} outside 0..{M.size - 1}")
    p = M.gens[w[0]].copy()
    for i in w[1:]:
        p = p @ M.gens[i]
    return p


def tree_size(size: int, nmax: int) -> int:
    """Number of words of length 1..nmax over `size` letters."""
    if size == 1:
        return nmax
    return (size ** (nmax + 1) - size) // (size - 1)


@np.errstate(over="ignore", invalid="ignore")
def _sweep(M: MatrixSet, nmax: int, measures: tuple, budget: int):
    """_kernels.sweep_tree of M under the given measures, within budget.

    Overflowed products are measured as inf or NaN by design, so numpy's
    overflow and invalid-value warnings are silenced for the sweep.
    """
    if nmax < 1:
        raise ShapeError("depth must be >= 1")
    total = tree_size(M.size, nmax)
    if total > budget:
        raise BudgetExceeded(
            f"sweep to depth {nmax} needs {total} words, budget is {budget}")
    return _kernels.sweep_tree(M.gens, nmax, measures)


def _word_at(ranks, k: int, size: int) -> Word:
    """The length-k word whose lexicographic rank is ranks[k].

    Its letters are the rank's base-size digits, most significant first.
    """
    r = int(ranks[k])
    letters = []
    while r:
        r, letter = divmod(r, size)
        letters.append(letter)
    return (0,) * (k - len(letters)) + tuple(reversed(letters))


def set_norm(M: MatrixSet, n: int, *, budget: int = config.MAX_WORDS,
             frobenius: bool = False) -> float:
    """max over words w of length n of ||product(w)||, by full enumeration."""
    [(best_norm, _)] = _sweep(M, n, (partial(_kernels.norms, fro=frobenius),), budget)
    return float(best_norm[n])


def leading_products(M: MatrixSet, nmax: int, *, budget: int = config.MAX_WORDS,
                     frobenius: bool = False) -> list[LeadingProduct]:
    """Products achieving the running norm maximum at their own length.

    An entry (n, word, norm) is emitted exactly when the maximum norm over
    all words of length <= n is attained at length n; ties go to the
    lexicographically smallest word.  Norms along the list are
    nondecreasing.
    """
    [(best_norm, norm_ranks)] = _sweep(
        M, nmax, (partial(_kernels.norms, fro=frobenius),), budget)
    out: list[LeadingProduct] = []
    running = 0.0
    for k in range(1, nmax + 1):
        v = float(best_norm[k])
        if v >= running:
            out.append(LeadingProduct(k, _word_at(norm_ranks, k, M.size), v))
            running = v
    return out


def normalized_leading_sequence(M: MatrixSet, nmax: int, *,
                                budget: int = config.MAX_WORDS,
                                frobenius: bool = False) -> list[np.ndarray]:
    """The leading products, each scaled to unit norm.

    Entries whose product is the zero matrix are skipped (nothing to
    normalize).
    """
    out = []
    for n, word, norm in leading_products(M, nmax, budget=budget, frobenius=frobenius):
        if norm <= 0.0:
            continue
        t = evaluate(M, word)
        out.append(t / norm)
    return out
