"""Finite matrix sets, product words, and exhaustive norm sweeps."""

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels, config
from .errors import (BudgetExceeded, CapExceeded, DimensionMismatch, IndexOutOfRange,
                     ShapeError)
from .matrices import as_matrix

Word = tuple[int, ...]


@dataclass(frozen=True)
class MatrixSet:
    """An ordered finite set of same-dimension complex matrices.

    gens is a read-only (size, dim, dim) complex128 array; generator order
    is significant (words index into it).  A set none of whose entries has
    an imaginary part is measured in real (float64) arithmetic, a set with
    one in complex arithmetic (see _kernels._fit_set).
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
    """Left-to-right product of the generators named by the word, unscaled."""
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


class Peaks(NamedTuple):
    """One measure's maxima over the words of each length k = 1..n.

    scale[k-1] is the maximum over the words of length k (inf past the
    double range), root[k-1] its k-th root (finite even where scale is
    not), and word(k) the lexicographically smallest word attaining it,
    up to ties: the smallest word measured within 1e-12 relative of the
    largest value.  Norms and radii take their words by this one rule
    (_kernels.sweep_tree).  A norm's scale[k-1] is the largest norm
    measured, a radius's that word's own, which the word attains.  A spectral
    radius is taken over necklace representatives, each the smallest of
    its word's cyclic rotations (in exact arithmetic that is the maximum
    over all words), so its word is the smallest representative in the
    band.
    """

    scale: list[float]
    root: list[float]
    ranks: list[int]
    size: int

    def word(self, k: int) -> Word:
        return _word_at(self.ranks, k, self.size)


def _sweep(M: MatrixSet, nmax: int, budget: int, *, fro: bool | None = None,
           rho: bool = False) -> tuple[Peaks | None, Peaks | None]:
    """The (norm, radius) Peaks over the words of length 1..nmax, within budget.

    The norm side (Frobenius when fro, operator 2-norm when not, None when
    fro is None) and the radius side (None unless rho) are those of
    _kernels.sweep_tree, the only reader of whose (mantissa, exponent,
    rank) output this is.
    """
    if nmax < 1:
        raise ShapeError("depth must be >= 1")
    # two or more letters give over 2**nmax words, past a finite budget
    # from depth budget.bit_length() on; the count is formed only where it
    # has at most 4,300 digits, as many as str() prints of an int
    over = M.size >= 2 and budget < math.inf and nmax >= int(budget).bit_length()
    total = tree_size(M.size, nmax) if not over or nmax * math.log10(M.size) < 4299 else None
    if over or total > budget:
        words = f"more than 2**{nmax}" if total is None else total
        raise BudgetExceeded(f"sweep to depth {nmax} needs {words} words, budget is {budget}")
    if M.size ** nmax > 2**63:  # sweep_tree ranks words in int64
        raise CapExceeded(f"sweep to depth {nmax} has {M.size}**{nmax} words of one length, "
                          "past 2**63")
    depths = range(1, nmax + 1)
    out = []
    for side in _kernels.sweep_tree(M.gens, nmax, fro, rho):
        if side is not None:
            best, exps, ranks = side
            side = Peaks([_kernels.scale(float(best[k]), exps[k]) for k in depths],
                         [_kernels.root(float(best[k]), exps[k], k) for k in depths],
                         ranks, M.size)
        out.append(side)
    return tuple(out)


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
    norms, _ = _sweep(M, n, budget, fro=frobenius)
    return norms.scale[n - 1]


def leading_products(M: MatrixSet, nmax: int, *, budget: int = config.MAX_WORDS,
                     frobenius: bool = False) -> list[LeadingProduct]:
    """Products achieving the running norm maximum at their own length.

    An entry (n, word, norm) is emitted exactly when the maximum norm over
    all words of length <= n is attained at length n: norm is length n's
    largest, and word the lexicographically smallest within 1e-12
    relative of it (Peaks).  Norms along the list are nondecreasing.
    """
    norms, _ = _sweep(M, nmax, budget, fro=frobenius)
    out: list[LeadingProduct] = []
    running = 0.0
    for k, v in enumerate(norms.scale, 1):
        if v >= running:
            out.append(LeadingProduct(k, norms.word(k), v))
            running = v
    return out


def normalized_leading_sequence(M: MatrixSet, nmax: int, *,
                                budget: int = config.MAX_WORDS,
                                frobenius: bool = False) -> list[np.ndarray]:
    """The leading products, each scaled to unit norm.

    Each product is formed fitted (_kernels.word_product) and divided by
    its own norm, so products past the double range normalize too.  They
    are float64 for a set with no imaginary part, as the engine forms them.
    Entries whose product is the zero matrix are skipped (nothing to
    normalize).
    """
    out = []
    for _, word, _ in leading_products(M, nmax, budget=budget, frobenius=frobenius):
        prod, _ = _kernels.word_product(M.gens, word)
        norm = float(_kernels.norms(prod[None], frobenius)[0])
        if norm > 0.0:
            out.append(prod / norm)
    return out
