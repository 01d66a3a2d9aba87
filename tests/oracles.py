"""Independent brute-force reference implementations for the tests.

Everything here enumerates with itertools and measures with numpy's svd /
eigvals directly, sharing no code paths with the package kernels.

The loop_* functions are the product-tree kernels in their one-node-at-a-
time form: a lexicographic depth-first walk that evaluates one product,
one Gram eigvalsh and one eigvals per node.  The package's batched engine
must reproduce their outputs bit for bit.
"""

import itertools
import math

import numpy as np


def words(size: int, length: int):
    return itertools.product(range(size), repeat=length)


def word_product(mats, word) -> np.ndarray:
    p = np.eye(mats[0].shape[0], dtype=complex)
    for i in word:
        p = p @ mats[i]
    return p


def svd_norm(a) -> float:
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)[0])


def fro_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex), "fro"))


def eig_rho(a) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=complex)))))


def brute_interval(mats, nmax: int) -> tuple[float, float]:
    """(max rho root, min norm root) over all words of length <= nmax."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    lo, hi = 0.0, math.inf
    for k in range(1, nmax + 1):
        top_rho, top_nrm = 0.0, 0.0
        for w in words(len(mats), k):
            p = word_product(mats, w)
            top_rho = max(top_rho, eig_rho(p))
            top_nrm = max(top_nrm, svd_norm(p))
        lo = max(lo, top_rho ** (1.0 / k) if top_rho > 0 else 0.0)
        hi = min(hi, top_nrm ** (1.0 / k) if top_nrm > 0 else 0.0)
    return lo, hi


def brute_set_norm(mats, n: int, frobenius: bool = False) -> float:
    mats = [np.asarray(m, dtype=complex) for m in mats]
    norm = fro_norm if frobenius else svd_norm
    return max(norm(word_product(mats, w)) for w in words(len(mats), n))


def random_set(rng, dim: int, size: int, complex_entries: bool = False) -> np.ndarray:
    g = rng.uniform(-1.0, 1.0, (size, dim, dim))
    if complex_entries:
        g = g + 1j * rng.uniform(-1.0, 1.0, (size, dim, dim))
    return np.ascontiguousarray(g, dtype=complex)


def random_block_upper(rng, dim: int, size: int) -> np.ndarray:
    """Random generators sharing one block-upper-triangular shape."""
    split = int(rng.integers(1, dim)) if dim > 1 else 1
    g = rng.uniform(-1.0, 1.0, (size, dim, dim))
    g[:, split:, :split] = 0.0
    return np.ascontiguousarray(g, dtype=complex)


def warshall_blocks(gens) -> list[list[int]]:
    """Diagonal blocks of a set's exact block-triangular form, by brute force.

    Warshall's closure of the union sparsity graph (i -> j when some
    gens[k][i][j] != 0) in plain loops.  A block is a class of mutually
    reachable indices, in increasing order, and the blocks are listed by
    their smallest index.  A one-index class that is zero in every
    generator is dropped, and a set made only of those is one block.
    """
    d = len(gens[0])
    reach = [[i == j or any(g[i][j] != 0 for g in gens) for j in range(d)]
             for i in range(d)]
    for k in range(d):
        for i in range(d):
            for j in range(d):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    blocks = []
    placed = set()
    for i in range(d):
        if i in placed:
            continue
        cls = [j for j in range(d) if reach[i][j] and reach[j][i]]
        placed.update(cls)
        if len(cls) > 1 or any(g[i][i] != 0 for g in gens):
            blocks.append(cls)
    return blocks or [list(range(d))]


PHI = (1.0 + math.sqrt(5.0)) / 2.0

GOLDEN = [np.array([[1, 1], [0, 1]], dtype=complex),
          np.array([[1, 0], [1, 1]], dtype=complex)]

DIAG_PAIR = [np.diag([2.0, 1.0]).astype(complex),
             np.diag([1.0, 3.0]).astype(complex)]

HAND_PAIR = [np.array([[2, 5], [0, 1]], dtype=complex),
             np.array([[1, 7], [0, 3]], dtype=complex)]


# --- one-node-at-a-time reference kernels -----------------------------------

# relative slack for "strictly better" in argmax updates
_TIE = 1e-12
# spectral radii below this are reported as exact zeros
_RHO_FLOOR = 1e-300
# relative shave of refine's lower-bound candidates
_EIG_SAFETY = 1e-12
# smallest normal double
_TINY = 2.2250738585072014e-308


def _all_finite(a):
    return bool(np.isfinite(a).all())


def _loop_square(a, fro):
    """Squared norm: top Gram eigenvalue, or the sum of squared moduli.

    Overflowed products give inf, NaN entries included.
    """
    if fro:
        s = 0.0
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                v = a[i, j]
                s += v.real * v.real + v.imag * v.imag
        return np.inf if np.isnan(s) else s
    g = np.conj(a.T) @ a
    if not _all_finite(g):
        return np.inf
    w = np.linalg.eigvalsh(g)
    return w[w.shape[0] - 1]


def loop_norm(a, fro):
    """Operator 2-norm via the Gram matrix, or Frobenius norm when fro.

    Overflowed products report inf instead of raising.  A matrix whose
    squared norm is subnormal is measured again after scaling it by the
    power of two that brings its largest real or imaginary part into
    [0.5, 1).
    """
    s = _loop_square(a, fro)
    if s < _TINY:
        big = max(float(np.max(np.abs(a.real))), float(np.max(np.abs(a.imag))))
        e = math.frexp(big)[1]
        scaled = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
        s = _loop_square(scaled, fro)
        return math.ldexp(math.sqrt(s), e) if s > 0.0 else 0.0
    return np.sqrt(s) if s > 0.0 else 0.0


def loop_rho(a):
    """Largest eigenvalue modulus (NaN for non-finite input)."""
    if not _all_finite(a):
        return np.nan
    ev = np.linalg.eigvals(a)
    r = 0.0
    for i in range(ev.shape[0]):
        m = abs(ev[i])
        if m > r:
            r = m
    if r < _RHO_FLOOR:
        return 0.0
    return r


def loop_sweep_tree(gens, nmax, want_rho, fro):
    """Evaluate every product of length 1..nmax in lexicographic DFS order.

    Returns per-depth maxima of the norm and (optionally) the spectral
    radius, the lexicographically smallest maximizing word per depth, and
    the number of evaluated words.  Index 0 of the per-depth arrays is
    unused and stays at -1.
    """
    m, d, _ = gens.shape
    best_norm = np.full(nmax + 1, -1.0)
    best_rho = np.full(nmax + 1, -1.0)

    if m == 1:
        # the tree is a single path: rolling product, words are all zeros
        norm_words = np.zeros((1, 1), np.int64)
        rho_words = np.zeros((1, 1), np.int64)
        cur = np.eye(d, dtype=np.complex128)
        nodes = 0
        for k in range(1, nmax + 1):
            cur = cur @ gens[0]
            nodes += 1
            best_norm[k] = loop_norm(cur, fro)
            if want_rho:
                best_rho[k] = loop_rho(cur)
        return best_norm, best_rho, norm_words, rho_words, nodes

    norm_words = np.zeros((nmax + 1, nmax), np.int64)
    rho_words = np.zeros((nmax + 1, nmax), np.int64)
    prod = np.empty((nmax + 1, d, d), np.complex128)
    prod[0] = np.eye(d, dtype=np.complex128)
    word = np.zeros(nmax, np.int64)
    nodes = 0
    depth = 1
    word[0] = 0
    while depth > 0:
        k = depth
        prod[k] = prod[k - 1] @ gens[word[k - 1]]
        nodes += 1
        nrm = loop_norm(prod[k], fro)
        if nrm > best_norm[k] * (1.0 + _TIE):
            best_norm[k] = nrm
            for t in range(k):
                norm_words[k, t] = word[t]
        if want_rho:
            rho = loop_rho(prod[k])
            if rho > best_rho[k] * (1.0 + _TIE):
                best_rho[k] = rho
                for t in range(k):
                    rho_words[k, t] = word[t]
        if depth < nmax:
            depth += 1
            word[depth - 1] = 0
        else:
            while depth > 0 and word[depth - 1] == m - 1:
                depth -= 1
            if depth > 0:
                word[depth - 1] += 1
    return best_norm, best_rho, norm_words, rho_words, nodes


def loop_refine_pass(gens, depth_cap, width, lower_in, budget, fro):
    """One depth-capped branch-and-bound sweep of the product tree.

    A branch is cut at a product P of length k when ||P|| <= (lower+width)^k
    (compared in log space); the prune threshold only grows during the
    sweep, so every cut also holds for the final lower bound.  Nodes that
    reach depth_cap alive form the frontier.

    Returns (lower, wit_len, wit_word, frontier_max, saw_frontier,
    completed, nodes, deepest).  wit_len == 0 means no word improved on
    lower_in.  frontier_max is the max norm root over the frontier.
    """
    m, d, _ = gens.shape
    lower = lower_in
    wit_len = 0
    wit_word = np.zeros(depth_cap, np.int64)
    frontier_max = 0.0
    saw_frontier = False
    nodes = 0
    deepest = 0
    completed = True

    if m == 1:
        cur = np.eye(d, dtype=np.complex128)
        k = 0
        while k < depth_cap:
            if nodes >= budget:
                completed = False
                break
            k += 1
            cur = cur @ gens[0]
            nodes += 1
            if k > deepest:
                deepest = k
            nrm = loop_norm(cur, fro)
            v = loop_rho(cur) ** (1.0 / k) * (1.0 - _EIG_SAFETY)
            if v > lower * (1.0 + _TIE):
                lower = v
                wit_len = k
            alive = True
            if np.isfinite(nrm):
                if nrm <= 0.0 or np.log(nrm) <= k * np.log(lower + width):
                    alive = False
            if not alive:
                break
            if k == depth_cap:
                saw_frontier = True
                fm = nrm ** (1.0 / k)
                if fm > frontier_max:
                    frontier_max = fm
        return (lower, wit_len, wit_word, frontier_max, saw_frontier,
                completed, nodes, deepest)

    prod = np.empty((depth_cap + 1, d, d), np.complex128)
    prod[0] = np.eye(d, dtype=np.complex128)
    word = np.zeros(depth_cap, np.int64)
    depth = 1
    word[0] = 0
    while depth > 0:
        if nodes >= budget:
            completed = False
            break
        k = depth
        prod[k] = prod[k - 1] @ gens[word[k - 1]]
        nodes += 1
        if k > deepest:
            deepest = k
        nrm = loop_norm(prod[k], fro)
        v = loop_rho(prod[k]) ** (1.0 / k) * (1.0 - _EIG_SAFETY)
        if v > lower * (1.0 + _TIE):
            lower = v
            wit_len = k
            for t in range(k):
                wit_word[t] = word[t]
        alive = True
        if np.isfinite(nrm):
            if nrm <= 0.0 or np.log(nrm) <= k * np.log(lower + width):
                alive = False
        descend = False
        if alive:
            if k == depth_cap:
                saw_frontier = True
                if np.isfinite(nrm):
                    fm = nrm ** (1.0 / k)
                else:
                    fm = np.inf
                if fm > frontier_max:
                    frontier_max = fm
            else:
                descend = True
        if descend:
            depth += 1
            word[depth - 1] = 0
        else:
            while depth > 0 and word[depth - 1] == m - 1:
                depth -= 1
            if depth > 0:
                word[depth - 1] += 1
    return (lower, wit_len, wit_word, frontier_max, saw_frontier,
            completed, nodes, deepest)
