"""Enumeration kernels: product-tree sweeps and branch-and-bound passes.

One numpy engine that batches the LAPACK work of the product tree:
norms come from a batched Gram-matrix `eigvalsh`, spectral radii from a
batched `eigvals`, and products from a batched `matmul`.  Each matrix in
a batch goes through the same BLAS/LAPACK call as it would alone, so the
batched values are bit-identical to one-at-a-time evaluation.
sweep_tree evaluates only the measures its caller passes (norms, radii
or both), so a radius-only sweep pays no norm.  refine_pass keeps what
it measures in a Memo, which the deeper passes of the same refine
replay instead of measuring again.

Argmax updates require a relative improvement > 1e-12 so that ulp-level
eigenvalue noise cannot override the lex/shortest tie-break.
"""

import math
from array import array

import numpy as np

# relative slack for "strictly better" in argmax updates
_TIE = 1e-12
# spectral radii below this are reported as exact zeros
_RHO_FLOOR = 1e-300
# refine's lower-bound candidates are shaved by this relative margin so
# the certificate stays below the true value under eigensolver noise;
# pruning, the upper certificate, and convergence all see the same
# shaved value, keeping upper - lower <= width exact on convergence
_EIG_SAFETY = 1e-12
# refine skips eigvals for a child P of length k when
# ||P||^(1/k) * (1 + _SKIP_SLACK) <= lower: the computed rho of P is at
# most (1 + O(d u)) ||P||, so its shaved root could not raise lower.
# Norms under _SKIP_FLOOR belong to products whose entries may have
# underflowed and are not trusted for this.
_SKIP_SLACK = 1e-9
_SKIP_FLOOR = 1e-150
# bytes of product matrices in one block of a sweep
_BLOCK_BYTES = 64 * 2**10
# squared norms below this are subnormal: the Gram matrix (or the sum of
# squares) has lost digits or underflowed to zero
_TINY = np.finfo(np.float64).tiny


def _squares(stack, fro):
    """Per-matrix squared norm: top Gram eigenvalue or sum of squares.

    Overflowed products give inf (a product with NaN entries included).
    """
    n = stack.shape[0]
    if fro:
        sq = stack.real * stack.real + stack.imag * stack.imag
        # accumulate entries in row-major order, one at a time
        s = np.cumsum(sq.reshape(n, -1), axis=1)[:, -1]
        return np.where(np.isnan(s), np.inf, s)
    g = np.conj(stack.transpose(0, 2, 1)) @ stack
    if np.isfinite(g).all():
        return np.linalg.eigvalsh(g)[:, -1]
    ok = np.isfinite(g).all(axis=(1, 2))
    out = np.full(n, np.inf)
    if ok.any():
        out[ok] = _squares(stack[ok], fro)
    return out


def norms(stack, fro):
    """Per-matrix operator 2-norm (Gram matrix eigvalsh) or Frobenius norm.

    Overflowed products report inf instead of raising, so deep sweeps
    degrade to budget exhaustion.  Matrices whose squared norm is
    subnormal are measured again after an exact power-of-two rescale.
    """
    sq = _squares(stack, fro)
    out = np.sqrt(np.where(sq > 0.0, sq, 0.0))
    low = sq < _TINY
    if low.any():
        sub = stack[low]
        e = np.frexp(np.maximum(abs(sub.real), abs(sub.imag)).max(axis=(1, 2)))[1]
        scaled = np.empty_like(sub)
        scaled.real = np.ldexp(sub.real, -e[:, None, None])
        scaled.imag = np.ldexp(sub.imag, -e[:, None, None])
        sq = _squares(scaled, fro)
        out[low] = np.ldexp(np.sqrt(np.where(sq > 0.0, sq, 0.0)), e)
    return out


def radii(stack):
    """Per-matrix largest eigenvalue modulus.

    An overflowed (non-finite) product gives NaN, which never becomes a
    maximum, so it offers no lower-bound candidate.
    """
    try:
        ev = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError:
        # eigvals refuses non-finite input; solve the finite ones alone
        ok = np.isfinite(stack).all(axis=(1, 2))
        if ok.all():
            raise
        out = np.full(stack.shape[0], np.nan)
        if ok.any():
            out[ok] = radii(stack[ok])
        return out
    # hypot matches the scalar complex abs bit for bit; numpy's SIMD
    # complex abs does not
    r = np.fmax.reduce(np.hypot(ev.real, ev.imag), axis=1, initial=0.0)
    return np.where(r < _RHO_FLOOR, 0.0, r)


def _records(vals, best, rank, r0):
    """Running argmax over vals (lexicographic order, first rank r0).

    A value replaces best when it exceeds best * (1 + _TIE); returns the
    updated (best, rank).  Only strict prefix maxima can ever do that, so
    only those are visited; short runs (a single generator gives one word
    per depth) are cheaper to scan directly.
    """
    if vals.shape[0] > 8:
        v = np.where(np.isnan(vals), -np.inf, vals)
        run = np.maximum.accumulate(v)
        if not run[-1] > best * (1.0 + _TIE):
            return best, rank
        idx = np.flatnonzero(v[1:] > run[:-1]) + 1
        cand = [0, *idx.tolist()]
    else:
        cand = range(vals.shape[0])
    for i in cand:
        x = vals[i]
        if x > best * (1.0 + _TIE):
            best = x
            rank = r0 + i
    return best, rank


def sweep_tree(gens, nmax, measures):
    """Evaluate every product of length 1..nmax under each measure.

    measures is a tuple of functions, each mapping an (N, d, d) stack of
    products to N floats: radii, or norms with fro bound by
    functools.partial.  Only these are evaluated.  Returns one
    (best, ranks) pair per measure: best[k] is the measure's maximum over
    the words of length k and ranks[k] the lexicographic rank of the
    smallest maximizing word (word letters are its base-m digits).
    Index 0 is unused; best stays at -1 there.

    The tree is cut into blocks: one block holds the products of every
    word below one prefix, down to a few levels, and is evaluated with a
    single batched call per measure.  Blocks are walked depth-first
    with an explicit stack, prefixes in lexicographic order, so each depth
    sees its words in lexicographic order.  Products are formed left to
    right, exactly as a one-word-at-a-time walk forms them.
    """
    m, d, _ = gens.shape
    best = [np.full(nmax + 1, -1.0) for _ in measures]
    ranks = [[0] * (nmax + 1) for _ in measures]
    # levels per full block: m + m^2 + ... + m^h products fit the cap
    cap = max(m, _BLOCK_BYTES // (16 * d * d))
    h_max, size, total = 0, 1, 0
    while total + size * m <= cap:
        size *= m
        total += size
        h_max += 1
    # frame: [prefix products at depth p, p, rank of the first, next index]
    stack = [[np.eye(d, dtype=np.complex128)[None], 0, 0, 0]]
    while stack:
        top = stack[-1]
        leaves, p, r0, i = top
        if i == leaves.shape[0] - 1:
            stack.pop()
        else:
            top[3] = i + 1
        # the first block below the root is the short one, the rest are full
        h = (nmax - p - 1) % h_max + 1
        counts = [m**t for t in range(1, h + 1)]
        buf = np.empty((sum(counts), d, d), np.complex128)
        prev = leaves[i:i + 1]
        off = 0
        for n in counts:
            out = buf[off:off + n]
            np.matmul(prev[:, None], gens[None], out=out.reshape(n // m, m, d, d))
            prev = out
            off += n
        vals = [f(buf) for f in measures]
        off = 0
        base = r0 + i
        for t, n in enumerate(counts, start=1):
            k = p + t
            first = base * n
            for b, r, v in zip(best, ranks, vals):
                b[k], r[k] = _records(v[off:off + n], b[k], r[k], first)
            off += n
        if p + h < nmax:
            stack.append([prev.copy(), p + h, base * counts[-1], 0])
    return tuple(zip(best, ranks))


class Memo:
    """What a refine's passes have learnt about the product tree.

    One record per expanded node, holding m slots, one per child: the
    child's norm, its spectral radius (-1 where eigvals was skipped) and
    the index of the child's own record (-1 until the child is expanded).
    Record r fills slots r*m .. r*m + m - 1; record 0 is the root.  No
    products are kept, so a stored child costs 24 bytes.
    """

    __slots__ = ("norm", "rho", "kid")

    def __init__(self):
        self.norm = array("d")
        self.rho = array("d")
        self.kid = array("q")

    @property
    def nbytes(self):
        return 24 * len(self.kid)


def _skipped(x, k, lower):
    """Whether eigvals is skipped for a child of length k and norm x."""
    return lower > 0.0 and x >= _SKIP_FLOOR and x ** (1.0 / k) * (1.0 + _SKIP_SLACK) <= lower


def _children(memo, parent, gens, k, lower, fro):
    """Append the record of one product's m children (length k) to memo.

    Returns the record's index.  Radii are -1 where eigvals was skipped
    because the child's norm root cannot beat lower.
    """
    m = gens.shape[0]
    kids = parent @ gens
    nrm = norms(kids, fro).tolist()
    want = [j for j, x in enumerate(nrm) if math.isfinite(x) and not _skipped(x, k, lower)]
    if len(want) == m:
        rho = radii(kids).tolist()
    else:
        rho = [-1.0] * m
        if want:
            for j, r in zip(want, radii(kids[want]).tolist()):
                rho[j] = r
    memo.norm.extend(nrm)
    memo.rho.extend(rho)
    memo.kid.extend([-1] * m)
    return len(memo.kid) // m - 1


def _rebuild(stack, word, gens):
    """Product of the top frame's node, from the deepest frame that has one.

    Each open frame passed on the way stores its product.
    """
    i = len(stack) - 1
    while i >= 0 and stack[i][3] is None:
        i -= 1
    if i >= 0:
        prod, t = stack[i][3], stack[i][1] - 1
    else:
        prod, t = np.eye(gens.shape[1], dtype=np.complex128), 0
    for frame in stack[i + 1:]:
        while t < frame[1] - 1:
            prod = prod @ gens[word[t]]
            t += 1
        frame[3] = prod
    return prod


def refine_pass(gens, depth_cap, width, lower_in, budget, fro, memo=None):
    """One depth-capped branch-and-bound sweep of the product tree.

    A branch is cut at a product P of length k when ||P|| <= (lower+width)^k
    (compared in log space); the prune threshold only grows during the
    sweep, so every cut also holds for the final lower bound.  Nodes that
    reach depth_cap alive form the frontier.

    The walk is a lexicographic depth-first search.  Expanding a node
    evaluates all of its children in one batch and stores their norms and
    radii in memo; a node that memo already holds is replayed from the
    stored values.  A replayed radius is ignored where eigvals would be
    skipped under the lower at the replayed expansion, exactly as a fresh
    expansion skips it, so a pass reports the same with or without an
    earlier memo.  The same memo may serve later passes over the same
    gens and fro whose lower_in is at least the lower every earlier pass
    returned (refine's deepening does this); without one the pass starts
    a fresh memo.

    Each open depth keeps at most its parent product; a replayed depth
    rebuilds it only when a fresh expansion below it needs it.  A depth
    is dropped once its last child is entered, so a single generator
    needs O(1) products however deep the pass goes.

    Returns (lower, wit_len, wit_word, frontier_max, saw_frontier,
    completed, nodes, deepest).  wit_len == 0 means no word improved on
    lower_in.  frontier_max is the max norm root over the frontier.
    Every visit counts as a node, replayed or not.
    """
    m, d, _ = gens.shape
    if memo is None:
        memo = Memo()
    mnorm, mrho, mkid = memo.norm, memo.rho, memo.kid
    lower = lower_in
    log_thr = np.log(lower + width)
    wit_len = 0
    wit_word = np.zeros(depth_cap, np.int64)
    word = [0] * depth_cap
    frontier_max = 0.0
    saw_frontier = False
    nodes = 0
    deepest = 0
    completed = True

    root = np.eye(d, dtype=np.complex128)
    if not mkid:
        _children(memo, root, gens, 1, lower, fro)
    # frame: [record, child length k, lower at expansion, parent product
    # or None until needed, next child]
    stack = [[0, 1, lower, root, 0]]
    while stack:
        if nodes >= budget:
            completed = False
            break
        top = stack[-1]
        rec, k, lo, parent, j = top
        word[k - 1] = j
        nodes += 1
        if k > deepest:
            deepest = k
        s = rec * m + j
        nrm = mnorm[s]
        alive = True
        if math.isfinite(nrm):
            rho = mrho[s]
            if rho >= 0.0 and not _skipped(nrm, k, lo):
                v = rho ** (1.0 / k) * (1.0 - _EIG_SAFETY)
                if v > lower * (1.0 + _TIE):
                    lower = v
                    log_thr = np.log(lower + width)
                    wit_len = k
                    wit_word[:k] = word[:k]
            if nrm <= 0.0 or np.log(nrm) <= k * log_thr:
                alive = False
        expand = alive and k < depth_cap
        if alive and not expand:
            saw_frontier = True
            fm = nrm ** (1.0 / k) if math.isfinite(nrm) else math.inf
            if fm > frontier_max:
                frontier_max = fm
        child = None
        if expand:
            kid = mkid[s]
            if kid < 0:
                if parent is None:
                    parent = _rebuild(stack, word, gens)
                child = parent @ gens[j]
                kid = mkid[s] = _children(memo, child, gens, k + 1, lower, fro)
        if j == m - 1:
            stack.pop()
        else:
            top[4] = j + 1
        if expand:
            stack.append([kid, k + 1, lower, child, 0])
    return (lower, wit_len, wit_word, frontier_max, saw_frontier,
            completed, nodes, deepest)
