"""Enumeration kernels: product-tree sweeps and branch-and-bound passes.

One numpy engine batches the product tree's `matmul`, Gram-matrix
`eigvalsh` (norms) and `eigvals` (radii), each matrix through the call
it would get alone, so batched values are bit-identical to one at a time.
These are the package's only eigensolves; LAPACK's failure in one leaves
the engine as NonConvergence.

A sweep pays an eigensolve only where it can set a record (sweep_tree).
Every word's Frobenius norm bounds its 2-norm and its radius from above;
the Gram eigvalsh runs only where that bound could beat the depth's best
2-norm.  Radius maxima r_k are taken over necklace representatives:
rho(ab) = rho(ba), so one word per class of cyclic rotations, its
lexicographically smallest, is measured, and only where its norm or
bound could beat the depth's best radius.  In exact arithmetic that is
the maximum over all words, and the smallest rotation is the necklace's
first word, so the reported rank is unchanged.  refine_pass takes the
norm of every child it measures, and eigvals only where the child's
radius root could beat the lower end: its norm root bounds it, and for
children of one length so does the square rule rho(P)^2 <= ||P^2||
(_square_bound, one matmul and sum of squares per batch).  A single
generator's path blocks keep the norm bound alone: on the benchmark's
Jordan powers the square rule cut no child of the d = 2 and 3 paths, and
a check on every child cost more than it saved.

refine_pass forms no product itself: its walk replays the memo, and where
it meets an alive node below its cap with no children it calls _grow,
which expands that node and the pending nodes after it one level at a
time, with one matmul and one _measure call per level, in runs that fit
the budget left and _BLOCK_BYTES.  On small matrices most of an
expansion's cost is Python and numpy call overhead, which a level pays
once instead of once per node.  Products are held only in the memo's
pending fronts, the nodes measured but not yet expanded, as sweep_tree
holds its stack of runs.  sweep_tree grows the tree the same way with
nothing pruned, and a single generator's path, in both, goes a block at
a time through _path.  A tree is walked node by node; a path, whose
walk order is the memo's slot order, is scanned in numpy segments
between the points where lower rises (_scan_path).

Generators are stored complex128, but a set none of whose entries has
an imaginary part is measured in float64 from end to end (_fit_set at
every entry point): its products, Gram matrices, sums of squares and
eigenvalue problems take the real BLAS/LAPACK routines, about twice as
fast as the complex ones.  Every array the engine allocates follows the
dtype of the generators, so a complex set runs the same calls as before.

Every batch of products (the children of a run's first nodes in
sweep_tree or _grow, one _path block of a single generator's path)
carries an integer exponent e and holds its products divided by 2**e; a
run's exponent is one per product once any of its products has been
fitted.  A product becomes a factor only after _fit scales it by an
exact power of two where its own largest entry has left the band, and a
generator set outside the band is fitted once.  In-band products are
never rescaled, so at e = 0 the arithmetic is that of the unscaled
products.  A value x reads as x * 2**e, its k-th root as root(x, e, k).
Exponents travel with their products; refine_pass's memo keeps the roots
_measure derives from them, so its walk reads no exponent, and every test
it makes compares k-th roots.
"""

import math
from array import array

import numpy as np

from .errors import NonConvergence

# relative slack for "strictly better" in argmax updates, so that ulp-level
# eigenvalue noise cannot override the lex/shortest tie-break
_TIE = 1e-12
# refine's lower-bound candidates are shaved by this relative margin so
# the certificate stays below the true value under eigensolver noise;
# pruning, the upper certificate, and convergence all see the same
# shaved value, so upper <= fl(lower + width) on convergence
_EIG_SAFETY = 1e-12
# refine skips eigvals for a child P of length k when
# ||P||^(1/k) * (1 + _SKIP_SLACK) <= lower: the computed rho of P is at
# most (1 + O(d u)) ||P||, so its shaved root could not raise lower.  The
# same margin serves the square bound's root (_square_bound).
_SKIP_SLACK = 1e-9
# _square_bound pads ||fl(P P)||_F by this relative slack s and by
# s d ||P||^2: together they cover the rounding of P P (gamma_d |P||P|),
# of its sum of squares, and eigvals' backward error E, since
# ||(P + E)^2|| <= ||P^2|| + (2 ||E|| + ||E||^2 / ||P||) ||P||
_SQUARE_SLACK = 2.0**-40
# bytes of the children formed from one run in a sweep or a pass; a
# block of a single generator's path fits its products and their norm
# temporaries in it
_BLOCK_BYTES = 64 * 2**10
# A factor's largest real or imaginary part lies in [2**-_BAND, 2**_BAND)
# or is 0.  For d <= 64 = 2**6 an in-band entry has modulus below
# 2**(_BAND + 1/2), so an in-band product times an in-band generator has
# entries below 2**(2 _BAND + 7), Gram entries below 2**(4 _BAND + 20)
# and a sum of squares below 2**(4 _BAND + 26) = 2**1018: no overflow.
# Nothing bounds a product from below: the band holds only the largest
# entry of a factor or of the whole generator set, so one generator, and
# so a product, can be far smaller.  norms measures a matrix whose
# squared norm is not a normal double again, fitted on its own.  The
# benchmark's products (largest entries 2**-7.3 to 2**112) never leave
# the band.
_BAND = 248
_HI, _LO = 2.0**_BAND, 2.0**-_BAND
_NORMAL = 2.0**-1022


def _fit(stack):
    """(stack / 2**e, e): e = 0 in band, else the largest part goes to [0.5, 1)."""
    top = float(abs(stack.view(np.float64)).max())
    if _LO <= top < _HI or top == 0.0:
        return stack, 0
    e = math.frexp(top)[1]
    return np.ldexp(stack.view(np.float64), -e).view(stack.dtype), e


def _fit_set(stack):
    """_fit of stack in the arithmetic the engine measures it in: its real
    part, as float64, when no entry has an imaginary part, else stack."""
    return _fit(stack if stack.imag.any() else np.ascontiguousarray(stack.real))


def _fit_rows(stack):
    """_fit of each matrix of a stack on its own; e is 0 when all are in band,
    else an int array with one exponent per matrix."""
    top = abs(stack.view(np.float64)).max(axis=(1, 2))
    out = (top >= _HI) | (top < _LO) & (top > 0.0)
    if not out.any():
        return stack, 0
    e = np.where(out, np.frexp(top)[1], 0)
    return np.ldexp(stack.view(np.float64), -e[:, None, None]).view(stack.dtype), e


def scale(x, e):
    """x * 2**e, inf past the double range; x <= 0 (an unset -1) stays."""
    if x <= 0.0:
        return x
    return math.ldexp(x, e) if math.frexp(x)[1] + e <= 1024 else math.inf


def root(x, e, k):
    """(x * 2**e) ** (1/k) for x >= 0; 2**(e/k) goes in halves that cannot overflow."""
    h = 2.0 ** (e / (2 * k))
    return x ** (1.0 / k) * h * h


def peak(measure, stack):
    """The largest measure (a norm or a radius) of the matrices in stack."""
    stack, e = _fit_set(stack)
    return scale(float(measure(stack).max()), e)


def word_product(gens, word):
    """(P, e): P * 2**e is the left-to-right product of gens[word], fitted as sweeps fit."""
    gens, e1 = _fit_set(gens)
    prod, e = gens[word[0]], e1 * len(word)
    for i in word[1:]:
        prod, s = _fit(prod)
        prod, e = prod @ gens[i], e + s
    return prod, e


def _squares(stack, fro):
    """Per-matrix squared norm: top Gram eigenvalue or sum of squares."""
    if fro:
        sq = stack.real * stack.real
        if np.iscomplexobj(stack):
            sq += stack.imag * stack.imag
        # accumulate entries in row-major order, one at a time
        return np.cumsum(sq.reshape(stack.shape[0], -1), axis=1)[:, -1]
    try:
        return np.linalg.eigvalsh(np.conj(stack.transpose(0, 2, 1)) @ stack)[:, -1]
    except np.linalg.LinAlgError as e:
        raise NonConvergence(f"norm eigensolve failed: {e}") from e


def _bound(stack):
    """Per-matrix Frobenius norm, an upper bound on the 2-norm and the
    spectral radius; inf where its square is not a normal double, since an
    underflowed sum of squares bounds nothing.  Sweeps read it in place of
    the norms they skip; it is no reported norm, so it does not go through
    norms."""
    sq = _squares(stack, True)
    return np.sqrt(np.where(sq < _NORMAL, np.inf, sq))


def _square_bound(stack, nrm):
    """Per-matrix upper bound on the spectral radius, and on the radius
    eigvals computes, from Gelfand's rho(P)^2 <= ||P^2||_2:
    sqrt(||fl(P P)||_F (1 + s) + s d ||P||^2), s = _SQUARE_SLACK, with nrm
    the stack's measured norms as a list (either norm: ||P||_F^2 is at
    most d ||P||_2^2).  inf where ||P|| >= 2**_BAND, whose square might
    overflow, or where the sum of squares of fl(P P) is not a normal
    double, which underflow may have shrunk.  A list of Python floats:
    refine compares each in scalar arithmetic."""
    out = [math.inf] * len(nrm)
    ok = [i for i, x in enumerate(nrm) if x < _HI]
    if ok:
        sub = stack if len(ok) == len(nrm) else stack[ok]
        sq = (sub @ sub).view(np.float64).reshape(len(ok), -1)
        pad = _SQUARE_SLACK * stack.shape[1]
        for i, q in zip(ok, (sq * sq).sum(axis=1).tolist()):
            if _NORMAL <= q < math.inf:
                out[i] = math.sqrt(math.sqrt(q) * (1.0 + _SQUARE_SLACK) + pad * nrm[i] * nrm[i])
    return out


def norms(stack, fro):
    """Per-matrix operator 2-norm (Gram matrix eigvalsh) or Frobenius norm.

    A matrix whose squared norm is below the normal range has lost it to
    underflow; it is measured again fitted on its own, so a nonzero
    product never reads 0.
    """
    sq = _squares(stack, fro)
    low = sq < _NORMAL
    if not low.any():
        return np.sqrt(sq)
    out = np.sqrt(np.where(low, 0.0, sq))
    sub, e = _fit_rows(stack[low])
    sq = _squares(sub, fro)
    out[low] = np.ldexp(np.sqrt(np.where(sq > 0.0, sq, 0.0)), e)
    return out


def radii(stack):
    """Per-matrix largest eigenvalue modulus."""
    try:
        ev = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as e:
        raise NonConvergence(f"eigenvalue iteration failed: {e}") from e
    # hypot matches the scalar complex abs bit for bit; numpy's SIMD
    # complex abs does not
    return np.fmax.reduce(np.hypot(ev.real, ev.imag), axis=1, initial=0.0)


def witness_root(gens, word):
    """The k-th root of rho of gens[word]'s fitted product, shaved as
    refine_pass shaves its lower candidates (k = len(word))."""
    prod, e = word_product(gens, word)
    return root(float(radii(prod[None])[0]), e, len(word)) * (1.0 - _EIG_SAFETY)


def _records(vals, best):
    """The records of a running best over vals, in order, as (index,
    value) pairs with value the element vals[index]; [] when there are none.

    A value replaces best, the given one at the start, when it exceeds
    best * (1 + _TIE).  Only strict prefix maxima (index 0 and every index
    whose value exceeds all values before it) can, so only those are
    visited.
    """
    run = np.maximum.accumulate(vals)
    if not run[-1] > best * (1.0 + _TIE):
        return []
    recs = []
    for j in [0, *(np.flatnonzero(vals[1:] > run[:-1]) + 1).tolist()]:
        x = vals[j]
        if x > best * (1.0 + _TIE):
            best = x
            recs.append((j, x))
    return recs


def _least_rotations(first, k, m, idx):
    """Which length-k words of ranks first + idx (idx ascending) are
    lexicographically smallest among their cyclic rotations.

    A rank's base-m digits are the word's letters, so the rotation by s
    letters maps r to (r mod m**u) * m**(k-u) + r div m**u, u = k - s.
    Ranks are compared in int64: for m**k <= 2**63 (sets._sweep goes no
    deeper) every rank and every rotated rank is below m**k.
    """
    r = idx.astype(np.int64) + first
    pw = np.array([m**u for u in range(1, k)], np.int64)[:, None]
    head = r // pw
    rot = (r - head * pw) * pw[::-1] + head
    return (rot >= r).all(axis=0)


def _may_beat(upper, side, k, le):
    """Which length-k words, read at exponents le (an int, or one per
    word), have an upper value that, times (1 + _SKIP_SLACK), exceeds the
    best depth k holds on side.  Any other word's computed value, at most
    (1 + O(d u)) times its upper value, cannot set a record: the best only
    grows."""
    best, exps, _ = side
    thr = (scale(best[k], exps[k] - le) if isinstance(le, int) else
           np.array([scale(best[k], exps[k] - x) for x in le.tolist()]))
    return ~(upper * (1.0 + _SKIP_SLACK) <= thr)


def _update(side, k, vals, le, first, idx):
    """Fold the values of the length-k words of ranks first + idx, each
    read as vals[i] * 2**le (le an int, or one per word of the run),
    into side's (best, exps, ranks) at depth k."""
    best, exps, ranks = side
    if isinstance(le, int):
        recs = _records(vals, scale(best[k], exps[k] - le))
        if recs:
            i, new = recs[-1]
            best[k], exps[k], ranks[k] = new, le, first + int(idx[i])
        return
    # one exponent per product: _records' rule, one at a time
    for y, ey, j in zip(vals.tolist(), le[idx].tolist(), idx.tolist()):
        if y > scale(best[k], exps[k] - ey) * (1.0 + _TIE):
            best[k], exps[k], ranks[k] = y, ey, first + j


def _path(g, prod, e, n):
    """The next n products of a single generator's path after the fitted
    product prod * 2**e, formed left to right as a one-word-at-a-time walk
    forms them: (block, exps, last, e), with block[t] * 2**exps[t] the
    t-th product and last * 2**e the last one fitted, the next factor.

    A step multiplies the largest part by less than 2 + 2 d |g|, so `run`
    steps from an in-band product stay below 2**1000: a run is formed
    unchecked, and its first product outside the band, fitted, starts the
    next (the products after it are formed again from it)."""
    d = g.shape[0]
    block = np.empty((n, d, d), g.dtype)
    grow = math.log2(2.0 + 2 * d * float(abs(g.view(np.float64)).max()))
    run = max(1, int((1000 - _BAND) / grow))
    exps = []
    while len(exps) < n:
        t0 = len(exps)
        stop = min(n, t0 + run)
        for t in range(t0, stop):
            prod = np.matmul(prod, g, out=block[t])
        top = abs(block[t0:stop].view(np.float64)).max(axis=(1, 2))
        out = np.flatnonzero((top >= _HI) | (top < _LO) & (top > 0.0))
        t = t0 + int(out[0]) if out.size else stop - 1
        exps += [e] * (t + 1 - t0)
        prod, shift = _fit(block[t])
        e += shift
    return block, exps, prod, e


def sweep_tree(gens, nmax, fro=None, rho=False):
    """Maxima of the norm and of the spectral radius over the words of
    each length 1..nmax.

    fro picks the norm side: None for no norms, else the Frobenius (True)
    or operator 2-norm (False) of every word; rho asks for the radius
    side.  Returns (norms, radii), each (best, exps, ranks) or None when
    not asked for: best[k] * 2**exps[k] is the maximum over the words of
    length k and ranks[k] the lexicographic rank of the smallest word
    attaining it (its letters are the base-m digits).  Index 0 is unused;
    best stays at -1 there.

    A word's upper value is its measured norm or its Frobenius norm
    (_bound, a sum of squares, at least its 2-norm); its computed 2-norm
    and radius are at most (1 + O(d u)) times that, far inside
    _SKIP_SLACK.  Each eigensolve runs only on the words whose upper value
    can beat the best their depth holds on that side (_may_beat).
    Frobenius sweeps measure every word's norm.  2-norm sweeps take the
    Gram eigvalsh where the bound can beat the depth's best norm, and a
    word skipped keeps its bound as its value, which cannot set a record
    either.  Radius-only sweeps read the bound alone.

    rho(ab) = rho(ba), so every cyclic rotation of a word has its radius,
    and the radius side measures one word per necklace: the rotation that
    is lexicographically smallest (_least_rotations), which is also the
    necklace's first word in lexicographic order, so ranks[k] stays the
    smallest word attaining the maximum.  Its best[k] is the maximum over
    these representatives, which in exact arithmetic is the maximum over
    all words.

    The tree grows as in _grow, with nothing pruned: a stack of runs of
    fitted products of one length, deepest last.  A run's first nodes (one
    for a depth's first run, else as many as _grow takes) are split off,
    their children formed with one matmul, measured, fitted each on its
    own (fitted as one batch, small products could flush to zero) and
    pushed as the next run.  So each depth sees its words in lexicographic
    order, and every run after a depth's first meets a record.  A single
    generator's path goes a _path block at a time, one word per depth.
    """
    gens, e1 = _fit_set(gens)
    m, d, _ = gens.shape

    def side():  # best, exps and ranks by depth
        return np.full(nmax + 1, -1.0), [0] * (nmax + 1), [0] * (nmax + 1)

    nside = None if fro is None else side()
    rside = side() if rho else None
    eye = np.eye(d, dtype=gens.dtype)
    if m == 1:
        k, prod, e = 0, eye, 0
        size = max(1, _BLOCK_BYTES // (3 * 16 * d * d))
        while k < nmax:
            n = min(size, nmax - k)
            block, exps, prod, e = _path(gens[0], prod, e, n)
            at = slice(k + 1, k + n + 1)  # one word per depth: each is its record
            if nside is not None:
                nside[0][at], nside[1][at] = norms(block, fro), exps
            if rside is not None:
                rside[0][at], rside[1][at] = radii(block), exps
            k += n
    step = max(1, _BLOCK_BYTES // (16 * m * d * d))  # nodes whose children fill a call
    # run: (length k, fitted products, exponent (an int, or one per
    # product), rank of the first); a single generator's sweep has none
    runs = [] if m == 1 else [(0, eye[None], 0, 0)]
    while runs:
        k, prods, e, r0 = runs.pop()
        n = step if r0 else 1
        if n < prods.shape[0]:
            runs.append((k, prods[n:], e if isinstance(e, int) else e[n:], r0 + n))
            prods, e = prods[:n], e if isinstance(e, int) else e[:n]
        kids = np.matmul(prods[:, None], gens[None]).reshape(-1, d, d)
        if not isinstance(e, int):
            e = np.repeat(e, m)
        k, first = k + 1, r0 * m
        # each word's upper value: its measured norm, or its Frobenius bound
        if fro:
            upper = norms(kids, True)
        else:
            upper = _bound(kids)
            if nside is not None:
                want = np.flatnonzero(_may_beat(upper, nside, k, e))
                if want.size:
                    upper[want] = norms(kids[want], False)
        if nside is not None:
            _update(nside, k, upper, e, first, np.arange(kids.shape[0]))
        if rside is not None:
            idx = np.flatnonzero(_may_beat(upper, rside, k, e))
            idx = idx[_least_rotations(first, k, m, idx)]
            if idx.size:
                _update(rside, k, radii(kids[idx]), e, first, idx)
        if k < nmax:
            kids, s = _fit_rows(kids)
            runs.append((k, kids, e + s, first))
    return tuple(None if side is None else
                 (side[0], [x + k * e1 for k, x in enumerate(side[1])], side[2])
                 for side in (nside, rside))


class Memo:
    """What a refine's passes have learnt about the product tree.

    One record per expanded node: m slots, one per child P of length k,
    with ||P||^(1/k), rho(P)^(1/k) shaved by _EIG_SAFETY (-1 where eigvals
    was skipped because the norm root or, for children of one length, the
    square bound put it at or below lower, which only a lower above 0 does;
    kept as is when lower grows) and the index of P's own record (-1 until
    it is expanded).  A single generator's path keeps -1 there: its slot
    k - 1 holds depth k, so a node's child is the next slot.  A stored
    child costs 24 bytes.  front maps a depth k
    to the pending fronts there: a list of (slots, products, exponents),
    nodes of length k measured but not yet expanded, with their fitted
    products, from which growth goes on (_grow).  A depth's nodes are
    measured in lexicographic order, so there slot order is lexicographic
    order.  nbytes counts the records and the fronts' arrays.
    """

    __slots__ = ("norm_root", "cand", "kid", "front")

    def __init__(self):
        self.norm_root = array("d")
        self.cand = array("d")
        self.kid = array("q")
        self.front = {}

    @property
    def nbytes(self):
        return 24 * len(self.kid) + sum(a.nbytes for level in self.front.values()
                                        for part in level for a in part)


def _measure(memo, kids, lengths, exps, lower, fro):
    """Append one slot per product in kids (of length lengths[i], times
    2**exps[i]) to memo, with no child record yet: the one place a node's
    roots are derived.  One batched norms call measures them all, one
    batched radii call those whose radius root can beat lower.

    A child's radius root is at most its norm root and, for children of
    one length (those of one or more nodes with m >= 2 generators), at most
    the root of its _square_bound; eigvals is skipped where either, times
    1 + _SKIP_SLACK, is at most lower.  Only children that pass the norm
    test take the square bound, in one batch; a single generator's path
    blocks keep the norm test alone."""
    nrm = norms(kids, fro).tolist()
    nroot = [root(x, e, k) for x, e, k in zip(nrm, exps, lengths)]
    cand = [-1.0] * len(nrm)
    want = [i for i, r in enumerate(nroot)
            if not (lower > 0.0 and r * (1.0 + _SKIP_SLACK) <= lower)]
    if lower > 0.0 and want and len(nrm) > 1 and lengths[0] == lengths[-1]:
        sub = kids if len(want) == len(nrm) else kids[want]
        bound = _square_bound(sub, [nrm[i] for i in want])
        want = [i for i, b in zip(want, bound)
                if not root(b, exps[i], lengths[i]) * (1.0 + _SKIP_SLACK) <= lower]
    if want:
        for i, r in zip(want, radii(kids[want]).tolist()):
            cand[i] = root(r, exps[i], lengths[i]) * (1.0 - _EIG_SAFETY)
    memo.norm_root.extend(nroot)
    memo.cand.extend(cand)
    memo.kid.extend([-1] * len(nrm))


def _grow(memo, gens, s, k, depth_cap, lower, thr, room, fro):
    """Expand the pending node s of length k and the pending nodes after
    it, one level at a time, no deeper than depth_cap: the one place a
    pass forms products.

    Each level's run is the longest lexicographic run of pending nodes,
    from s or from the level's first, whose children fit one _measure call
    of _BLOCK_BYTES and the budget left, room, counted once for each depth
    from the run's own to depth_cap, as if every level below were as wide;
    the first run holds s at least.  Of the run, the nodes alive as the walk
    tests them, not (||P||^(1/k) <= thr), are expanded: their fitted
    products times gens in one matmul, measured, and linked to their
    slots.  The children alive in turn are the next level's pending front,
    and room loses the children measured.  The rest of each level stays
    pending until the walk reaches it, and the children at depth_cap until
    a deeper pass does.

    A single generator's front is its path's last node, and its run goes a
    block at a time: the next min(room, block) nodes of the path, never
    past depth_cap, appended as the next slots, whose products (formed by
    _path) and norm temporaries fit in _BLOCK_BYTES, in one _measure
    call."""
    m, d, _ = gens.shape
    level = memo.front[k]
    while level[0][0][-1] < s:  # fronts the walk has passed: dead or below a cut
        del level[0]
    slots, prods, exps = level[0]
    i = 0 if slots[0] == s else int(np.searchsorted(slots, s))
    if m == 1:
        n = max(1, min(room, depth_cap - k, _BLOCK_BYTES // (3 * 16 * d * d)))
        block, kexps, prod, e = _path(gens[0], prods[i], int(exps[i]), n)
        _measure(memo, block, range(k + 1, k + n + 1), kexps, lower, fro)
        memo.front = {k + n: [(np.array([len(memo.kid) - 1]), prod[None].copy(), np.array([e]))]}
        return
    step = max(1, _BLOCK_BYTES // (16 * m * d * d))  # nodes whose children fill a call
    n = max(1, min(step, room // (m * (depth_cap - k + 1))))
    run, parents, pexps = slots[i:i + n], prods[i:i + n], exps[i:i + n]
    if run.size > 1:  # s is alive; the walk has not yet tested the nodes after it
        live = ~(np.frombuffer(memo.norm_root)[run] <= thr)
        run, parents, pexps = run[live], parents[live], pexps[live]
    while True:
        if i + n < slots.size:
            level[0] = (slots[i + n:], prods[i + n:], exps[i + n:])
        else:
            del level[0]
        kids = np.matmul(parents[:, None], gens[None]).reshape(-1, d, d)
        e = np.repeat(pexps, m)
        first = len(memo.kid)
        _measure(memo, kids, [k + 1] * e.size, e.tolist(), lower, fro)
        if k:
            np.frombuffer(memo.kid, np.int64)[run] = np.arange(first // m, len(memo.kid) // m)
        room -= e.size
        k += 1
        prods, shift = _fit_rows(kids)
        slots = np.arange(first, len(memo.kid))
        live = ~(np.frombuffer(memo.norm_root)[slots] <= thr)
        part = [(slots[live], prods[live], (e + shift)[live])] if live.any() else []
        if k == depth_cap:
            memo.front.setdefault(k, []).extend(part)
            return
        # the depth's older fronts lie before s: the walk has passed them
        level = memo.front[k] = part
        n = part and min(part[0][0].size, step, max(room, 0) // (m * (depth_cap - k + 1)))
        if not n:
            return
        (slots, prods, exps), = part
        i = 0
        run, parents, pexps = slots[:n], prods[:n], exps[:n]


def _scan_path(memo, a, b, lower, width):
    """The walk's visits to slots a..b-1 of a single generator's path,
    slot k - 1 holding depth k, as numpy segments between lower's records:
    (last, lower, rec, cut), with last the slot visited last (the first
    cut, else b - 1), lower as the walk leaves it there and rec the slot
    of its last record (-1 if none).

    The records are _records over the candidate roots from lower, their
    values made Python floats as the tree walk's; between two of them thr =
    lower + width is constant, and the first cut is the first stored norm
    root at or below it.  Its views of the memo end with the call: an
    array that exports a buffer cannot grow."""
    nroot = np.frombuffer(memo.norm_root)[a:b]
    cand = np.frombuffer(memo.cand)[a:b]
    recs = [(j, float(x)) for j, x in _records(cand, lower)]
    i, rec = 0, -1
    for j, x in [*recs, (b - a, None)]:
        cut = np.flatnonzero(nroot[i:j] <= lower + width)
        if cut.size:
            return a + i + int(cut[0]), lower, rec, True
        if x is None:
            return b - 1, lower, rec, False
        i, rec, lower = j, a + j, x


def refine_pass(gens, depth_cap, width, lower_in, budget, fro, memo=None):
    """One depth-capped branch-and-bound sweep of the product tree.

    A branch is cut at a product P of length k when ||P||^(1/k) <= thr =
    lower + width, read from the stored norm root the frontier also reads;
    thr only grows during the sweep, so every cut also holds for the final
    lower bound.  Nodes that reach depth_cap alive form the frontier.  A
    set outside the band is walked fitted, with width, lower_in and the
    results scaled by its exponent.

    The walk is a lexicographic depth-first search.  Expanding a node
    measures all of its children in one batch into memo (see _measure), and
    a node memo holds is replayed from it: a visit only compares the stored
    roots.  A tree is walked one visit at a time; a single generator's
    tree is a path whose depth k sits at slot k - 1, and is scanned in
    slot order between lower's records (_scan_path), with the walk's
    visits, cuts, exits and calls to _grow.  A stored candidate root
    counts wherever it beats lower by _TIE: one a fresh expansion would
    skip (_SKIP_SLACK) is at most its norm root or its square bound's
    root, so at most lower, and a pass reports the same with or without
    an earlier memo.
    A memo may serve later passes over the same gens and fro whose
    lower_in is at least the lower every earlier pass returned (refine's
    deepening does this).

    Where the walk meets an alive node below depth_cap with no record it
    calls _grow, which measures that node's children and those of the
    pending nodes after it, level by level, from the memo's pending fronts;
    a fresh memo's one pending node is the root.  A child measured under a
    lower below the walk's only stores a candidate root that cannot count,
    as above, so reports do not depend on how growth is batched.  The walk
    holds no product: each open depth keeps its record and next child, and
    is dropped once its last child is entered.  Growth sizes its runs to
    the budget left, and none is asked for when the budget leaves no node
    to enter; what a cut pass leaves pending, a later pass on the memo
    grows.  After a completed pass the memo's front is the nodes alive at
    depth_cap.

    memo defaults to a fresh Memo.  Returns (lower, witness, frontier_max,
    frontier, completed, deepest, nodes).  witness is the word of lower's
    last record as a tuple, () when no word beat lower_in (lower is then
    lower_in as given).  frontier counts the frontier's nodes and
    frontier_max is the max norm root over them, 0.0 when there are none.
    Every visit counts as a node, replayed or not.
    """
    gens, e1 = _fit_set(gens)
    m, d, _ = gens.shape
    memo = Memo() if memo is None else memo
    mroot, mcand, mkid = memo.norm_root, memo.cand, memo.kid
    width = scale(width, -e1)
    lower = scale(lower_in, -e1)
    # both may underflow when the set is far above them
    thr = lower + width
    word = [0] * depth_cap
    witness = ()
    frontier = nodes = deepest = 0
    frontier_max, completed = 0.0, True

    if not mkid:  # the root: the one pending node of a fresh memo
        memo.front = {0: [(np.full(1, -1), np.eye(d, dtype=gens.dtype)[None],
                           np.zeros(1, np.int64))]}
        _grow(memo, gens, -1, 0, depth_cap, lower, thr, budget, fro)
    if m == 1:  # a path: DFS order is slot order, slot k - 1 holds depth k
        while nodes < budget:
            end = min(len(mkid), depth_cap, budget)
            last, lower, rec, cut = _scan_path(memo, nodes, end, lower, width)
            nodes = deepest = last + 1
            thr = lower + width
            if rec >= 0:
                witness = (0,) * (rec + 1)
            if cut:
                break
            if nodes == depth_cap:
                frontier, frontier_max = 1, max(frontier_max, mroot[last])
                break
            if nodes < budget:  # the stored path ends here
                _grow(memo, gens, last, nodes, depth_cap, lower, thr, budget - nodes, fro)
        else:
            completed = False
    # frame: [record, child length k, next child]
    stack = [] if m == 1 else [[0, 1, 0]]
    while stack:
        if nodes >= budget:
            completed = False
            break
        top = stack[-1]
        rec, k, j = top
        word[k - 1] = j
        nodes += 1
        if k > deepest:
            deepest = k
        s = rec * m + j
        nroot, cand = mroot[s], mcand[s]
        if cand > lower * (1.0 + _TIE):
            lower = cand
            thr = lower + width
            witness = tuple(word[:k])
        alive = not (nroot <= thr)
        expand = alive and k < depth_cap
        if alive and not expand:
            frontier += 1
            frontier_max = max(frontier_max, nroot)
        if expand and mkid[s] < 0:
            if nodes >= budget:
                # the walk would stop before entering the child
                completed = False
                break
            _grow(memo, gens, s, k, depth_cap, lower, thr, budget - nodes, fro)
        if j == m - 1:
            stack.pop()
        else:
            top[2] = j + 1
        if expand:
            stack.append([mkid[s], k + 1, 0])
    if completed:
        # the walk passed every pending node above the cap: what it did not
        # expand is dead; those at the cap are the next pass's front
        front = memo.front
        for k in [k for k in front if k < depth_cap]:
            del front[k]
        if len(front.get(depth_cap, ())) > 1:
            front[depth_cap] = [tuple(map(np.concatenate, zip(*front[depth_cap])))]
    # with no new witness lower_in stands as given: scaled, it may have
    # left the double range (a block far below the one that set it)
    return (scale(lower, e1) if witness else lower_in, witness, scale(frontier_max, e1),
            frontier, completed, deepest, nodes)
