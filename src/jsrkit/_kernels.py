"""Enumeration kernels: product-tree sweeps and refine's branch-and-bound search.

One numpy engine batches the product tree's `matmul`, Gram-matrix
`eigvalsh` (norms) and `eigvals` (radii), each matrix through the call
it would get alone, so batched values are bit-identical to one at a time.
These are the package's only eigensolves.  They call numpy's LAPACK
gufuncs (numpy.linalg._umath_linalg) with np.linalg.eigvalsh's and
eigvals' own signatures and error state, so the values are theirs bit
for bit, without the wrappers' per-call checks, which cost more than the
eigensolves of a small batch; LAPACK's failure in one leaves the engine
as NonConvergence (_lapack).

A sweep pays an eigensolve only where it can set a record (sweep_tree).
Every word's Frobenius norm bounds its 2-norm and its radius from above;
the Gram eigvalsh runs only where that bound could beat the depth's best
2-norm.  Radius maxima r_k are taken over necklace representatives:
rho(ab) = rho(ba), so one word per class of cyclic rotations, its
lexicographically smallest, is measured, and only where its norm or
bound could beat the depth's best radius.  In exact arithmetic that is
the maximum over all words, and the smallest rotation is the necklace's
first word, so the reported rank is unchanged.  refine_pass takes the
2-norm of a child with m >= 2 generators only where its Frobenius root
could beat the lower end; the others keep that root, are cut on it and
skip eigvals, as their 2-norm roots would be (_measure).  It takes
eigvals only where the child's radius root could beat the lower end: its
norm root bounds it, and so does the square rule rho(P)^2 <= ||P^2||
(_square_bound, one matmul and sum of squares per step).  A single
generator's path blocks keep the norm bound alone: on the benchmark's
Jordan powers the square rule cut no child of the d = 2 and 3 paths, and
a check on every child cost more than it saved.

refine_pass is one best-first search: each step expands the open nodes
with the largest norm roots, at most the ones whose children fill
_BLOCK_BYTES, with one matmul and one _measure call.  On small matrices
most of an expansion's cost is Python and numpy call overhead, which a
step pays once instead of once per node.  Each node is measured once,
and only the open nodes' fitted products are held, in a pool of rows
under a heap of their roots, bounded by _STACK_BYTES.  sweep_tree grows
the tree level run by level run with nothing pruned, and a single
generator's path, in both, goes a block at a time through _path; refine
scans a block in numpy segments between the points where lower rises.

Generators are stored complex128, but a set none of whose entries has
an imaginary part is measured in float64 from end to end (_fit_set at
every entry point): its products, Gram matrices, sums of squares and
eigenvalue problems take the real BLAS/LAPACK routines, about twice as
fast as the complex ones.  Every array the engine allocates follows the
dtype of the generators, so a complex set runs the same calls as before.

Every batch of products (the children of a sweep run's first nodes or
of a search step, one _path block of a single generator's path)
carries an integer exponent e and holds its products divided by 2**e; a
run's exponent is one per product once any of its products has been
fitted.  A product becomes a factor only after _fit scales it by an
exact power of two where its own largest entry has left the band, and a
generator set outside the band is fitted once.  In-band products are
never rescaled, so at e = 0 the arithmetic is that of the unscaled
products.  A value x reads as x * 2**e, its k-th root as root(x, e, k).
Exponents travel with their products; refine_pass keeps the roots
_measure derives from them, so every test it makes compares k-th roots.
"""

import heapq
import math
import sys
from array import array
from operator import itemgetter

import numpy as np
from numpy.linalg import _umath_linalg

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
# bytes of the children formed from one run in a sweep or one step of
# refine's search; a block of a single generator's path fits its products
# and their norm temporaries in it
_BLOCK_BYTES = 64 * 2**10
# bytes that refine's search may hold between steps: its pool of products
# (the capacity), its heap entries' objects, its free rows and its parent
# links.  A search whose step leaves more stops with stop reason
# "stack_limit", so it holds at most one step's children past this
_STACK_BYTES = 64 * 2**20
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
    if not e:
        return x ** (1.0 / k)
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


def _lapack(what):
    """The errstate numpy's eigvalsh and eigvals wrappers call their LAPACK
    gufuncs under: a failed eigensolve sets the invalid flag, which here
    raises NonConvergence naming what failed, with numpy's message."""
    def failed(err, flag):
        raise NonConvergence(f"{what} failed: Eigenvalues did not converge")

    return np.errstate(call=failed, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _squares(stack, fro):
    """Per-matrix squared norm: top Gram eigenvalue or sum of squares."""
    if fro:
        sq = stack.real * stack.real
        if np.iscomplexobj(stack):
            sq += stack.imag * stack.imag
        # accumulate entries in row-major order, one at a time
        return np.cumsum(sq.reshape(stack.shape[0], -1), axis=1)[:, -1]
    gram = np.conj(stack.transpose(0, 2, 1)) @ stack
    # np.linalg.eigvalsh's own gufunc and signature, without its per-call checks
    with _lapack("norm eigensolve"):
        return _umath_linalg.eigvalsh_lo(
            gram, signature="D->d" if np.iscomplexobj(gram) else "d->d")[:, -1]


def _bound(stack):
    """Per-matrix Frobenius norm, an upper bound on the 2-norm and the
    spectral radius; inf where its square is not a normal double, since an
    underflowed sum of squares bounds nothing.  Sweeps read it in place of
    the norms they skip, and refine where its root cuts a child
    (_measure); it is no reported norm, so it does not go through norms
    and sums in numpy's own order."""
    sq = np.square(stack.view(np.float64)).reshape(stack.shape[0], -1).sum(axis=1)
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
    # np.linalg.eigvals' finite check, gufunc and signature; for a real
    # stack it returns ev.real where ev.imag is all 0, and hypot reads both
    # the same
    if not np.isfinite(stack).all():
        raise NonConvergence("eigenvalue iteration failed: Array must not contain infs or NaNs")
    with _lapack("eigenvalue iteration"):
        ev = _umath_linalg.eigvals(stack, signature="D->D" if np.iscomplexobj(stack) else "d->D")
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
        for row in block[t0:stop]:
            prod = np.dot(prod, g, row)
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

    The tree grows level run by level run, with nothing pruned: a stack of
    runs of fitted products of one length, deepest last.  A run's first
    nodes (one for a depth's first run, else as many as fill _BLOCK_BYTES
    with their children) are split off,
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




def _measure(kids, lengths, exps, lower, fro, square):
    """(nroot, cand) for the products in kids, of length lengths[i] and read
    times 2**exps[i]: the one place a node's roots are derived.  nroot
    holds each ||P||^(1/k), cand its rho(P)^(1/k) shaved by _EIG_SAFETY, or
    -1 where eigvals was skipped.  One batched norms call measures them,
    one batched radii call those whose radius root can beat lower.

    Where square is set, in the 2-norm and from lower > 0, each child first
    takes its Frobenius norm (_bound), and only children whose Frobenius
    root times 1 + _SKIP_SLACK exceeds lower take the Gram eigvalsh; the
    rest keep the Frobenius root.  Their 2-norm roots are at most that, so
    they are cut and skip eigvals either way, and nothing reported moves.

    A child's radius root is at most its norm root and, where square is
    set, at most the root of its _square_bound; eigvals is skipped where
    either, times 1 + _SKIP_SLACK, is at most lower, so a skipped child
    could not have raised lower.  Only children that pass the norm test
    take the square bound, in one batch; a single generator's path blocks
    keep the norm test alone."""
    n = kids.shape[0]
    pre = square and not fro and lower > 0.0
    nrm = (_bound(kids) if pre else norms(kids, fro)).tolist()
    nroot = [root(x, e, k) for x, e, k in zip(nrm, exps, lengths)]
    want = [i for i, r in enumerate(nroot)
            if not (lower > 0.0 and r * (1.0 + _SKIP_SLACK) <= lower)]
    if pre and want:
        for i, x in zip(want, norms(kids if len(want) == n else kids[want], False).tolist()):
            nrm[i], nroot[i] = x, root(x, exps[i], lengths[i])
        want = [i for i in want if not nroot[i] * (1.0 + _SKIP_SLACK) <= lower]
    if square and lower > 0.0 and want:
        sub = kids if len(want) == n else kids[want]
        bound = _square_bound(sub, [nrm[i] for i in want])
        want = [i for i, b in zip(want, bound)
                if not root(b, exps[i], lengths[i]) * (1.0 + _SKIP_SLACK) <= lower]
    cand = [-1.0] * n
    if want:
        for i, r in zip(want, radii(kids[want]).tolist()):
            cand[i] = root(r, exps[i], lengths[i]) * (1.0 - _EIG_SAFETY)
    return np.array(nroot), cand


def _word(up, s, m):
    """The word of the node in slot s: a slot is its parent's index times m
    plus its last letter, and up[i] is the slot of the i-th expanded node
    (-1 for the root)."""
    word = []
    while s >= 0:
        s, j = divmod(s, m)
        word.append(j)
        s = up[s]
    return tuple(reversed(word))


def refine_pass(gens, depth_cap, width, lower_in, budget, fro):
    """Gripenberg's branch-and-bound over the product tree, best first.

    The open nodes are the products measured, alive and not yet expanded.
    A product P of length k is cut when ||P||^(1/k) <= thr = lower + width,
    read from its stored norm root; thr only grows.  A node alive at
    depth_cap is capped: never expanded, it keeps its root.  Each step
    takes the open nodes with the largest roots, at most step =
    _BLOCK_BYTES // (16 m d**2) of them and as many as the budget left
    holds, expands them in the order they were opened with one matmul,
    measures their children (_measure), raises lower on the children's
    candidate roots in that order, and opens the children it does not cut
    or cap.  Open nodes that the new thr cuts are dropped then, so no node
    at or below thr is expanded.

    The cut, open and capped nodes at that point form a prefix-complete
    set of words whose cut roots are at most thr, so max(lower + width,
    top open root, top capped root) bounds rho from above.  upper is the
    smallest such bound over the steps, and the search stops at the first
    step after which upper - lower <= width (as read in refine), when no
    open node is left, when the budget cannot expand one more node, or
    when the open set holds more than _STACK_BYTES.

    A single generator's tree is a path whose one open node is its last,
    so a step is one node: the path goes a _path block at a time, its
    block measured in one _measure call with no square bound, and is
    scanned in numpy segments between the records of lower (_records) up
    to its first cut or its first converged node.

    A set outside the band is searched fitted, with width, lower_in and
    the results scaled by its exponent.  Returns (lower, witness, upper,
    converged, stop, deepest, nodes, held).  witness is the word of
    lower's last record as a tuple, () when no word beat lower_in (lower
    is then lower_in as given).  stop is "converged", "budget",
    "depth_limit" (no open node left and capped nodes above the width) or
    "stack_limit".  deepest is the longest word the search reached,
    and nodes counts the products it measured (past a single generator's
    cut, too), at most budget.  held is the most bytes counted against
    _STACK_BYTES after a step.  With no budget for one step, upper is the
    largest generator norm, at least lower + width.
    """
    gens, e1 = _fit_set(gens)
    m, d, _ = gens.shape
    w = scale(width, -e1)
    lower = scale(lower_in, -e1)  # both may underflow when the set is far above them
    found = False  # whether some word has beaten lower_in
    upper = math.inf
    nodes = deepest = held = 0
    witness, stop = (), None

    # upper and the convergence test read lower as refine reports it
    def bound(top):
        lo = scale(lower, e1) if found else lower_in
        return max(lo + width, scale(top, e1))

    def done(u):
        lo = scale(lower, e1) if found else lower_in
        return u - lo <= width * (1.0 + 1e-9) or u <= lo + width

    if m == 1:
        prod, e, k = np.eye(d, dtype=gens.dtype), 0, 0
        size = max(1, _BLOCK_BYTES // (3 * 16 * d * d))
        held = prod.nbytes
        while stop is None:
            # a block ends by the next of depths 1..8, 16, 32, ...: a path
            # cut at depth c has measured fewer than 2 c products
            n = min(size, depth_cap - k, budget - nodes, 1 if k < 8 else (1 << k.bit_length()) - k)
            if not n:
                stop = "depth_limit" if k == depth_cap else "budget"
                break
            block, exps, prod, e = _path(gens[0], prod, e, n)
            nroot, cand = _measure(block, range(k + 1, k + n + 1), exps, lower, fro, False)
            nodes += n
            i = 0
            # segment i..j-1 is scanned under one lower; node j is its next record
            for j, x in [*_records(np.asarray(cand), lower), (n, None)]:
                cut = np.flatnonzero(nroot[i:j] <= lower + w)
                c = int(cut[0]) if cut.size else j - i  # the nodes open in turn
                if c:
                    u = min(upper, bound(float(nroot[i:i + c].min())))
                    if done(u):  # the search converged at one of them: the first
                        for t, r in enumerate(nroot[i:i + c].tolist()):
                            upper = min(upper, bound(r))
                            if done(upper):
                                break
                        deepest, stop = k + i + t + 1, "converged"
                        break
                    upper = u
                if cut.size:  # no node is left open
                    upper = min(upper, bound(0.0))
                    deepest, stop = k + i + c + 1, "converged"
                    break
                if x is None:
                    break
                i, lower, found = j, float(x), True
                witness = (0,) * (k + j + 1)
            if stop is None:
                deepest = k = k + n
    else:
        step = max(1, _BLOCK_BYTES // (16 * m * d * d))  # nodes whose children fill a call
        # the open set is a heap of (-norm root, slot, row, exponent, length),
        # its fitted products the rows of pool (free lists the unused ones);
        # slots grow in the order nodes are opened, so equal roots pop in
        # that order.  up holds the slot of every expanded node, in the order
        # expanded, and the root is slot -1.  pool grows in place (no view of
        # it is kept) by as many rows as the bound leaves room for, at least
        # the ones a step needs
        pool = np.empty((1, d, d), gens.dtype)
        pool[0] = np.eye(d)
        heap, free, up = [(-math.inf, -1, 0, 0, 0)], [], array("q")
        # a heap entry's tuple, float and four ints, a free row's int
        big = sys.getsizeof(2**40)
        entry = sys.getsizeof(heap[0]) + sys.getsizeof(0.5) + 4 * big
        per_row = pool[0].nbytes + entry + 16  # an open row with its list slots

        def held_now():  # the bytes of the pool, the open set, the free rows and up
            return (pool.nbytes + entry * len(heap) + big * len(free) + sys.getsizeof(heap)
                    + sys.getsizeof(free) + sys.getsizeof(up))

        capped, wslot = 0.0, -1
        while stop is None:
            n = min(step, (budget - nodes) // m)
            if not n:
                stop = "budget"
                break
            batch = [heapq.heappop(heap) for _ in range(min(n, len(heap)))]
            batch.sort(key=itemgetter(1))
            first = len(up) * m  # the slot of the batch's first child
            up.extend([b[1] for b in batch])
            rows = [b[2] for b in batch]
            free += rows
            kids = np.matmul(pool[rows][:, None], gens[None]).reshape(-1, d, d)
            kexps = [b[3] for b in batch for _ in range(m)]
            klens = [b[4] + 1 for b in batch for _ in range(m)]
            nroot, cand = _measure(kids, klens, kexps, lower, fro, True)
            nodes += kids.shape[0]
            deepest = max(deepest, max(klens))
            recs = _records(np.asarray(cand), lower)
            thr = lower + w
            if recs:
                j, x = recs[-1]
                lower, found, wslot = float(x), True, first + j
                thr = lower + w
                live = [h for h in heap if -h[0] > thr]
                if len(live) < len(heap):  # drop the open nodes the rise cuts
                    free += [h[2] for h in heap if -h[0] <= thr]
                    heap = live
                    heapq.heapify(heap)
            alive = np.flatnonzero(~(nroot <= thr)).tolist()
            grow = [i for i in alive if klens[i] < depth_cap]
            for i in alive:
                if klens[i] == depth_cap:
                    capped = max(capped, float(nroot[i]))
            if grow:
                fitted, shift = _fit_rows(kids[grow])
                if len(free) < len(grow):
                    n0 = pool.shape[0]
                    room = n0 + (_STACK_BYTES - held_now()) // per_row
                    n1 = max(n0 + len(grow) - len(free), min(2 * n0 + len(grow), room))
                    pool.resize((n1, d, d), refcheck=False)
                    free += range(n0, n1)
                rows = [free.pop() for _ in grow]
                pool[rows] = fitted
                shift = shift.tolist() if isinstance(shift, np.ndarray) else [0] * len(grow)
                for i, row, s in zip(grow, rows, shift):
                    heapq.heappush(heap, (-float(nroot[i]), first + i, row, kexps[i] + s,
                                          klens[i]))
            nbytes = held_now()
            held = max(held, nbytes)
            upper = min(upper, bound(max(capped, -heap[0][0] if heap else 0.0)))
            if done(upper):
                stop = "converged"
            elif not heap:
                stop = "depth_limit"
            elif nbytes > _STACK_BYTES:
                stop = "stack_limit"
        if found:
            witness = _word(up, wslot, m)
    lo = scale(lower, e1) if found else lower_in
    if not nodes:
        upper = max(lo + width, scale(float(norms(gens, fro).max()), e1))
    return lo, witness, max(upper, lo), stop == "converged", stop, deepest, nodes, held
