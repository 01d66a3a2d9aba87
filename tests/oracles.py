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
import os
from pathlib import Path

import numpy as np

import jsrkit


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
    """(max rho root, min norm root) over all words of length <= nmax.

    The words of each length are formed at once, each as its prefix's
    product times its last letter, in word_product's order, and measured
    with one eigvals and one svd call per length: brute_interval_by_word's
    values, bit for bit.
    """
    mats = np.asarray([np.asarray(m, dtype=complex) for m in mats])
    d = mats.shape[1]
    lo, hi = 0.0, math.inf
    prods = np.eye(d, dtype=complex)[None]
    for k in range(1, nmax + 1):
        prods = (prods[:, None] @ mats[None]).reshape(-1, d, d)
        top_rho = float(np.max(np.abs(np.linalg.eigvals(prods))))
        top_nrm = float(np.max(np.linalg.svd(prods, compute_uv=False)[:, 0]))
        lo = max(lo, top_rho ** (1.0 / k) if top_rho > 0 else 0.0)
        hi = min(hi, top_nrm ** (1.0 / k) if top_nrm > 0 else 0.0)
    return lo, hi


def brute_interval_by_word(mats, nmax: int) -> tuple[float, float]:
    """brute_interval one word at a time, the reference it is checked against."""
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
# relative shave of refine's lower-bound candidates
_EIG_SAFETY = 1e-12
# a product is a factor only while its largest real or imaginary part
# lies in [2**-_BAND, 2**_BAND)
_BAND = 248


def loop_real(gens):
    """The generators as they are measured: float64 when no entry has an
    imaginary part, complex128 otherwise."""
    if np.all(gens.imag == 0.0):
        return np.ascontiguousarray(gens.real, dtype=np.float64)
    return gens


def loop_fit(a):
    """(a, 0), or a scaled by 2**-e and e when its largest part left the band.

    The largest real or imaginary part of the scaled stack lies in [0.5, 1).
    A real a stays real.
    """
    top = float(np.max(np.abs(a.real)))
    if np.iscomplexobj(a):
        top = max(top, float(np.max(np.abs(a.imag))))
    e = math.frexp(top)[1]
    if top == 0.0 or -_BAND < e <= _BAND:
        return a, 0
    if not np.iscomplexobj(a):
        return np.ldexp(a, -e), e
    out = np.empty_like(a)
    out.real = np.ldexp(a.real, -e)
    out.imag = np.ldexp(a.imag, -e)
    return out, e


def _shifted(x, e):
    """x * 2**e for x > 0 (inf past the double range); x <= 0 as it is."""
    if x <= 0.0:
        return x
    if math.frexp(x)[1] + e > 1024:
        return math.inf
    return math.ldexp(x, e)


def _root(x, e, k):
    """(x * 2**e) ** (1/k), the power of two applied in two halves."""
    h = 2.0 ** (e / (2 * k))
    return x ** (1.0 / k) * h * h


def loop_norm(a, fro):
    """Operator 2-norm via the Gram matrix, or Frobenius norm when fro.

    A matrix whose squared norm is below the normal range is measured
    again fitted on its own.
    """
    s = _loop_square(a, fro)
    if s < 2.0**-1022:
        a, e = loop_fit(a)
        s = _loop_square(a, fro)
        return math.ldexp(math.sqrt(s), e) if s > 0.0 else 0.0
    return np.sqrt(s) if s > 0.0 else 0.0


def _loop_square(a, fro):
    if fro:
        s = 0.0
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                v = a[i, j]
                s += v.real * v.real + v.imag * v.imag if np.iscomplexobj(a) else v * v
    else:
        w = np.linalg.eigvalsh(np.conj(a.T) @ a)
        s = w[w.shape[0] - 1]
    return s


def loop_rho(a):
    """Largest eigenvalue modulus."""
    ev = np.linalg.eigvals(a)
    r = 0.0
    for i in range(ev.shape[0]):
        m = abs(ev[i])
        if m > r:
            r = m
    return r


def loop_sweep_tree(gens, nmax, want_rho, fro, every_word=False):
    """Evaluate every product of length 1..nmax in lexicographic DFS order.

    A product P * 2**e is measured as formed, and fitted before it becomes
    a factor; a set outside the band is fitted once and each letter adds
    its exponent.

    Returns per-depth maxima of the norm and (optionally) the spectral
    radius with their exponents (the maximum is best[k] * 2**exps[k]), the
    word each depth reports, and the number of evaluated words.  Index 0
    of the per-depth arrays is unused and stays at -1.

    Each side reports the lexicographically smallest word whose value v
    is within _TIE of the depth's largest value top (not top > v * (1 +
    _TIE), v read at top's exponent).  The radius side reports its own
    value, the norm side top.

    The norm is measured on every word.  rho is invariant under cyclic
    rotation, so it is measured only on words that are <= each of their
    rotations, one per necklace, unless every_word is set.
    """
    gens, e1 = loop_fit(loop_real(gens))
    m, d, _ = gens.shape
    best = {"norm": np.full(nmax + 1, -1.0), "rho": np.full(nmax + 1, -1.0)}
    exps = {"norm": [0] * (nmax + 1), "rho": [0] * (nmax + 1)}
    # a single generator's words are all zeros and are not kept
    shape = (1, 1) if m == 1 else (nmax + 1, nmax)
    words = {"norm": np.zeros(shape, np.int64), "rho": np.zeros(shape, np.int64)}

    # each side's (value, exponent, word) of every measured word, by depth,
    # in lexicographic order
    seen = {"norm": [[] for _ in range(nmax + 1)], "rho": [[] for _ in range(nmax + 1)]}

    def least_rotation(w):
        # a single generator's only word of each length is its own rotation
        return m == 1 or all(w <= w[s:] + w[:s] for s in range(1, len(w)))

    prod = np.empty((nmax + 1, d, d), gens.dtype)
    prod[0] = np.eye(d, dtype=gens.dtype)
    pexp = [0] * (nmax + 1)
    word = np.zeros(nmax, np.int64)
    nodes = 0
    depth = 1
    word[0] = 0
    while depth > 0:
        k = depth
        parent, s = loop_fit(prod[k - 1])
        prod[k] = parent @ gens[word[k - 1]]
        pexp[k] = pexp[k - 1] + s + e1
        nodes += 1
        seen["norm"][k].append((loop_norm(prod[k], fro), pexp[k], word[:k].copy()))
        if want_rho and (every_word or least_rotation(tuple(word[:k].tolist()))):
            seen["rho"][k].append((loop_rho(prod[k]), pexp[k], word[:k].copy()))
        if depth < nmax:
            depth += 1
            word[depth - 1] = 0
        else:
            while depth > 0 and word[depth - 1] == m - 1:
                depth -= 1
            if depth > 0:
                word[depth - 1] += 1
    for name in seen:
        for k in range(1, nmax + 1):
            top, te = -1.0, 0
            for x, e, _ in seen[name][k]:
                if x > _shifted(top, te - e):
                    top, te = x, e
            for x, e, w in seen[name][k]:
                if not top > _shifted(x, e - te) * (1.0 + _TIE):
                    best[name][k], exps[name][k] = (x, e) if name == "rho" else (top, te)
                    for t in range(k if m > 1 else 0):
                        words[name][k, t] = w[t]
                    break
    return (best["norm"], exps["norm"], best["rho"], exps["rho"],
            words["norm"], words["rho"], nodes)


def unimodular(rng, d):
    """(S, S^-1), exact int64 and d >= 2: S is the product of 3d
    elementary row operations, row i += c row j with c in -2..2."""
    s, inv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
    for _ in range(3 * d):
        i, j = rng.choice(d, 2, replace=False)
        c = int(rng.integers(-2, 3))
        e = np.eye(d, dtype=np.int64)
        e[i, j] = c
        s = e @ s
        e[i, j] = -c
        inv = inv @ e
    return s, inv


def integer_triangular_sets(seed, count):
    """count pairs (gens, rho) of dense integer sets with an exact rho.

    Each set is S T_k S^-1 for one S from unimodular and upper
    triangular integer T_k with a strict part in -2..2 and a diagonal in
    -3..3, so rho is the largest |diagonal entry|.  d is 2..5 and m is
    1..3; every second set has a constant diagonal in each generator,
    which makes its products defective.
    """
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        d, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        tri = np.triu(rng.integers(-2, 3, (m, d, d)), 1)
        diag = rng.integers(-3, 4, (m, 1) if t % 2 else (m, d))
        tri[:, np.arange(d), np.arange(d)] = diag
        s, inv = unimodular(rng, d)
        out.append(((s @ tri @ inv).astype(float), float(np.abs(diag).max())))
    return out


def jordan_pairs():
    """{A, A A / 2} for d = 2..5, A = S J_d S^-1 exact integer (S from
    unimodular on one default_rng(3)): a commuting defective pair whose
    JSR is exactly 1."""
    rng = np.random.default_rng(3)
    out = {}
    for d in range(2, 6):
        s, inv = unimodular(rng, d)
        a = s @ (np.eye(d, dtype=np.int64) + np.eye(d, k=1, dtype=np.int64)) @ inv
        out[d] = np.stack([a, a @ a / 2.0])
    return out


def loop_full_radii(gens, nmax):
    """The radius maxima over every word of each length 1..nmax, the
    rotations of a necklace included: (best, exps, words) of
    loop_sweep_tree with every_word set."""
    _, _, best, exps, _, words, _ = loop_sweep_tree(gens, nmax, True, False, every_word=True)
    return best, exps, words


def loop_refine_pass(gens, depth_cap, width, lower_in, budget, fro, step):
    """refine's best-first branch-and-bound, one product at a time.

    The open words are the ones measured, alive and not expanded.  Each
    step takes the step open words with the largest norm roots (the
    earlier opened first among equal roots; one word for a single
    generator) and as many as the budget left can expand, forms every
    child in the order the words were opened, raises lower on its shaved
    radius root where that beats lower by the relative _TIE, then keeps
    each child whose norm root is above lower + width: capped at
    depth_cap, else opened.  Open words at or below lower + width are
    dropped.  After each step upper falls to max(lower + width, largest
    open or capped root) where that is lower, and the search stops once
    upper - lower <= width (relative 1e-9), or upper <= lower + width,
    with no open word left, or with the budget spent.  Products are fitted
    as in loop_sweep_tree; a set outside the band is searched fitted, with
    width, lower_in and the results scaled by its exponent.

    Returns (lower, witness, upper, converged, stop, deepest, nodes):
    witness is () and lower is lower_in when no word beat lower_in, and
    nodes counts the products measured.  With no step run, upper is the
    largest generator norm, at least lower + width.
    """
    gens, e1 = loop_fit(loop_real(gens))
    m, d, _ = gens.shape
    step = 1 if m == 1 else step
    w = _shifted(width, -e1)
    lower = _shifted(lower_in, -e1)
    found, witness = False, ()
    upper, capped = math.inf, 0.0
    nodes = deepest = 0

    def lo():
        return _shifted(lower, e1) if found else lower_in

    def done():
        return upper - lo() <= width * (1.0 + 1e-9) or upper <= lo() + width

    # open words in the order opened: (norm root, product, exponent, word)
    opened = [(math.inf, np.eye(d, dtype=gens.dtype), 0, ())]
    while True:
        n = min(step, len(opened), (budget - nodes) // m)
        if not n:
            stop = "budget"
            break
        top = sorted(range(len(opened)), key=lambda i: -opened[i][0])[:n]
        batch = [opened[i] for i in sorted(top)]
        opened = [o for i, o in enumerate(opened) if i not in top]
        kids = []
        for _, prod, e, word in batch:
            parent, s = loop_fit(prod)
            for j in range(m):
                child, k = parent @ gens[j], len(word) + 1
                nodes += 1
                deepest = max(deepest, k)
                v = _root(loop_rho(child), e + s, k) * (1.0 - _EIG_SAFETY)
                if v > lower * (1.0 + _TIE):
                    lower, found, witness = v, True, word + (j,)
                kids.append((_root(loop_norm(child, fro), e + s, k), child, e + s, word + (j,)))
        thr = lower + w
        opened = [o for o in opened if not o[0] <= thr]
        for kid in kids:
            if not kid[0] <= thr:
                if len(kid[3]) == depth_cap:
                    capped = max(capped, kid[0])
                else:
                    opened.append(kid)
        top = max([capped] + [o[0] for o in opened])
        upper = min(upper, max(lo() + width, _shifted(top, e1)))
        if done():
            stop = "converged"
            break
        if not opened:
            stop = "depth_limit"
            break
    if not nodes:
        upper = max(lo() + width, _shifted(max(loop_norm(g, fro) for g in gens), e1))
    return lo(), witness, max(upper, lo()), stop == "converged", stop, deepest, nodes


def loop_lower_bound_r(gens, n):
    """(value, witness) of the best spectral-radius root over the words of
    length 1..n, one depth at a time from loop_sweep_tree's maxima: a depth
    replaces the best so far when its root beats it by the relative _TIE,
    so ties go to the shortest word.  The value is at least 0."""
    _, _, best, exps, _, words, _ = loop_sweep_tree(gens, n, True, False)
    value, wit = -1.0, (0,)
    for k in range(1, n + 1):
        v = _root(float(best[k]), exps[k], k)
        if v > value * (1.0 + _TIE):
            value = v
            wit = (0,) * k if gens.shape[0] == 1 else tuple(words[k, :k].tolist())
    return max(value, 0.0), wit


def loop_perturbation_directions(size, dim, trials, seed, fro):
    """The continuity probe's directions drawn one matrix at a time.

    Per trial and generator: a complex Gaussian z (real part drawn, then
    imaginary part), drawn again while its norm is at most 1e-8, divided
    by its norm.  Returns one (size, dim, dim) array per trial.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        dirs = np.empty((size, dim, dim), complex)
        for g in range(size):
            while True:
                z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                nrm = loop_norm(z, fro)
                if nrm > 1e-8:
                    break
            dirs[g] = z / nrm
        out.append(dirs)
    return out


# --- per-pair reference loops of the algebra layer ---------------------------

def loop_multiply(structure, u, v):
    """Coefficients of u * v, one einsum over the structure constants."""
    return np.einsum("i,j,ijk->k", u, v, structure)


def loop_structure(mats):
    """Structure constants c[i, j] = pinv(V) @ vec(b_i b_j), one pair at a time.

    V holds the row-major vectorized basis matrices as its columns.
    """
    V = np.stack([np.asarray(b).reshape(-1) for b in mats], axis=1)
    pinv = np.linalg.pinv(V)
    m = len(mats)
    c = np.empty((m, m, m), complex)
    for i in range(m):
        for j in range(m):
            c[i, j] = pinv @ (mats[i] @ mats[j]).reshape(-1)
    return c


def orth_columns(vectors, floor=0.0):
    """Left singular vectors of the column span above 1e-9 * sigma_max and floor."""
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((vectors.shape[0], 0), complex)
    rank = sum(1 for x in s if x > max(1e-9 * s[0], floor))
    return np.ascontiguousarray(u[:, :rank])


def loop_power_spans(structure, base):
    """Spans of I, I^2, ... while their dimension falls, and the products.

    Column a * nb + b of each product matrix is cur[:, a] * base[:, b],
    formed one pair at a time; spans at roundoff scale (1e-10) count as
    zero.  Returns (spans, products), one product matrix per span.
    """
    spans, products = [], []
    cur = base
    while cur.shape[1] > 0:
        if spans and cur.shape[1] >= spans[-1].shape[1]:
            break
        spans.append(cur)
        cols = [loop_multiply(structure, cur[:, a], base[:, b])
                for a in range(cur.shape[1]) for b in range(base.shape[1])]
        products.append(np.stack(cols, axis=1))
        cur = orth_columns(products[-1], floor=1e-10)
    return spans, products


def loop_ideal_columns(structure, x):
    """Columns spanning the two-sided ideal of A^1 generated by x.

    x, then for each basis element b_i: b_i x, x b_i and b_i x b_j for
    every j, each formed with unit coefficient vectors.
    """
    m = structure.shape[0]
    eye = np.eye(m)
    cols = [x]
    for i in range(m):
        cols.append(loop_multiply(structure, eye[i], x))
        cols.append(loop_multiply(structure, x, eye[i]))
        for j in range(m):
            cols.append(loop_multiply(structure, eye[i], loop_multiply(structure, x, eye[j])))
    return np.stack(cols, axis=1)


def loop_w_identity(gens):
    """(w_resid, w_pass) of the former per-pair w-identity loop.

    For every ordered pair (a, b) the seven lifts kron(q^T, p) of
    w_{ba}, l_b, w_a, r_b, r_a, w_b and l_a are built unscaled, the larger
    Frobenius residual of w_{ba} = l_b w_a r_b and w_{ba} = r_a w_b l_a is
    taken, and the largest over all pairs passes when it is at most 1e-300
    or its square root is at most 1e-5 top^2, top the largest generator
    Frobenius norm.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    eye = np.eye(gens[0].shape[0], dtype=complex)

    def lift(p, q):
        return np.kron(q.T, p)

    def resid(a, b):
        ba = b @ a
        w_ba = lift(ba, ba)
        r1 = float(np.linalg.norm(w_ba - lift(b, eye) @ lift(a, a) @ lift(eye, b)))
        r2 = float(np.linalg.norm(w_ba - lift(eye, a) @ lift(b, b) @ lift(a, eye)))
        return max(r1, r2)

    w = max(resid(a, b) for a in gens for b in gens)
    top = max(loop_norm(loop_real(g), True) for g in gens)
    return w, w <= 1e-300 or math.sqrt(w) <= 1e-5 * top * top


class FailingLapack:
    """A stand-in for numpy's LAPACK gufunc module, which the engine reads
    as jsrkit._kernels._umath_linalg, whose every eigensolver fails as
    LAPACK's does there: it sets the floating-point invalid flag and
    returns NaN."""

    def __getattr__(self, name):
        def gufunc(a, signature):
            return np.sqrt(np.full(np.shape(a)[:-1], -1.0))

        return gufunc


def cli_env() -> dict[str, str]:
    """os.environ with PYTHONPATH led by the directory that holds the
    imported jsrkit, so a `python -m jsrkit.cli` child runs the package
    under test, installed or not."""
    src = str(Path(jsrkit.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, rest] if rest else [src])}
