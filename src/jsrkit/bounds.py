"""Certified two-sided bounds for the joint spectral radius.

The sandwich being exploited: for every depth n,

    max_{|w|<=n} rho(P_w)^(1/|w|)  <=  rho(M)  <=  min_{k<=n} max_{|w|=k} ||P_w||^(1/k)

with the left side converging from below and the right side from above.
refine() tightens both sides with a branch-and-bound that cuts a branch
at a product P of length k as soon as ||P|| <= (lower + width)^k: any
longer word factors into cut pieces and frontier pieces, so the surviving
frontier (plus the threshold itself) still bounds rho(M) from above.

The sandwich holds for any submultiplicative norm.  ||.|| is the operator
2-norm, or the Frobenius norm when a bound is called with frobenius=True.

If a permutation makes every generator block upper-triangular, rho(M) is
the largest rho of the diagonal blocks (Jungers, "The Joint Spectral
Radius", 2009, section 1.2): the finite-dimensional form of splitting
rho over an invariant subspace and its quotient.  refine() finds these
blocks exactly, from the zero pattern of the generators, and runs its
branch-and-bound on each block in turn.
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernels, config
from ._kernels import Memo, refine_pass
from .matrices import op_norm
from .sets import MatrixSet, Word, _sweep, _word_at, evaluate, tree_size

# product-stack memory allowed per branch-and-bound pass (one parent
# product per open depth); refine also drops its memo of earlier passes
# once the memo outgrows it
_STACK_BYTES = 64 * 2**20


def _as_dict(value):
    """The JSON-ready dict of a report record, fields in declaration order.

    The passed field is written as "pass", nested records become dicts
    and tuples become lists; other values are kept as they are.
    """
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    elif hasattr(value, "_asdict"):
        fields = value._asdict()
    elif isinstance(value, tuple):
        return [_as_dict(v) for v in value]
    else:
        return value
    return {"pass" if k == "passed" else k: _as_dict(v) for k, v in fields.items()}


class LowerBound(NamedTuple):
    value: float
    witness: Word


class ContinuityRow(NamedTuple):
    eps: float
    max_dev: float
    complete: bool


@dataclass(frozen=True)
class BoundsReport:
    """Certified interval [lower, upper] for rho(M).

    lower_witness is a word whose product's spectral radius root attains
    lower; converged means upper - lower came within the requested width.
    blocks holds the sizes of the diagonal blocks of the set's exact
    block-triangular form, in the order refine ran them (largest
    generator norm first, ties to the block with the smaller smallest
    index): (dim,) when the set is irreducible.
    """

    lower: float
    upper: float
    lower_witness: Word
    depth_used: int
    nodes_explored: int
    converged: bool
    blocks: tuple[int, ...]

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("invalid report: lower > upper")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    to_dict = _as_dict


@dataclass(frozen=True)
class BergerWangReport:
    """Spectral-radius lower data vs norm upper data for one set."""

    r_lower: float
    rho_upper: float
    gap: float
    passed: bool
    depth_reached: int
    words_evaluated: int

    to_dict = _as_dict


def _root(x: float, k: int) -> float:
    if x <= 0.0:
        return 0.0
    return x ** (1.0 / k)


def _profile(best, op, start):
    """Running op (max or min) of the roots best[k]^(1/k), k = 1..len(best)-1."""
    out = np.empty(len(best) - 1)
    acc = start
    for k in range(1, len(best)):
        acc = op(acc, _root(float(best[k]), k))
        out[k - 1] = acc
    return out


def lower_bound_r(M: MatrixSet, n: int, *, budget: int = config.MAX_WORDS) -> LowerBound:
    """Best spectral-radius root over all words of length <= n.

    Ties (within 1e-12 relative) resolve to the shortest word, then the
    lexicographically smallest.
    """
    [(best_rho, rho_ranks)] = _sweep(M, n, (_kernels.radii,), budget)
    best = -1.0
    wit: Word = (0,)
    for k in range(1, n + 1):
        v = _root(float(best_rho[k]), k)
        if v > best * (1.0 + 1e-12):
            best = v
            wit = _word_at(rho_ranks, k, M.size)
    return LowerBound(max(best, 0.0), wit)


def upper_bound(M: MatrixSet, n: int, *, budget: int = config.MAX_WORDS,
                frobenius: bool = False) -> float:
    """Best norm root min_{k<=n} (max_{|w|=k} ||P_w||)^(1/k)."""
    [(best_norm, _)] = _sweep(M, n, (partial(_kernels.norms, fro=frobenius),), budget)
    return min(_root(float(best_norm[k]), k) for k in range(1, n + 1))


def sandwich_profiles(M: MatrixSet, n: int, *, budget: int = config.MAX_WORDS,
                      frobenius: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (lower, upper) sandwich values for every depth 1..n.

    Returns arrays (r, beta) of length n where r[k-1] = lower_bound_r(M, k)
    value and beta[k-1] = upper_bound(M, k), from a single sweep.
    """
    [(best_norm, _), (best_rho, _)] = _sweep(
        M, n, (partial(_kernels.norms, fro=frobenius), _kernels.radii), budget)
    return _profile(best_rho, max, 0.0), _profile(best_norm, min, math.inf)


def _lower_profile(M: MatrixSet, n: int, budget: int) -> np.ndarray:
    """The r array of sandwich_profiles alone, from a radius-only sweep."""
    [(best_rho, _)] = _sweep(M, n, (_kernels.radii,), budget)
    return _profile(best_rho, max, 0.0)


def _pass_depth_limit(dim: int, size: int, max_depth: int) -> int:
    if size == 1:
        # singleton trees are paths: the kernel drops each depth as it
        # enters its only child and holds one block of the path at a time
        return max_depth
    per_level = 16 * dim * dim
    return min(max_depth, max(2, _STACK_BYTES // per_level))


def _blocks(gens: np.ndarray) -> list[np.ndarray]:
    """Index sets of the diagonal blocks of the set's exact block-triangular form.

    They are the classes of mutual reachability in the union sparsity
    graph (i -> j when some gens[k, i, j] != 0), read from its reflexive
    transitive closure; squaring the 0/1 reachability matrix is exact in
    floating point, since a path count is at most d.  Blocks are in
    increasing index order and listed by their smallest index.  A class
    of one vertex without a self-loop is a 1 x 1 block that is zero in
    every generator, with rho 0, and is left out.  When every class is
    one, the set is nilpotent and stays one block.
    """
    adj = np.any(gens != 0, axis=0)
    d = adj.shape[0]
    reach = adj | np.eye(d, dtype=bool)
    while True:
        # complex, like every product the engine forms: a float64 product
        # would load a second BLAS kernel and raise peak memory
        closer = (reach @ reach.astype(complex)).real > 0
        if (closer == reach).all():
            break
        reach = closer
    # a vertex's class is named by its smallest member
    first = (reach & reach.T).argmax(axis=1)
    blocks = [np.flatnonzero(first == v) for v in np.flatnonzero(first == np.arange(d))]
    blocks = [b for b in blocks if len(b) > 1 or adj[b[0], b[0]]]
    return blocks or [np.arange(d)]


def _deepen(gens: np.ndarray, width: float, budget: int, lower_in: float,
            max_depth: int, frobenius: bool):
    """refine's deepening passes over one set, from the lower end lower_in.

    Returns (lower, witness, upper, nodes, depth_used, converged); the
    witness is None when no word beat lower_in.  With no budget no pass
    runs, and the upper end comes from the generator norms.
    """
    depth_limit = _pass_depth_limit(gens.shape[1], gens.shape[0], max_depth)
    lower = lower_in
    wit = None
    upper = math.inf
    nodes_total = 0
    deepest = 0
    converged = False
    depth_cap = 0
    target = 1
    memo = Memo()
    while nodes_total < budget:
        new_cap = min(target, depth_limit)
        if new_cap <= depth_cap:
            break  # cannot deepen any further
        depth_cap = new_cap
        (plower, wlen, wword, fmax, saw_frontier, completed, nodes,
         deep) = refine_pass(gens, depth_cap, width, lower,
                             budget - nodes_total, frobenius, memo)
        nodes_total += int(nodes)
        deepest = max(deepest, int(deep))
        if plower > lower:
            lower = float(plower)
            if wlen > 0:
                wit = tuple(int(x) for x in wword[:wlen])
        if completed:
            cand = lower + width
            if saw_frontier:
                cand = max(cand, float(fmax))
            upper = min(upper, cand)
        converged = (upper - lower) <= width * (1.0 + 1e-9)
        if converged or not completed:
            break
        target = target + 1 if target < 8 else target * 2
        if memo.nbytes > _STACK_BYTES:
            memo = Memo()

    if not math.isfinite(upper):
        upper = max(lower + width, float(_kernels.norms(gens, frobenius).max()))
    return lower, wit, max(upper, lower), nodes_total, deepest, converged


@np.errstate(over="ignore", invalid="ignore")
def refine(M: MatrixSet, width: float, budget: int = 10**6, *,
           max_depth: int = 4096, frobenius: bool = False) -> BoundsReport:
    """Branch-and-bound interval for rho(M), aiming at the given width.

    The set is first split exactly into the diagonal blocks of its
    block-triangular form (see _blocks): rho(M) is the largest rho of the
    blocks, and a set whose indices all reach each other is one block.
    Blocks run in descending order of their largest generator norm, ties
    in the order of their smallest index, each starting from the best
    lower end so far, so a dominated block is cut at depth 1.  The budget
    is shared: each block gets what the blocks before it left.  Nodes are
    summed, depth_used is the deepest block's, upper is the largest block
    upper, and the run has converged only when every block has.  blocks
    lists the block sizes in the order they ran.

    Each block runs depth-capped passes (depths 1..8, then doubling, to
    at most max_depth, which must be >= 1), each a full lexicographic
    DFS with Gripenberg pruning against the current lower bound.  The
    passes share one memo, so a node an earlier pass expanded is replayed
    from its stored norms and radii instead of measured again; the memo
    is dropped between passes once it outgrows _STACK_BYTES.  The budget
    counts every visited word, including replays across passes, so
    reports are deterministic.  On budget exhaustion the best certified
    interval so far is returned with converged=False (at least one
    depth-1 sweep always runs); a block left with no certified upper end,
    or with no budget at all, takes its largest generator norm (at least
    lower + width) as its upper end.

    A witness is a word over the original generators, and its product's
    spectrum holds every block's.  With more than one block it is
    measured again on the whole set, and lower rises to that root when it
    is higher, so the witness attains lower.

    Lower-bound candidates are shaved by a relative 1e-12 margin before
    entering the bound (and the pruning threshold), so eigenvalue-solver
    noise cannot push the certificate above the true spectral radius of
    the witness product; on convergence upper - lower <= width holds
    exactly.  Widths below about 1e-12 times rho sit under that margin
    and typically exhaust the budget instead of converging (except at
    rho = 0, where certification is exact).  Overflowed products are
    measured as inf or NaN by design, so numpy's overflow and
    invalid-value warnings are silenced for the whole call.
    """
    if not (width > 0.0):
        raise ValueError("width must be positive")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    budget = max(int(budget), M.size)
    parts = [np.ascontiguousarray(M.gens[:, b[:, None], b]) for b in _blocks(M.gens)]
    if len(parts) > 1:
        # the block with the largest norm is the likeliest to hold rho(M)
        parts.sort(key=lambda g: _kernels.norms(g, frobenius).max(), reverse=True)

    lower = 0.0
    wit: Word = (0,)
    upper = 0.0
    nodes = 0
    deepest = 0
    converged = True
    for gens in parts:
        lower, bwit, bupper, bnodes, bdeep, bconv = _deepen(
            gens, width, budget - nodes, lower, max_depth, frobenius)
        wit = bwit or wit
        upper = max(upper, bupper)
        nodes += bnodes
        deepest = max(deepest, bdeep)
        converged = converged and bconv
    if len(parts) > 1:
        # one block measured the witness on itself alone, not on the others
        rho = float(_kernels.radii(evaluate(M, wit)[None])[0])
        v = _root(rho, len(wit)) * (1.0 - _kernels._EIG_SAFETY)
        if math.isfinite(v) and v > lower:
            lower = v
    return BoundsReport(lower=lower, upper=max(upper, lower), lower_witness=wit,
                        depth_used=deepest, nodes_explored=nodes,
                        converged=converged,
                        blocks=tuple(g.shape[1] for g in parts))


def verify_berger_wang(M: MatrixSet, tol: float, budget: int = 10**6, *,
                       frobenius: bool = False) -> BergerWangReport:
    """Drive the sandwich until the two sides agree within tol.

    Sweeps at doubling depths; every evaluated word (including
    re-evaluations at the shallower depths of later sweeps) counts against
    the budget.  pass=False with the diagnostics retained when the budget
    runs out first, and when the norm side ends below the radius side by
    more than a relative 1e-12: the two sides bound the same rho, so they
    can only cross once deep products underflow, and a crossing proves
    nothing.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    r_best = 0.0
    b_best = math.inf
    depth_reached = 0
    nodes_used = 0
    n = 1
    while True:
        cost = tree_size(M.size, n)
        if nodes_used + cost > budget:
            break
        r, beta = sandwich_profiles(M, n, budget=cost, frobenius=frobenius)
        nodes_used += cost
        r_best, b_best = float(r[-1]), float(beta[-1])
        depth_reached = n
        if b_best - r_best <= tol:
            break
        n *= 2
    gap = b_best - r_best
    crossed = b_best < r_best * (1.0 - 1e-12)
    return BergerWangReport(r_lower=r_best, rho_upper=b_best,
                            gap=gap, passed=gap <= tol and not crossed,
                            depth_reached=depth_reached,
                            words_evaluated=nodes_used)


def interval_distance(i1: Sequence[float], i2: Sequence[float]) -> float:
    """Distance between closed intervals (0 when they intersect)."""
    return max(0.0, i2[0] - i1[1], i1[0] - i2[1])


def perturbation_directions(M: MatrixSet, trials: int, seed: int, *,
                            frobenius: bool = False) -> list[np.ndarray]:
    """Per-trial unit-norm complex Gaussian directions.

    One (size, dim, dim) array per trial, drawn once from the seed; the
    continuity probe reuses the same directions for every eps so that
    deviations scale with eps.
    """
    rng = np.random.default_rng(seed)
    d = M.dim
    out = []
    for _ in range(trials):
        dirs = np.empty((M.size, d, d), np.complex128)
        for g in range(M.size):
            while True:
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                nrm = op_norm(z, frobenius=frobenius)
                if nrm > 1e-8:
                    break
            dirs[g] = z / nrm
        out.append(dirs)
    return out


def _eps_schedule(values: Iterable[float]) -> list[float]:
    """The values as floats; ValueError unless nonempty, finite, >= 0, nonincreasing."""
    eps_list = [float(e) for e in values]
    if not eps_list:
        raise ValueError("eps_schedule must be nonempty")
    for i, e in enumerate(eps_list):
        if e < 0.0 or not math.isfinite(e):
            raise ValueError("eps values must be finite and >= 0")
        if i > 0 and e > eps_list[i - 1]:
            raise ValueError("eps_schedule must be nonincreasing")
    return eps_list


def continuity_probe(M: MatrixSet, eps_schedule: Sequence[float], trials: int,
                     seed: int, *, budget: int = 50_000,
                     base_width: float | None = None,
                     frobenius: bool = False) -> list[ContinuityRow]:
    """Interval deviation of rho under random perturbations of each size.

    For each eps, each generator of each trial copy is shifted by eps
    times a fixed unit-norm direction, both sets are boxed by refine, and
    max_dev records the largest interval-to-interval distance over the
    trials.  A row is marked incomplete when any refine in it (or the base
    run) hit the budget before converging; its deviations are still valid
    bounds.
    """
    eps_list = _eps_schedule(eps_schedule)
    if trials < 1:
        raise ValueError("trials must be >= 1")

    dirs = perturbation_directions(M, trials, seed, frobenius=frobenius)
    positive = [e for e in eps_list if e > 0]
    wbase = base_width if base_width is not None else (
        max(min(positive) / 4.0, 1e-9) if positive else 1e-6)
    base = refine(M, wbase, budget, frobenius=frobenius)
    rows = []
    for e in eps_list:
        w = max(e / 4.0, 1e-9)
        mx = 0.0
        complete = base.converged
        for t in range(trials):
            gens = np.ascontiguousarray(M.gens + e * dirs[t])
            rep = refine(MatrixSet(gens), w, budget, frobenius=frobenius)
            complete = complete and rep.converged
            mx = max(mx, interval_distance(base.interval, rep.interval))
        rows.append(ContinuityRow(e, mx, complete))
    return rows
