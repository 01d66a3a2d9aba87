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
from ._kernels import refine_pass
from .sets import MatrixSet, Word, _sweep, tree_size

_MAX_DEPTH = 4096  # longest word refine expands to


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
    index): (dim,) when the set is irreducible.  stop_reason says why the
    search ended: "converged", or for the first block that did not
    converge "budget", "depth_limit" (only words of _MAX_DEPTH letters
    were left open) or "stack_limit" (the open set outgrew
    _kernels._STACK_BYTES).
    """

    lower: float
    upper: float
    lower_witness: Word
    depth_used: int
    nodes_explored: int
    converged: bool
    blocks: tuple[int, ...]
    stop_reason: str

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


def lower_bound_r(M: MatrixSet, n: int, *, budget: int = config.MAX_WORDS) -> LowerBound:
    """Best spectral-radius root over all words of length <= n.

    rho is invariant under cyclic rotation, so the sweep measures one word
    per necklace, the smallest of its rotations, and only where its
    Frobenius norm could come within 1e-12 relative of its depth's largest
    radius, which the powers of the generator of the largest radius seed:
    the maximum over these equals the maximum over all words in exact
    arithmetic.  Ties within 1e-12 relative go to the shortest word (a
    depth replaces a shorter one only where its root beats it by that,
    _kernels._records), then to the lexicographically smallest word of
    its depth within 1e-12 of the depth's largest radius (_kernels._enter).
    """
    _, radii = _sweep(M, n, budget, rho=True)
    i, best = _kernels._records(np.asarray(radii.root), -1.0)[-1]
    return LowerBound(max(float(best), 0.0), radii.word(i + 1))


def upper_bound(M: MatrixSet, n: int, *, budget: int = config.MAX_WORDS,
                frobenius: bool = False) -> float:
    """Best norm root min_{k<=n} (max_{|w|=k} ||P_w||)^(1/k)."""
    norms, _ = _sweep(M, n, budget, fro=frobenius)
    return min(norms.root)


def sandwich_profiles(M: MatrixSet, n: int, *, budget: int = config.MAX_WORDS,
                      frobenius: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (lower, upper) sandwich values for every depth 1..n.

    Returns arrays (r, beta) of length n, from a single sweep.  r[k-1] is
    the running maximum of the radius roots of depths 1..k: at least
    lower_bound_r(M, k).value, and above it by less than 1e-12 relative,
    since lower_bound_r keeps a shorter depth unless a deeper one beats it
    by that.  beta[k-1] = upper_bound(M, k).  Each
    eigensolve runs only where its value could come within 1e-12 of its
    depth's largest value on its side (_kernels.sweep_tree): 2-norms on
    words whose Frobenius bound could, radii on necklace representatives
    (as in lower_bound_r) whose norm or bound could, seeded by the powers
    of the generator of the largest radius.  Each depth's norm and radius
    words are chosen by one rule, the smallest word within 1e-12 of the
    depth's largest value, and beta reads each depth's largest norm
    (sets.Peaks).
    """
    norms, radii = _sweep(M, n, budget, fro=frobenius, rho=True)
    return np.maximum.accumulate(radii.root), np.minimum.accumulate(norms.root)


def _lower_profile(M: MatrixSet, n: int, budget: int) -> np.ndarray:
    """The r array of sandwich_profiles alone, from a radius-only sweep."""
    _, radii = _sweep(M, n, budget, rho=True)
    return np.maximum.accumulate(radii.root)


def _blocks(gens: np.ndarray) -> list[np.ndarray]:
    """Index sets of the diagonal blocks of the set's exact block-triangular form.

    They are the classes of mutual reachability in the union sparsity
    graph (i -> j when some gens[k, i, j] != 0), read from its reflexive
    transitive closure, by squaring the boolean reachability matrix.
    Blocks are in increasing index order and listed by their smallest
    index.  A class of one vertex without a self-loop is a 1 x 1 block
    that is zero in every generator, with rho 0, and is left out.  When
    every class is one, the set is nilpotent and stays one block.
    """
    adj = np.any(gens != 0, axis=0)
    d = adj.shape[0]
    reach = adj | np.eye(d, dtype=bool)
    while True:
        # a boolean product is exact and calls no BLAS kernel
        closer = reach @ reach
        if (closer == reach).all():
            break
        reach = closer
    # a vertex's class is named by its smallest member
    first = (reach & reach.T).argmax(axis=1)
    blocks = [np.flatnonzero(first == v) for v in np.flatnonzero(first == np.arange(d))]
    blocks = [b for b in blocks if len(b) > 1 or adj[b[0], b[0]]]
    return blocks or [np.arange(d)]


def refine(M: MatrixSet, width: float, budget: int = 10**6, *,
           frobenius: bool = False) -> BoundsReport:
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

    Each block runs one best-first branch-and-bound (_kernels.refine_pass,
    Gripenberg's, expanding the open words with the largest norm roots
    first) on words of at most _MAX_DEPTH = 4096 letters, with pruning
    against the current lower bound, until its interval is within width.
    The budget counts the products measured, and nodes_explored reports
    that count.  On budget exhaustion the best certified interval so far
    is returned with converged=False (at least the depth-1 words are
    always measured); a block left with no budget at all takes its
    largest generator norm (at least lower + width) as its upper end.
    stop_reason says why the run stopped.

    A witness is a word over the original generators, and its product's
    spectrum holds every block's.  With more than one block it is
    measured again on the whole set, and lower rises to that root when it
    is higher, so the witness attains lower.

    Lower-bound candidates are shaved by a relative 1e-12 margin before
    entering the bound (and the pruning threshold), so eigenvalue-solver
    noise cannot push the certificate above the true spectral radius of
    the witness product.  On convergence upper <= lower + width as that
    sum rounds, or upper - lower <= width to a relative 1e-9.  Widths
    below about 1e-12 times rho sit under that margin and typically
    exhaust the budget instead of converging (except at rho = 0, where
    certification is exact).
    """
    _positive_finite(width, "width")
    budget = max(int(budget), M.size)
    parts = [np.ascontiguousarray(M.gens[:, b[:, None], b]) for b in _blocks(M.gens)]
    if len(parts) > 1:
        # the block with the largest norm is the likeliest to hold rho(M)
        parts.sort(key=partial(_kernels.peak, partial(_kernels.norms, fro=frobenius)),
                   reverse=True)

    lower = 0.0
    wit: Word = (0,)
    upper = 0.0
    nodes = 0
    deepest = 0
    stop = "converged"
    for gens in parts:
        blower, bwit, bupper, _, bstop, bdeep, bnodes, _ = refine_pass(
            gens, _MAX_DEPTH, width, lower, budget - nodes, frobenius)
        lower = max(lower, blower)
        wit = bwit or wit
        upper = max(upper, bupper)
        nodes += bnodes
        deepest = max(deepest, bdeep)
        if stop == "converged":
            stop = bstop
    if len(parts) > 1:
        # one block measured the witness on itself alone, not on the others
        lower = max(lower, _kernels.witness_root(M.gens, wit))
    return BoundsReport(lower=lower, upper=max(upper, lower), lower_witness=wit,
                        depth_used=deepest, nodes_explored=nodes,
                        converged=stop == "converged",
                        blocks=tuple(g.shape[1] for g in parts), stop_reason=stop)


def verify_berger_wang(M: MatrixSet, tol: float, budget: int = 10**6, *,
                       frobenius: bool = False) -> BergerWangReport:
    """Drive the sandwich until the two sides agree within tol.

    Sweeps at doubling depths; every evaluated word (including
    re-evaluations at the shallower depths of later sweeps) counts against
    the budget, which is raised to M.size so that at least the depth-1
    sweep always runs.  pass=False with the diagnostics retained when the
    budget runs out first, and when the norm side ends below the radius
    side by more than a relative 1e-12: the two sides bound the same rho,
    so a crossing means the sweep's arithmetic failed, and proves nothing.
    """
    _positive_finite(tol, "tol")
    budget = max(int(budget), M.size)
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

    One (size, dim, dim) array per trial, drawn once from the seed (per
    trial and generator, the real part, then the imaginary part); the
    continuity probe reuses the same directions for every eps so that
    deviations scale with eps.
    """
    d = M.dim
    z = np.random.default_rng(seed).standard_normal((trials, M.size, 2, d, d))
    z = z[:, :, 0] + 1j * z[:, :, 1]
    nrm = _kernels.norms(z.reshape(-1, d, d), frobenius)
    return list(z / nrm.reshape(trials, M.size, 1, 1))


def _positive_finite(value: float, name: str) -> float:
    """value itself; ValueError unless it is positive and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")
    return value


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
                     frobenius: bool = False) -> list[ContinuityRow]:
    """Interval deviation of rho under random perturbations of each size.

    For each eps, each generator of each trial copy is shifted by eps
    times a fixed unit-norm direction, both sets are boxed by refine, and
    max_dev records the largest interval-to-interval distance over the
    trials.  The base set is boxed at width min positive eps / 4 (at
    least 1e-9; 1e-6 when no eps is positive).  A row is marked
    incomplete when any refine in it (or the base run) hit the budget
    before converging; its deviations are still valid bounds.
    """
    eps_list = _eps_schedule(eps_schedule)
    if trials < 1:
        raise ValueError("trials must be >= 1")

    dirs = perturbation_directions(M, trials, seed, frobenius=frobenius)
    positive = [e for e in eps_list if e > 0]
    wbase = max(min(positive) / 4.0, 1e-9) if positive else 1e-6
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
