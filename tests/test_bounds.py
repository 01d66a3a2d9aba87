import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from jsrkit import (
    BudgetExceeded,
    MatrixSet,
    continuity_probe,
    frobenius_norm,
    generated_subalgebra,
    interval_distance,
    leading_products,
    lift_set,
    lower_bound_r,
    op_norm,
    perturbation_directions,
    rcq_membership,
    refine,
    sandwich_profiles,
    set_norm,
    spectral_radius,
    tree_size,
    upper_bound,
    verify_berger_wang,
)
from jsrkit import _kernels, bounds
from jsrkit.sets import _word_at

import oracles


def golden():
    return MatrixSet.from_matrices(oracles.GOLDEN)


def diag_pair():
    return MatrixSet.from_matrices(oracles.DIAG_PAIR)


def product_set(M: MatrixSet, k: int) -> MatrixSet:
    """The set of all length-k products, one generator per word."""
    prods = [oracles.word_product(list(M.gens), w)
             for w in itertools.product(range(M.size), repeat=k)]
    return MatrixSet.from_matrices(prods)


class TestLowerBound:
    def test_golden_depth_one(self):
        lb = lower_bound_r(golden(), 1)
        assert lb.value == 1.0 and lb.witness == (0,)

    def test_golden_depth_two_hits_phi(self):
        lb = lower_bound_r(golden(), 2)
        assert lb.value == pytest.approx(oracles.PHI, abs=1e-12)
        assert lb.witness == (0, 1)

    def test_nilpotent_pair(self):
        M = MatrixSet.from_matrices([[[0, 1], [0, 0]], [[0, 2], [0, 0]]])
        lb = lower_bound_r(M, 3)
        assert lb.value == 0.0 and lb.witness == (0,)

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            M = MatrixSet.from_matrices(oracles.random_set(rng, 3, 2, complex_entries=True))
            lb = lower_bound_r(M, 4)
            p = oracles.word_product(list(M.gens), lb.witness)
            want = oracles.eig_rho(p) ** (1.0 / len(lb.witness))
            assert lb.value == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            M = MatrixSet.from_matrices(oracles.random_set(rng, 2, 3))
            want, _ = oracles.brute_interval(list(M.gens), 4)
            assert lower_bound_r(M, 4).value == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestUpperBound:
    def test_diag_pair_depth_one(self):
        assert upper_bound(diag_pair(), 1) == 3.0

    def test_golden_depth_two(self):
        # norm of the balanced length-2 product already gives sqrt(phi^2)
        assert upper_bound(golden(), 2) == pytest.approx(oracles.PHI, rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            M = MatrixSet.from_matrices(oracles.random_set(rng, 3, 2, complex_entries=True))
            _, want = oracles.brute_interval(list(M.gens), 4)
            assert upper_bound(M, 4) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestSandwich:
    def test_profiles_are_monotone_and_ordered(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            M = MatrixSet.from_matrices(oracles.random_set(rng, d, m))
            r, beta = sandwich_profiles(M, 6)
            assert len(r) == len(beta) == 6
            for k in range(5):
                assert r[k + 1] >= r[k]
                assert beta[k + 1] <= beta[k]
            for k in range(6):
                assert r[k] <= beta[k] * (1.0 + 1e-9) + 1e-12

    def test_profiles_agree_with_single_depth_calls(self):
        M = MatrixSet.from_matrices(oracles.random_set(np.random.default_rng(25), 2, 2))
        r, beta = sandwich_profiles(M, 5)
        for n in range(1, 6):
            assert lower_bound_r(M, n).value == pytest.approx(r[n - 1], rel=1e-12)
            assert upper_bound(M, n) == pytest.approx(beta[n - 1], rel=1e-12)


class TestRefine:
    def test_golden_converges(self):
        rep = refine(golden(), 0.02, budget=10**6)
        assert rep.converged
        # lower = phi shaved by the 1e-12 eigensolver-noise margin
        assert rep.lower == pytest.approx(1.6180339887482762, abs=1e-14)
        assert rep.upper == pytest.approx(1.618033988749895, abs=1e-14)
        assert rep.lower <= oracles.PHI <= rep.upper
        assert rep.lower_witness == (0, 1)
        assert rep.upper - rep.lower <= 0.02 * (1 + 1e-9)

    def test_interval_property_and_dict(self):
        rep = refine(diag_pair(), 0.05, budget=10**4)
        lo, hi = rep.interval
        assert lo == rep.lower and hi == rep.upper
        d = rep.to_dict()
        assert d["lower"] == rep.lower and d["converged"] == rep.converged
        assert d["lower_witness"] == list(rep.lower_witness)

    def test_diag_pair_is_tight(self):
        rep = refine(diag_pair(), 0.01, budget=10**5)
        assert rep.converged
        assert rep.lower <= 3.0 <= rep.upper
        assert rep.upper - rep.lower <= 0.01 * (1 + 1e-9)

    def test_contains_brute_interval_dim2(self):
        rng = np.random.default_rng(26)
        for _ in range(6):
            M = MatrixSet.from_matrices(oracles.random_set(rng, 2, 2))
            rep = refine(M, 0.05, budget=2 * 10**5)
            lo, hi = oracles.brute_interval(list(M.gens), 14)
            # true value sits in both intervals, so they must overlap
            assert rep.lower <= lo * (1 + 1e-9) + 1e-12
            assert rep.upper >= hi * (1 - 1e-9) - 1e-12 or rep.upper >= lo

    def test_budget_exhaustion_keeps_validity(self):
        rng = np.random.default_rng(27)
        M = MatrixSet.from_matrices(oracles.random_set(rng, 3, 3))
        rep = refine(M, 1e-6, budget=500)
        assert not rep.converged
        lo, hi = oracles.brute_interval(list(M.gens), 8)
        assert rep.lower <= lo * (1 + 1e-9) + 1e-12
        assert rep.upper * (1 + 1e-9) >= lo
        assert rep.nodes_explored <= 500

    def test_budget_floor_allows_depth_one(self):
        rep = refine(golden(), 10.0, budget=1)
        assert rep.upper >= rep.lower >= 0.0

    def test_scaling_equivariance(self):
        M = golden()
        c = 0.5j
        a = refine(M, 0.02, budget=10**5)
        b = refine(M.scaled(c), 0.01, budget=10**5)
        assert b.lower == pytest.approx(0.5 * a.lower, rel=1e-9)
        assert b.upper <= 0.5 * a.upper * (1 + 1e-9) + 0.02

    def test_nilpotent_set_certifies_zero(self):
        M = MatrixSet.from_matrices([
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 2, 5], [0, 0, 3], [0, 0, 0]],
        ])
        rep = refine(M, 1e-13, budget=10**5)
        assert rep.converged
        assert rep.lower == 0.0
        assert rep.upper <= 1e-12

    def test_power_identity(self):
        rng = np.random.default_rng(28)
        for _ in range(4):
            M = MatrixSet.from_matrices(oracles.random_set(rng, 2, 2))
            base = refine(M, 0.02, budget=10**5)
            for k in (2, 3):
                pk = refine(product_set(M, k), 0.05, budget=10**5)
                lo = base.lower**k
                hi = base.upper**k
                assert interval_distance((lo, hi), pk.interval) <= 1e-9 * max(1.0, hi)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            refine(golden(), -0.1)
        with pytest.raises(ValueError):
            refine(golden(), 0.0)

    @pytest.mark.parametrize("max_depth", [0, -1])
    def test_max_depth_validation(self, max_depth):
        # a single generator with max_depth 0 used to run no pass at all
        for M in (golden(), MatrixSet.from_matrices([_unipotent(3)])):
            with pytest.raises(ValueError):
                refine(M, 0.1, max_depth=max_depth)

    @pytest.mark.parametrize("fro", [False, True])
    def test_max_depth_caps_every_generator_count(self, fro):
        # golden converges at depth 2 and the unipotent generator never
        # prunes: a cap of 1 stops both after the depth-1 pass
        for M in (golden(), MatrixSet.from_matrices([_unipotent(3)])):
            rep = refine(M, 1e-6, 10**4, max_depth=1, frobenius=fro)
            assert rep.depth_used == 1 and not rep.converged


class TestBergerWang:
    def test_golden_gap_closes(self):
        rep = verify_berger_wang(golden(), tol=1e-9, budget=10**6)
        assert rep.passed
        assert rep.gap <= 1e-9
        assert rep.r_lower <= rep.rho_upper * (1 + 1e-12)

    def test_diag_pair(self):
        rep = verify_berger_wang(diag_pair(), tol=1e-9, budget=10**5)
        assert rep.passed and rep.gap <= 1e-9

    def test_budget_starves_slow_set(self):
        # single shear: norms of powers grow polynomially, so the gap
        # closes only as the depth grows; a tiny budget must report failure
        M = MatrixSet.from_matrices([[[1, 1], [0, 1]]])
        rep = verify_berger_wang(M, tol=1e-6, budget=50)
        assert not rep.passed
        assert rep.gap > 1e-6
        assert rep.words_evaluated <= 50

    def test_crossed_sides_do_not_pass(self):
        # A2 member 11 is one 2x2 generator with rho about 0.4456; its powers
        # underflow by depth 1024, so the norm side reads 0 below the radius side
        rep = verify_berger_wang(MatrixSet(_a2_member(11)), 1e-9, 3000)
        assert rep.rho_upper == 0.0 and rep.gap < -0.4
        assert not rep.passed

    def test_report_dict_has_pass_key(self):
        rep = verify_berger_wang(diag_pair(), tol=1e-6, budget=10**4)
        d = rep.to_dict()
        assert d["pass"] is True and "gap" in d


class TestIntervalDistance:
    def test_overlap_is_zero(self):
        assert interval_distance((0.0, 2.0), (1.0, 3.0)) == 0.0
        assert interval_distance((1.0, 2.0), (2.0, 3.0)) == 0.0

    def test_disjoint_gap(self):
        assert interval_distance((0.0, 1.0), (3.0, 4.0)) == 2.0
        assert interval_distance((3.0, 4.0), (0.0, 1.0)) == 2.0


class TestContinuity:
    def test_directions_are_unit_norm_and_deterministic(self):
        M = diag_pair()
        d1 = perturbation_directions(M, 5, seed=3)
        d2 = perturbation_directions(M, 5, seed=3)
        assert len(d1) == 5 and all(np.array_equal(a, b) for a, b in zip(d1, d2))
        for t in range(5):
            assert d1[t].shape == (2, 2, 2)
            for g in range(2):
                assert op_norm(d1[t][g]) == pytest.approx(1.0, abs=1e-9)

    def test_frobenius_directions_have_unit_frobenius_norm(self):
        dirs = perturbation_directions(golden(), 2, 0, frobenius=True)
        for d in dirs:
            for g in d:
                assert frobenius_norm(g) == pytest.approx(1.0, abs=1e-12)
                assert op_norm(g) < 1.0

    def test_zero_eps_gives_zero_deviation(self):
        rows = continuity_probe(diag_pair(), [0.0], trials=3, seed=1, budget=10**4)
        assert rows[0].eps == 0.0
        assert rows[0].max_dev == 0.0

    def test_deviation_shrinks_with_eps(self):
        rows = continuity_probe(diag_pair(), [0.2, 0.05, 0.0125], trials=6, seed=5,
                                budget=2 * 10**4)
        devs = [r.max_dev for r in rows]
        assert devs[0] >= devs[1] >= devs[2]
        assert all(r.complete for r in rows)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            continuity_probe(diag_pair(), [0.01, 0.1], trials=2, seed=0)
        with pytest.raises(ValueError):
            continuity_probe(diag_pair(), [-0.1], trials=2, seed=0)
        with pytest.raises(ValueError):
            continuity_probe(diag_pair(), [], trials=2, seed=0)

    def test_same_seed_reproduces_rows(self):
        a = continuity_probe(diag_pair(), [0.1, 0.01], trials=4, seed=9, budget=10**4)
        b = continuity_probe(diag_pair(), [0.1, 0.01], trials=4, seed=9, budget=10**4)
        assert a == b


def _hex(x):
    """Floats as hex strings, recursively, so comparisons are bit for bit."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return [_hex(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    return int(x)


def _engine_cases():
    """Inputs on which the batched engine must match the loop kernels."""
    rng = np.random.default_rng(7)
    rng.uniform(-1.0, 1.0, (2, 3, 4, 4))  # the 3x4x4 sweep set comes first
    cases = {
        "golden": np.stack(oracles.GOLDEN),
        "refine-2x5x5": rng.uniform(-1.0, 1.0, (2, 5, 5)) + 1j * rng.uniform(-1.0, 1.0, (2, 5, 5)),
        "overflow": 1e200 * np.stack(oracles.GOLDEN),
        "underflow": 1e-160 * np.stack(oracles.GOLDEN),
        "zero": np.zeros((2, 3, 3), complex),
    }
    rng = np.random.default_rng(31)
    for i in range(10):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        cases[f"random-{i}"] = oracles.random_set(rng, d, m, complex_entries=bool(i % 2))
    return {k: np.ascontiguousarray(v, dtype=complex) for k, v in cases.items()}


ENGINE_CASES = _engine_cases()


# sweep depth per generator count: about a thousand words for 2 or 3
SWEEP_DEPTH = {1: 40, 2: 9, 3: 6}


def _pass_outputs(fn, gens, fro):
    """A refine-like chain of passes sharing one memo, plus one pass cut by
    its budget that restarts from lower = 0 with a fresh memo."""
    out = []
    lower = 0.0
    memo = _kernels.Memo()
    for cap in (1, 2, 3, 5, 7):
        res = fn(gens, cap, 0.05, lower, 4000, fro, memo)
        out.append(res[:2] + (res[2][:res[1]],) + res[3:])
        lower = max(lower, res[0])
    res = fn(gens, 12, 0.05, 0.0, 37, fro, _kernels.Memo())
    out.append(res[:2] + (res[2][:res[1]],) + res[3:])
    return _hex(out)


def _loop_pass(gens, depth_cap, width, lower_in, budget, fro, memo=None):
    """The loop kernel behind refine_pass's signature; it keeps no memo."""
    return oracles.loop_refine_pass(gens, depth_cap, width, lower_in, budget, fro)


def _memoless_pass(gens, depth_cap, width, lower_in, budget, fro, memo=None):
    """The batched kernel called with its six positional arguments only."""
    return _kernels.refine_pass(gens, depth_cap, width, lower_in, budget, fro)


def _a2_member(i):
    """Member i of the A2 acceptance family (tests/test_acceptance.py)."""
    rng = np.random.default_rng(20_000 + i)
    d = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    return oracles.random_set(rng, d, m)


def _upper_triangular(seed, d, m, complex_entries):
    rng = np.random.default_rng(seed)
    g = np.triu(rng.uniform(-1.0, 1.0, (m, d, d)))
    if complex_entries:
        g = g + 1j * np.triu(rng.uniform(-1.0, 1.0, (m, d, d)))
    return g


def _haar_frame(seed, gens):
    """Q gens Q^H for a Haar-random orthogonal (real gens) or unitary Q.

    A triangular set framed this way is dense, so refine takes it as one
    block, and its rho is unchanged in exact arithmetic.
    """
    rng = np.random.default_rng(seed)
    d = gens.shape[1]
    real = not np.any(gens.imag)
    z = rng.standard_normal((d, d))
    if not real:
        z = z + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    out = q @ gens @ q.conj().T
    return out.real if real else out


def _unipotent(d):
    """I + u v^T with u all ones and v alternating signs, so v^T u = 0.

    An exact integer S J S^-1 whose J has one 2 x 2 Jordan block: every
    entry is nonzero, so the set is one block, rho = 1, and the powers
    I + k u v^T have norms that grow with k, so refine never prunes them.
    """
    return np.eye(d) + np.outer(np.ones(d), (-1.0) ** np.arange(d))


def _a4_member(i):
    """Member i of the A4 block-upper family and its split (tests/test_acceptance.py)."""
    rng = np.random.default_rng(40_000 + i)
    d = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    split = int(rng.integers(1, d))
    g = rng.uniform(-1.0, 1.0, (m, d, d))
    g[:, split:, :split] = 0.0
    return g, split


def _jordan_sets():
    """S J_d S^-1 for d = 2, 3, 4 from rng 3: rho = 1, defective."""
    rng = np.random.default_rng(3)
    out = {}
    for d in (2, 3, 4):
        s = rng.standard_normal((d, d))
        j = np.eye(d) + np.diag(np.ones(d - 1), 1)
        out[f"jordan-d{d}"] = ((s @ j @ np.linalg.inv(s))[None], 1e-3, 20_000)
    return out


def _refine_cases():
    """name -> (gens, width, budget) for whole-refine comparisons."""
    cases = {
        "golden": (ENGINE_CASES["golden"], 0.02, 500_000),
        "refine-2x5x5": (ENGINE_CASES["refine-2x5x5"], 0.005, 500_000),
        "triu-3x3x2": (_upper_triangular(317, 3, 2, False), 0.05, 200_000),
        "triu-2x2x2c": (_upper_triangular(201, 2, 2, True), 0.002, 200_000),
        "triu-2x2x3": (_upper_triangular(203, 2, 3, False), 0.002, 200_000),
        # dense copies of the triangular sets drive the multi-generator engine
        "triu-3x3x2-haar": (_haar_frame(1317, _upper_triangular(317, 3, 2, False)),
                            0.05, 200_000),
        "triu-2x2x2c-haar": (_haar_frame(1201, _upper_triangular(201, 2, 2, True)),
                             0.002, 200_000),
        "triu-2x2x3-haar": (_haar_frame(1203, _upper_triangular(203, 2, 3, False)),
                            0.002, 200_000),
        # lifts to d = 9 with 4 generators
        "lift-a2-25": (lift_set(MatrixSet(_a2_member(25))).gens, 0.05, 100_000),
        **_jordan_sets(),
    }
    return {k: (MatrixSet(np.ascontiguousarray(g, dtype=complex)), w, b)
            for k, (g, w, b) in cases.items()}


REFINE_CASES = _refine_cases()


def _report(M, width, budget, fro=False):
    return {k: _hex(v)
            for k, v in refine(M, width, budget, frobenius=fro).to_dict().items()}


class _CountNorms:
    """Wraps _kernels.norms and counts the matrices it measures."""

    def __init__(self, monkeypatch):
        self.matrices = 0
        self._norms = _kernels.norms
        monkeypatch.setattr(_kernels, "norms", self)

    def __call__(self, stack, fro):
        self.matrices += stack.shape[0]
        return self._norms(stack, fro)


class TestBatchedEngine:
    """The batched kernels reproduce the one-node-at-a-time loop kernels."""

    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_refine_pass_matches_loop_kernel(self, name, fro):
        gens = ENGINE_CASES[name]
        with np.errstate(all="ignore"):
            want = _pass_outputs(_loop_pass, gens, fro)
            got = _pass_outputs(_kernels.refine_pass, gens, fro)
            fresh = _pass_outputs(_memoless_pass, gens, fro)
        assert got == want
        assert fresh == want

    @pytest.mark.parametrize("block_bytes", [_kernels._BLOCK_BYTES, 256])
    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_sweep_tree_matches_loop_kernel(self, name, fro, block_bytes, monkeypatch):
        # 256 bytes holds one to four products, so blocks nest many levels deep
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
        gens = ENGINE_CASES[name]
        m = gens.shape[0]
        n = SWEEP_DEPTH[m]
        norm = functools.partial(_kernels.norms, fro=fro)
        with np.errstate(all="ignore"):
            bn, br, nw, rw, _ = oracles.loop_sweep_tree(gens, n, True, fro)
        loop = {norm: (bn, nw), _kernels.radii: (br, rw)}
        for measures in ((norm,), (_kernels.radii,), (norm, _kernels.radii)):
            with np.errstate(all="ignore"):
                got = _kernels.sweep_tree(gens, n, measures)
            assert len(got) == len(measures)
            for f, (best, ranks) in zip(measures, got):
                want, words = loop[f]
                assert _hex(best) == _hex(want)
                for k in range(1, n + 1):
                    loop_w = (0,) * k if m == 1 else tuple(words[k, :k].tolist())
                    assert _word_at(ranks, k, m) == loop_w
        # every word is measured exactly once
        sizes = []

        def size(stack):
            sizes.append(stack.shape[0])
            return np.zeros(stack.shape[0])

        with np.errstate(all="ignore"):
            _kernels.sweep_tree(gens, n, (size,))
        assert sum(sizes) == tree_size(m, n)

    @pytest.mark.parametrize("name,fro", [
        pytest.param(name, fro, id=f"{name}-frobenius" if fro else name)
        for name in sorted(REFINE_CASES) for fro in (False, True)])
    def test_refine_reports_match_loop_kernel(self, name, fro, monkeypatch):
        M, width, budget = REFINE_CASES[name]
        got = _report(M, width, budget, fro)
        monkeypatch.setattr(bounds, "refine_pass", _loop_pass)
        assert got == _report(M, width, budget, fro)
        if name == "refine-2x5x5" and not fro:
            assert got["nodes_explored"] == 11_910

    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_single_generator_blocks_match_loop_kernel(self, name, fro, monkeypatch):
        # 768 bytes hold one to four products of d = 2..5 with their norm
        # temporaries, so a pass chains many short blocks
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 768)
        gens = np.ascontiguousarray(ENGINE_CASES[name][:1])
        with np.errstate(all="ignore"):
            want = _pass_outputs(_loop_pass, gens, fro)
            assert _pass_outputs(_kernels.refine_pass, gens, fro) == want
            assert _pass_outputs(_memoless_pass, gens, fro) == want

    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", ["jordan-d2", "jordan-d3", "jordan-d4"])
    def test_short_blocks_keep_single_generator_reports(self, name, fro, monkeypatch):
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 768)
        M, width, budget = REFINE_CASES[name]
        got = _report(M, width, budget, fro)
        monkeypatch.setattr(bounds, "refine_pass", _loop_pass)
        assert got == _report(M, width, budget, fro)

    def test_single_generator_pass_measures_one_block_past_its_cut(self, monkeypatch):
        # the walk asks for the next block only at the end of the last one,
        # so a pass cut at depth c has measured fewer than c + block depths
        M, width, budget = REFINE_CASES["jordan-d4"]
        block = _kernels._BLOCK_BYTES // (3 * 16 * M.dim**2)
        passes = []

        def spy(gens, depth_cap, width, lower_in, budget, fro, memo):
            res = _kernels.refine_pass(gens, depth_cap, width, lower_in, budget, fro, memo)
            passes.append((depth_cap, res[7], len(memo.kid)))
            return res

        count = _CountNorms(monkeypatch)
        monkeypatch.setattr(bounds, "refine_pass", spy)
        rep = refine(M, width, budget)
        assert rep.converged and rep.depth_used == 1166
        cut = [(deep, measured) for cap, deep, measured in passes if deep < cap]
        assert cut
        for deep, measured in cut:
            assert measured < deep + block
        assert count.matrices == passes[-1][2]

    def test_single_generator_measures_nothing_past_its_budget(self, monkeypatch):
        # caps 1..8, 16, ..., 1024 visit 2,068 nodes, so the cap-2048 pass
        # runs out of budget at depth 1,524, inside a block of 341 products
        M = REFINE_CASES["jordan-d2"][0]
        count = _CountNorms(monkeypatch)
        rep = refine(M, 1e-3, 2068 + 1524)
        assert not rep.converged and rep.nodes_explored == 2068 + 1524
        assert rep.depth_used == 1524
        assert count.matrices == 1524

    def test_deepening_measures_each_node_once(self, monkeypatch):
        # every pass replays the path the passes before it walked, so a
        # single generator's refine to depth 4096 measures each depth once
        # but counts every visit against the budget
        M = MatrixSet.from_matrices([_unipotent(2)])
        count = _CountNorms(monkeypatch)
        rep = refine(M, 1e-6, 10**6, max_depth=4096)
        assert rep.depth_used == 4096
        assert rep.nodes_explored == sum(range(1, 9)) + sum(2**t for t in range(4, 13))
        assert count.matrices == 4096

    @pytest.mark.parametrize("name,cap", [("jordan-d2", 16 * 2**10),
                                          ("refine-2x5x5", 64 * 2**10),
                                          ("triu-2x2x3-haar", 16 * 2**10)])
    def test_dropped_memo_keeps_reports(self, name, cap, monkeypatch):
        # a memo past _STACK_BYTES is dropped between passes, and the
        # passes after it measure again what they would have replayed;
        # each cap is below the set's memo but leaves its depth limit alone
        M, width, budget = REFINE_CASES[name]
        count = _CountNorms(monkeypatch)
        kept = _report(M, width, budget)
        measured = count.matrices
        monkeypatch.setattr(bounds, "_STACK_BYTES", cap)
        count.matrices = 0
        assert _report(M, width, budget) == kept
        assert count.matrices > measured

    def test_spectral_radius_uses_the_scalar_modulus(self):
        # on this stack numpy's vectorized complex abs differs from the
        # scalar abs() in the last bit for about a third of the matrices
        # (on SIMD builds); the reported radius must follow the scalar loop
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((300, 4, 4)) + 1j * rng.standard_normal((300, 4, 4))
        for a in stack:
            assert spectral_radius(a).hex() == float(oracles.loop_rho(a)).hex()

    def test_single_generator_deep_sweep_completes(self):
        # doubling reaches depth 4096 without hitting the recursion limit,
        # and the per-depth maxima agree with the loop kernel's
        M = MatrixSet.from_matrices([[[1, 1], [0, 1]]])
        rep = verify_berger_wang(M, tol=1e-12, budget=8191)
        assert rep.depth_reached == 4096 and rep.words_evaluated == 8191
        bn, br, _, _, _ = oracles.loop_sweep_tree(M.gens, 4096, True, False)
        norm = functools.partial(_kernels.norms, fro=False)
        for measures, want in (((norm,), [bn]), ((_kernels.radii,), [br]),
                               ((norm, _kernels.radii), [bn, br])):
            got = _kernels.sweep_tree(M.gens, 4096, measures)
            assert [_hex(best) for best, _ in got] == [_hex(w) for w in want]

    def test_sweeps_compute_only_what_they_read(self, monkeypatch):
        # the lower end reads only radii and the upper end only norms
        calls = {"norms": 0, "radii": 0}

        def counted(name, real):
            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return spy

        A = generated_subalgebra(MatrixSet.from_matrices(oracles.GOLDEN))
        for name in calls:
            monkeypatch.setattr(_kernels, name, counted(name, getattr(_kernels, name)))
        M = MatrixSet(ENGINE_CASES["refine-2x5x5"])
        lower_bound_r(M, 4)
        # A is all of 2x2, so the identity is no member and the witness sweep runs
        rep = rcq_membership(A, np.eye(2))
        assert not rep.member and rep.witness_word is not None
        assert calls["norms"] == 0 and calls["radii"] > 0
        calls["radii"] = 0
        for fro in (False, True):
            upper_bound(M, 4, frobenius=fro)
            set_norm(M, 4, frobenius=fro)
            leading_products(M, 4, frobenius=fro)
        assert calls["radii"] == 0 and calls["norms"] > 0

    def test_single_generator_deep_refine_memory_is_flat(self):
        # a unipotent generator never prunes, so refine walks the single
        # path to max_depth; the engine keeps O(1) products, not one per depth
        M = MatrixSet.from_matrices([_unipotent(16)])
        refine(M, 1e-6, 10**6, max_depth=16)  # warm caches outside the trace
        tracemalloc.start()
        try:
            rep = refine(M, 1e-6, 10**6, max_depth=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.depth_used == 4096
        assert peak < 384 * 1024


def _closed_form(M):
    """rho of a triangular set: the largest modulus on the diagonals."""
    return float(np.abs(np.diagonal(M.gens, axis1=1, axis2=2)).max())


def _block_bracket(g, split, n=6):
    """An interval holding rho(g): the widest brute-force bracket of its two blocks."""
    brs = [oracles.brute_interval(list(b), n)
           for b in (g[:, :split, :split], g[:, split:, split:])]
    return max(lo for lo, _ in brs), max(hi for _, hi in brs)


# one-block sets: (nodes_explored, depth_used, witness length, converged)
# per norm, as refine gave them before it split sets into blocks
ONE_BLOCK_REPORTS = {
    "golden": ((6, 2, 2, True), (8, 2, 2, True)),
    "refine-2x5x5": ((11_910, 106, 5, True), (13_160, 106, 5, True)),
    "jordan-d2": ((8212, 4096, 1636, False),) * 2,
    "jordan-d3": ((8212, 4096, 2361, False),) * 2,
    "jordan-d4": ((3234, 1166, 107, True),) * 2,
}


@pytest.mark.parametrize("fro", [False, True])
class TestBlockReduction:
    """refine splits a set over the diagonal blocks of its exact triangular form."""

    @pytest.mark.parametrize("name", ["triu-3x3x2", "triu-2x2x2c", "triu-2x2x3"])
    def test_triangular_sets_contain_the_closed_form(self, name, fro):
        # every diagonal entry is its own 1 x 1 block, certified at depth 1
        M, width, budget = REFINE_CASES[name]
        rep = refine(M, width, budget, frobenius=fro)
        assert rep.blocks == (1,) * M.dim
        assert rep.converged and rep.depth_used == 1
        assert rep.nodes_explored == M.dim * M.size
        assert rep.lower <= _closed_form(M) <= rep.upper

    @pytest.mark.parametrize("i", range(8))
    def test_a4_members_meet_their_block_brackets(self, i, fro):
        g, split = _a4_member(i)
        rep = refine(MatrixSet(g), 0.05, 100_000, frobenius=fro)
        assert sorted(rep.blocks) == sorted((split, g.shape[1] - split))
        assert rep.converged
        lo, hi = _block_bracket(g, split)
        assert rep.lower <= hi * (1 + 1e-9) and lo <= rep.upper * (1 + 1e-9)
        if all(n == 1 for n in rep.blocks):
            assert rep.lower <= _closed_form(MatrixSet(g)) <= rep.upper

    def test_permuted_set_keeps_its_blocks(self, fro):
        # P M P^T has the same blocks up to their order inside the matrix
        g, split = _a4_member(5)
        perm = np.random.default_rng(5).permutation(g.shape[1])
        cases = {"triu-3x3x2": (REFINE_CASES["triu-3x3x2"][0].gens, None),
                 "a4-5": (g, _block_bracket(g, split))}
        for name, (gens, bracket) in cases.items():
            a = refine(MatrixSet(gens), 0.01, 100_000, frobenius=fro)
            b = refine(MatrixSet(gens[:, perm][:, :, perm]), 0.01, 100_000, frobenius=fro)
            assert a.blocks == b.blocks and len(a.blocks) > 1
            assert interval_distance(a.interval, b.interval) == 0.0
            if bracket is None:
                rho = _closed_form(MatrixSet(gens))
                assert a.lower <= rho <= a.upper and b.lower <= rho <= b.upper
            else:
                assert b.lower <= bracket[1] * (1 + 1e-9) and bracket[0] <= b.upper * (1 + 1e-9)

    def test_witness_is_measured_on_the_whole_set(self, fro):
        # block 0 (norm 2) runs first and finds the witness (0, 1) with root 1;
        # block 1 (norm s) is cut at depth 1 without measuring (0, 1), whose
        # root there is s.  lower must rise to s so the witness attains it.
        s = 1.005
        g = np.zeros((2, 4, 4))
        g[0, 0, 1], g[1, 1, 0] = 2.0, 0.5
        g[0, 2, 3], g[1, 3, 2] = s, s
        g[:, :2, 2:] = 1.0
        rep = refine(MatrixSet(g), 0.01, 10_000, frobenius=fro)
        assert rep.blocks == (2, 2)
        assert rep.lower_witness == (0, 1)
        root = oracles.eig_rho(oracles.word_product(list(g), (0, 1))) ** 0.5
        assert rep.lower == pytest.approx(root, rel=1e-12)
        assert rep.lower > 1.0
        assert rep.lower <= s <= rep.upper
        assert rep.converged and rep.upper - rep.lower <= 0.01 * (1 + 1e-9)

    def test_budget_too_small_for_every_block(self, fro):
        # the first block takes the whole budget; the others never run and
        # keep their largest generator norm as their upper end
        M, width, _ = REFINE_CASES["triu-3x3x2"]
        rep = refine(M, width, M.size, frobenius=fro)
        assert not rep.converged
        assert rep.nodes_explored == M.size and rep.blocks == (1, 1, 1)
        assert rep.lower <= _closed_form(M) <= rep.upper

    @pytest.mark.parametrize("name", sorted(ONE_BLOCK_REPORTS) + ["zero"])
    def test_one_block_sets_keep_their_reports(self, name, fro):
        # a set with one strongly connected component, or one whose every
        # vertex is a zero 1 x 1 block, runs the plain deepening loop
        if name == "zero":
            M, width, budget = MatrixSet(ENGINE_CASES["zero"]), 0.02, 500_000
            want = (2, 1, 1, True)
        else:
            M, width, budget = REFINE_CASES[name]
            want = ONE_BLOCK_REPORTS[name][fro]
        rep = refine(M, width, budget, frobenius=fro)
        assert rep.blocks == (M.dim,)
        got = (rep.nodes_explored, rep.depth_used, len(rep.lower_witness), rep.converged)
        assert got == want
        lower, wit, upper, _, _, _ = bounds._deepen(M.gens, width, budget, 0.0, 4096, fro)
        assert (rep.lower, rep.upper) == (lower, upper)
        assert rep.lower_witness == (wit or (0,))
        if name == "zero":
            assert (rep.lower, rep.upper) == (0.0, width)


def _blocks_of(gens):
    return [b.tolist() for b in bounds._blocks(np.asarray(gens))]


class TestBlockFinder:
    """_blocks against Warshall's closure in plain loops."""

    def test_random_patterns_match_warshall(self):
        rng = np.random.default_rng(88)
        for _ in range(2000):
            d = int(rng.integers(1, 9))
            m = int(rng.integers(1, 4))
            g = (rng.random((m, d, d)) < rng.random()).astype(float)
            assert _blocks_of(g) == oracles.warshall_blocks(g)

    def test_named_patterns(self):
        rng = np.random.default_rng(89)
        d = 5
        tri = np.triu(rng.uniform(1.0, 2.0, (2, d, d)))
        perm = rng.permutation(d)
        cases = {
            "zero": (np.zeros((2, d, d)), [list(range(d))]),
            "dense": (np.ones((3, d, d)), [list(range(d))]),
            "diagonal": (np.diag(np.arange(1.0, d + 1))[None], [[i] for i in range(d)]),
            "strictly-triangular": (np.triu(tri, 1), [list(range(d))]),
            "permuted-triangular": (tri[:, perm][:, :, perm], [[i] for i in range(d)]),
        }
        for name, (g, want) in cases.items():
            assert _blocks_of(g) == want == oracles.warshall_blocks(g), name

    def test_tied_blocks_run_in_index_order(self):
        # equal diagonal entries are blocks of equal norm: they keep the
        # index order, and the first block run finds the witness
        assert _blocks_of(np.eye(3)[None]) == [[0], [1], [2]]
        M = MatrixSet(np.array([np.diag([1.0, 0.5]), np.diag([0.5, 1.0])]))
        for fro in (False, True):
            rep = refine(M, 0.01, 1000, frobenius=fro)
            assert rep.blocks == (1, 1) and rep.lower_witness == (0,)


@pytest.mark.parametrize("fro", [False, True])
class TestExtremeScales:
    """Products that underflow or overflow keep the sandwich ordered."""

    def test_underflowed_squares_keep_upper_above_lower(self, fro):
        # length-2 products have entries near 1e-320, so their squared
        # norms underflow; read as 0 they put the upper end below the lower
        M = MatrixSet(1e-160 * ENGINE_CASES["golden"])
        up = upper_bound(M, 2, frobenius=fro)
        lb = lower_bound_r(M, 2)
        assert lb.value <= up
        assert up == pytest.approx(oracles.PHI * 1e-160, rel=1e-2)
        # the length-2 radius, about 2.6e-320, sits under the 1e-300 floor
        # that reads radii as zero, so the lower end is the depth-1 radius
        assert lb.value == 1e-160 and lb.witness == (0,)
        if not fro:
            assert op_norm(M.gens[0]) == pytest.approx(oracles.PHI * 1e-160, rel=1e-15)

    def test_overflowed_products_offer_no_candidates(self, fro):
        # length-2 products hold inf and NaN entries: they give no lower
        # candidate, and their norm is inf in both norms; the sweeps keep
        # numpy's overflow warnings to themselves
        M = MatrixSet(1e200 * ENGINE_CASES["golden"])
        lb = lower_bound_r(M, 6)
        up = upper_bound(M, 6, frobenius=fro)
        top = set_norm(M, 3, frobenius=fro)
        bw = verify_berger_wang(M, tol=1e-9, budget=10**4, frobenius=fro)
        assert lb.value == 1e200 and lb.witness == (0,)
        assert up >= lb.value
        assert top == np.inf
        assert not bw.passed and bw.gap >= 0.0

    def test_overflowed_norms_keep_finite_radii(self, fro):
        # the generators' Gram matrices (and sums of squares) overflow, so
        # every norm reads inf, but their radii are finite and give the lower end
        M = MatrixSet(1e200 * ENGINE_CASES["golden"])
        rep = refine(M, 1e-3, 10_000, frobenius=fro)
        assert rep.lower >= 1e200 * (1 - 1e-12)
        assert rep.lower_witness == (0,)
        assert rep.upper >= rep.lower


class TestNilpotencyHook:
    def test_certified_zero_makes_every_combination_nilpotent(self):
        # once refine certifies an upper bound under 1e-12, any product and
        # any linear combination of generators must be nilpotent
        rng = np.random.default_rng(29)
        g = np.zeros((2, 4, 4), dtype=complex)
        for i in range(2):
            iu = np.triu_indices(4, 1)
            g[i][iu] = rng.uniform(-1, 1, len(iu[0]))
        M = MatrixSet.from_matrices(g)
        rep = refine(M, 1e-13, budget=10**5)
        assert rep.upper < 1e-12
        for w in [(0,), (1, 0), (0, 1, 1), (1, 1, 0, 0)]:
            p = oracles.word_product(list(g), w)
            assert spectral_radius(p) <= 1e-10
        for _ in range(5):
            c = rng.uniform(-1, 1, 2)
            x = c[0] * g[0] + c[1] * g[1]
            assert np.linalg.norm(np.linalg.matrix_power(x, 4)) <= 1e-10
