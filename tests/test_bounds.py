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

    def test_deepening_measures_each_node_once(self, monkeypatch):
        # every pass replays the path the passes before it walked, so a
        # single generator's refine to depth 4096 measures each depth once
        # but counts every visit against the budget
        M = MatrixSet.from_matrices([[[1, 1], [0, 1]]])
        count = _CountNorms(monkeypatch)
        rep = refine(M, 1e-6, 10**6, max_depth=4096)
        assert rep.depth_used == 4096
        assert rep.nodes_explored == sum(range(1, 9)) + sum(2**t for t in range(4, 13))
        assert count.matrices == 4096

    @pytest.mark.parametrize("name,cap", [("jordan-d2", 16 * 2**10),
                                          ("refine-2x5x5", 64 * 2**10),
                                          ("triu-2x2x3", 16 * 2**10)])
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
        # a Jordan block never prunes, so refine walks the single path to
        # max_depth; the engine keeps O(1) products, not one per depth
        d = 16
        J = np.eye(d) + np.diag(np.ones(d - 1), 1)
        M = MatrixSet.from_matrices([J])
        refine(M, 1e-6, 10**6, max_depth=16)  # warm caches outside the trace
        tracemalloc.start()
        try:
            rep = refine(M, 1e-6, 10**6, max_depth=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.depth_used == 4096
        assert peak < 384 * 1024


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
