import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jsrkit import (
    BudgetExceeded,
    CapExceeded,
    MatrixSet,
    continuity_probe,
    frobenius_norm,
    generated_subalgebra,
    interval_distance,
    leading_products,
    lift_set,
    lower_bound_r,
    normalized_leading_sequence,
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

    def test_ranks_past_int64_are_refused(self):
        # 2**64 words of length 64 fit this budget, but their ranks do not
        # fit int64, and a sweep would never get there
        with pytest.raises(CapExceeded, match="2\\*\\*64"):
            lower_bound_r(golden(), 64, budget=2**70)

    @pytest.mark.parametrize("sweep", [lower_bound_r, sandwich_profiles])
    def test_depths_past_a_printable_count_are_refused(self, sweep):
        # 2**20001 - 2 words has more digits than str() prints, and at depth
        # 10**10 the count alone would be a 1.25 GB integer: neither is formed
        for n in (20_000, 10**10):
            with pytest.raises(BudgetExceeded, match=f"^sweep to depth {n} needs more than "
                                                     f"2\\*\\*{n} words, budget is 10000000$"):
                sweep(golden(), n)
        with pytest.raises(BudgetExceeded, match="^sweep to depth 40 needs 2199023255550 words"):
            sweep(golden(), 40, budget=10**6)
        assert sweep(golden(), 3, budget=math.inf) is not None  # a budget with no bit length


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
        with pytest.raises(ValueError):
            dataclasses.replace(rep, lower=rep.upper * 2)

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

    def test_brute_interval_matches_the_word_by_word_oracle(self):
        # the level-batched oracle the test above uses gives the per-word
        # loop's bits, on its own sets and on random ones
        rng = np.random.default_rng(26)
        sets = [oracles.random_set(rng, 2, 2) for _ in range(6)]
        rng = np.random.default_rng(5)
        for i in range(20):
            d, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            sets.append(oracles.random_set(rng, d, m, complex_entries=bool(i % 2)))
        for g in sets:
            assert (_hex(oracles.brute_interval(list(g), 5))
                    == _hex(oracles.brute_interval_by_word(list(g), 5)))

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
        # an infinite width used to certify upper = inf as converged
        for width in (-0.1, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                refine(golden(), width)

    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("gens,blocks", [
        ([[[3.0]], [[1.0]]], (1,)),
        (oracles.HAND_PAIR, (1, 1)),
    ], ids=["scalars-3-1", "hand-pair"])
    def test_narrow_width_converges_after_one_pass(self, gens, blocks, fro):
        # at width 1e-9 and rho 3, upper - lower exceeded the width by the
        # rounding of lower + width, so every block ran all 17 passes of
        # two nodes each and ended with converged=False
        M = MatrixSet.from_matrices(gens)
        rep = refine(M, 1e-9, frobenius=fro)
        assert rep.converged and rep.blocks == blocks
        assert rep.nodes_explored == 2 * len(blocks) and rep.depth_used == 1
        assert rep.lower <= 3.0 <= rep.upper <= rep.lower + 1e-9

    @pytest.mark.parametrize("fro", [False, True])
    def test_max_depth_caps_every_generator_count(self, fro, monkeypatch):
        # golden converges at depth 2 and the unipotent generator never
        # prunes: a cap of 1 stops both after the depth-1 pass
        monkeypatch.setattr(bounds, "_MAX_DEPTH", 1)
        for M in (golden(), MatrixSet.from_matrices([_unipotent(3)])):
            rep = refine(M, 1e-6, 10**4, frobenius=fro)
            assert rep.depth_used == 1 and not rep.converged


class TestStopReason:
    """refine reports why its search ended."""

    @pytest.mark.parametrize("fro", [False, True])
    def test_golden_converges(self, fro):
        rep = refine(golden(), 0.02, frobenius=fro)
        assert rep.converged and rep.stop_reason == "converged"
        assert rep.to_dict()["stop_reason"] == "converged"

    @pytest.mark.parametrize("fro", [False, True])
    def test_budget(self, fro):
        rng = np.random.default_rng(27)
        M = MatrixSet.from_matrices(oracles.random_set(rng, 3, 3))
        rep = refine(M, 1e-6, budget=500, frobenius=fro)
        assert not rep.converged and rep.stop_reason == "budget"
        assert rep.nodes_explored <= 500

    def test_depth_limit(self):
        # jordan-d2 and the dense single generators 0 and 30 of the oracle
        # sets (rho = 3) keep one open word at every depth up to _MAX_DEPTH
        sets = oracles.integer_triangular_sets(2026, 120)
        cases = [(REFINE_CASES["jordan-d2"][0], 1e-3)] + [
            (MatrixSet.from_matrices(sets[i][0]), 1e-3) for i in (0, 30)]
        for M, width in cases:
            rep = refine(M, width, 20_000)
            assert M.size == 1 and not rep.converged
            assert rep.stop_reason == "depth_limit"
            assert rep.depth_used == rep.nodes_explored == bounds._MAX_DEPTH

    def test_every_block_reports_the_first_failure(self, monkeypatch):
        # a depth cap of 1 stops golden before its witness; a block that
        # did not run at all stops on the budget
        monkeypatch.setattr(bounds, "_MAX_DEPTH", 1)
        assert refine(golden(), 1e-6).stop_reason == "depth_limit"
        monkeypatch.undo()
        M, width, _ = REFINE_CASES["triu-3x3x2"]
        assert refine(M, width, M.size).stop_reason == "budget"

    @pytest.mark.parametrize("name,want,grams", [
        ("refine-2x5x5", 4_330, 2_946), ("lift-a2-2", 2_907, 925),
        ("jordan-d2", 4_096, 4_096), ("jordan-d3", 4_096, 4_096)])
    def test_measured_products_are_pinned(self, name, want, grams, monkeypatch):
        # nodes_explored counts the products measured, each once; the Gram
        # matrices skip the children that the Frobenius prefilter cuts, and
        # a single generator's path takes no prefilter
        M, width, budget = _PINNED_CASES[name]
        measured, norms = _Counted(monkeypatch, "_measure"), _Counted(monkeypatch)
        rep = refine(M, width, budget)
        assert rep.nodes_explored == measured.matrices == want
        assert norms.matrices == grams
        monkeypatch.setattr(_kernels, "_bound", _no_frobenius_bound)
        norms.matrices = 0
        assert refine(M, width, budget).nodes_explored == norms.matrices == want


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
        # leave the double range by depth 1024, where the norm side once
        # read 0 below the radius side
        M = MatrixSet(_a2_member(11))
        rep = verify_berger_wang(M, 1e-9, 3000)
        assert rep.depth_reached == 1024
        assert rep.r_lower == pytest.approx(spectral_radius(M.gens[0]), rel=1e-12)
        # the norm of the 1024th power still carries its polynomial factor
        assert rep.r_lower < rep.rho_upper < rep.r_lower * 1.003
        assert not rep.passed

    def test_crossing_guard(self, monkeypatch):
        # sides that cross cannot both bound rho, so they never pass
        def crossed(M, n, *, budget, frobenius):
            return np.full(n, 1.0), np.full(n, 0.5)

        monkeypatch.setattr(bounds, "sandwich_profiles", crossed)
        rep = verify_berger_wang(golden(), 1e-9, 100)
        assert rep.gap < 0.0 and not rep.passed

    def test_report_dict_has_pass_key(self):
        rep = verify_berger_wang(diag_pair(), tol=1e-6, budget=10**4)
        d = rep.to_dict()
        assert d["pass"] is True and "gap" in d

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, math.inf, math.nan])
    def test_tol_validation(self, tol):
        # an infinite tol used to pass golden with gap 0.618 at depth 1
        with pytest.raises(ValueError):
            verify_berger_wang(golden(), tol)


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
        with pytest.raises(ValueError):
            continuity_probe(diag_pair(), [0.1], trials=0, seed=0)

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
    if isinstance(x, (bool, np.bool_, str)):
        return x if isinstance(x, str) else bool(x)
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


def _unit(d, i, j):
    """The d x d matrix unit E_ij."""
    e = np.zeros((d, d), complex)
    e[i, j] = 1.0
    return e


# rho 2**-200, from the cycle E01 (2**-600 E12) E20 of length 3, in an
# in-band set: the band bounds only the set's largest entry, so products
# through the small generator have squares that underflow
TINY_CYCLE = np.stack([_unit(3, 0, 1), 2.0**-600 * _unit(3, 1, 2), _unit(3, 2, 0)])
# a nilpotent path of 2**200 edges beside a 2**-200 scalar: a sweep level
# of the path's products, scaled as one batch, would flush the scalar's
# powers to zero, and the set's rho (2**-200) is read from them at depth 4
PATH_AND_SCALAR = np.stack([2.0**200 * sum(_unit(5, i, i + 1) for i in range(3)),
                            2.0**-200 * _unit(5, 4, 4)])

ENGINE_CASES = _engine_cases()
# in-band sets whose products leave the band at almost every step, or
# hold products far below the band, so products are fitted inside
# passes, blocks and sweeps
BAND_CASES = {"band-high": 2.0**200 * ENGINE_CASES["golden"],
              "band-low": 2.0**-200 * ENGINE_CASES["golden"],
              "tiny-cycle": TINY_CYCLE,
              "path-and-scalar": PATH_AND_SCALAR}
# diagonal, so every product's rho is its norm: at each depth the last
# word, 1^k, beats the record of the first, 0^k, by (1 + 2**-20)^k, and a
# sweep that skipped radii on a wider norm margin than refine's would miss it
NEAR_TIE = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + 2.0**-20])]).astype(complex)
# the same race inside the skip slack: at depth k <= 9, 1^k beats 0^k by
# (1 + 2**-36)^k, a relative 1.5e-11 to 1.3e-10, above _TIE and below
# _SKIP_SLACK, in a later block than 0^k (a sweep of 256-byte blocks from
# depth 2, of the default blocks from depth 3).  The 2**-10 entry makes
# 1^2's Frobenius bound exceed its 2-norm by 2**-41 relative, so a sweep
# that kept that bound in place of the 2-norm would report it.
SLACK_TIE = np.stack([np.diag([1.0, 0.0, 0.0]),
                      np.diag([0.0, 1.0 + 2.0**-36, 2.0**-10])]).astype(complex)
# depth 2's largest norm, 2**-600 on 10, is formed from the in-band prefix
# E10 times the 2**-600 generator, so its sum of squares underflows to 0
# before it is fitted; the block before it set the depth's best to 00's
# 2**-1200, which reads 0 at 10's exponent.  A Frobenius bound taken from
# that underflowed sum could not beat it, and the record would be lost.
TINY_RECORD = np.stack([2.0**-600 * _unit(2, 0, 0), _unit(2, 1, 0)])
# in the tie sets a pass from lower 0 raises lower at depth 1 and cuts the
# branch below 0, which refine_pass's growth has measured from lower 0
PASS_CASES = {**ENGINE_CASES, **BAND_CASES, "near-tie": NEAR_TIE, "slack-tie": SLACK_TIE}
SWEEP_CASES = {**PASS_CASES, "tiny-record": TINY_RECORD,
               **{f"{k}-single": g[:1] for k, g in BAND_CASES.items() if k.startswith("band")}}


# sweep depth per generator count: about a thousand words for 2 or 3
SWEEP_DEPTH = {1: 40, 2: 9, 3: 6}


def _pass_result(res, gens):
    """One refine_pass result as hex, up to its node count: a single
    generator's path measures whole blocks, so past its stop it measures
    more products than the loop kernel, which goes a node at a time."""
    return _hex(res[:6] if gens.shape[0] == 1 else res[:7])


def _step(gens):
    """refine_pass's step: the open nodes whose children fill _BLOCK_BYTES."""
    m, d, _ = gens.shape
    return max(1, _kernels._BLOCK_BYTES // (16 * m * d * d))


def _step_bytes(gens):
    """A bound on what one step's children add to refine_pass's held bytes:
    each child's product and, within 400 bytes, its heap entry's objects
    and list slots."""
    m, d, _ = gens.shape
    return m * _step(gens) * (16 * d * d + 400)


def _traced_pass(gens, width, budget):
    """refine_pass at _MAX_DEPTH from lower 0 in the 2-norm, and the peak
    bytes tracemalloc sees it allocate."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = _kernels.refine_pass(gens, bounds._MAX_DEPTH, width, 0.0, budget, False)
        return res, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _loop_pass(gens, depth_cap, width, lower_in, budget, fro):
    """The loop kernel behind refine_pass's signature, at refine_pass's step."""
    return oracles.loop_refine_pass(gens, depth_cap, width, lower_in, budget, fro,
                                    _step(np.asarray(gens)))


def _pass_outputs(fn, gens, fro):
    """Searches at several depth caps, each from the lower end the one
    before it returned, plus one cut by its budget from lower = 0."""
    out = []
    lower = 0.0
    for cap in (1, 2, 3, 5, 7):
        res = fn(gens, cap, 0.05, lower, 4000, fro)
        out.append(_pass_result(res, gens))
        lower = max(lower, res[0])
    out.append(_pass_result(fn(gens, 12, 0.05, 0.0, 37, fro), gens))
    return out


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


# lower_bound_r's tie rule: every depth of all-tie ties at root 1, and a
# triangular set's best root is a diagonal entry reached at every depth
LOWER_CASES = {**SWEEP_CASES, "all-tie": np.stack([np.eye(2), np.eye(2)]).astype(complex),
               "triangular": _upper_triangular(5, 3, 2, False).astype(complex)}


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
# refines whose measured products and Gram matrices are pinned
_PINNED_CASES = {"lift-a2-2": (lift_set(MatrixSet(_a2_member(2))), 0.05, 100_000),
                 **{k: REFINE_CASES[k] for k in ("refine-2x5x5", "jordan-d2", "jordan-d3")}}


def _nilpotent():
    """S T S^-1 for a dense integer S and T strictly upper with T^3 != 0 =
    T^4: a path whose norm roots are 0 from depth 4 on, and whose first
    candidate roots are eigvals' noise."""
    s, inv = oracles.unimodular(np.random.default_rng(5), 4)
    t = np.eye(4, k=1) + 2 * np.eye(4, k=2) - np.eye(4, k=3)
    return s @ t.astype(np.int64) @ inv


# single-generator paths: the first generator of every pass case, one
# whose norm roots fall at every depth, a nilpotent one, and the Jordan
# sets, whose candidate roots (eigvals of defective powers) beat lower by
# more than _TIE at many depths (jordan-d4 at 8 of its first 13)
SINGLE_CASES = {k: np.ascontiguousarray(g, dtype=complex) for k, g in {
    **{k: g[:1] for k, g in PASS_CASES.items()},
    "unipotent": _unipotent(2)[None], "nilpotent": _nilpotent()[None],
    **{k: REFINE_CASES[k][0].gens for k in ("jordan-d2", "jordan-d3", "jordan-d4")}}.items()}
# eigvals matrices of each Jordan set's refine at the default _BLOCK_BYTES
JORDAN_RADII = {"jordan-d2": 4096, "jordan-d3": 4096, "jordan-d4": 1194}


def _report(M, width, budget, fro=False):
    return {k: _hex(v)
            for k, v in refine(M, width, budget, frobenius=fro).to_dict().items()}


class _Counted:
    """Wraps _kernels.norms, _kernels.radii or _kernels._measure and counts
    its calls and the matrices it measures."""

    def __init__(self, monkeypatch, name="norms"):
        self.calls = self.matrices = 0
        self._measure = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, self)

    def __call__(self, stack, *args):
        self.calls += 1
        self.matrices += stack.shape[0]
        return self._measure(stack, *args)


class TestBatchedEngine:
    """The batched kernels reproduce the one-node-at-a-time loop kernels."""

    @pytest.mark.parametrize("block_bytes", [_kernels._BLOCK_BYTES, 256])
    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", sorted(PASS_CASES))
    def test_refine_pass_matches_loop_kernel(self, name, fro, block_bytes, monkeypatch):
        # 256 bytes hold the children of one node, so every step expands one
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
        gens = PASS_CASES[name]
        assert _pass_outputs(_kernels.refine_pass, gens, fro) == \
            _pass_outputs(_loop_pass, gens, fro)

    @pytest.mark.parametrize("block_bytes", [_kernels._BLOCK_BYTES, 256])
    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_sweep_tree_matches_loop_kernel(self, name, fro, block_bytes, monkeypatch):
        # 256 bytes holds one to four products, so blocks nest many levels deep
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
        gens = SWEEP_CASES[name]
        m = gens.shape[0]
        n = SWEEP_DEPTH[m]
        bn, bne, br, bre, nw, rw, _ = oracles.loop_sweep_tree(gens, n, True, fro)
        for norm_side, rho in ((fro, False), (None, True), (fro, True)):
            got = _kernels.sweep_tree(gens, n, norm_side, rho)
            want = (None if norm_side is None else (bn, bne, nw),
                    (br, bre, rw) if rho else None)
            for side, loop in zip(got, want):
                assert (side is None) == (loop is None)
                if side is None:
                    continue
                (best, exps, ranks), (want_best, want_exps, words) = side, loop
                assert _hex(best) == _hex(want_best)
                assert exps == want_exps
                for k in range(1, n + 1):
                    loop_w = (0,) * k if m == 1 else tuple(words[k, :k].tolist())
                    assert _word_at(ranks, k, m) == loop_w

    @pytest.mark.parametrize("name", sorted(LOWER_CASES))
    def test_lower_bound_r_matches_loop(self, name):
        gens = LOWER_CASES[name]
        for n in (1, 3, 5):
            lb = lower_bound_r(MatrixSet(gens), n)
            value, wit = oracles.loop_lower_bound_r(gens, n)
            assert (_hex(lb.value), lb.witness) == (_hex(value), wit)

    @pytest.mark.parametrize("fro", [False, True])
    def test_perturbation_directions_match_loop(self, fro):
        rng = np.random.default_rng(61)
        for _ in range(15):
            d, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            M = MatrixSet(oracles.random_set(rng, d, m))
            seed = int(rng.integers(0, 2**31))
            got = perturbation_directions(M, 4, seed, frobenius=fro)
            want = oracles.loop_perturbation_directions(m, d, 4, seed, fro)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("name,fro", [
        pytest.param(name, fro, id=f"{name}-frobenius" if fro else name)
        for name in sorted(REFINE_CASES) for fro in (False, True)])
    def test_refine_reports_match_loop_kernel(self, name, fro, monkeypatch):
        M, width, budget = REFINE_CASES[name]
        got = _report(M, width, budget, fro)

        def loop(gens, depth_cap, width, lower_in, budget, fro):
            return (*_loop_pass(gens, depth_cap, width, lower_in, budget, fro), 0)

        monkeypatch.setattr(bounds, "refine_pass", loop)
        want = _report(M, width, budget, fro)
        if M.size == 1:  # a path measures whole blocks
            assert got.pop("nodes_explored") >= want.pop("nodes_explored")
        assert got == want

    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", sorted(SINGLE_CASES))
    def test_single_generator_blocks_match_loop_kernel(self, name, fro, monkeypatch):
        gens = SINGLE_CASES[name]
        if name in JORDAN_RADII and not fro:
            radii = _Counted(monkeypatch, "radii")
            refine(*REFINE_CASES[name])
            assert radii.matrices == JORDAN_RADII[name]
        # 768 bytes hold one to four products of d = 2..5 with their norm
        # temporaries, so a search chains many short blocks
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 768)
        assert _pass_outputs(_kernels.refine_pass, gens, fro) == \
            _pass_outputs(_loop_pass, gens, fro)
        # every budget, at caps past several blocks, from lower 0 and, where
        # it can be, from a lower_in that puts the depth-3 norm root exactly
        # at thr
        w = 2.0**-4
        prod, e = _kernels.word_product(gens, (0, 0, 0))
        nroot = _kernels.root(float(_kernels.norms(prod[None], fro)[0]), e, 3)
        at = nroot - w
        starts = [0.0] + ([at] if at >= 0.0 and at + w == nroot else [])
        assert len(starts) == 2 or name != "unipotent"
        for cap in (6, 13):
            for budget in range(1, cap + 2):
                for start in starts:
                    got = _kernels.refine_pass(gens, cap, w, start, budget, fro)
                    want = _loop_pass(gens, cap, w, start, budget, fro)
                    assert _pass_result(got, gens) == _pass_result(want, gens)
                    assert want[6] <= got[6] <= budget

    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", ["jordan-d2", "jordan-d3", "jordan-d4"])
    def test_short_blocks_keep_single_generator_reports(self, name, fro, monkeypatch):
        M, width, budget = REFINE_CASES[name]
        want = _report(M, width, budget, fro)
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 768)
        got = _report(M, width, budget, fro)
        assert got.pop("nodes_explored") <= want.pop("nodes_explored")
        assert got == want

    def test_single_generator_pass_measures_one_block_past_its_cut(self, monkeypatch):
        # the scan takes the next block only at the end of the last one,
        # and blocks end by depths 1..8, 16, 32, ...: a path cut at depth c
        # has measured fewer than c + block products, and fewer than 2 c
        M, width, budget = REFINE_CASES["jordan-d4"]
        block = _kernels._BLOCK_BYTES // (3 * 16 * M.dim**2)
        count = _Counted(monkeypatch)
        rep = refine(M, width, budget)
        assert rep.converged and rep.depth_used == 1166 and rep.stop_reason == "converged"
        assert rep.nodes_explored == count.matrices == 1194
        assert rep.nodes_explored < min(rep.depth_used + block, 2 * rep.depth_used)

    def test_single_generator_measures_nothing_past_its_budget(self, monkeypatch):
        # a budget of 1,524 products ends the path at depth 1,524, inside a
        # block of 341 products
        M = REFINE_CASES["jordan-d2"][0]
        count = _Counted(monkeypatch)
        rep = refine(M, 1e-3, 1524)
        assert not rep.converged and rep.stop_reason == "budget"
        assert rep.nodes_explored == rep.depth_used == count.matrices == 1524

    def test_single_generator_measures_each_depth_once(self, monkeypatch):
        # a unipotent generator never prunes: its path runs to _MAX_DEPTH,
        # measuring each depth once
        M = MatrixSet.from_matrices([_unipotent(2)])
        count = _Counted(monkeypatch)
        rep = refine(M, 1e-6, 10**6)
        assert rep.depth_used == rep.nodes_explored == count.matrices == 4096
        assert rep.stop_reason == "depth_limit"

    @pytest.mark.parametrize("name,cap", [("lift-a2-25", 4 * 2**10),
                                          ("refine-2x5x5", 16 * 2**10),
                                          ("triu-2x2x3-haar", 2 * 2**10)])
    def test_stack_limit_stops_the_search(self, name, cap, monkeypatch):
        # each cap is below the open set the search holds at the default;
        # a search whose step leaves more than _STACK_BYTES stops there,
        # having passed it by one step's children at most
        M, width, budget = REFINE_CASES[name]
        kept = _report(M, width, budget)
        held = _kernels.refine_pass(M.gens, bounds._MAX_DEPTH, width, 0.0, budget, False)[7]
        assert held > cap
        monkeypatch.setattr(_kernels, "_STACK_BYTES", held)
        assert _report(M, width, budget) == kept  # a bound that does not bind
        monkeypatch.setattr(_kernels, "_STACK_BYTES", cap)
        rep = refine(M, width, budget)
        assert not rep.converged and rep.stop_reason == "stack_limit"
        assert rep.lower <= float.fromhex(kept["lower"])
        assert rep.upper >= float.fromhex(kept["upper"])
        res, peak = _traced_pass(M.gens, width, budget)
        assert res[4] == "stack_limit"
        assert cap < res[7] <= cap + _step_bytes(M.gens)
        assert peak <= cap + 4 * _kernels._BLOCK_BYTES

    @pytest.mark.parametrize("name", ["lift-a2-43", "random-2x2x3"])
    def test_stack_limit_bounds_what_the_search_allocates(self, name, monkeypatch):
        # budget-cut searches whose open sets pass 1 MiB: what tracemalloc
        # sees them allocate stays within the bound plus one step's working
        # set (its children, their Gram matrices, squares and fitted copies)
        if name == "lift-a2-43":
            gens = lift_set(MatrixSet(_a2_member(43))).gens
        else:
            gens = np.random.default_rng(1).uniform(-1.0, 1.0, (3, 2, 2)) + 0j
        cap = 2**20
        monkeypatch.setattr(_kernels, "_STACK_BYTES", cap)
        res, peak = _traced_pass(gens, 1e-9, 100_000)
        assert res[4] == "stack_limit" and res[6] < 100_000
        assert cap < res[7] <= cap + _step_bytes(gens)
        assert peak <= cap + 4 * _kernels._BLOCK_BYTES

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
        bn, bne, br, bre, _, _, _ = oracles.loop_sweep_tree(M.gens, 4096, True, False)
        for sides, want in (((False, False), [(bn, bne), None]),
                            ((None, True), [None, (br, bre)]),
                            ((False, True), [(bn, bne), (br, bre)])):
            got = _kernels.sweep_tree(M.gens, 4096, *sides)
            assert [side and (_hex(side[0]), side[1]) for side in got] == \
                [w and (_hex(w[0]), w[1]) for w in want]

    @pytest.mark.parametrize("block_bytes", [_kernels._BLOCK_BYTES, 768])
    @pytest.mark.parametrize("fro", [False, True])
    def test_single_generator_sweep_crosses_the_band_inside_a_block(
            self, fro, block_bytes, monkeypatch):
        # 3 x a rotation leaves the band about every 156 steps: twice inside
        # a default path block of 341 products, whose products after each
        # crossing are formed again from the fitted one, and between the
        # four-product blocks of 768 bytes
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
        t = 0.7
        gens = 3.0 * np.array([[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]])
        bn, bne, br, bre, _, _, _ = oracles.loop_sweep_tree(gens, 2000, True, fro)
        norms, radii = _kernels.sweep_tree(gens, 2000, fro, True)
        assert (_hex(norms[0]), norms[1]) == (_hex(bn), bne)
        assert (_hex(radii[0]), radii[1]) == (_hex(br), bre)
        assert norms[2] == radii[2] == [0] * 2001
        block = _kernels._BLOCK_BYTES // (3 * 16 * 4)
        assert len(set(bne[1:block + 1])) == (3 if block >= 341 else 1)
        assert len(set(bne)) > 10

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

    def test_real_sets_measure_in_real_arithmetic(self, monkeypatch):
        # a set with no imaginary part reaches norms and radii only as
        # float64 stacks, and a complex set only as complex128 stacks
        seen = []

        def spy(real):
            def measure(stack, *args, **kwargs):
                seen.append(stack.dtype)
                return real(stack, *args, **kwargs)
            return measure

        for name in ("norms", "radii"):
            monkeypatch.setattr(_kernels, name, spy(getattr(_kernels, name)))
        for case, dtype in (("golden", np.float64), ("random-0", np.float64),
                            ("band-high", np.float64), ("tiny-cycle", np.float64),
                            ("refine-2x5x5", np.complex128), ("random-1", np.complex128)):
            M = MatrixSet(PASS_CASES[case])
            seen.clear()
            for fro in (False, True):
                refine(M, 0.05, 20_000, frobenius=fro)
                sandwich_profiles(M, 3, frobenius=fro)
                verify_berger_wang(M, 0.5, 2_000, frobenius=fro)
                normalized_leading_sequence(M, 3, frobenius=fro)
            assert seen and set(seen) == {np.dtype(dtype)}, case

    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", ["golden", "random-0", "random-2", "band-high",
                                      "lift-a2-25", "jordan-d3"])
    def test_real_generator_norms_agree_bit_for_bit(self, name, fro):
        # op_norm, set_norm and upper_bound measure a real generator in
        # the same float64 arithmetic
        M = MatrixSet(PASS_CASES[name]) if name in PASS_CASES else REFINE_CASES[name][0]
        assert not M.gens.imag.any()
        each = [op_norm(g, frobenius=fro) for g in M.generators]
        real = [float(_kernels.norms(np.ascontiguousarray(g.real)[None], fro)[0])
                for g in M.generators]
        assert _hex(each) == _hex(real)
        assert _hex(set_norm(M, 1, frobenius=fro)) == _hex(max(each))
        assert _hex(upper_bound(M, 1, frobenius=fro)) == _hex(max(each))

    def test_single_generator_deep_refine_memory_is_flat(self):
        # a unipotent generator never prunes, so refine walks the single
        # path to _MAX_DEPTH; the engine keeps O(1) products, not one per depth
        M = MatrixSet.from_matrices([_unipotent(16)])
        refine(M, 1e-6, 10**6)  # warm caches outside the trace
        tracemalloc.start()
        try:
            rep = refine(M, 1e-6, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.depth_used == 4096
        assert peak < 384 * 1024


def _necklaces(m, k):
    """Moreau's count of necklaces of k beads in m colours:
    (1/k) sum over d | k of phi(d) m**(k/d)."""
    def phi(d):
        return sum(math.gcd(i, d) == 1 for i in range(1, d + 1))
    return sum(phi(d) * m ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def _least(word):
    """Whether a word (a tuple) is <= each of its cyclic rotations."""
    return all(word <= word[s:] + word[:s] for s in range(1, len(word)))


def _digits(r, m, k):
    """The length-k word of rank r over m letters, most significant first."""
    out = []
    for _ in range(k):
        r, x = divmod(r, m)
        out.append(x)
    return tuple(reversed(out))


# dense integer sets with defective products (exact rho, see oracles)
DEFECTIVE_CASES = {
    **{f"triangular-{i}": g for i, (g, _) in enumerate(oracles.integer_triangular_sets(2026, 24))},
    **{f"jordan-pair-d{d}": g for d, g in oracles.jordan_pairs().items()},
}


def _running_records(vals, best):
    """_kernels._records' contract, one value at a time."""
    out = []
    for j, x in enumerate(vals.tolist()):
        if x > best * (1.0 + _kernels._TIE):
            best = x
            out.append((j, x))
    return out


class TestRecords:
    """_records lists a running best's records in order, as (index, value)."""

    def test_records_match_a_running_best(self):
        # values drawn from a few levels, with ties within _TIE of an
        # earlier value, values at and one ulp above its floor, and zeros
        rng = np.random.default_rng(25)
        tie = _kernels._TIE
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            vals = rng.choice(rng.random(4) * 10.0 ** rng.integers(-3, 4), n)
            for j in np.flatnonzero(rng.random(n) < 0.3):
                floor = vals[int(rng.integers(0, j + 1))] * (1.0 + tie)
                vals[j] = rng.choice([floor, np.nextafter(floor, np.inf), floor / (1.0 + tie / 2),
                                      floor * (1.0 + tie / 2), 0.0])
            best = float(rng.choice([-1.0, 0.0, vals.min(), vals.mean(), vals.max()]))
            got = _kernels._records(vals, best)
            assert [(j, float(x)) for j, x in got] == _running_records(vals, best)
            for j, x in got:
                assert type(x) is np.float64 and float(x).hex() == float(vals[j]).hex()

    def test_records_at_the_floor(self):
        vals = np.array([2.0, 2.0 * (1.0 + _kernels._TIE), 0.0, 1.0])
        assert _kernels._records(vals, -1.0) == [(0, 2.0)]
        up = np.nextafter(vals[1], np.inf)
        assert _kernels._records(np.append(vals, up), -1.0) == [(0, 2.0), (4, up)]

    def test_no_value_above_the_floor_gives_no_record(self):
        # 3 is within _TIE of a best 1e-13 below it
        for best in (3.0, 3.0 * (1.0 - 1e-13), 10.0):
            assert _kernels._records(np.array([0.0, 3.0, 1.0, 3.0]), best) == []
        assert _kernels._records(np.zeros(5), 0.0) == []


class TestNecklaceSweep:
    """The radius side of a sweep measures one word per necklace."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_least_rotations_match_brute_force(self, m):
        # runs of words 1..8 letters long from several first ranks, on all
        # of a run's words and on ascending subsets of them
        rng = np.random.default_rng(m)
        for k in range(1, 9):
            brute = [_least(w) for w in itertools.product(range(m), repeat=k)]
            total = m**k
            firsts = range(total) if total <= 8 else \
                [0, 1, total - 1, *rng.integers(0, total, 5).tolist()]
            for first in firsts:
                left = total - first
                for n in sorted({1, min(m, left), left, int(rng.integers(1, left + 1))}):
                    want = brute[first:first + n]
                    everything = np.arange(n)
                    subsets = [everything, everything[:0], everything[-1:]]
                    subsets += [np.flatnonzero(rng.random(n) < q) for q in (0.1, 0.5)]
                    for idx in subsets:
                        got = _kernels._least_rotations(first, k, m, idx)
                        assert got.dtype == bool, (k, first, n)
                        assert got.tolist() == [want[i] for i in idx], (k, first, n)

    @pytest.mark.parametrize("m,k", [(2, 62), (3, 39), (4, 31), (2, 61), (2, 63)])
    def test_least_rotations_near_and_past_int64(self, m, k):
        # ranks are compared in int64, exact up to m**k = 2**63; runs start
        # near 0, 2**62, 2**63, a third and the end of their length
        total = m**k
        for a in (0, 2**62 - 7, 2**63 - 7, total // 3, total - 40):
            if a < total:
                n = min(40, total - a)
                want = [_least(_digits(a + j, m, k)) for j in range(n)]
                got = _kernels._least_rotations(a, k, m, np.arange(n))
                assert got.dtype == bool and got.tolist() == want, a

    def test_necklace_count(self):
        assert [_necklaces(2, k) for k in range(1, 9)] == [2, 3, 4, 6, 8, 14, 20, 36]
        assert [_necklaces(3, k) for k in range(1, 7)] == [3, 6, 11, 24, 51, 130]
        for m, k in ((2, 8), (3, 5), (4, 4)):
            count = sum(_least(w) for w in itertools.product(range(m), repeat=k))
            assert count == _necklaces(m, k)

    @pytest.mark.parametrize("block_bytes", [_kernels._BLOCK_BYTES, 256])
    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_radii_measure_one_word_per_necklace(self, name, block_bytes, monkeypatch):
        # radii: at most one word per necklace, and none whose norm or
        # Frobenius bound cannot beat its depth's best radius; 2-norms:
        # none whose Frobenius bound cannot beat its depth's best norm.
        # Frobenius norms are taken on every word, and radius-only sweeps
        # take no norm.  On the named sets the bounds cut every count.
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
        M = MatrixSet(SWEEP_CASES[name])
        n = SWEEP_DEPTH[M.size]
        necklaces = sum(_necklaces(M.size, k) for k in range(1, n + 1))
        words = tree_size(M.size, n)
        cut = name in ("refine-2x5x5", "random-0", "random-3")
        radii = _Counted(monkeypatch, "radii")
        norms = _Counted(monkeypatch, "norms")
        lower_bound_r(M, n)
        assert norms.matrices == 0
        assert 0 < radii.matrices <= necklaces
        assert radii.matrices < necklaces or not cut
        for fro in (False, True):
            radii.matrices = norms.matrices = 0
            sandwich_profiles(M, n, frobenius=fro)
            assert 0 < radii.matrices <= necklaces
            if cut or name in ("path-and-scalar", "zero"):
                assert radii.matrices < necklaces
            if fro:
                assert norms.matrices == words
            else:
                assert 0 < norms.matrices <= words
                assert norms.matrices < words or not cut

    def test_sweeps_take_at_most_the_block_sweeps_eigensolves(self, monkeypatch):
        # 2-norm sandwich_profiles plus lower_bound_r over SWEEP_CASES took
        # 15,756 norm and 7,152 radius matrices in multi-level blocks, most
        # of them on the first block below 0^p, where no depth had a record.
        # Runs whose depth starts with one node take 7,637 and 3,669, and
        # runs without that rule 20,127 and 7,881.
        radii = _Counted(monkeypatch, "radii")
        norms = _Counted(monkeypatch, "norms")
        for gens in SWEEP_CASES.values():
            M = MatrixSet(gens)
            n = SWEEP_DEPTH[M.size]
            sandwich_profiles(M, n)
            lower_bound_r(M, n)
        assert norms.matrices <= 15_756
        assert radii.matrices <= 7_152

    @pytest.mark.parametrize("name", sorted(LOWER_CASES))
    def test_radii_equal_the_full_enumeration(self, name):
        # on these sets no rotation's radius beats its necklace's first
        # word by the tie margin, so skipping rotations moves nothing
        gens = LOWER_CASES[name]
        m = gens.shape[0]
        n = SWEEP_DEPTH[m]
        best, exps, words = oracles.loop_full_radii(gens, n)
        for fro in (None, False, True):
            _, (got, got_exps, ranks) = _kernels.sweep_tree(gens, n, fro, True)
            assert _hex(got) == _hex(best) and got_exps == exps
            for k in range(1, n + 1):
                loop_w = (0,) * k if m == 1 else tuple(words[k, :k].tolist())
                assert _word_at(ranks, k, m) == loop_w

    @pytest.mark.parametrize("name", sorted(DEFECTIVE_CASES))
    def test_defective_radii_stay_under_the_full_enumeration(self, name):
        # a rotation's computed radius can beat its necklace's first word
        # on a defective product, but never the full maximum's tie margin:
        # every value is at most the full record times (1 + _TIE)
        gens = DEFECTIVE_CASES[name]
        n = SWEEP_DEPTH[gens.shape[0]]
        best, exps, _ = oracles.loop_full_radii(gens, n)
        for fro in (None, False, True):
            _, (got, got_exps, _) = _kernels.sweep_tree(gens, n, fro, True)
            for k in range(1, n + 1):
                assert math.ldexp(got[k], got_exps[k] - exps[k]) <= best[k] * (1 + _kernels._TIE)


def _nilpotent_stacks(rng, n):
    """Q J Q^T scaled by 0.5..4, Q a random rotation: J the 2 x 2 Jordan
    block, and the 3 x 3 one, every other one with J^2 = 0 (J_2 beside a
    zero).  rho is 0, and eigvals reads about u**(1/2) ||P|| for J^2 = 0."""
    out = []
    for d in (2, 3):
        j = np.zeros((n, d, d))
        j[:, np.arange(d - 1), np.arange(1, d)] = 1.0
        if d == 3:
            j[1::2, 1, 2] = 0.0
        q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
        out.append(rng.uniform(0.5, 4.0, (n, 1, 1)) * (q @ j @ q.transpose(0, 2, 1)))
    return out


def _no_square_bound(stack, nrm):
    """_kernels._square_bound that bounds nothing: refine's norm test alone."""
    return [math.inf] * len(nrm)


def _no_frobenius_bound(stack):
    """_kernels._bound that bounds nothing: every child refine measures
    takes the Gram eigvalsh."""
    return np.full(stack.shape[0], np.inf)


class TestFrobeniusPrefilter:
    """refine cuts a child on its Frobenius root, skipping its Gram
    eigvalsh, where that root cannot beat lower."""

    @pytest.mark.parametrize("name,fro", [
        pytest.param(name, fro, id=f"{name}-frobenius" if fro else name)
        for name in sorted(REFINE_CASES) for fro in (False, True)])
    def test_refine_reports_do_not_depend_on_the_prefilter(self, name, fro, monkeypatch):
        M, width, budget = REFINE_CASES[name]
        got = _report(M, width, budget, fro)
        monkeypatch.setattr(_kernels, "_bound", _no_frobenius_bound)
        assert _report(M, width, budget, fro) == got

    @pytest.mark.parametrize("fro", [False, True])
    def test_a2_lift_reports_do_not_depend_on_the_prefilter(self, fro, monkeypatch):
        # the lifts of the A2 acceptance family, d = 1..9 with 1..9
        # generators; the budget stops four of them (20, 35, 38 and 43)
        lifts = [lift_set(MatrixSet(_a2_member(i))) for i in range(50)]
        got = [_report(L, 0.05, 10_000, fro) for L in lifts]
        monkeypatch.setattr(_kernels, "_bound", _no_frobenius_bound)
        assert [_report(L, 0.05, 10_000, fro) for L in lifts] == got

    def test_bound_is_the_frobenius_norm(self):
        # _bound sums in numpy's order, so it may differ from the reported
        # Frobenius norm by rounding only; inf where the square underflows
        rng = np.random.default_rng(31)
        for d in range(1, 7):
            s = rng.standard_normal((40, d, d)) + 1j * rng.standard_normal((40, d, d))
            for stack in (s.real.copy(), s):
                assert _kernels._bound(stack) == pytest.approx(
                    _kernels.norms(stack, True), rel=4 * d * d * 2.0**-53)
        tiny = np.stack([np.ldexp(np.eye(2), e) for e in (-500, -520)])
        assert _kernels._bound(tiny).tolist() == [math.sqrt(2.0**-999), math.inf]


class TestSquareBound:
    """refine skips eigvals for siblings whose ||P^2|| bound cannot beat lower."""

    @pytest.mark.parametrize("fro", [False, True])
    def test_bound_holds_the_computed_radius(self, fro):
        # the pad s d ||P||^2 is what holds on the nilpotent stacks: there
        # ||fl(P P)||_F**0.5 alone is below eigvals' radius on 595 of the
        # 10,000 matrices, by up to 4.3x
        rng = np.random.default_rng(19)
        stacks = _nilpotent_stacks(rng, 5000)
        for d in range(1, 6):
            z = rng.standard_normal((1000, d, d)) + 1j * rng.standard_normal((1000, d, d))
            stacks.append(z * np.ldexp(1.0, rng.integers(-200, 201, (1000, 1, 1))))
        for i, stack in enumerate(stacks):
            nrm = _kernels.norms(stack, fro).tolist()
            bound = _kernels._square_bound(stack, nrm)
            rad = _kernels.radii(stack).tolist()
            assert max(bound) < math.inf
            assert all(b >= r for b, r in zip(bound, rad))
            if i == 0:  # on a 2 x 2 Jordan block the bound is far below the norm
                assert max(b / x for b, x in zip(bound, nrm)) < 1e-5

    @pytest.mark.parametrize("fro", [False, True])
    def test_no_bound_at_or_past_the_band(self, fro):
        # ||P|| >= 2**_BAND gets no bound, whether P P would overflow
        # (2**300) or not (2**249), and no numpy warning; 2**246 does
        shear = np.array([[1.0, 1.0], [0.0, 1.0]])
        stack = np.stack([np.ldexp(shear, e) for e in (246, 249, 300, 500)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nrm = _kernels.norms(stack, fro).tolist()
            bound = _kernels._square_bound(stack, nrm)
            assert bound[1:] == [math.inf] * 3
            assert _kernels._square_bound(stack[1:], nrm[1:]) == [math.inf] * 3
        assert bound[0] >= _kernels.radii(stack[:1])[0]

    @pytest.mark.parametrize("fro", [False, True])
    def test_no_bound_where_the_square_underflows(self, fro):
        # the sum of squares of fl(P P) is 2**-1019 at 2**-255 (a bound),
        # subnormal at 2**-256 and 2**-300, and P P itself underflows at
        # 2**-520 and 2**-600: no bound there, though rho = ||P|| > 0
        scales = (-255, -256, -300, -520, -600)
        stack = np.stack([np.ldexp(np.eye(2), e) for e in scales])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = _kernels._square_bound(stack, _kernels.norms(stack, fro).tolist())
        assert bound[1:] == [math.inf] * 4
        assert bound[0] >= _kernels.radii(stack[:1])[0]

    @pytest.mark.parametrize("name,fro", [
        pytest.param(name, fro, id=f"{name}-frobenius" if fro else name)
        for name in sorted(REFINE_CASES) for fro in (False, True)])
    def test_refine_reports_do_not_depend_on_the_bound(self, name, fro, monkeypatch):
        M, width, budget = REFINE_CASES[name]
        got = _report(M, width, budget, fro)
        monkeypatch.setattr(_kernels, "_square_bound", _no_square_bound)
        assert _report(M, width, budget, fro) == got

    @pytest.mark.parametrize("fro", [False, True])
    @pytest.mark.parametrize("name", sorted(PASS_CASES))
    def test_pass_reports_do_not_depend_on_the_bound(self, name, fro, monkeypatch):
        # PASS_CASES holds BAND_CASES: products fitted inside the passes
        gens = PASS_CASES[name]

        def outputs():
            return (_report(MatrixSet(gens), 0.02, 50_000, fro),
                    _pass_outputs(_kernels.refine_pass, gens, fro))

        got = outputs()
        monkeypatch.setattr(_kernels, "_square_bound", _no_square_bound)
        assert outputs() == got

    @pytest.mark.parametrize("fro", [False, True])
    def test_bound_cuts_eigvals_on_refine_2x5x5(self, fro, monkeypatch):
        # the same nodes and norms, far fewer radii
        M, width, budget = REFINE_CASES["refine-2x5x5"]
        radii = _Counted(monkeypatch, "radii")
        norms = _Counted(monkeypatch, "norms")
        rep = refine(M, width, budget, frobenius=fro)
        cut = radii.matrices, norms.matrices
        monkeypatch.setattr(_kernels, "_square_bound", _no_square_bound)
        radii.matrices = norms.matrices = 0
        full = refine(M, width, budget, frobenius=fro)
        assert full.nodes_explored == rep.nodes_explored
        assert norms.matrices == cut[1]
        assert 0 < cut[0] < radii.matrices

    def test_single_generator_paths_take_no_square_bound(self, monkeypatch):
        # path blocks keep the norm test alone; siblings take the square
        # bound and the Frobenius prefilter
        calls = []
        for name in ("_square_bound", "_bound"):
            real = getattr(_kernels, name)

            def spy(stack, *args, real=real, name=name):
                calls.append(name)
                return real(stack, *args)

            monkeypatch.setattr(_kernels, name, spy)
        for name in ("jordan-d2", "jordan-d3", "jordan-d4"):
            refine(*REFINE_CASES[name])
        assert calls == []
        refine(*REFINE_CASES["refine-2x5x5"])
        assert set(calls) == {"_square_bound", "_bound"}


class TestCut:
    """A branch is cut where its norm root is at most lower + width, inclusive."""

    @pytest.mark.parametrize("fro", [False, True])
    def test_cut_at_exactly_the_threshold(self, fro):
        # both norms of [[0, 0.75], [0, 0]] are exactly 0.75, its radius and
        # its square are 0; from lower 0.5 the root sits at thr = 0.75, or
        # above thr = 0.625, where a cap of 1 leaves it capped and a cap of
        # 2 cuts its child
        gens = np.array([[[0.0, 0.75], [0.0, 0.0]]], complex)
        # width: cap -> (upper, converged, stop, deepest)
        cases = {0.25: {1: (0.75, True, "converged", 1), 2: (0.75, True, "converged", 1)},
                 0.125: {1: (0.75, False, "depth_limit", 1), 2: (0.625, True, "converged", 2)}}
        for width, caps in cases.items():
            for cap, want in caps.items():
                res = _kernels.refine_pass(gens, cap, width, 0.5, 100, fro)
                assert _pass_result(res, gens) == _pass_result(
                    _loop_pass(gens, cap, width, 0.5, 100, fro), gens)
                assert res[0] == 0.5 and res[1] == ()
                assert res[2:6] == want

    @pytest.mark.parametrize("fro", [False, True])
    def test_child_at_exactly_the_threshold_is_never_expanded(self, fro):
        # both norms of A = [[0, 0.75], [0, 0]] are exactly 0.75, B =
        # [[0, 0.9], [0, 0]] keeps the search open, and every product of two
        # is 0.  From lower 0.5 A's root sits at thr = 0.75, cut, or one ulp
        # above thr, opened and expanded with B in the second step
        gens = np.array([[[0.0, 0.75], [0.0, 0.0]], [[0.0, 0.9], [0.0, 0.0]]], complex)
        above = np.nextafter(0.75, 0.0) - 0.5
        for width, nodes in ((0.25, 4), (above, 6)):
            for cap in (2, 8):
                res = _kernels.refine_pass(gens, cap, width, 0.5, 100, fro)
                assert _pass_result(res, gens) == _pass_result(
                    _loop_pass(gens, cap, width, 0.5, 100, fro), gens)
                assert res[:3] == (0.5, (), 0.5 + width)
                assert res[3:7] == (True, "converged", 2, nodes)

    @pytest.mark.parametrize("fro", [False, True])
    def test_open_node_at_a_risen_threshold_is_never_expanded(self, fro, monkeypatch):
        # five nilpotent generators, two nodes a step.  From lower 0.6 the
        # first step opens A (root 1), B (2), E (1.5) and G (1.2); the second
        # expands B and E, and B D raises lower to x (BD = diag(0.81, 0)).
        # A width of 1 - x puts thr at A's root: A leaves the open set, and
        # the third step expands G alone.  At one ulp less A stays open and
        # is expanded with G
        def nil(up, low=0.0):
            return [[0.0, up], [low, 0.0]]

        gens = np.array([nil(1), nil(2), nil(1.5), nil(0, 0.405), nil(1.2)], complex)
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 640)
        assert _step(gens) == 2
        x, witness = _kernels.refine_pass(gens, 8, 0.25, 0.6, 1000, fro)[:2]
        assert witness == (1, 3)
        for thr, nodes in ((1.0, 20), (np.nextafter(1.0, 0.0), 25)):
            width = thr - x
            assert x + width == thr
            res = _kernels.refine_pass(gens, 8, width, 0.6, 1000, fro)
            assert _pass_result(res, gens) == _pass_result(
                _loop_pass(gens, 8, width, 0.6, 1000, fro), gens)
            assert res[:3] == (x, (1, 3), thr)
            assert res[3:7] == (True, "converged", 2, nodes)

    @pytest.mark.parametrize("fro", [False, True])
    def test_open_nodes_at_the_new_threshold_are_dropped(self, fro):
        # golden from lower 0: both depth-1 nodes are open at root phi; the
        # depth-2 word (0, 1) raises lower to phi, which cuts every child
        res = _kernels.refine_pass(ENGINE_CASES["golden"], 8, 0.02, 0.0, 100, fro)
        assert res[1] == (0, 1) and res[4] == "converged"
        assert (res[5], res[6]) == (2, 6)


class TestSearch:
    """refine_pass expands the open nodes with the largest roots a step at a time."""

    def test_refine_2x5x5_measures_a_step_per_call(self, monkeypatch):
        # 81 nodes' children fill a step; one node at a time the same
        # refine makes 2,114 norms calls of two matrices each
        M, width, budget = REFINE_CASES["refine-2x5x5"]
        measured, norms = _Counted(monkeypatch, "_measure"), _Counted(monkeypatch)
        rep = refine(M, width, budget)
        assert rep.nodes_explored == measured.matrices == 4_330
        assert measured.calls == norms.calls <= 120
        assert norms.matrices == 2_946

    @pytest.mark.parametrize("block_bytes", [_kernels._BLOCK_BYTES, 256])
    @pytest.mark.parametrize("name,width,cut", [("refine-2x5x5", 0.005, 301),
                                                ("jordan-d3", 1e-3, 10)])
    def test_search_stops_at_the_budget(self, name, width, cut, block_bytes, monkeypatch):
        # the budget counts measured products, and a step expands no more
        # nodes than the budget left can measure
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
        gens = np.ascontiguousarray(REFINE_CASES[name][0].gens)
        for cap, budget in ((16, cut), (16, 10**6), (24, 10**6)):
            measured = _Counted(monkeypatch, "_measure")
            res = _kernels.refine_pass(gens, cap, width, 0.0, budget, False)
            assert _pass_result(res, gens) == _pass_result(
                _loop_pass(gens, cap, width, 0.0, budget, False), gens)
            assert res[6] == measured.matrices <= budget
            assert res[5] <= cap
            assert (res[4] == "budget") == (budget == cut)

    @pytest.mark.parametrize("fro", [False, True])
    def test_no_node_past_the_depth_cap(self, fro):
        # capped nodes keep their roots in the upper end and are not expanded
        gens = ENGINE_CASES["refine-2x5x5"]
        for cap in (1, 2, 5, 7):
            res = _kernels.refine_pass(gens, cap, 0.005, 0.0, 10**6, fro)
            assert res[4] == "depth_limit" and res[5] == cap and not res[3]
            assert _pass_result(res, gens) == _pass_result(
                _loop_pass(gens, cap, 0.005, 0.0, 10**6, fro), gens)

    @pytest.mark.parametrize("name,fro", [
        pytest.param(name, fro, id=f"{name}-frobenius" if fro else name)
        for name in sorted(REFINE_CASES) for fro in (False, True)])
    def test_converged_intervals_do_not_depend_on_the_step(self, name, fro, monkeypatch):
        # 1 KiB and 4 KiB hold the children of one to a few nodes, so the
        # search expands its open nodes in another order and batching
        M, width, budget = REFINE_CASES[name]
        want = _report(M, width, budget, fro)
        for block_bytes in (1024, 4096):
            monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
            got = _report(M, width, budget, fro)
            assert got["converged"] == want["converged"]
            if name == "lift-a2-25" and not fro:
                # a step of one node meets the rotation (3, 0) before (0, 3):
                # their roots lie within _TIE, so the first one met stands
                assert (want["lower_witness"], got["lower_witness"]) == ([0, 3], [3, 0])
                for end in ("lower", "upper"):
                    assert float.fromhex(got[end]) == pytest.approx(
                        float.fromhex(want[end]), rel=1e-15)
                continue
            for key in ("lower", "upper", "lower_witness", "depth_used", "stop_reason"):
                assert got[key] == want[key]


def _closed_form(M):
    """rho of a triangular set: the largest modulus on the diagonals."""
    return float(np.abs(np.diagonal(M.gens, axis1=1, axis2=2)).max())


def _block_bracket(g, split, n=6):
    """An interval holding rho(g): the widest brute-force bracket of its two blocks."""
    brs = [oracles.brute_interval(list(b), n)
           for b in (g[:, :split, :split], g[:, split:, split:])]
    return max(lo for lo, _ in brs), max(hi for _, hi in brs)


# one-block sets: (nodes_explored, depth_used, witness length, converged)
# per norm; nodes_explored counts measured products
ONE_BLOCK_REPORTS = {
    "golden": ((6, 2, 2, True), (6, 2, 2, True)),
    "refine-2x5x5": ((4_330, 106, 5, True), (4_508, 106, 5, True)),
    "jordan-d2": ((4096, 4096, 1636, False),) * 2,
    # 2,361 letters in complex arithmetic: the defective eigenvalue moves
    # like u**(1/3) under any change of rounding
    "jordan-d3": ((4096, 4096, 2358, False),) * 2,
    "jordan-d4": ((1194, 1166, 107, True),) * 2,
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
        # vertex is a zero 1 x 1 block, runs one search on the whole set
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
        lower, wit, upper, *_ = _kernels.refine_pass(M.gens, bounds._MAX_DEPTH, width, 0.0,
                                                     budget, fro)
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


# golden pairs past both ends of the double range, at powers of two and not
EXTREME_SCALES = [1e200, 1e-160, 2.0**600, 2.0**-600]


def _holds(lower, upper, x):
    """lower <= x <= upper, up to one rounding of x.

    The upper end can be the computed norm of a generator, which the
    golden pair's rho equals exactly, so it may sit an ulp under x.
    """
    return lower <= x * (1 + 2**-52) and x * (1 - 2**-52) <= upper


@pytest.mark.parametrize("fro", [False, True])
class TestExtremeScales:
    """Products past the double range are measured through their exponents."""

    def test_underflowed_squares_keep_upper_above_lower(self, fro):
        # length-2 products have entries near 1e-320, whose squares underflow
        # and whose radius, about 2.6e-320, was once read as 0
        M = MatrixSet(1e-160 * ENGINE_CASES["golden"])
        up = upper_bound(M, 2, frobenius=fro)
        lb = lower_bound_r(M, 2)
        assert lb.value <= up
        assert up == pytest.approx(oracles.PHI * 1e-160, rel=1e-2)
        assert lb.value == pytest.approx(oracles.PHI * 1e-160, rel=1e-12)
        assert lb.witness == (0, 1)
        if not fro:
            assert op_norm(M.gens[0]) == pytest.approx(oracles.PHI * 1e-160, rel=1e-15)

    def test_huge_products_keep_their_candidates(self, fro):
        # length-2 products have entries near 1e400; the sweeps measure
        # them, and a value past the double range reads inf
        M = MatrixSet(1e200 * ENGINE_CASES["golden"])
        lb = lower_bound_r(M, 6)
        up = upper_bound(M, 6, frobenius=fro)
        bw = verify_berger_wang(M, tol=1e-9 * 1e200, budget=10**4, frobenius=fro)
        assert lb.value == pytest.approx(oracles.PHI * 1e200, rel=1e-12)
        assert lb.witness == (0, 1)
        assert _holds(lb.value, up, oracles.PHI * 1e200) and up < 2 * 1e200
        top = 3.0**0.5 if fro else oracles.PHI
        assert set_norm(M, 1, frobenius=fro) == pytest.approx(top * 1e200, rel=1e-12)
        assert set_norm(M, 3, frobenius=fro) == np.inf
        assert bw.r_lower <= bw.rho_upper == pytest.approx(oracles.PHI * 1e200, rel=1e-6)

    def test_overflowed_norms_keep_finite_radii(self, fro):
        # the generators' Gram matrices (and sums of squares) once read inf;
        # at this width (under the 1e-12 relative floor) the budget runs out
        M = MatrixSet(1e200 * ENGINE_CASES["golden"])
        rep = refine(M, 1e-3, 10_000, frobenius=fro)
        assert not rep.converged
        assert _holds(rep.lower, rep.upper, oracles.PHI * 1e200) and rep.upper < 2 * 1e200

    @pytest.mark.parametrize("s", EXTREME_SCALES)
    def test_refine_holds_the_scaled_value(self, s, fro):
        rep = refine(MatrixSet(s * ENGINE_CASES["golden"]), 1e-6 * s, 10**5, frobenius=fro)
        assert rep.converged
        assert _holds(rep.lower, rep.upper, oracles.PHI * s)

    @pytest.mark.parametrize("s", EXTREME_SCALES)
    def test_sweeps_scale_with_the_set(self, s, fro):
        M = golden()
        S = MatrixSet(s * M.gens)
        assert upper_bound(S, 6, frobenius=fro) == pytest.approx(
            s * upper_bound(M, 6, frobenius=fro), rel=1e-12)
        lb, lbs = lower_bound_r(M, 6), lower_bound_r(S, 6)
        assert lbs.value == pytest.approx(s * lb.value, rel=1e-12)
        assert lbs.witness == lb.witness

    def test_norm_of_a_huge_matrix(self, fro):
        # its Gram matrix (or sum of squares) would overflow
        a = 1e200 * np.eye(2)
        assert op_norm(a, frobenius=fro) == (2.0**0.5 * 1e200 if fro else 1e200)

    def test_small_generator_keeps_its_products(self, fro):
        # products through the 2**-600 generator have entries near 2**-600,
        # whose squares underflow; they were measured as norm 0, pruned, and
        # their radii skipped, so the run converged on an interval below rho
        M = MatrixSet(np.concatenate([2.0**-500 * np.eye(3)[None], TINY_CYCLE]))
        rho = 2.0**-200
        rep = refine(M, 2.0**-400, 10**4, frobenius=fro)
        assert rep.lower <= rho <= rep.upper
        assert rep.lower == pytest.approx(rho, rel=1e-11)
        rep = refine(M, 1e-9 * rho, 10**5, frobenius=fro)
        assert rep.converged and rep.lower <= rho <= rep.upper
        # the cube root of 2**-600 is taken in floating point
        assert upper_bound(MatrixSet(TINY_CYCLE), 3, frobenius=fro) == pytest.approx(rho, rel=1e-14)
        assert lower_bound_r(MatrixSet(TINY_CYCLE), 3).value == pytest.approx(rho, rel=1e-14)

    def test_sweep_keeps_small_products_of_a_large_level(self, fro):
        # the scalar's square sits 2**800 under its level's largest product
        M = MatrixSet(PATH_AND_SCALAR)
        assert set_norm(M, 4, frobenius=fro) == 2.0**-800
        assert upper_bound(M, 4, frobenius=fro) == 2.0**-200
        assert lower_bound_r(M, 4).value == 2.0**-200

    def test_block_far_below_the_lower_end(self, fro):
        # the second block's generators are 2**1026 smaller than the lower
        # end the first block left, which the pass, fitted, once read as inf
        M = MatrixSet(np.array([[[1e9, 0.0], [0.0, 1e-300]]], complex))
        rep = refine(M, 1.0, frobenius=fro)
        assert rep.converged and rep.blocks == (1, 1)
        assert rep.lower <= 1e9 <= rep.upper <= 1e9 + 1.0

    def test_normalized_products_past_the_double_range(self, fro):
        # length-2 and 3 products of golden x 1e200 overflow unscaled
        M = MatrixSet(1e200 * ENGINE_CASES["golden"])
        seq = normalized_leading_sequence(M, 3, frobenius=fro)
        assert len(seq) == 3
        for mat in seq:
            assert op_norm(mat, frobenius=fro) == pytest.approx(1.0, rel=1e-14)

    def test_long_witness_at_small_rho(self, fro):
        # radii of products longer than about 997 letters were read as 0
        # below 1e-300, which cut the witness at rho = 0.5 to 809 letters
        M, width, budget = REFINE_CASES["jordan-d2"]
        rep = refine(MatrixSet(0.5 * M.gens), 0.5 * width, budget, frobenius=fro)
        assert len(rep.lower_witness) > 1000


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(-900, 900))
def test_refine_is_scale_covariant(seed, s):
    # both intervals hold rho(M) once the scaled one is scaled back
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    M = MatrixSet(oracles.random_set(rng, d, m, complex_entries=bool(seed % 2)))
    base = refine(M, 0.05, 20_000)
    rep = refine(MatrixSet(2.0**s * M.gens), 2.0**s * 0.05, 20_000)
    back = (rep.lower * 2.0**-s, rep.upper * 2.0**-s)
    assert interval_distance(base.interval, back) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), s=st.sampled_from([0, 600, -600]), fro=st.booleans())
def test_sandwich_profiles_match_full_enumeration(seed, s, fro):
    # beta is the norm maxima over every word bit for bit, and r never
    # exceeds the radius maxima over every word by more than the tie margin
    rng = np.random.default_rng(seed)
    d, m, n = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 7))
    g = oracles.random_set(rng, d, m, complex_entries=bool(seed % 2))
    M = MatrixSet(2.0**s * g)
    r, beta = sandwich_profiles(M, n, frobenius=fro)
    bn, bne, _, _, _, _, _ = oracles.loop_sweep_tree(M.gens, n, False, fro)
    want = np.minimum.accumulate([oracles._root(float(bn[k]), bne[k], k) for k in range(1, n + 1)])
    assert _hex(beta) == _hex(want)
    full = [max(oracles.eig_rho(oracles.word_product(g, w)) for w in oracles.words(m, k))
            ** (1.0 / k) for k in range(1, n + 1)]
    assert np.all(r <= 2.0**s * np.maximum.accumulate(full) * (1.0 + _kernels._TIE))


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), budget=st.integers(2, 300), fro=st.booleans())
def test_budget_cut_intervals_meet_the_brute_interval(seed, budget, fro):
    # both intervals hold rho(M), so an interval the budget cut short
    # still meets the brute-force one
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    M = MatrixSet(oracles.random_set(rng, 2, m, complex_entries=bool(seed % 2)))
    rep = refine(M, 1e-9, budget, frobenius=fro)
    assert rep.nodes_explored <= max(budget, m)
    assume(not rep.converged)
    assert rep.stop_reason == "budget"
    lo, hi = oracles.brute_interval(list(M.gens), 6)
    assert rep.lower <= hi * (1 + 1e-9) + 1e-12
    assert lo <= rep.upper * (1 + 1e-9) + 1e-12
