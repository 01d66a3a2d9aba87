import math

import numpy as np
import pytest

from jsrkit import (
    DimensionMismatch,
    DimensionOverflow,
    MatrixSet,
    SelfCheckFailed,
    check_lift_identities,
    check_w_product_identity,
    lift_LR,
    lift_set,
    lower_bound_r,
    noncompactness_radius,
    spectral_radius,
    unvec,
    vec,
)
from jsrkit import lift

import oracles


class TestVec:
    def test_column_major_order(self):
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vec(x), np.array([1, 3, 2, 4], dtype=complex))

    def test_roundtrip(self):
        rng = np.random.default_rng(41)
        for d in (1, 2, 3, 5):
            x = oracles.random_set(rng, d, 1, complex_entries=True)[0]
            assert np.array_equal(unvec(vec(x), d), x)


class TestLiftLR:
    def test_matrix_is_kron(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        L = lift_LR(a, b)
        assert isinstance(L, np.ndarray) and L.shape == (4, 4)
        assert np.array_equal(L, np.kron(b.T, a))

    def test_action_is_two_sided_multiply(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 4):
            a, b, x = (oracles.random_set(rng, d, 1, complex_entries=True)[0]
                       for _ in range(3))
            L = lift_LR(a, b)
            assert np.allclose(unvec(L @ vec(x), d), a @ x @ b, atol=1e-12)

    def test_identity_lifts_to_identity(self):
        e = np.eye(3, dtype=complex)
        assert np.array_equal(lift_LR(e, e), np.eye(9, dtype=complex))

    def test_spectral_radius_factorizes(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            a = oracles.random_set(rng, 3, 1, complex_entries=True)[0]
            b = oracles.random_set(rng, 3, 1, complex_entries=True)[0]
            want = spectral_radius(a) * spectral_radius(b)
            got = spectral_radius(lift_LR(a, b))
            assert got == pytest.approx(want, rel=1e-7, abs=1e-10)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            lift_LR(np.eye(2), np.eye(3))
        with pytest.raises(DimensionOverflow):
            lift_LR(np.eye(70), np.eye(70))

    def test_self_check_refuses_a_wrong_product(self):
        # a b whose transpose is itself makes the builder form kron(b, a),
        # the lift of x -> a x b^T, which the replay on a x b must refuse
        class Untransposed(np.ndarray):
            def transpose(self, *axes):
                return np.asarray(self)

        a = np.array([[[1, 2], [3, 4]]], dtype=complex)
        b = np.array([[[0, 1], [0, 0]]], dtype=complex)
        assert np.array_equal(lift._lifts(a, b)[0], np.kron(b[0].T, a[0]))
        with pytest.raises(SelfCheckFailed, match="lift action residual"):
            lift._lifts(a, b.view(Untransposed))

    @staticmethod
    def unimodular_lift(d):
        # every entry of the lift has modulus 1, so each one matters alike
        rng = np.random.default_rng(51)
        a, b = np.exp(2j * np.pi * rng.random((2, 1, d, d)))
        L = lift._lifts(a, b)
        lift._self_check(L, a, b)
        return L, a, b

    # each entry is checked against its own scale, so the limit does not
    # grow with d beside one entry's share: a limit from the norms of a, b
    # and x let an entry off by 1e-8 pass every probe from d = 6 on
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_self_check_refuses_any_entry_off_by_1e_8(self, d):
        L, a, b = self.unimodular_lift(d)
        for i, j in np.ndindex(d * d, d * d):
            bad = L.copy()
            bad[0, i, j] *= 1 + 1e-8
            with pytest.raises(SelfCheckFailed, match="lift action residual"):
                lift._self_check(bad, a, b)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_self_check_refuses_any_two_columns_swapped(self, d):
        L, a, b = self.unimodular_lift(d)
        for j in range(d * d):
            for k in range(j):
                bad = L.copy()
                bad[0][:, [j, k]] = L[0][:, [k, j]]
                with pytest.raises(SelfCheckFailed, match="lift action residual"):
                    lift._self_check(bad, a, b)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
    def test_probes_span_as_many_directions_as_they_can(self, d):
        # a wrong lift that only differs off their span would pass
        s = np.linalg.svd(lift._probes(d).reshape(lift._SELF_CHECK_TRIALS, -1),
                          compute_uv=False)
        assert s[-1] > s[0] / 100

    def test_self_check_refuses_a_lift_past_the_double_range(self):
        # the lift's entries and the check's tolerance overflow to inf, and
        # NaN residuals never compared greater than it
        with pytest.raises(SelfCheckFailed, match="lift action residual"):
            lift_LR(1e160 * np.eye(2), 1e160 * np.eye(2))


class TestLiftSet:
    def test_size_and_tags(self):
        M = MatrixSet.from_matrices(oracles.GOLDEN, name="g")
        L = lift_set(M)
        assert L.size == 4 and L.dim == 4
        assert L.name.endswith(":lift")

    def test_generator_order_is_row_major_pairs(self):
        M = MatrixSet.from_matrices(oracles.GOLDEN)
        L = lift_set(M)
        rng = np.random.default_rng(44)
        x = oracles.random_set(rng, 2, 1, complex_entries=True)[0]
        for i in range(2):
            for j in range(2):
                want = oracles.GOLDEN[i] @ x @ oracles.GOLDEN[j]
                got = unvec(L.gens[i * 2 + j] @ vec(x), 2)
                assert np.allclose(got, want, atol=1e-12)

    def test_lifts_equal_np_kron_bit_for_bit(self):
        rng = np.random.default_rng(49)
        for d, m in ((1, 3), (3, 2), (4, 3)):
            g = oracles.random_set(rng, d, m, complex_entries=True)
            L = lift_set(MatrixSet.from_matrices(g))
            for i in range(m):
                for j in range(m):
                    assert np.array_equal(L.gens[i * m + j], np.kron(g[j].T, g[i]))

    def test_word_product_acts_by_reversed_right_factors(self):
        # composing lifts multiplies left factors in order and right
        # factors in reverse order
        rng = np.random.default_rng(45)
        g = oracles.random_set(rng, 2, 2, complex_entries=True)
        M = MatrixSet.from_matrices(g)
        L = lift_set(M)
        x = oracles.random_set(rng, 2, 1, complex_entries=True)[0]
        word = (0 * 2 + 1, 1 * 2 + 0)  # (a0, b1) then (a1, b0)
        p = oracles.word_product(list(L.gens), word)
        want = g[0] @ g[1] @ x @ g[0] @ g[1]
        assert np.allclose(unvec(p @ vec(x), 2), want, atol=1e-11)

    def test_lower_bounds_square_exactly_per_depth(self):
        rng = np.random.default_rng(46)
        for _ in range(6):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            M = MatrixSet.from_matrices(oracles.random_set(rng, d, m))
            L = lift_set(M)
            for n in (1, 2, 3):
                rM = lower_bound_r(M, n).value
                rL = lower_bound_r(L, n).value
                assert rL == pytest.approx(rM**2, rel=1e-9, abs=1e-12)


class TestLiftIdentities:
    def test_golden_passes(self):
        M = MatrixSet.from_matrices(oracles.GOLDEN)
        rep = check_lift_identities(M, 4)
        assert rep.passed
        assert rep.r_exact_gap <= 1e-7
        assert rep.rho_sq_gap == 0.0
        lo, hi = rep.interval
        llo, lhi = rep.lifted_interval
        assert max(lo**2, llo) <= min(hi**2, lhi) * (1 + 1e-12)

    def test_random_sets_pass(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            M = MatrixSet.from_matrices(oracles.random_set(rng, 2, 2))
            rep = check_lift_identities(M, 3, budget=50_000)
            assert rep.passed, rep

    def test_dict_round(self):
        M = MatrixSet.from_matrices(oracles.DIAG_PAIR)
        d = check_lift_identities(M, 2, budget=20_000).to_dict()
        assert d["pass"] is True
        assert "r_exact_gap" in d and "lifted_interval" in d
        assert list(d)[-2:] == ["w_residual_max", "w_pass"] and d["w_pass"] is True


    @pytest.mark.parametrize("kw", [{"tol": math.inf}, {"tol": math.nan}, {"tol": 0.0},
                                    {"width": math.inf}, {"width": math.nan},
                                    {"width": -0.05}])
    def test_tol_and_width_validation(self, kw):
        # an infinite tol used to pass whatever the gaps were
        with pytest.raises(ValueError):
            check_lift_identities(MatrixSet.from_matrices(oracles.GOLDEN), 2, **kw)


class TestWProductIdentity:
    def test_residual_small_on_random_pairs(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            a = oracles.random_set(rng, d, 1, complex_entries=True)[0]
            b = oracles.random_set(rng, d, 1, complex_entries=True)[0]
            resid = check_w_product_identity(a, b)
            scale = (np.linalg.norm(a) * np.linalg.norm(b)) ** 2
            assert resid <= 1e-10 * max(scale, 1e-30)

    def test_identity_pair_is_exact(self):
        e = np.eye(2, dtype=complex)
        assert check_w_product_identity(e, e) == 0.0

    def test_residual_past_the_double_range_is_refused(self, monkeypatch):
        # doubled lifts leave a residual of order 1 on the fitted pair, and
        # scaled back by 2**(4 * 301) it is no finite double
        build = lift._lifts
        monkeypatch.setattr(lift, "_lifts", lambda a, b: 2.0 * build(a, b))
        a, b = (2.0**300 * g for g in oracles.GOLDEN)
        with pytest.raises(SelfCheckFailed, match="w-product residual"):
            check_w_product_identity(a, b)


def _scaled_pairs():
    rng = np.random.default_rng(50)
    cplx = oracles.random_set(rng, 3, 2, complex_entries=True)
    return {"golden": np.stack(oracles.GOLDEN), "complex-3x3": cplx}


SCALES = (141, 200, 255, 300, 400, 511)


class TestExtremeScales:
    """lift(2**k M) = 2**(2k) lift(M), and the w identity has degree 4."""

    @pytest.mark.parametrize("k", SCALES)
    @pytest.mark.parametrize("name", ["golden", "complex-3x3"])
    def test_lift_set_scales_exactly(self, name, k):
        g = _scaled_pairs()[name]
        want = lift_set(MatrixSet(g)).gens
        got = lift_set(MatrixSet(np.ldexp(g.view(float), k).view(complex))).gens
        assert np.array_equal(got.view(float), np.ldexp(want.view(float), 2 * k))

    @pytest.mark.parametrize("k", SCALES)
    @pytest.mark.parametrize("name", ["golden", "complex-3x3"])
    def test_w_residual_scales_by_the_fourth_power(self, name, k):
        a, b = _scaled_pairs()[name]
        r = check_w_product_identity(a, b)
        big = [np.ldexp(x.view(float), k).view(complex) for x in (a, b)]
        if r == 0.0 or math.frexp(r)[1] + 4 * k <= 1024:
            assert check_w_product_identity(*big) == math.ldexp(r, 4 * k)
        else:
            with pytest.raises(SelfCheckFailed, match="w-product residual"):
                check_w_product_identity(*big)

    def test_w_residual_is_refused_exactly_past_the_double_range(self):
        # the fitted pair, so its residual, is the same at every 2**k, and
        # that residual scaled back by 2**(4k) is returned up to the last k
        # at which it is a finite double and refused from the next k on
        a, b = _scaled_pairs()["complex-3x3"]
        r = check_w_product_identity(a, b)
        assert r > 0.0
        last = (1024 - math.frexp(r)[1]) // 4
        for k in (last - 1, last):
            big = [np.ldexp(x.view(float), k).view(complex) for x in (a, b)]
            got = check_w_product_identity(*big)
            assert got == math.ldexp(r, 4 * k) and math.isfinite(got)
        assert math.ldexp(r, 4 * last) > 2.0**1020
        for k in (last + 1, last + 2):
            big = [np.ldexp(x.view(float), k).view(complex) for x in (a, b)]
            with pytest.raises(SelfCheckFailed, match="w-product residual"):
                check_w_product_identity(*big)

    @pytest.mark.parametrize("k", SCALES)
    @pytest.mark.parametrize("name", ["golden", "complex-3x3"])
    def test_lift_identities_keep_their_verdicts(self, name, k):
        g = _scaled_pairs()[name]
        r = check_lift_identities(MatrixSet(g), 2, budget=2_000).w_residual_max
        M = MatrixSet(np.ldexp(g.view(float), k).view(complex))
        if r == 0.0 or math.frexp(r)[1] + 4 * k <= 1024:
            rep = check_lift_identities(M, 2, budget=2_000)
            assert rep.passed and rep.w_pass
            assert rep.w_residual_max == math.ldexp(r, 4 * k)
        else:  # a rounding-level residual times 2**(4k) is no double
            with pytest.raises(SelfCheckFailed, match="w-product residual"):
                check_lift_identities(M, 2, budget=2_000)

    @pytest.mark.parametrize("s,match", [(2.0**512, "lift action residual"),
                                         (1.9 * 2.0**511, "w-product residual")],
                             ids=["2**512", "1.9*2**511"])
    def test_past_the_double_range_is_refused(self, s, match):
        # at 2**512 the lift's entries pass 2**1024; at 1.9 * 2**511 they
        # do not, but the w residual scaled back by 2**2048 does
        M = MatrixSet(s * np.stack(oracles.GOLDEN))
        with pytest.raises(SelfCheckFailed, match=match):
            check_lift_identities(M, 2, budget=2_000)

    def test_rho_squared_past_the_double_range_is_refused(self):
        # the lifts and the exact w identity stay finite, rho(M)^2 does
        # not; squaring it raised OverflowError
        M = MatrixSet(1.5 * 2.0**511 * np.stack(oracles.GOLDEN))
        with pytest.raises(SelfCheckFailed, match=r"rho\(M\)\^2"):
            check_lift_identities(M, 2, budget=2_000)


def _w_sets():
    """A2 members 0-49, the cli-cold sets, the zero set and 60 random sets."""
    out = []
    for i in range(50):
        rng = np.random.default_rng(20_000 + i)
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        out.append(oracles.random_set(rng, d, m))
    out += [np.stack(oracles.GOLDEN), np.stack(oracles.HAND_PAIR)]
    for i in (5, 16):  # the block-upper cli-cold inputs are A4 members
        rng = np.random.default_rng(40_000 + i)
        d, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        out.append(oracles.random_block_upper(rng, d, m))
    out.append(np.zeros((2, 3, 3), dtype=complex))
    rng = np.random.default_rng(51)
    for t in range(60):
        d, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        out.append(oracles.random_set(rng, d, m, complex_entries=t % 2 == 1))
    return out


class TestWIdentityOracle:
    def test_w_fields_match_the_pair_loop(self):
        for g in _w_sets():
            i, j = np.divmod(np.arange(len(g) ** 2), len(g))
            got = lift._w_identity(g, i, j)
            want = oracles.loop_w_identity(g)
            assert got[0].hex() == float(want[0]).hex() and got[1] == want[1], g

    def test_report_carries_the_w_fields(self):
        for g in _w_sets()[::10]:
            rep = check_lift_identities(MatrixSet(g), 1, budget=500)
            assert (rep.w_residual_max, rep.w_pass) == oracles.loop_w_identity(g)


def test_noncompactness_radius_is_zero_for_bounded_sets():
    M = MatrixSet.from_matrices(oracles.GOLDEN)
    assert noncompactness_radius(M) == 0.0
