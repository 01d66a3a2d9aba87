import numpy as np
import pytest

from jsrkit import (
    BudgetExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    LeadingProduct,
    MatrixSet,
    ShapeError,
    evaluate,
    leading_products,
    normalized_leading_sequence,
    op_norm,
    set_norm,
    tree_size,
)

import oracles


def golden():
    return MatrixSet.from_matrices(oracles.GOLDEN, name="golden")


def diag_pair():
    return MatrixSet.from_matrices(oracles.DIAG_PAIR)


class TestMatrixSet:
    def test_basic_properties(self):
        M = golden()
        assert M.dim == 2 and M.size == 2 and M.name == "golden"
        assert M.gens.shape == (2, 2, 2)

    def test_generators_are_read_only(self):
        M = golden()
        with pytest.raises(ValueError):
            M.gens[0, 0, 0] = 5.0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            MatrixSet.from_matrices([])

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            MatrixSet.from_matrices([np.eye(2), np.eye(3)])

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            MatrixSet.from_matrices([[[np.inf, 0], [0, 1]]])
        with pytest.raises(ShapeError, match="finite"):
            MatrixSet(np.full((1, 2, 2), np.nan))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (0, 2, 2), (1, 0, 0)])
    def test_rejects_bad_stack_shapes(self, shape):
        with pytest.raises(ShapeError):
            MatrixSet(np.zeros(shape))

    def test_scaled(self):
        M = golden().scaled(0.5j)
        assert np.array_equal(M.gens, 0.5j * golden().gens)


class TestEvaluate:
    def test_left_to_right_order(self):
        M = golden()
        got = evaluate(M, (0, 1))
        assert np.array_equal(got, oracles.GOLDEN[0] @ oracles.GOLDEN[1])
        assert np.array_equal(got, np.array([[2, 1], [1, 1]], dtype=complex))

    def test_rejects_empty_word(self):
        with pytest.raises(ShapeError):
            evaluate(golden(), ())

    def test_rejects_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            evaluate(golden(), (0, 2))
        with pytest.raises(IndexOutOfRange):
            evaluate(golden(), (-1,))

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        M = MatrixSet.from_matrices(oracles.random_set(rng, 3, 3, complex_entries=True))
        for w in [(0,), (2, 1), (1, 0, 2, 2), (0, 1, 2, 0, 1)]:
            assert np.allclose(evaluate(M, w), oracles.word_product(list(M.gens), w))


class TestTreeSize:
    def test_counts_all_words(self):
        assert tree_size(2, 3) == 2 + 4 + 8
        assert tree_size(1, 5) == 5
        assert tree_size(3, 0) == 0


class TestSetNorm:
    def test_diag_pair_depth_two(self):
        # the loudest length-2 product is diag(1,3)^2 with norm 9
        assert set_norm(diag_pair(), 2) == 9.0

    def test_rejects_depth_zero(self):
        with pytest.raises(ShapeError, match="depth"):
            set_norm(diag_pair(), 0)

    def test_singleton_equals_power_norm_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = oracles.random_set(rng, 4, 1, complex_entries=True)[0]
            M = MatrixSet.from_matrices([a])
            for n in (1, 2, 3, 5):
                p = np.eye(4, dtype=complex)
                for _k in range(n):
                    p = p @ a
                assert set_norm(M, n) == op_norm(p)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            gens = oracles.random_set(rng, d, m, complex_entries=bool(rng.integers(0, 2)))
            M = MatrixSet.from_matrices(gens)
            for n in (1, 2, 4):
                want = oracles.brute_set_norm(list(gens), n)
                assert set_norm(M, n) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_submultiplicative_across_depths(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            M = MatrixSet.from_matrices(oracles.random_set(rng, 3, 2))
            for j, k in [(1, 1), (1, 2), (2, 2), (2, 3)]:
                lhs = set_norm(M, j + k)
                rhs = set_norm(M, j) * set_norm(M, k)
                assert lhs <= rhs * (1.0 + 1e-9) + 1e-12

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(14)
        M = MatrixSet.from_matrices(oracles.random_set(rng, 3, 2, complex_entries=True))
        c = -1.75 + 0.5j
        for n in (1, 2, 3):
            want = abs(c) ** n * set_norm(M, n)
            assert set_norm(M.scaled(c), n) == pytest.approx(want, rel=1e-9)

    def test_budget(self):
        M = golden()
        with pytest.raises(BudgetExceeded):
            set_norm(M, 4, budget=10)
        assert set_norm(M, 4, budget=tree_size(2, 4)) > 0


class TestLeadingProducts:
    def test_golden_depth_two_entry(self):
        rows = leading_products(golden(), 4)
        assert rows[0] == LeadingProduct(1, (0,), pytest.approx(oracles.PHI, rel=1e-12))
        two = [r for r in rows if r.n == 2]
        assert two and two[0].word == (0, 1)
        assert two[0].norm == pytest.approx(2.6180339887498953, rel=1e-12)

    def test_norms_nondecreasing(self):
        rng = np.random.default_rng(15)
        for _ in range(6):
            M = MatrixSet.from_matrices(oracles.random_set(rng, 3, 2))
            rows = leading_products(M, 5)
            norms = [r.norm for r in rows]
            assert norms == sorted(norms)
            assert all(rows[i].n < rows[i + 1].n for i in range(len(rows) - 1))

    def test_emission_rule_matches_oracle(self):
        # a depth appears iff its best norm ties or beats every earlier best
        rng = np.random.default_rng(16)
        M = MatrixSet.from_matrices(oracles.random_set(rng, 2, 2))
        for fro in (False, True):
            rows = leading_products(M, 6, frobenius=fro)
            best, expect = 0.0, []
            for n in range(1, 7):
                top = oracles.brute_set_norm(list(M.gens), n, frobenius=fro)
                if top >= best:
                    expect.append(n)
                    best = top
            assert [r.n for r in rows] == expect
            for r in rows:
                want = oracles.brute_set_norm(list(M.gens), r.n, frobenius=fro)
                assert r.norm == pytest.approx(want, rel=1e-12)

    def test_normalized_sequence_has_unit_norms(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            M = MatrixSet.from_matrices(oracles.random_set(rng, 3, 2, complex_entries=True))
            for fro in (False, True):
                for mat in normalized_leading_sequence(M, 5, frobenius=fro):
                    assert op_norm(mat, frobenius=fro) == pytest.approx(1.0, abs=1e-10)
