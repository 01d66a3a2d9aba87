import dataclasses
import math

import numpy as np
import pytest

from jsrkit import (
    DimensionCap,
    FDAlgebra,
    Ideal,
    IllConditioned,
    InvalidBasis,
    MatrixSet,
    NotAChain,
    NotAnIdeal,
    NotClosed,
    NotInAlgebra,
    PreconditionNotCertified,
    QuotientAlgebra,
    SelfCheckFailed,
    ShapeError,
    check_inessential,
    check_nilpotent_span,
    generated_subalgebra,
    hypocompact_radical,
    ideal_chain_monotonicity,
    jacobson_radical,
    quotient,
    radical_power_chain,
    rcq_membership,
)
from jsrkit import algebra

import oracles


def E(i, j, d):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def ut2():
    """Upper triangular 2x2: basis E11, E12, E22."""
    return FDAlgebra([E(0, 0, 2), E(0, 1, 2), E(1, 1, 2)])


def strict_ut3():
    """Strictly upper triangular 3x3: E12, E13, E23 (nilpotent)."""
    return FDAlgebra([E(0, 1, 3), E(0, 2, 3), E(1, 2, 3)])


def full_ut3():
    return FDAlgebra([E(0, 0, 3), E(0, 1, 3), E(0, 2, 3),
                      E(1, 1, 3), E(1, 2, 3), E(2, 2, 3)])


class TestFDAlgebra:
    def test_dimensions_and_unit(self):
        A = ut2()
        assert A.dim == 3 and A.ambient_dim == 2
        assert A.unital
        # unit is E11 + E22
        assert np.allclose(A.unit_coeffs, [1, 0, 1], atol=1e-10)

    def test_nilpotent_algebra_has_no_unit(self):
        assert not strict_ut3().unital

    def test_rejects_dependent_basis(self):
        with pytest.raises(InvalidBasis):
            FDAlgebra([E(0, 0, 2), 2 * E(0, 0, 2)])

    def test_rejects_overfull_basis(self):
        with pytest.raises(InvalidBasis):
            FDAlgebra([E(i, j, 2) for i in range(2) for j in range(2)] + [np.eye(2)])

    def test_rejects_empty_and_mixed_bases(self):
        with pytest.raises(InvalidBasis):
            FDAlgebra([])
        with pytest.raises(ShapeError):
            FDAlgebra([np.eye(2), np.eye(3)])

    def test_wrong_lengths_raise_shape_error(self):
        A = ut2()
        with pytest.raises(ShapeError):
            A.element([1.0, 2.0])
        with pytest.raises(ShapeError):
            A.coeffs_of(np.eye(3))
        with pytest.raises(ShapeError):
            Ideal(A, np.ones(2))
        with pytest.raises(ShapeError):
            rcq_membership(A, np.ones(2))

    def test_rejects_non_closed_span(self):
        # E12 E21 = E11 leaves the span
        with pytest.raises(NotClosed):
            FDAlgebra([E(0, 1, 2), E(1, 0, 2)])

    def test_element_coeffs_roundtrip(self):
        A = ut2()
        c = np.array([1.5, -2j, 0.25])
        x = A.element(c)
        assert np.allclose(A.coeffs_of(x), c, atol=1e-12)

    def test_coeffs_of_rejects_outsiders(self):
        with pytest.raises(NotInAlgebra):
            ut2().coeffs_of(E(1, 0, 2))

    def test_multiply_matches_matrix_product(self):
        A = full_ut3()
        rng = np.random.default_rng(51)
        for _ in range(6):
            u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            want = A.coeffs_of(A.element(u) @ A.element(v))
            assert np.allclose(A.multiply(u, v), want, atol=1e-10)

    def test_left_right_mult_matrices(self):
        A = ut2()
        rng = np.random.default_rng(52)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        assert np.allclose(A.left_mult_matrix(u) @ v, A.multiply(u, v), atol=1e-12)
        assert np.allclose(A.right_mult_matrix(u) @ v, A.multiply(v, u), atol=1e-12)

    def test_gram_is_plain_trace_table(self):
        A = ut2()
        basis = A.basis
        want = np.array([[np.trace(a @ b) for b in basis] for a in basis])
        assert np.allclose(A.gram, want, atol=1e-12)


class TestGeneratedSubalgebra:
    def test_golden_pair_generates_everything(self):
        M = MatrixSet.from_matrices(oracles.GOLDEN)
        assert generated_subalgebra(M).dim == 4

    def test_single_shear_generates_plane(self):
        M = MatrixSet.from_matrices([[[1, 1], [0, 1]]])
        A = generated_subalgebra(M)
        assert A.dim == 2 and A.unital

    def test_upper_triangular_pair(self):
        M = MatrixSet.from_matrices(oracles.HAND_PAIR)
        assert generated_subalgebra(M).dim == 3

    def test_dimension_cap(self):
        M = MatrixSet.from_matrices(oracles.GOLDEN)
        with pytest.raises(DimensionCap):
            generated_subalgebra(M, 2)

    def test_rejects_all_zero_generators(self):
        M = MatrixSet.from_matrices([np.zeros((2, 2))])
        with pytest.raises(InvalidBasis):
            generated_subalgebra(M)

    def test_closure_is_reached(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            d = int(rng.integers(2, 5))
            M = MatrixSet.from_matrices(oracles.random_block_upper(rng, d, 2))
            A = generated_subalgebra(M)
            for g in M.generators:
                A.coeffs_of(g)  # membership must hold
            # closure: products of random members stay inside
            u = A.element(rng.standard_normal(A.dim))
            v = A.element(rng.standard_normal(A.dim))
            A.coeffs_of(u @ v)


class TestJacobsonRadical:
    def test_ut2_radical_is_the_corner(self):
        A = ut2()
        rad = jacobson_radical(A)
        assert rad.dim == 1
        assert rad.contains(A.coeffs_of(E(0, 1, 2)))

    def test_full_matrix_algebra_is_semisimple(self):
        A = generated_subalgebra(MatrixSet.from_matrices(oracles.GOLDEN))
        assert jacobson_radical(A).dim == 0

    def test_diagonal_algebra_is_semisimple(self):
        A = FDAlgebra([E(0, 0, 2), E(1, 1, 2)])
        assert jacobson_radical(A).dim == 0

    def test_nilpotent_algebra_is_all_radical(self):
        A = strict_ut3()
        assert jacobson_radical(A).dim == A.dim  # gram vanishes identically

    def test_ambiguous_scale_raises(self):
        # second trace-form singular value sits exactly at the threshold
        A = FDAlgebra([E(0, 0, 2), 1e-4 * E(1, 1, 2)])
        with pytest.raises(IllConditioned):
            jacobson_radical(A)

    def test_radical_elements_are_nilpotent(self):
        A = full_ut3()
        rad = jacobson_radical(A)
        assert rad.dim == 3
        rng = np.random.default_rng(54)
        for _ in range(5):
            c = rad.coeffs @ rng.standard_normal(rad.dim)
            x = A.element(c)
            assert np.linalg.norm(np.linalg.matrix_power(x, 3)) <= 1e-10


class TestIdeal:
    def test_zero_and_whole(self):
        A = ut2()
        assert Ideal.zero(A).dim == 0
        assert Ideal.whole(A).dim == 3
        assert Ideal.whole(A).contains([1, 2, 3])
        assert not Ideal.zero(A).contains([1, 0, 0])
        assert Ideal.zero(A).contains([0, 0, 0])

    def test_two_sidedness_enforced(self):
        A = ut2()
        with pytest.raises(NotAnIdeal):
            Ideal(A, np.array([1.0, 0.0, 0.0]))  # span{E11}: E11 E12 escapes

    def test_escaping_side_is_named(self):
        A = ut2()
        # span{E11}: E11 E12 = E12 escapes on the right
        with pytest.raises(NotAnIdeal, match=r"^\(ideal vector 0\) \* b_1 leaves"):
            Ideal(A, np.array([1.0, 0.0, 0.0]))
        # span{E22}: E12 E22 = E12 escapes on the left
        with pytest.raises(NotAnIdeal, match=r"^b_1 \* \(ideal vector 0\) leaves"):
            Ideal(A, np.array([0.0, 0.0, 1.0]))

    def test_corner_ideal_is_accepted(self):
        A = ut2()
        J = Ideal(A, np.array([0.0, 1.0, 0.0]))
        assert J.dim == 1

    def test_rejects_foreign_parent(self):
        with pytest.raises(TypeError):
            Ideal("not an algebra", np.zeros(3))


class TestQuotient:
    def test_ut2_mod_radical_is_diagonal_pair(self):
        A = ut2()
        Q = quotient(A, jacobson_radical(A))
        assert Q.dim == 2 and Q.unital and Q.rep_dim == 2

    def test_hand_pair_rep_recovers_diagonal_spectra(self):
        M = MatrixSet.from_matrices(oracles.HAND_PAIR)
        A = generated_subalgebra(M)
        Q = quotient(A, jacobson_radical(A))
        R = Q.rep_set(M)
        e0 = sorted(np.linalg.eigvals(R.gens[0]).real)
        e1 = sorted(np.linalg.eigvals(R.gens[1]).real)
        assert e0 == pytest.approx([1.0, 2.0], abs=1e-8)
        assert e1 == pytest.approx([1.0, 3.0], abs=1e-8)

    def test_rep_vanishes_on_ideal_and_separates_complement(self):
        A = ut2()
        Q = quotient(A, jacobson_radical(A))
        assert np.linalg.norm(Q.rep(E(0, 1, 2))) <= 1e-12
        assert np.linalg.norm(Q.rep(E(0, 0, 2))) >= 0.9

    def test_rep_is_multiplicative_on_random_elements(self):
        A = full_ut3()
        Q = quotient(A, Ideal(A, np.eye(6)[:, [2]]))  # kill span{E13}
        rng = np.random.default_rng(55)
        for _ in range(6):
            u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            lhs = Q.rep_coeffs(u) @ Q.rep_coeffs(v)
            rhs = Q.rep_coeffs(A.multiply(u, v))
            assert np.allclose(lhs, rhs, atol=1e-8)

    def test_non_unital_quotient_gets_extra_dimension(self):
        A = strict_ut3()
        J = Ideal(A, np.eye(3)[:, [1]])  # kill span{E13}
        Q = quotient(A, J)
        assert Q.dim == 2 and not Q.unital and Q.rep_dim == 3
        # faithful: the surviving generators act nontrivially
        assert np.linalg.norm(Q.rep(E(0, 1, 3))) >= 0.9
        assert np.linalg.norm(Q.rep(E(0, 2, 3))) <= 1e-12

    def test_quotient_by_zero_ideal_keeps_dimension(self):
        A = ut2()
        Q = quotient(A, Ideal.zero(A))
        assert Q.dim == 3 and Q.unital and Q.rep_dim == 3

    def test_quotient_by_whole_algebra_is_zero(self):
        A = ut2()
        Q = quotient(A, Ideal.whole(A))
        assert Q.dim == 0 and Q.rep_dim == 1
        assert np.array_equal(Q.rep(E(0, 0, 2)), np.zeros((1, 1)))
        with pytest.raises(InvalidBasis):
            Q.as_algebra()

    def test_self_check_failures(self, monkeypatch):
        A = ut2()
        rad = jacobson_radical(A)
        # a negative tolerance refuses every product
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "_QUOTIENT_TOL", -1.0)
            with pytest.raises(SelfCheckFailed, match=r"not multiplicative at \(0,0\)"):
                QuotientAlgebra(A, rad)
        # a representation checked against an ideal it does not kill
        Q = quotient(A, rad)
        Q.ideal = Ideal.whole(A)
        with pytest.raises(SelfCheckFailed, match="does not vanish"):
            Q._self_check()

    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 0, 1), (2, 2, 2)])
    def test_self_check_sees_one_moved_structure_constant(self, where):
        # at the default tolerance, 1e-6 in one constant breaks multiplicativity
        A = ut2()
        Q = quotient(A, Ideal.zero(A))
        Q._self_check()
        Q.structure = Q.structure.copy()
        Q.structure[where] += 1e-6
        with pytest.raises(SelfCheckFailed, match="not multiplicative"):
            Q._self_check()

    def test_quotient_of_quotient_by_radical_is_semisimple(self):
        rng = np.random.default_rng(56)
        for _ in range(5):
            d = int(rng.integers(2, 5))
            M = MatrixSet.from_matrices(oracles.random_block_upper(rng, d, 2))
            A = generated_subalgebra(M)
            rad = jacobson_radical(A)
            if rad.dim in (0, A.dim):
                continue
            B = quotient(A, rad).as_algebra()
            assert jacobson_radical(B).dim == 0

    def test_ideal_from_other_algebra_rejected(self):
        with pytest.raises(NotAnIdeal):
            quotient(ut2(), Ideal.zero(full_ut3()))


class TestInessential:
    def test_hand_pair(self):
        M = MatrixSet.from_matrices(oracles.HAND_PAIR)
        rep = check_inessential(M)
        assert rep.passed and rep.gap == 0.0
        assert rep.rho_full[0] <= 3.0 <= rep.rho_full[1]
        assert rep.rho_quotient[0] <= 3.0 <= rep.rho_quotient[1]
        assert rep.algebra_dim == 3 and rep.radical_dim == 1

    def test_semisimple_input_reduces_to_itself(self):
        M = MatrixSet.from_matrices(oracles.DIAG_PAIR)
        rep = check_inessential(M)
        assert rep.passed and rep.radical_dim == 0


class TestRcqMembership:
    def test_identity_direction_is_not_in_radical(self):
        A = generated_subalgebra(MatrixSet.from_matrices(oracles.GOLDEN))
        rep = rcq_membership(A, E(0, 0, 2))
        assert not rep.member
        assert rep.witness_word is not None and len(rep.witness_word) <= 2
        assert rep.witness_rho > 1e-8

    def test_corner_of_ut2_is_in_radical(self):
        rep = rcq_membership(ut2(), E(0, 1, 2))
        assert rep.member and rep.nil_degree == 2
        assert rep.witness_word is None

    def test_zero_element(self):
        rep = rcq_membership(ut2(), np.zeros((2, 2), dtype=complex))
        assert rep.member and rep.nil_degree == 1 and rep.ideal_dim == 0

    def test_no_witness_at_any_depth(self, monkeypatch):
        A = generated_subalgebra(MatrixSet.from_matrices(oracles.GOLDEN))
        found = rcq_membership(A, E(0, 0, 2))
        # every depth falls short of the tolerance: the largest rho is kept
        monkeypatch.setattr(algebra, "_WITNESS_DEPTH", 3)
        monkeypatch.setattr(algebra, "_WITNESS_RHO", 1e6)
        rep = rcq_membership(A, E(0, 0, 2))
        assert not rep.member and rep.witness_word is None
        assert found.witness_rho <= rep.witness_rho <= 1e6

    def test_coeff_vector_input_agrees_with_matrix_input(self):
        A = ut2()
        by_vec = rcq_membership(A, np.array([0.0, 1.0, 0.0]))
        by_mat = rcq_membership(A, E(0, 1, 2))
        assert by_vec == by_mat

    def test_agrees_with_radical_on_random_algebras(self):
        rng = np.random.default_rng(57)
        for _ in range(6):
            d = int(rng.integers(2, 4))
            M = MatrixSet.from_matrices(oracles.random_block_upper(rng, d, 2))
            A = generated_subalgebra(M)
            rad = jacobson_radical(A)
            for col in range(rad.dim):
                assert rcq_membership(A, rad.coeffs[:, col]).member
            for _t in range(3):
                c = rng.standard_normal(A.dim)
                if rad.contains(c):
                    continue
                assert not rcq_membership(A, c).member


# a golden pair and a triangular pair whose squared entries sum past
# 2**1024 at scale 2**511
SCALE_SETS = {"golden": oracles.GOLDEN,
              "triangular": [[[2, 1, 0], [0, 1, 1], [0, 0, 3]], [[1, 0, 2], [0, 2, 0], [0, 0, 1]]]}


class TestExtremeScales:
    """A scaled set generates the set's own algebra: its norms once
    overflowed or underflowed, and every generator read as zero."""

    @pytest.mark.parametrize("s", [2.0**300, 2.0**-300, 2.0**511, 2.0**520, 1e300, 1e-300],
                             ids=["2^300", "2^-300", "2^511", "2^520", "1e300", "1e-300"])
    @pytest.mark.parametrize("name", sorted(SCALE_SETS))
    def test_scaled_set_keeps_its_algebra(self, name, s):
        M = MatrixSet.from_matrices(SCALE_SETS[name])
        S = MatrixSet(s * M.gens)
        A, As = generated_subalgebra(M), generated_subalgebra(S)
        assert As.dim == A.dim
        assert jacobson_radical(As).dim == jacobson_radical(A).dim
        rep, reps = check_inessential(M), check_inessential(S)
        assert (reps.passed, reps.algebra_dim, reps.radical_dim) == (
            rep.passed, rep.algebra_dim, rep.radical_dim)
        if math.frexp(s)[0] == 0.5:
            # a power of two scales the coefficients exactly
            for g, gs in zip(M.gens, S.gens):
                assert np.array_equal(As.coeffs_of(gs), s * As.coeffs_of(g))


class TestNilpotentSpan:
    def test_strictly_upper_pair(self):
        M = MatrixSet.from_matrices([
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 2, 5], [0, 0, 3], [0, 0, 0]],
        ])
        rep = check_nilpotent_span(M)
        assert rep.passed
        assert rep.nil_degree is not None and rep.nil_degree <= 3
        assert rep.certified_upper < 1e-12

    def test_zero_set(self):
        M = MatrixSet.from_matrices([np.zeros((2, 2))])
        rep = check_nilpotent_span(M)
        assert rep.passed and rep.nil_degree == 1 and rep.algebra_dim == 0

    def test_refuses_without_certificate(self):
        with pytest.raises(PreconditionNotCertified):
            check_nilpotent_span(MatrixSet.from_matrices(oracles.GOLDEN))


class TestChains:
    def chain_input(self):
        A = full_ut3()
        e = np.eye(6)
        J1 = Ideal(A, e[:, [2]])          # span{E13}
        J2 = Ideal(A, e[:, [1, 2, 4]])    # span{E12, E13, E23}
        M = MatrixSet.from_matrices([
            [[2, 5, 1], [0, 1, 3], [0, 0, 1]],
            [[1, 7, 2], [0, 3, 1], [0, 0, 2]],
        ])
        return A, J1, J2, M

    def test_happy_path_rows_nonincreasing(self):
        A, J1, J2, M = self.chain_input()
        rep = ideal_chain_monotonicity(M, [J1, J2])
        assert [r.ideal_dim for r in rep.rows] == [1, 3]
        assert rep.rows[0].upper + 1e-8 >= rep.rows[1].upper
        assert rep.final_direct.lower == rep.rows[-1].lower
        assert rep.final_direct.upper == rep.rows[-1].upper
        d = rep.to_dict()
        assert len(d["rows"]) == 2 and "final_direct" in d

    def test_growing_upper_end_fails_the_self_check(self, monkeypatch):
        A, J1, J2, M = self.chain_input()
        monkeypatch.setattr(algebra, "_CHAIN_TOL", -1e3)
        with pytest.raises(SelfCheckFailed, match="grew along the chain"):
            ideal_chain_monotonicity(M, [J1, J2])

    def test_direct_recomputation_must_reproduce(self, monkeypatch):
        A, J1, J2, M = self.chain_input()
        real, calls = algebra.refine, []

        def drifting(*args, **kwargs):
            # the third refine, the direct recomputation, reports a wider box
            rep = real(*args, **kwargs)
            calls.append(rep)
            return dataclasses.replace(rep, upper=2 * rep.upper) if len(calls) == 3 else rep

        monkeypatch.setattr(algebra, "refine", drifting)
        with pytest.raises(SelfCheckFailed, match="direct recomputation"):
            ideal_chain_monotonicity(M, [J1, J2])
        assert len(calls) == 3

    def test_rejects_empty_chain(self):
        _, _, _, M = self.chain_input()
        with pytest.raises(NotAChain):
            ideal_chain_monotonicity(M, [])

    def test_rejects_wrong_order(self):
        A, J1, J2, M = self.chain_input()
        with pytest.raises(NotAChain):
            ideal_chain_monotonicity(M, [J2, J1])

    def test_rejects_foreign_parent(self):
        A, J1, _, M = self.chain_input()
        with pytest.raises(NotAChain):
            ideal_chain_monotonicity(M, [J1, Ideal.whole(ut2())])

    def test_rejects_non_nested(self):
        A, _, _, M = self.chain_input()
        e = np.eye(6)
        small = Ideal(A, e[:, [1, 2]])        # span{E12, E13}
        big = Ideal(A, e[:, [2, 4, 5]])       # span{E13, E23, E33}
        with pytest.raises(NotAChain):
            ideal_chain_monotonicity(M, [small, big])

    def test_radical_power_chain_of_ut3(self):
        A = full_ut3()
        chain = radical_power_chain(A)
        assert [J.dim for J in chain] == [1, 3]
        assert chain[1].contains(chain[0].coeffs[:, 0])

    def test_radical_power_chain_semisimple(self):
        A = FDAlgebra([E(0, 0, 2), E(1, 1, 2)])
        chain = radical_power_chain(A)
        assert len(chain) == 1 and chain[0].dim == 0


def family_member(family, i):
    """Member i of the A4 (block-upper) or A5 (mixed) acceptance family."""
    rng = np.random.default_rng({"a4": 40_000, "a5": 50_000}[family] + i)
    d = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    if family == "a5" and not rng.integers(0, 2):
        return MatrixSet(oracles.random_set(rng, d, m))
    return MatrixSet(oracles.random_block_upper(rng, d, m))


class _Captured(Exception):
    pass


class TestReferenceLoops:
    """The contractions reproduce the one-pair-at-a-time loops bit for bit."""

    @pytest.mark.parametrize("family,count", [("a4", 50), ("a5", 30)])
    def test_contractions_equal_the_loops(self, family, count, monkeypatch):
        rng = np.random.default_rng(58)
        for i in range(count):
            A = generated_subalgebra(family_member(family, i))
            S = A.structure
            assert np.array_equal(S, oracles.loop_structure(A.basis)), i

            # the product columns of the power spans, and the spans
            rad = jacobson_radical(A)
            real, products = algebra._orthonormal_columns, []

            def spy(vectors, floor=0.0):
                if floor:
                    products.append(vectors)
                return real(vectors, floor)

            with monkeypatch.context() as mp:
                mp.setattr(algebra, "_orthonormal_columns", spy)
                chain = radical_power_chain(A)
            if rad.dim:
                spans, want_products = oracles.loop_power_spans(S, rad.coeffs)
                assert len(products) == len(want_products), i
                for got, want in zip(products, want_products):
                    assert np.array_equal(got, want), i
                want = [oracles.orth_columns(s) for s in reversed(spans)]
                assert len(chain) == len(want), i
                for J, w in zip(chain, want):
                    assert np.array_equal(J.coeffs, w), i

            Q = quotient(A, rad)
            C = rng.standard_normal((A.dim, 4)) + 1j * rng.standard_normal((A.dim, 4))
            for stack in (C, Q.complement, np.eye(A.dim)):
                reps = Q.rep_coeffs(stack)
                for t in range(stack.shape[1]):
                    assert np.array_equal(reps[t], Q.rep_coeffs(stack[:, t])), i

            # the ideal generated by x: capture the columns rcq_membership spans
            x = C[:, 0] / float(np.linalg.norm(C[:, 0]))
            seen = []

            def capture(vectors, floor=0.0):
                seen.append(vectors)
                raise _Captured

            with monkeypatch.context() as mp:
                mp.setattr(algebra, "_orthonormal_columns", capture)
                with pytest.raises(_Captured):
                    rcq_membership(A, C[:, 0])
            assert np.array_equal(seen[0], oracles.loop_ideal_columns(S, x)), i


def test_hypocompact_radical_is_everything():
    A = ut2()
    assert hypocompact_radical(A).dim == A.dim
