import random
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from apolar import (
    GF,
    QQ,
    ExactMatrix,
    LinearChange,
    Poly,
    diff_action,
    monomials_of_degree,
    parse_poly,
    random_linear_form,
)
from oracles import random_linear_change, substitute_naively

FP = GF()


def P(text, n, field=QQ):
    return parse_poly(text, n, field)


class TestMonomialEnumeration:
    def test_two_vars_degree_two(self):
        assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_four_vars_degree_one(self):
        assert monomials_of_degree(4, 1) == [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def test_degree_zero(self):
        assert monomials_of_degree(3, 0) == [(0, 0, 0)]

    def test_counts_and_order(self):
        for n in range(1, 5):
            for d in range(0, 6):
                mons = monomials_of_degree(n, d)
                assert len(mons) == comb(n + d - 1, d)
                assert mons == sorted(mons, reverse=True)

    def test_each_call_returns_a_fresh_list(self):
        first = monomials_of_degree(3, 2)
        first.clear()
        assert monomials_of_degree(3, 2) == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="at least one variable"):
            monomials_of_degree(0, 2)
        with pytest.raises(ValueError, match="non-negative"):
            monomials_of_degree(2, -1)


class TestArithmetic:
    def test_add_cancellation(self):
        assert P("X1 + X2", 2) + P("-X1", 2) == P("X2", 2)

    def test_add_identity(self):
        p = P("3*X1^2 - X2", 2)
        assert p + Poly.zero(2, QQ) == p

    def test_add_doubling(self):
        assert P("X1^2", 2) + P("X1^2", 2) == P("2*X1^2", 2)

    def test_mul_monomials(self):
        assert P("X1", 2) * P("X2", 2) == P("X1*X2", 2)

    def test_mul_difference_of_squares(self):
        assert P("X1+X2", 2) * P("X1-X2", 2) == P("X1^2 - X2^2", 2)

    def test_mul_identity(self):
        p = P("X1^2*X2 - 5*X2^3", 2)
        assert p * Poly.one(2, QQ) == p

    def test_cross_field_rejected(self):
        with pytest.raises(ValueError):
            P("X1", 2) + P("X1", 2, FP)
        with pytest.raises(ValueError):
            P("X1", 2) * P("X1", 3)

    def test_degree_of_zero_undefined(self):
        with pytest.raises(ValueError):
            Poly.zero(2, QQ).degree()

    def test_mul_cancellation_drops_terms(self):
        product = P("X1 + X2", 2, FP) * P("X1 - X2", 2, FP)
        assert product.terms == {(2, 0): 1, (0, 2): FP.p - 1}

    @pytest.mark.parametrize("field", [QQ, FP])
    def test_pow_matches_repeated_multiplication(self, field):
        cases = [
            Poly.zero(3, field),
            Poly.constant(3, field, field.from_int(-7)),
            P("X1 - 2*X2", 3, field),
            P("X1^2*X3 + 3*X2 - 5", 3, field),
        ]
        for p in cases:
            expected = Poly.one(3, field)
            for k in range(7):
                assert p ** k == expected
                expected = expected * p

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            P("X1", 1) ** -1


class TestDiffAction:
    def test_single_differentiation(self):
        assert diff_action(P("X1", 3), P("X1*X2*X3", 3)) == P("X2*X3", 3)

    def test_linearity_and_power_rule(self):
        assert diff_action(P("X1+X2", 2), P("X1^2", 2)) == P("2*X1", 2)

    def test_order_exceeds_degree(self):
        assert diff_action(P("X2^2", 2), P("X1^2*X2", 2)).is_zero()

    def test_prime_field_requires_large_modulus(self):
        f = GF(5)
        with pytest.raises(ValueError):
            diff_action(P("X1", 1, f), P("X1^7", 1, f))


@st.composite
def random_poly(draw, n=3, max_degree=3, field=QQ):
    mons = [m for d in range(max_degree + 1) for m in monomials_of_degree(n, d)]
    chosen = draw(st.lists(st.sampled_from(mons), max_size=5))
    coeffs = draw(st.lists(
        st.integers(min_value=-20, max_value=20), min_size=len(chosen), max_size=len(chosen)))
    terms = {}
    for m, c in zip(chosen, coeffs):
        terms[m] = QQ.add(terms.get(m, QQ.zero), QQ.from_int(c))
    return Poly(n, field, {m: c for m, c in terms.items() if c})


@settings(max_examples=60)
@given(random_poly(), random_poly(), random_poly())
def test_diff_action_bilinear(p, q, F):
    assert diff_action(p + q, F) == diff_action(p, F) + diff_action(q, F)
    assert diff_action(p, F + q) == diff_action(p, F) + diff_action(p, q)


@settings(max_examples=60)
@given(random_poly(max_degree=2), random_poly(max_degree=2), random_poly())
def test_diff_action_multiplicative(p, q, F):
    assert diff_action(p * q, F) == diff_action(p, diff_action(q, F))


class TestLinearChange:
    def test_swap(self):
        g = LinearChange([[0, 1], [1, 0]], QQ)
        assert g.apply(P("X1^2", 2)) == P("X2^2", 2)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            LinearChange([[1, 1], [1, 1]], QQ)

    def test_ring_homomorphism(self):
        rng = random.Random(41)
        for _ in range(10):
            g = random_linear_change(3, FP, rng)
            p = Poly(3, FP, {m: FP.rand(rng) for m in monomials_of_degree(3, 2)})
            q = Poly(3, FP, {m: FP.rand(rng) for m in monomials_of_degree(3, 1)})
            assert g.apply(p * q) == g.apply(p) * g.apply(q)


@st.composite
def change_and_poly(draw):
    """An invertible change in n <= 4 variables and a polynomial of degree <= 5."""
    field = draw(st.sampled_from([QQ, FP]))
    n = draw(st.integers(min_value=1, max_value=4))
    if field == QQ:
        entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    else:
        entries = st.integers(min_value=0, max_value=FP.p - 1)
    matrix = draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(not field.is_zero(ExactMatrix(matrix, field).det()))
    mons = [m for d in range(6) for m in monomials_of_degree(n, d)]
    chosen = draw(st.lists(st.sampled_from(mons), max_size=6, unique=True))
    coeffs = draw(st.lists(
        st.integers(min_value=-20, max_value=20), min_size=len(chosen), max_size=len(chosen)))
    poly = Poly(n, field, {m: field.from_int(c) for m, c in zip(chosen, coeffs)})
    return LinearChange(matrix, field), poly


@settings(max_examples=80, deadline=None)
@given(change_and_poly())
def test_apply_matches_naive_substitution(case):
    change, p = case
    assert change.apply(p) == substitute_naively(change.matrix, change.field, p)


class TestRandomLinearForm:
    def test_deterministic_given_seed(self):
        a = random_linear_form(4, FP, random.Random(123))
        b = random_linear_form(4, FP, random.Random(123))
        assert a == b

    def test_distinct_seeds_distinct_forms(self):
        a = random_linear_form(4, FP, random.Random(1))
        b = random_linear_form(4, FP, random.Random(2))
        assert a != b

    def test_single_variable_nonzero(self):
        for seed in range(5):
            form = random_linear_form(1, FP, random.Random(seed))
            assert not form.is_zero()

    def test_rational_field_rejected(self):
        with pytest.raises(ValueError):
            random_linear_form(3, QQ, random.Random(0))
