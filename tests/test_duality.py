import gc
import random
import weakref
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from apolar import (
    DEFAULT_PRIME,
    GF,
    QQ,
    DualForm,
    HVector,
    OrbitLabel,
    Poly,
    Verdict,
    ann_degree,
    catalecticant,
    contract,
    diff_action,
    hf_modulo_linear,
    hilbert_function,
    inverse_system_sample,
    is_o_sequence,
    monomials_of_degree,
    orbit_representative,
    parse_poly,
    perazzo_dual_form,
    quotient_basis,
    random_linear_form,
    snake_consistency,
    wlp_check,
)
from apolar import duality, linalg
from apolar.duality import pairing_rows
from oracles import (
    ann_dimension_by_kernel,
    contract_by_differentiation,
    hf_by_kernels,
    in_span_of_ann,
    leibniz_det,
    pairing_rows_naive,
    random_form,
    random_linear_change,
    substitute_naively,
)

FP = GF()


def DF(text, n, field=QQ):
    return DualForm(parse_poly(text, n, field))


class TestHVector:
    def test_basics(self):
        h = HVector((1, 4, 6, 4, 1))
        assert h.socle_degree == 4
        assert h.sperner == 6
        assert h.is_symmetric()

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            HVector(())
        with pytest.raises(ValueError):
            HVector((1, 0, 1))


class TestDualFormHypotheses:
    def test_characteristic_at_most_degree_rejected(self):
        with pytest.raises(ValueError, match="p > deg F"):
            DF("X1^5 + X2^5", 2, GF(5))
        with pytest.raises(ValueError, match="p > deg F"):
            DF("X1^4*X2^3", 2, GF(7))

    @pytest.mark.parametrize("text", ["X1^2 + X2", "X1 + X2^2 + X1^3"])
    def test_inhomogeneous_form_rejected(self, text):
        # the CLI prints this message for an inhomogeneous form
        with pytest.raises(ValueError, match="^dual form must be homogeneous$"):
            DF(text, 2)

    def test_characteristic_above_degree_accepted(self):
        assert tuple(hilbert_function(DF("X1^5 + X2^5", 2, GF(7)))) == (1, 2, 2, 2, 2, 1)


class TestCatalecticant:
    def test_x1x2_middle(self):
        m = catalecticant(DF("X1*X2", 2), 1)
        assert m.entries == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]

    def test_power_of_variable_rank_one(self):
        F = DF("X1^6", 3)
        for i in range(7):
            assert catalecticant(F, i).rank() == 1

    def test_x1sqx2_rank_two(self):
        # frozen from the differentiation-map kernel oracle
        F = DF("X1^2*X2", 2)
        assert hf_by_kernels(F)[1] == 2
        assert catalecticant(F, 1).rank() == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            catalecticant(DF("X1*X2", 2), 3)

    def test_rank_helper(self):
        assert catalecticant(DF("X1*X2", 2), 1).rank() == 2

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_term_built_block_stacks(self, field):
        # Perazzo's d = 5 form has 5 terms, so its 7 x 210 catalecticant of
        # degree 1 is built from them, as sparse rows; `_stacked` puts it and
        # a dense row over one denominator, as the snake ledger stacks two
        # catalecticants
        sparse = catalecticant(perazzo_dual_form(5, field), 1)
        assert sparse._maps is not None
        dense = linalg.ExactMatrix([[Fraction(j % 3, 2) if field == QQ else j % 3
                                     for j in range(sparse.cols)]], field)
        stacked = linalg.ExactMatrix._stacked([sparse, dense])
        whole = linalg.ExactMatrix(sparse.entries + dense.entries, field)
        assert stacked == whole
        assert stacked.rank() == whole.rank() == 8


class TestHilbertFunction:
    def test_monomial_cone(self):
        assert tuple(hilbert_function(DF("X1^5", 1))) == (1,) * 6

    def test_x1sqx2(self):
        F = DF("X1^2*X2", 2)
        assert hf_by_kernels(F) == (1, 2, 2, 1)
        assert tuple(hilbert_function(F)) == (1, 2, 2, 1)

    def test_perazzo_three(self):
        assert tuple(hilbert_function(perazzo_dual_form(3))) == (1, 5, 5, 1)

    def test_matches_kernel_oracle_on_random_forms(self):
        rng = random.Random(2024)
        for _ in range(15):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 6)
            F = random_form(n, d, FP, rng)
            assert tuple(hilbert_function(F)) == hf_by_kernels(F)

    @pytest.mark.parametrize("F, degrees, h", [
        (random_form(5, 8, FP, random.Random(8), density=1.0), [4],
         (1, 5, 15, 35, 70, 35, 15, 5, 1)),
        (DualForm(perazzo_dual_form(5).poly.map_to_field(FP)), [2, 1], (1, 7, 7, 7, 7, 1)),
    ], ids=["generic-5-8", "perazzo-5"])
    def test_ranks_down_to_the_first_injective_catalecticant(self, monkeypatch, F, degrees, h):
        # the h-vectors are those of a compressed form and of the trivial
        # extension (1, d+2, ..., d+2, 1)
        built = []

        def counting(form, i):
            built.append(i)
            return catalecticant(form, i)

        monkeypatch.setattr(duality, "catalecticant", counting)
        assert tuple(hilbert_function(F)) == h
        assert built == degrees


class TestAnnDegree:
    def test_full_rank_piece_is_empty(self):
        assert ann_degree(DF("X1*X2", 2), 1) == []

    def test_x1sq(self):
        basis = ann_degree(DF("X1^2", 2), 1)
        assert len(basis) == 1
        assert basis[0].terms == {(0, 1): Fraction(1)}

    def test_x1sqx2_degree_two(self):
        F = DF("X1^2*X2", 2)
        basis = ann_degree(F, 2)
        assert len(basis) == 1 == ann_dimension_by_kernel(F, 2)
        x2sq = parse_poly("X2^2", 2)
        assert in_span_of_ann(F, x2sq, 2)

    def test_above_socle_degree_everything_annihilates(self):
        F = DF("X1*X2", 2)
        assert len(ann_degree(F, 3)) == 4

    def test_dimension_count(self):
        rng = random.Random(88)
        from math import comb
        for _ in range(10):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 6)
            F = random_form(n, d, FP, rng)
            h = hilbert_function(F)
            for i in range(d + 1):
                assert len(ann_degree(F, i)) == comb(n + i - 1, i) - h[i]


class TestPairingRows:
    @pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
    @pytest.mark.parametrize("text", ["x1^2", "x1 + x2^2"])
    def test_wrong_degree_operators_rejected(self, field, text):
        F = DF("X1^3 + X2^3", 2, field)
        with pytest.raises(ValueError, match="degree 1"):
            pairing_rows(F, [parse_poly(text, 2, field)], 1)


@st.composite
def form_and_operators(draw):
    """A dual form and a list of multi-term operators of one degree i <= d.

    QQ coefficients are non-integral fractions; GF(7) keeps p > d.
    """
    field = draw(st.sampled_from([QQ, GF(7), FP]))
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 6))
    else:
        coeff = st.integers(1, field.p - 1)
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 5))

    def poly(degree, max_terms):
        mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, degree)),
                             min_size=1, max_size=max_terms, unique=True))
        return Poly(n, field, {m: draw(coeff) for m in mons})

    F = DualForm(poly(d, 8))
    i = draw(st.integers(0, d))
    operators = [poly(i, 4) for _ in range(draw(st.integers(1, 4)))]
    return F, operators, i


@settings(max_examples=150, deadline=None)
@given(form_and_operators())
def test_pairing_rows_agree_with_differentiation(case):
    F, operators, i = case
    assert pairing_rows(F, operators, i) == pairing_rows_naive(F, operators, i)
    basis = [Poly.monomial(F.n, F.field, e) for e in monomials_of_degree(F.n, i)]
    assert catalecticant(F, i) == pairing_rows_naive(F, basis, i)


@st.composite
def few_or_many_terms(draw):
    """A form with few or many terms for its size, a degree i <= d and an operator g.

    Over QQ (non-integral fractions, so the record keeps a denominator),
    GF(7) or the default prime, in 2 to 6 variables and of degree 1 to 6.
    Half the forms have 1 to 3 terms, which most catalecticants and
    contractions in 4 or more variables build from the terms; the others
    have up to 30, which build cell by cell and target by target.  g is
    linear or quadratic with 1 to 4 terms.
    """
    field = draw(st.sampled_from([QQ, GF(7), FP]))
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 6))
    else:
        coeff = st.integers(1, field.p - 1)
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 6))

    def poly(degree, most):
        mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, degree)),
                             min_size=1, max_size=most, unique=True))
        return Poly(n, field, {m: draw(coeff) for m in mons})

    F = DualForm(poly(d, draw(st.sampled_from([3, 30]))))
    return F, draw(st.integers(0, d)), poly(draw(st.integers(1, min(d, 2))), 4)


@settings(max_examples=150, deadline=None)
@given(few_or_many_terms())
# a Perazzo-like form and a sparse QQ form whose catalecticants and
# contractions are all built from their terms
@example((DF("X1*X5^4 + X2*X4*X5^3 + X3*X4^2*X5^2", 5, GF(7)), 1, parse_poly("x5 + 2*x4", 5, GF(7))))
@example((DF("1/2*X1^2*X6^2 + 3/4*X2*X3*X4*X5", 6), 3, parse_poly("x1*x6 - 2/3*x4^2", 6)))
def test_term_pair_builders_agree_with_the_oracles(case):
    # a catalecticant built from F's terms, or cell by cell, equals the
    # pairing rows of all monomials computed by differentiation, and so does
    # a contraction gathered from term pairs or target by target; the
    # contracted form, which keeps F's code base, is checked the same way
    F, i, g = case
    terms, s = len(F.poly.terms), g.degree()
    for G, j in ((F, i), (contract(g, F), i - s)):
        if G is None or not 0 <= j <= G.degree:
            continue
        rows, cols = comb(G.n - 1 + j, j), comb(G.n - 1 + G.degree - j, G.degree - j)
        size = len(G.poly.terms) * min(rows, cols) * duality._SPARSE_CELLS
        event("catalecticant from terms" if size < rows * cols else "catalecticant cell by cell")
        basis = [Poly.monomial(G.n, G.field, e) for e in monomials_of_degree(G.n, j)]
        assert catalecticant(G, j) == pairing_rows_naive(G, basis, j)
    targets = comb(F.n - 1 + F.degree - s, F.degree - s)
    pairs = terms * len(g.terms) * duality._SPARSE_TARGETS
    event("contraction from term pairs" if pairs < targets else "contraction target by target")
    G, want = contract(g, F), contract_by_differentiation(g, F)
    assert (None if G is None else G.poly) == (None if want is None else want.poly)


@st.composite
def few_term_forms_and_changes(draw):
    """A form of 1 to 3 terms in 4 or 5 variables and an invertible change of coordinates.

    Over QQ the coefficients are fractions and the change an integer matrix
    with entries in -2..2; over F_p the change is `random_linear_change`.
    The form's few terms build its catalecticants of degree 0 or 1 from the
    terms, while its image under a change with few zeros has most monomials
    of its degree and builds them cell by cell.
    """
    field = draw(st.sampled_from([QQ, GF(7), FP]))
    n, d = draw(st.integers(4, 5)), draw(st.integers(3, 5))
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        matrix = draw(st.lists(row, min_size=n, max_size=n))
        assume(leibniz_det(matrix) != 0)
    else:
        coeff = st.integers(1, field.p - 1)
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        matrix = random_linear_change(n, field, rng).matrix
    mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)), min_size=1, max_size=3,
                         unique=True))
    return DualForm(Poly(n, field, {m: draw(coeff) for m in mons})), matrix


def _built_from_terms(G: DualForm) -> bool:
    """Whether a catalecticant that `hilbert_function(G)` ranks is built from G's terms.

    It ranks degrees d/2 down to the first i with h_i = dim R_i.
    """
    h, n, d = hilbert_function(G), G.n, G.degree
    for i in range(d // 2, -1, -1):
        rows, cols = comb(n - 1 + i, i), comb(n - 1 + d - i, d - i)
        if duality._SPARSE_CELLS * len(G.poly.terms) < max(rows, cols):
            return True
        if h[i] == rows:
            return False
    return False


@settings(max_examples=120, deadline=None)
@given(few_term_forms_and_changes())
# a monomial over QQ and a Perazzo-like binomial over GF(7) in 5 variables,
# whose 5 x 35 catalecticants of degree 1 are built from the terms, under
# changes of determinant 14 and 4 mod 7
@example((DF("1/2*X1^2*X2*X3", 5), [[1, 1, 0, 0, 2], [0, 1, 1, 0, -1], [0, 0, 1, 1, 0],
                                     [1, 0, 0, 2, 1], [-2, 1, 0, 0, 1]]))
@example((DF("X1*X5^3 + 3*X2*X4*X5^2", 5, GF(7)),
          [[1, 2, 3, 4, 5], [0, 1, 5, 6, 2], [2, 0, 1, 3, 4], [1, 1, 1, 0, 6], [3, 4, 0, 1, 1]]))
def test_hilbert_function_is_invariant_under_a_change_of_coordinates(case):
    # h of F and of F with x_i -> sum_j m[i][j] x_j substituted term by term:
    # the span of F's partials of each order maps onto its image's
    F, matrix = case
    image = DualForm(substitute_naively(matrix, F.field, F.poly))
    for name, G in (("form", F), ("image", image)):
        event(f"{name} ranks a catalecticant built from terms" if _built_from_terms(G)
              else f"{name} ranks only catalecticants built cell by cell")
    assert tuple(hilbert_function(image)) == tuple(hilbert_function(F))


def _contracted(G):
    return None if G is None else (G.poly, tuple(hilbert_function(G)))


def _contracted_twice(F, ell):
    L = contract(ell, F)
    return _contracted(L if L is None or L.degree == 0 else contract(ell, L))


# each call reads or fills the private record of the form it is given
RECORD_CALLS = {
    "hilbert_function": lambda F, i, ell, g: tuple(hilbert_function(F)),
    "ann_degree": lambda F, i, ell, g: ann_degree(F, i),
    "quotient_basis": lambda F, i, ell, g: quotient_basis(F, min(i, F.degree)),
    "hf_modulo_linear": lambda F, i, ell, g: hf_modulo_linear(F, ell),
    "snake_consistency": lambda F, i, ell, g: snake_consistency(F, g, ell).to_dict(),
    "wlp_check": lambda F, i, ell, g: wlp_check(F, 2, i).to_dict(),
    "contract": lambda F, i, ell, g: _contracted(contract(g, F)),
    "contract_twice": lambda F, i, ell, g: _contracted_twice(F, ell),
}


@st.composite
def form_and_calls(draw):
    """A dual form, a linear form, a form g of degree <= d, and calls in a drawn order.

    The degree argument of a call runs to d + 1, past the socle degree;
    `wlp_check` is drawn only over the prime fields it accepts.
    """
    F, _, _ = draw(form_and_operators())
    field, n, d = F.field, F.n, F.degree
    coefficients = sorted(set(F.poly.terms.values()))

    def poly(degree):
        mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, degree)),
                             min_size=1, max_size=3, unique=True))
        return Poly(n, field, {m: draw(st.sampled_from(coefficients)) for m in mons})

    names = [name for name in RECORD_CALLS if field != QQ or name != "wlp_check"]
    calls = draw(st.lists(st.tuples(st.sampled_from(names), st.integers(0, d + 1)),
                          min_size=1, max_size=8))
    return F, poly(1), poly(draw(st.integers(0, d))), calls


@settings(max_examples=100, deadline=None)
@given(form_and_calls())
def test_form_record_is_invisible(case):
    # whatever call fills the record first, every result on the shared form
    # equals the one on a fresh form; the oracles, which never touch a
    # record, catch a record that leaks between forms
    F, ell, g, calls = case
    for name, i in calls:
        call = RECORD_CALLS[name]
        assert call(F, i, ell, g) == call(DualForm(F.poly), i, ell, g), name
    assert F == DualForm(F.poly)
    h_a = hilbert_function(F)
    assert tuple(h_a) == hf_by_kernels(F)
    image = diff_action(ell, F.poly)
    h_b = () if image.is_zero() else hf_by_kernels(DualForm(image))
    assert hf_modulo_linear(F, ell) == tuple(
        h - (h_b[i - 1] if 0 < i <= len(h_b) else 0) for i, h in enumerate(h_a))


@st.composite
def integer_forms(draw):
    """(n, integer coefficients) of a random nonzero form: degree <= 6, n <= 4."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6 if n < 4 else 5))
    mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)), min_size=1, max_size=12,
                         unique=True))
    return n, {m: draw(st.integers(-30, 30).filter(bool)) for m in mons}


@settings(max_examples=60, deadline=None)
@given(integer_forms())
def test_hilbert_function_over_primes_against_rationals(case):
    # every catalecticant over F_p is the reduction mod p of the one over QQ,
    # so its rank can only drop; at the default prime a drop needs p to
    # divide every maximal minor of some catalecticant
    n, terms = case

    def hf(field):
        coefficients = {m: field.from_int(c) for m, c in terms.items()}
        return tuple(hilbert_function(DualForm(Poly(n, field, coefficients))))

    over_qq = hf(QQ)
    assert hf(FP) == over_qq
    assert all(a <= b for a, b in zip(hf(GF(101)), over_qq))


LABELS = [label for label in OrbitLabel if label is not OrbitLabel.UNKNOWN]


@st.composite
def low_injective_forms(draw):
    """A form whose catalecticants, from the middle down, mostly turn injective below d/2.

    Over QQ (non-integral fractions), GF(7) with d <= 5, or the default
    prime: a Perazzo form with drawn coefficients, X_1^d plus a form in
    fewer variables, a sum of forms in disjoint variables, an inverse-system
    sample of a catalog web (prime fields only), or a contraction of a form
    down to degree 0 or 1.
    """
    field = draw(st.sampled_from([QQ, GF(7), FP]))
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 6))
    else:
        coeff = st.integers(1, field.p - 1)
    top = 5 if field == GF(7) else 6
    kinds = ["perazzo", "power", "disjoint", "contraction"]
    kind = draw(st.sampled_from(kinds + (["inverse_system"] if field != QQ else [])))

    def poly(n, degree, variables, max_terms=6):
        mons = [m for m in monomials_of_degree(n, degree)
                if all(e == 0 or j in variables for j, e in enumerate(m))]
        chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=max_terms,
                               unique=True))
        return Poly(n, field, {m: draw(coeff) for m in chosen})

    if kind == "perazzo":
        terms = perazzo_dual_form(draw(st.integers(3, top))).poly.terms
        return DualForm(Poly(len(next(iter(terms))), field, {e: draw(coeff) for e in terms}))
    if kind == "inverse_system":
        web = orbit_representative(draw(st.sampled_from(LABELS)), field)
        return inverse_system_sample(web, draw(st.integers(2, top)), draw(st.integers(0, 99)))
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, top))
    if kind == "power":
        fewer = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        F = Poly.variable(n, field, 1) ** d + poly(n, d, fewer)
    elif kind == "disjoint":
        first = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        F = poly(n, d, first) + poly(n, d, set(range(n)) - first)
    else:
        g = poly(n, max(d - draw(st.integers(0, 1)), 0), set(range(n)), max_terms=3)
        F = diff_action(g, poly(n, d, set(range(n)), max_terms=8))
    assume(not F.is_zero())
    return DualForm(F)


@settings(max_examples=120, deadline=None)
@given(low_injective_forms())
@example(DF("X1^4 + X2^4 + X3^4 + X4^4", 4))
@example(DualForm(perazzo_dual_form(6).poly.map_to_field(FP)))
def test_hilbert_function_stops_at_the_first_injective_catalecticant(F):
    # no catalecticant below the first injective one is ranked, and none
    # above it is skipped: every one from d/2 down to it is built once
    want = hf_by_kernels(F)
    with mock.patch.object(duality, "catalecticant", wraps=duality.catalecticant) as built:
        assert tuple(hilbert_function(F)) == want
    injective = max(i for i in range(F.degree // 2 + 1) if want[i] == comb(F.n - 1 + i, i))
    assert [call.args[1] for call in built.call_args_list] == list(
        range(F.degree // 2, injective - 1, -1))


class TestQuotientBasis:
    def test_x1x2(self):
        assert quotient_basis(DF("X1*X2", 2), 1) == [(1, 0), (0, 1)]

    def test_x1cubed(self):
        assert quotient_basis(DF("X1^3", 2), 2) == [(2, 0)]

    def test_x1sqx2_excludes_annihilator(self):
        F = DF("X1^2*X2", 2)
        basis = quotient_basis(F, 2)
        assert len(basis) == 2
        assert (0, 2) not in basis  # x2^2 annihilates F

    def test_cardinality_and_maximality(self):
        rng = random.Random(7)
        from apolar import ExactMatrix
        for _ in range(8):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 6)
            F = random_form(n, d, FP, rng)
            h = hilbert_function(F)
            i = rng.randrange(0, d + 1)
            basis = quotient_basis(F, i)
            assert len(basis) == h[i]
            cat = catalecticant(F, i)
            from apolar import monomials_of_degree
            mons = monomials_of_degree(n, i)
            index = {m: r for r, m in enumerate(mons)}
            rows = [cat.entries[index[m]] for m in basis]
            assert ExactMatrix(rows, FP).rank() == len(basis)
            for m in mons:
                if m in basis:
                    continue
                extended = rows + [cat.entries[index[m]]]
                assert ExactMatrix(extended, FP).rank() == len(basis)
            # greedy: every prefix of the monomials keeps a basis of its rows
            for k in range(len(mons) + 1):
                kept = sum(1 for m in basis if index[m] < k)
                assert ExactMatrix(cat.entries[:k], FP).rank() == kept


@pytest.mark.parametrize("text, n, field", [
    ("X1*X2", 2, QQ),                                  # h = (1, 2, 1): full in degree 1
    ("X1^2*X2", 2, QQ),                                # (1, 2, 2, 1): Ann(F)_2 = <x2^2>
    ("X1^4 + X2^4 + X3^4 + X1*X2*X3^2 + 1/2*X1^2*X2^2", 3, QQ),
    ("X1^3 + X1*X2^2 + 5*X2*X3^2", 3, GF(7)),
    ("X1*X4^2 + X2*X4*X5 + X3*X5^2", 5, FP),           # (1, 5, 5, 1): full only in degree 0
])
def test_ann_degree_ignores_a_warm_record(monkeypatch, text, n, field):
    # a form whose record holds h answers the degrees with h_i = dim R_i
    # without a catalecticant; a cold form builds exactly one per call and
    # leaves h unranked, and both give the same bases
    poly = parse_poly(text, n, field)
    built = []

    def counting(form, i):
        built.append(i)
        return catalecticant(form, i)

    monkeypatch.setattr(duality, "catalecticant", counting)
    cold = DualForm(poly)
    d = cold.degree
    cold_ann = [ann_degree(cold, i) for i in range(d + 2)]
    assert built == [d - i for i in range(d + 1)]
    assert cold._record.h is None
    warm = DualForm(poly)
    h = hilbert_function(warm)
    full = [i for i in range(d + 1) if h[i] == comb(n - 1 + i, i)]
    assert 0 < len(full) < d + 1
    built.clear()
    assert [ann_degree(warm, i) for i in range(d + 2)] == cold_ann
    assert built == [d - i for i in range(d + 1) if i not in full]
    assert all(cold_ann[i] == [] for i in full)


@pytest.mark.parametrize("text, n, field", [
    ("X1^2*X2", 2, QQ),                                # (1, 2, 2, 1): full in degrees 0, 1
    ("X1^4 + X2^4 + X3^4 + X1*X2*X3^2 + 1/2*X1^2*X2^2", 3, QQ),
    ("X1^3 + X1*X2^2 + 5*X2*X3^2", 3, GF(7)),
    ("X1*X4^2 + X2*X4*X5 + X3*X5^2", 5, FP),           # (1, 5, 5, 1): full only in degree 0
])
def test_quotient_basis_ignores_a_warm_record(monkeypatch, text, n, field):
    # a form whose record holds h gives B_j = every monomial of degree j where
    # h_j = dim R_j, with no catalecticant, and the same bases as a cold form
    # elsewhere; the codes the record keeps are those of the bases
    poly = parse_poly(text, n, field)
    cold = DualForm(poly)
    d = cold.degree
    cold_bases = [quotient_basis(cold, j) for j in range(d + 1)]
    warm = DualForm(poly)
    h = hilbert_function(warm)
    full = [j for j in range(d + 1) if h[j] == comb(n - 1 + j, j)]
    assert 0 < len(full) < d + 1
    built = []

    def counting(form, i):
        built.append(i)
        return catalecticant(form, i)

    monkeypatch.setattr(duality, "catalecticant", counting)
    assert [quotient_basis(warm, j) for j in range(d + 1)] == cold_bases
    assert built == [d - j for j in range(d + 1) if j not in full]
    for F in (cold, warm):
        for j, basis in enumerate(cold_bases):
            assert list(duality._basis_codes(F, j)) == [
                duality._code(e, F._record.base) for e in basis]


class TestContract:
    def test_linear_contraction(self):
        F = DF("X1*X2^2", 2)
        out = contract(parse_poly("X1", 2), F)
        assert out is not None and out.poly == parse_poly("X2^2", 2)

    def test_annihilator_gives_none(self):
        F = DF("X1^2*X2", 2)
        assert contract(parse_poly("X2^2", 2), F) is None

    def test_perazzo_contraction_drops_rank(self):
        # frozen via hilbert_function of the contracted quadric: the middle
        # entry is 4 although the ambient algebra has sperner 5
        F = DualForm(perazzo_dual_form(3).poly.map_to_field(FP))
        ell = random_linear_form(5, FP, random.Random(99))
        B = contract(ell, F)
        assert tuple(hilbert_function(B)) == (1, 4, 1)

    def test_full_degree_contraction_is_constant(self):
        F = DF("X1^2*X2", 2)
        out = contract(parse_poly("X1^2*X2", 2), F)
        assert out is not None and out.degree == 0

    @pytest.mark.parametrize("g, n, field, message", [
        ("0", 2, QQ, "zero polynomial"),
        ("x1 + x2^2", 2, QQ, "homogeneous"),
        ("x1^4", 2, QQ, "exceeds socle degree"),
        ("x1", 3, QQ, "variable counts differ"),
        ("x1", 2, FP, "fields differ"),
    ])
    def test_rejected_operators(self, g, n, field, message):
        with pytest.raises(ValueError, match=message):
            contract(parse_poly(g, n, field), DF("X1^2*X2", 2))

    def test_live_contraction_is_shared(self):
        F = DF("X1^3*X2 + 2*X2^2*X3^2 - X1*X2*X3^2", 3)
        B = contract(parse_poly("x1 + 2*x2 - x3", 3), F)
        assert B._poly is None  # built on first read
        h = hilbert_function(B)
        # equal terms, another Poly: the same form, h-vector ranked once
        again = contract(parse_poly("x1 + 2*x2 - x3", 3), F)
        assert again is B and hilbert_function(again) is h
        assert B.poly == diff_action(parse_poly("x1 + 2*x2 - x3", 3), F.poly)
        assert contract(parse_poly("x1 + 2*x2 + x3", 3), F) is not B
        alive = weakref.ref(B)
        del B, again
        gc.collect()
        assert alive() is None
        assert not duality._record(F).images


@pytest.mark.parametrize("mixed", [False, True], ids=["all-over-p", "some-over-p"])
def test_denominators_divisible_by_the_shadow_prime(mixed):
    # the record clears the denominators before any rank reduces its rows
    # mod the shadow's prime p = `linalg._SHADOW_PRIME`, so a p in them is
    # no special case.  With every coefficient over p the numerators keep
    # their residues and the middle catalecticant, 35 x 35, is ranked mod p
    # alone.  With p only under the terms in x1, x2 every other numerator
    # vanishes mod p, the residues have rank at most 4, and the rank falls
    # back to Bareiss
    p = linalg._SHADOW_PRIME
    rng = random.Random(19)

    def coefficient(e):
        over_p = not mixed or not any(e[2:])
        return Fraction(rng.randint(1, 9), p if over_p else rng.randint(1, 5))

    F = DualForm(Poly(5, QQ, {e: coefficient(e) for e in monomials_of_degree(5, 6)}))
    ell = Poly(5, QQ, {e: coefficient(e) for e in monomials_of_degree(5, 1)})
    assert duality._record(F).den % p == 0
    with mock.patch.object(linalg, "_eliminate_int", wraps=linalg._eliminate_int) as bareiss:
        assert catalecticant(F, 3).rank() == 35
    assert bareiss.called == mixed
    assert tuple(hilbert_function(F)) == hf_by_kernels(F) == (1, 5, 15, 35, 15, 5, 1)
    B = contract(ell, F)
    assert duality._record(B).den % p == 0
    assert tuple(hilbert_function(B)) == hf_by_kernels(B)
    assert B.poly == contract_by_differentiation(ell, F).poly


@st.composite
def integer_forms(draw):
    """(integer coefficients, n, d, p): a form to read over QQ and over GF(p).

    p is 7, with d < 7, or DEFAULT_PRIME; coefficients are small, or
    multiples of p plus a small part, so that the reduction mod p often
    loses rank.
    """
    p = draw(st.sampled_from([7, DEFAULT_PRIME]))
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    support = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)), min_size=1,
                            max_size=12, unique=True))
    small = st.integers(-9, 9)
    coefficient = st.one_of(small, st.builds(lambda k, x: k * p + x, small, st.integers(-1, 1)))
    return {e: draw(coefficient) for e in support}, n, d, p


@settings(max_examples=60, deadline=None)
@given(integer_forms())
def test_hilbert_function_drops_mod_p(case):
    # an integer form's catalecticants over GF(p) are those over QQ reduced
    # mod p, and reduction never raises a rank
    coefficients, n, d, p = case
    assume(any(c % p for c in coefficients.values()))
    over_q = DualForm(Poly(n, QQ, {e: Fraction(c) for e, c in coefficients.items() if c}))
    over_p = DualForm(Poly(n, GF(p), {e: c % p for e, c in coefficients.items() if c % p}))
    h_q, h_p = hilbert_function(over_q), hilbert_function(over_p)
    assert len(h_q) == len(h_p) == d + 1
    assert all(a <= b for a, b in zip(h_p, h_q))


def _power_sum(field) -> Poly:
    """The sum of the sixth powers of four integer linear forms in five variables."""
    forms = ((1, 1, 1, 1, 1), (1, 2, 0, 1, 3), (2, 0, 1, 3, 1), (0, 1, 2, 1, 1))
    units = [tuple(int(j == i) for j in range(5)) for i in range(5)]
    powers = [Poly(5, field, {u: field.from_fraction(c) for u, c in zip(units, v) if c}) ** 6
              for v in forms]
    return sum(powers[1:], powers[0])


def test_power_sum_shadow_certifies_only_degree_0():
    # r = 4 <= d + 1 general powers give h = (1, 4, 4, 4, 4, 4, 1); the
    # catalecticants of degrees 0 to 3 hold at least `_SHADOW_CELLS` cells,
    # and the single row of degree 0, 1 x 210 cells, is certified by its
    # full rank mod p, while those of degrees 1, 2 and 3 are deficient mod p
    # and ranked by Bareiss
    F = DualForm(_power_sum(QQ))
    shadows, real = [], linalg._rank_mod

    def watched(m, p):
        # (rows, cols, full rank) of each shadow, zero rows mod p included
        rank = real(m, p)
        if p == linalg._SHADOW_PRIME:
            shadows.append((len(m), len(m[0]), rank == min(len(m), len(m[0]))))
        return rank

    with mock.patch.object(linalg, "_eliminate_int", wraps=linalg._eliminate_int) as bareiss, \
            mock.patch.object(linalg, "_rank_mod", watched):
        h = hilbert_function(F)
    assert tuple(h) == hf_by_kernels(F) == (1, 4, 4, 4, 4, 4, 1)
    # degrees 3, 2, 1 and 0, in the order `hilbert_function` ranks them
    assert shadows == [(35, 35, False), (15, 70, False), (5, 126, False), (1, 210, True)]
    assert [len(call.args[0]) for call in bareiss.call_args_list] == [35, 15, 5]
    # the paper's theorem: Sperner number 4 <= d + 1 forces the WLP
    report = wlp_check(DualForm(_power_sum(FP)), trials=5, seed=23)
    assert report.verdict is Verdict.HOLDS, f"WLP FAILS at seed 23: {report.failing_degrees}"


@st.composite
def contraction_cases(draw):
    """A form F, an operator g of degree 0..d and a linear form ell.

    QQ coefficients are non-integral fractions; GF(7) keeps p > d.  When
    `annihilating` is drawn, F is free of x_n and x_n divides g, so g o F = 0.
    """
    field = draw(st.sampled_from([QQ, GF(7), FP]))
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 6))
    else:
        coeff = st.integers(1, field.p - 1)
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5 if field == GF(7) else 6))
    annihilating = n > 1 and draw(st.booleans())

    def poly(degree, max_terms, variables=n):
        mons = [m for m in monomials_of_degree(n, degree) if not any(m[variables:])]
        chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=max_terms,
                               unique=True))
        return Poly(n, field, {m: draw(coeff) for m in chosen})

    F = DualForm(poly(d, 8, n - 1 if annihilating else n))
    if annihilating:
        g = Poly.variable(n, field, n) * poly(draw(st.integers(0, d - 1)), 4)
    else:
        g = poly(draw(st.integers(0, d)), 4)
    return F, g, poly(1, n)


@settings(max_examples=150, deadline=None)
@given(contraction_cases())
@example((DF("X1^2*X2", 2), parse_poly("x2^2", 2), parse_poly("x1 + x2", 2)))
@example((DualForm(perazzo_dual_form(4).poly.map_to_field(GF(7))),
          parse_poly("x1*x5 + 3*x2*x6", 6, GF(7)), parse_poly("x5 - x6", 6, GF(7))))
def test_contract_agrees_with_differentiation(case):
    # the index shift on the scaled record against falling factorials, for
    # g o F, for ell o (ell o F) and for ell o (g o F), each checked on its
    # h-vector before its polynomial is read
    F, g, ell = case

    def agree(G, want):
        assert (G is None) == (want is None)
        if G is not None:
            assert G.degree == want.degree
            assert hilbert_function(G) == hilbert_function(want)
            assert G.poly == want.poly

    for H, want in ((F, F), (contract(g, F), contract_by_differentiation(g, F))):
        agree(H, want)
        if H is None or H.degree == 0:
            continue
        L = contract(ell, H)
        want_L = contract_by_differentiation(ell, want)
        agree(L, want_L)
        if L is not None and L.degree > 0:
            agree(contract(ell, L), contract_by_differentiation(ell, want_L))


class TestHfModuloLinear:
    def test_x1x2_mod_x1(self):
        assert hf_modulo_linear(DF("X1*X2", 2), parse_poly("X1", 2)) == (1, 1, 0)

    def test_power_mod_its_variable(self):
        F = DF("X1^4", 2)
        assert hf_modulo_linear(F, parse_poly("X1", 2)) == (1, 0, 0, 0, 0)

    def test_entries_nonnegative_for_generic_linear(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 6)
            F = random_form(n, d, FP, rng)
            ell = random_linear_form(n, FP, rng)
            assert all(x >= 0 for x in hf_modulo_linear(F, ell))

    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            hf_modulo_linear(DF("X1*X2", 2), parse_poly("X1^2", 2))


class TestStructuralProperties:
    def test_rank_symmetry(self):
        rng = random.Random(55)
        for _ in range(12):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 7)
            F = random_form(n, d, FP, rng)
            for i in range(d + 1):
                assert catalecticant(F, i).rank() == catalecticant(F, d - i).rank()

    def test_hilbert_functions_are_o_sequences(self):
        rng = random.Random(56)
        for _ in range(12):
            F = random_form(rng.randrange(2, 5), rng.randrange(2, 7), FP, rng)
            assert is_o_sequence(tuple(hilbert_function(F)))[0]

    def test_exactness_bookkeeping(self):
        rng = random.Random(57)
        for _ in range(12):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 7)
            F = random_form(n, d, FP, rng)
            ell = random_linear_form(n, FP, rng)
            h_a = hilbert_function(F)
            B = contract(ell, F)
            h_b = tuple(hilbert_function(B)) if B is not None else ()
            h_c = hf_modulo_linear(F, ell)
            for i in range(d + 1):
                b_prev = h_b[i - 1] if 0 <= i - 1 < len(h_b) else 0
                assert h_a[i] == b_prev + h_c[i]

    def test_contraction_is_degreewise_dominated(self):
        rng = random.Random(58)
        for _ in range(10):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 7)
            F = random_form(n, d, FP, rng)
            ell = random_linear_form(n, FP, rng)
            B = contract(ell, F)
            if B is None:
                continue
            h_a, h_b = hilbert_function(F), hilbert_function(B)
            for i in range(B.degree + 1):
                assert h_b[i] <= h_a[i]

    def test_green_bound_on_restrictions(self):
        from apolar import green_bound
        rng = random.Random(59)
        for _ in range(10):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 6)
            F = random_form(n, d, FP, rng)
            ell = random_linear_form(n, FP, rng)
            h_a = hilbert_function(F)
            h_c = hf_modulo_linear(F, ell)
            for i in range(1, d + 1):
                assert h_c[i] <= green_bound(h_a[i], i)
