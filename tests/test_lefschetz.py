import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import event, example, given, settings, strategies as st

from apolar import (
    GF,
    QQ,
    DualForm,
    OrbitLabel,
    Verdict,
    catalecticant,
    contract,
    diff_action,
    hessian,
    hessian_det_at,
    hessian_rank_at,
    hilbert_function,
    inverse_system_sample,
    is_wl_element,
    monomials_of_degree,
    mult_map_rank,
    orbit_representative,
    parametric_family_form,
    parametric_quintic,
    parse_poly,
    perazzo_dual_form,
    quotient_basis,
    random_linear_form,
    slp_check,
    snake_consistency,
    wlp_check,
)
from apolar import lefschetz
from apolar.lefschetz import _ell_power
from apolar.linalg import ExactMatrix
from apolar.poly import Poly
from oracles import (
    ell_divides_by_substitution,
    hessian_at_by_evaluation,
    hessian_by_differentiation,
    hf_by_kernels,
    lefschetz_search_by_pairing,
    mult_rank_by_pairing,
    random_form,
    snake_ranks_naive,
)

FP = GF()


def DF(text, n, field=QQ):
    return DualForm(parse_poly(text, n, field))


def modular(form: DualForm) -> DualForm:
    return DualForm(form.poly.map_to_field(FP))


class TestMultMapRank:
    def test_x1sqx2(self):
        F = DF("X1^2*X2", 2)
        x1 = parse_poly("X1", 2)
        assert mult_rank_by_pairing(F, x1, 1) == 2
        assert mult_map_rank(F, x1, 1, 1) == 2

    def test_principal_algebra(self):
        F = DF("X1^5", 2)
        x1 = parse_poly("X1", 2)
        for i in range(5):
            for k in range(1, 5 - i + 1):
                assert mult_map_rank(F, x1, i, k) == 1

    def test_perazzo_middle_deficient(self):
        F = modular(perazzo_dual_form(3))
        ell = random_linear_form(5, FP, random.Random(4))
        got = mult_map_rank(F, ell, 1, 1)
        assert got == mult_rank_by_pairing(F, ell, 1) == 4  # expected would be 5

    def test_annihilating_form_gives_zero(self):
        F = DF("X1^3", 2)
        x2 = parse_poly("X2", 2)
        assert mult_map_rank(F, x2, 0, 1) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mult_map_rank(DF("X1^2", 1), parse_poly("X1", 1), 1, 2)

    def test_monotonicity_and_duality(self):
        rng = random.Random(90)
        for _ in range(8):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 6)
            F = random_form(n, d, FP, rng)
            h = hilbert_function(F)
            ell = random_linear_form(n, FP, rng)
            for i in range(d):
                r = mult_map_rank(F, ell, i, 1)
                assert r <= min(h[i], h[i + 1])
                assert r == mult_map_rank(F, ell, d - 1 - i, 1)

    def test_agrees_with_pairing_oracle(self):
        rng = random.Random(91)
        for _ in range(8):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 6)
            F = random_form(n, d, FP, rng)
            ell = random_linear_form(n, FP, rng)
            i = rng.randrange(0, d)
            k = rng.randrange(1, d - i + 1)
            assert mult_map_rank(F, ell, i, k) == mult_rank_by_pairing(F, ell, i, k)


class TestIsWlElement:
    def test_two_cubes_good_element(self):
        F = DF("X1^3 + X2^3", 2)
        records = is_wl_element(F, parse_poly("X1 + X2", 2))
        assert all(r.maximal for r in records)

    def test_two_cubes_bad_element(self):
        F = DF("X1^3 + X2^3", 2)
        records = is_wl_element(F, parse_poly("X1", 2))
        assert records[1].achieved == 1 and records[1].expected == 2

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            is_wl_element(DF("X1^2", 2), Poly.zero(2, QQ))


class TestWlpCheck:
    def test_perazzo_fails_at_degree_one_with_dual_two(self):
        report = wlp_check(modular(perazzo_dual_form(3)), trials=5, seed=42)
        assert report.verdict is Verdict.FAILS
        assert report.failing_degrees == (1,)
        assert report.dual_failing_degrees == (2,)
        assert report.records[1].achieved == 4

    def test_sperner_six_quintic_sample_holds(self):
        web = orbit_representative(OrbitLabel.VII, FP)
        F = inverse_system_sample(web, 5, seed=8)
        assert tuple(hilbert_function(F)) == (1, 4, 6, 6, 4, 1)
        report = wlp_check(F, trials=5, seed=9)
        assert report.verdict is Verdict.HOLDS
        assert report.certificate_trial is not None

    def test_principal_holds_one_trial(self):
        F = DF("X1^6", 3, FP)
        report = wlp_check(F, trials=1, seed=0)
        assert report.verdict is Verdict.HOLDS and report.trials_used == 1

    def test_certificate_suffices(self):
        # one witnessed success must yield holds even with trials to spare
        F = DF("X1^3 + X2^3", 2, FP)
        report = wlp_check(F, trials=7, seed=5)
        assert report.verdict is Verdict.HOLDS
        assert report.trials_used <= 7

    def test_achieved_never_exceeds_expected(self):
        rng = random.Random(92)
        for _ in range(6):
            F = random_form(rng.randrange(2, 5), rng.randrange(2, 6), FP, rng)
            report = wlp_check(F, trials=2, seed=rng.randrange(10**6))
            for r in report.records:
                assert r.achieved <= r.expected

    def test_rational_field_rejected(self):
        with pytest.raises(ValueError):
            wlp_check(DF("X1^2", 2), trials=1, seed=0)

    @pytest.mark.parametrize("check", [wlp_check, slp_check])
    @pytest.mark.parametrize("field, trials", [(QQ, 1), (FP, 0)])
    def test_refusal_ranks_nothing(self, check, field, trials):
        # the draws refuse a field that is not prime, and no trials, before
        # the search ranks anything: the form's record holds no h-vector
        F = DF("X1^2*X2 + X2^3", 2, field)
        with pytest.raises(ValueError):
            check(F, trials=trials, seed=0)
        assert F._record is None or F._record.h is None


class TestSlpCheck:
    def test_four_powers_holds(self):
        F = DF("X1^5 + X2^5 + X3^5 + X4^5", 4, FP)
        assert tuple(hilbert_function(F)) == (1, 4, 4, 4, 4, 1)
        report = slp_check(F, trials=5, seed=3)
        assert report.verdict is Verdict.HOLDS

    def test_perazzo_fails(self):
        report = slp_check(modular(perazzo_dual_form(3)), trials=5, seed=4)
        assert report.verdict is Verdict.FAILS
        assert (1, 1) in report.failing_pairs

    def test_two_variables_hold(self):
        report = slp_check(DF("X1*X2", 2, FP), trials=3, seed=5)
        assert report.verdict is Verdict.HOLDS

    def test_diagonal_records_cover_half_the_degrees(self):
        F = DF("X1^4 + X2^4 + X3^4", 3, FP)
        report = slp_check(F, trials=3, seed=6)
        assert [(r.i, r.k) for r in report.records] == [(0, 4), (1, 2), (2, 0)]


@st.composite
def prime_forms(draw):
    """A dual form over the default prime or GF(101), and a master seed."""
    field = draw(st.sampled_from([FP, GF(101)]))
    n = draw(st.integers(1, 3))
    mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, draw(st.integers(1, 5)))),
                         min_size=1, max_size=8, unique=True))
    F = DualForm(Poly(n, field, {m: draw(st.integers(1, field.p - 1)) for m in mons}))
    return F, draw(st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(prime_forms())
def test_certificate_records_are_the_ranks_of_its_form(case):
    F, seed = case
    h = hilbert_function(F)
    for report in (wlp_check(F, trials=3, seed=seed), slp_check(F, trials=3, seed=seed)):
        assert all(r.achieved <= r.expected for r in report.records)
        if report.verdict is not Verdict.HOLDS:
            continue
        ell = parse_poly(report.certificate_form, F.n, F.field)
        for r in report.records:
            want = h[r.i] if r.k == 0 else mult_rank_by_pairing(F, ell, r.i, r.k)
            assert r.achieved == want


# the stored cubic with h = (1, 6, 6, 1) that fails the WLP
CUBIC = "X1*X4^2 + X2*X4*X5 + X3*X5^2 + X6^3"


def dense_form(n, d, field, coefficients):
    """The form with every monomial of degree d, its coefficients read cyclically."""
    mons = monomials_of_degree(n, d)
    return DualForm(Poly(n, field, {m: coefficients[j % len(coefficients)]
                                    for j, m in enumerate(mons)}))


@st.composite
def search_cases(draw):
    """A dual form over GF(7), GF(101) or the default prime, 1 to 3 trials and a master seed.

    Three draws in eight are forms drawn as `prime_forms` draws them, and
    three are Perazzo's forms of socle degree 3, 4 or 5 read in the field,
    which fail the WLP for every ell, so that FAILS reports are common.  One
    is the stored (1, 6, 6, 1) cubic read in the field, and one a dense form
    in 4 variables of degree 4, 5 or 6, compressed for most draws, so that
    h forces every WLP map when d is even and none of the middle ones when d
    is odd.
    """
    field = draw(st.sampled_from([GF(7), GF(101), FP]))
    kind = draw(st.sampled_from(["sparse"] * 3 + ["perazzo"] * 3 + ["cubic", "dense"]))
    if kind == "perazzo":
        F = DualForm(perazzo_dual_form(draw(st.sampled_from([3, 4, 5]))).poly.map_to_field(field))
    elif kind == "cubic":
        F = DF(CUBIC, 6, field)
    elif kind == "dense":
        coefficients = draw(st.lists(st.integers(1, field.p - 1), min_size=1, max_size=8))
        F = dense_form(4, draw(st.integers(4, 6)), field, coefficients)
    else:
        n = draw(st.integers(1, 3))
        mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, draw(st.integers(1, 5)))),
                             min_size=1, max_size=8, unique=True))
        F = DualForm(Poly(n, field, {m: draw(st.integers(1, field.p - 1)) for m in mons}))
    return F, draw(st.integers(1, 3)), draw(st.integers(0, 10**6))


@settings(max_examples=200, deadline=None)
@given(search_cases())
# trial 0 leaves the map (0, 2) deficient and trial 1 certifies
@example((DF("X1^2 + X1*X2 + X2^2", 2, GF(7)), 2, 3))
# h = (1, 4, 10, 4, 1): the WLP's middle map (1, 1) is forced injective
# only (h_2 = dim R_2, h_3 < dim R_3), so the WLP certifies unranked
@example((dense_form(4, 4, GF(7), [1, 2, 3, 4, 5, 6]), 1, 0))
# h = (1, 6, 6, 1): (2, 1) is forced onto only (h_1 = dim R_1, h_3 < dim
# R_3), next to the deficient middle map (1, 1)
@example((DF(CUBIC, 6, GF(101)), 2, 5))
def test_reports_agree_with_the_all_pairs_oracle(case):
    # every record, miss, trial count and certificate of both checks, FAILS
    # included, equals a replay of the seeded trials that ranks every map
    # by the pairing; a certificate leaves no misses of earlier trials
    F, trials, seed = case
    d = F.degree
    h = hf_by_kernels(F)
    wlp, slp = wlp_check(F, trials=trials, seed=seed), slp_check(F, trials=trials, seed=seed)
    event(f"wlp {wlp.verdict.value}, slp {slp.verdict.value}")
    wlp_maps = [(i, 1) for i in range(d)]
    slp_maps = [(i, k) for k in range(1, d + 1) for i in range(d - k + 1)]
    # which maps h forces, and which ones the checks left unranked when
    # their decisive maps certified
    full = [comb(F.n - 1 + j, j) for j in range(d + 1)]
    injective = {(i, k) for i, k in slp_maps if h[i + k] == full[i + k]}
    onto = {(i, k) for i, k in slp_maps if h[d - i] == full[d - i]}
    if injective - onto:
        event("a map forced injective only")
    if onto - injective:
        event("a map forced onto only")
    decisive = {((d - 1) // 2, 1)}, {(i, d - 2 * i) for i in range(d // 2 + 1)}
    for name, report, maps, first in (("wlp", wlp, wlp_maps, decisive[0]),
                                      ("slp", slp, slp_maps, decisive[1])):
        if report.verdict is Verdict.HOLDS and set(maps) - injective - onto - first:
            event(f"{name} certified by its decisive maps, unforced maps left unranked")
    for report, maps in ((wlp, wlp_maps), (slp, slp_maps)):
        ranks, misses, used, trial, form = lefschetz_search_by_pairing(F, h, maps, trials, seed)
        assert (report.trials_used, report.certificate_trial, report.certificate_form) == (
            used, trial, form)
        assert report.verdict is (Verdict.FAILS if misses else Verdict.HOLDS)
        if report is wlp:
            assert [(r.i, r.k) for r in report.records] == maps
            assert report.failing_degrees == tuple(i for i, _ in misses)
            assert report.dual_failing_degrees == tuple(sorted({d - i for i, _ in misses}))
        else:
            assert [(r.i, r.k) for r in report.records] == [(i, d - 2 * i)
                                                            for i in range(d // 2 + 1)]
            assert report.failing_pairs == misses
        for r in report.records:
            assert r.expected == min(h[r.i], h[r.i + r.k])
            assert r.achieved == (h[r.i] if r.k == 0 else ranks[(r.i, r.k)])


@pytest.mark.parametrize("d, failing_degrees, dual_failing_degrees, failing_pairs", [
    (3, (1,), (2,), ((1, 1),)),
    (4, (1, 2), (2, 3), ((1, 1), (1, 2), (2, 1))),
])
def test_perazzo_failing_maps(d, failing_degrees, dual_failing_degrees, failing_pairs):
    F = modular(perazzo_dual_form(d))
    wlp = wlp_check(F, trials=5, seed=4)
    slp = slp_check(F, trials=5, seed=4)
    assert wlp.failing_degrees == failing_degrees
    assert wlp.dual_failing_degrees == dual_failing_degrees
    assert slp.failing_pairs == failing_pairs
    for r in wlp.records + slp.records:
        assert r.achieved <= r.expected


class TestHessian:
    def test_degree_zero_is_the_form(self):
        F = DF("X1*X2", 2)
        H = hessian(F, 0)
        assert H.size == 1 and H.entries[0][0] == F.poly

    def test_x1x2_second_partials(self):
        H = hessian(DF("X1*X2", 2), 1)
        assert H.basis == [(1, 0), (0, 1)]
        zero, one = Poly.zero(2, QQ), Poly.one(2, QQ)
        assert H.entries == [[zero, one], [one, zero]]

    def test_x1x2_constant_determinant(self):
        F = DF("X1*X2", 2)
        for point in ([1, 1], [2, 5], [Fraction(1, 3), 7]):
            assert hessian_det_at(F, 1, point) == Fraction(-1)

    def test_x1sqx2_at_ones(self):
        # oracle: basis {x1, x2}, entries [[2*X2, 2*X1], [2*X1, 0]],
        # at (1, 1) the determinant is -4
        F = DF("X1^2*X2", 2)
        H = hessian(F, 1)
        assert H.entries[0][0] == parse_poly("2*X2", 2)
        assert H.entries[0][1] == parse_poly("2*X1", 2)
        assert H.entries[1][1].is_zero()
        assert hessian_det_at(F, 1, [1, 1]) == Fraction(-4)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            hessian(DF("X1^2*X2", 2), 2)

    def test_agreement_with_catalecticant_of_power_contraction(self):
        rng = random.Random(93)
        for _ in range(10):
            n = rng.randrange(2, 5)
            d = rng.randrange(2, 6)
            F = random_form(n, d, FP, rng)
            point = [FP.rand(rng) for _ in range(n)]
            ell = Poly(n, FP, {
                tuple(1 if j == i else 0 for j in range(n)): c
                for i, c in enumerate(point) if c})
            if ell.is_zero():
                continue
            for i in range(d // 2 + 1):
                expected = mult_map_rank(F, ell, i, d - 2 * i)
                assert hessian_rank_at(F, i, point) == expected


@st.composite
def hessian_inputs(draw):
    """F, an index 0 <= i <= d/2 and a point, over QQ, GF(7) or the default prime.

    QQ coefficients are non-integral fractions, so the form's record keeps a
    denominator, and QQ points may hold fractions; prime-field points hold
    ints that may be negative or past p.  n <= 4, d <= 6, and about one
    point in ten is zero.
    """
    field = draw(st.sampled_from([QQ, GF(7), FP]))
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 6))
        coord = st.integers(-20, 20) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    else:
        coeff = st.integers(1, field.p - 1)
        coord = st.integers(-20, 20) | st.integers(-2 * field.p, 2 * field.p)
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)), min_size=1, max_size=10,
                         unique=True))
    F = DualForm(Poly(n, field, {m: draw(coeff) for m in mons}))
    i = draw(st.integers(0, d // 2))
    zero = draw(st.integers(0, 9)) == 9
    point = [0] * n if zero else draw(st.lists(coord, min_size=n, max_size=n))
    return F, i, point


@settings(max_examples=150, deadline=None)
@given(hessian_inputs())
# a zero point with k = 1, and a nonzero one whose ell annihilates F
@example((DF("X1^3 + 1/2*X1*X2^2", 2), 1, [0, 0]))
@example((DF("X1^3", 2, GF(7)), 1, [0, 5]))
# k = 0: the middle catalecticant itself, whatever the point
@example((DF("X1^2*X2^2 + 1/3*X2^4 - X1^4", 2), 2, [3, -1]))
@example((DF("X1^2*X2^2 + 1/3*X2^4 - X1^4", 2), 2, [0, 0]))
# negative and out-of-range coordinates over GF(7)
@example((DF("X1^2*X2 + 3*X2^3 + X1*X3^2", 3, GF(7)), 1, [-1, -8, 12]))
# one variable, a fractional point
@example((DF("2/3*X1^5", 1), 1, [Fraction(-3, 2)]))
@example((DF("X1^4", 1, GF(7)), 1, [-3]))
def test_hessian_at_a_point_equals_its_evaluated_entries(case):
    F, i, point = case
    want = hessian_at_by_evaluation(F, i, point)
    assert hessian_rank_at(F, i, point) == want.rank()
    assert hessian_det_at(F, i, point) == want.det()
    assert hessian(F, i).entries == hessian_by_differentiation(F, i)


@pytest.mark.parametrize("at", [hessian_rank_at, hessian_det_at])
def test_hessian_at_rejects_bad_points_and_indices(at):
    F = DF("X1^2*X2", 2)
    for point in ([1, 2, 3], [1]):
        with pytest.raises(ValueError, match=f"point has length {len(point)}, expected 2"):
            at(F, 1, point)
    for i in (2, -1):
        with pytest.raises(ValueError, match=rf"hessian index {i} outside 0\.\.1"):
            at(F, i, [1, 1])
    # a coordinate is read as a field element: 1/2 is 4 mod 7
    G = DF("X1^2*X2 + 3*X2^3 + X1*X3^2", 3, GF(7))
    assert at(G, 1, [Fraction(1, 2), 2, 3]) == at(G, 1, [4, 2, 3])
    with pytest.raises(ValueError, match=r"coordinate 1/7 has a denominator that vanishes mod 7"):
        at(G, 1, [Fraction(1, 7), 2, 3])
    for form, point in ((F, [0.5, 1]), (G, [1, 0.5, 3])):
        with pytest.raises(ValueError, match=r"coordinate 0\.5 is neither an int nor a Fraction"):
            at(form, 1, point)


# -- the displayed parametric matrices ----------------------------------------

DEG2_V = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)]
DEG3_V = [(1, 0, 1, 1), (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 3, 0), (0, 0, 2, 1), (0, 0, 1, 2), (0, 0, 0, 3)]
CAT_V = [
    [0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 2],
    [0, 0, 1, 0, 0, 0, 3],
    [0, 0, 0, 4, 5, 6, 7],
    [0, 1, 0, 5, 6, 7, 8],
    [1, 2, 3, 6, 7, 8, 9],
]
DEG2_VI = [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)]
DEG3_VI = [(1, 1, 0, 1), (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 3, 0), (0, 0, 2, 1), (0, 0, 1, 2), (0, 0, 0, 3)]
CAT_VI = [
    [0, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 2],
    [0, 1, 0, 0, 0, 0, 3],
    [0, 0, 0, 4, 5, 6, 7],
    [0, 0, 0, 5, 6, 7, 8],
    [1, 2, 3, 6, 7, 8, 9],
]
# restricted Hessian entries as (x3-coefficient index, x4-coefficient index)
HESS_V = [
    [0, 0, 0, 0, 0, (0, 1)],
    [0, 0, 0, 0, (0, 1), (1, 2)],
    [0, 0, (0, 1), 0, 0, (0, 3)],
    [0, 0, 0, (4, 5), (5, 6), (6, 7)],
    [0, (0, 1), 0, (5, 6), (6, 7), (7, 8)],
    [(0, 1), (1, 2), (0, 3), (6, 7), (7, 8), (8, 9)],
]
HESS_VI = [
    [0, 0, 0, 0, 0, (0, 1)],
    [0, 0, (0, 1), 0, 0, (0, 2)],
    [0, (0, 1), 0, 0, 0, (0, 3)],
    [0, 0, 0, (4, 5), (5, 6), (6, 7)],
    [0, 0, 0, (5, 6), (6, 7), (7, 8)],
    [(0, 1), (0, 2), (0, 3), (6, 7), (7, 8), (8, 9)],
]


def _full_contraction(F, u, w):
    prod = Poly.monomial(4, FP, tuple(a + b for a, b in zip(u, w)))
    return diff_action(prod, F.poly).coefficient((0,) * 4)


@pytest.mark.parametrize("label,deg2,deg3,table", [
    (OrbitLabel.V, DEG2_V, DEG3_V, CAT_V),
    (OrbitLabel.VI, DEG2_VI, DEG3_VI, CAT_VI),
])
def test_parametric_catalecticant_matches_display(label, deg2, deg3, table):
    rng = random.Random(hash(label.value) & 0xFFFF)
    a = [FP.rand_nonzero(rng) for _ in range(9)]
    F = parametric_quintic(label, a, FP)
    for r, u in enumerate(deg2):
        for c, w in enumerate(deg3):
            want = 0 if table[r][c] == 0 else a[table[r][c] - 1]
            assert _full_contraction(F, u, w) == want


@pytest.mark.parametrize("label,deg2,table", [
    (OrbitLabel.V, DEG2_V, HESS_V),
    (OrbitLabel.VI, DEG2_VI, HESS_VI),
])
def test_parametric_hessian_restriction_matches_display(label, deg2, table):
    rng = random.Random(1 + (hash(label.value) & 0xFFFF))
    a = [FP.rand_nonzero(rng) for _ in range(9)]
    F = parametric_quintic(label, a, FP)
    H = hessian(F, 2)
    assert H.basis == deg2
    for r in range(6):
        for c in range(6):
            entry = H.entries[r][c]
            restricted = {e: v for e, v in entry.terms.items() if e[0] == 0 and e[1] == 0}
            indices = table[r][c]
            want = {}
            if indices != 0:
                i3, i4 = indices
                if i3:
                    want[(0, 0, 1, 0)] = a[i3 - 1]
                if i4:
                    want[(0, 0, 0, 1)] = a[i4 - 1]
            assert restricted == want


class TestParametricDeterminantIdentities:
    """Closed-form factorizations of the middle Hessian determinants.

    Each case is checked at 20 random evaluation points per instantiation,
    up to one global scalar fitted from the first point (the bases behind
    the displayed factorizations differ from the greedy quotient basis by a
    permutation, so a sign can appear).
    """

    @staticmethod
    def _check_identity(F, i, predicted, rng, points=20):
        scale = None
        for _ in range(points):
            point = [FP.rand(rng) for _ in range(4)]
            got = hessian_det_at(F, i, point)
            want = predicted(point)
            if scale is None:
                if want == 0:
                    assert got == 0
                    continue
                scale = FP.div(got, want)
            assert got == FP.mul(scale, want)
        assert scale is not None

    def test_case_v(self):
        rng = random.Random(501)
        a = [FP.rand_nonzero(rng) for _ in range(9)]
        F = parametric_quintic(OrbitLabel.V, a, FP)

        def predicted(pt):
            return FP.mul(pow(FP.mul(a[0], pt[3]), 5, FP.p),
                          FP.add(FP.mul(a[3], pt[2]), FP.mul(a[4], pt[3])))

        self._check_identity(F, 2, predicted, rng)

    def test_case_vi(self):
        rng = random.Random(502)
        a = [FP.rand_nonzero(rng) for _ in range(9)]
        F = parametric_quintic(OrbitLabel.VI, a, FP)

        def predicted(pt):
            x3, x4 = pt[2], pt[3]
            c1 = FP.sub(FP.mul(a[3], a[5]), FP.mul(a[4], a[4]))
            c2 = FP.sub(FP.mul(a[3], a[6]), FP.mul(a[4], a[5]))
            c3 = FP.sub(FP.mul(a[4], a[6]), FP.mul(a[5], a[5]))
            quad = (c1 * x3 * x3 + c2 * x3 * x4 + c3 * x4 * x4) % FP.p
            return FP.mul(pow(FP.mul(a[0], x4), 4, FP.p), quad)

        self._check_identity(F, 2, predicted, rng)

    @staticmethod
    def _det(entries):
        from apolar import ExactMatrix
        return ExactMatrix(entries, FP).det()

    @pytest.mark.parametrize("m", [2, 3])
    def test_case_vii(self, m):
        rng = random.Random(503 + m)
        d = 2 * m + 1
        a = [FP.rand_nonzero(rng) for _ in range(2 * d + 2)]
        F = parametric_family_form(OrbitLabel.VII, d, a, FP)

        def predicted(pt):
            x2, x4 = pt[1], pt[3]
            x3 = pt[2]
            block_a = [[(a[r + s + 1] * x2 + a[r + s + 2] * x4) % FP.p
                        for s in range(m)] for r in range(m)]
            block_b = [[(a[2 * m + 2 + r + s] * x3 + a[2 * m + 3 + r + s] * x4) % FP.p
                        for s in range(m)] for r in range(m)]
            head = pow(FP.mul(a[0], x4), 2, FP.p)
            return FP.mul(FP.mul(head, self._det(block_a)), self._det(block_b))

        self._check_identity(F, m, predicted, rng)

    @pytest.mark.parametrize("m", [2, 3])
    def test_case_ix(self, m):
        rng = random.Random(505 + m)
        d = 2 * m + 1
        a = [FP.rand_nonzero(rng) for _ in range(2 * d + 2)]
        F = parametric_family_form(OrbitLabel.IX, d, a, FP)

        def predicted(pt):
            x3, x4 = pt[2], pt[3]
            block = [[(a[r + s] * x3 + a[r + s + 1] * x4) % FP.p
                      for s in range(m + 1)] for r in range(m + 1)]
            return pow(self._det(block), 2, FP.p)

        self._check_identity(F, m, predicted, rng)

    @pytest.mark.parametrize("m", [2, 3])
    def test_case_x(self, m):
        rng = random.Random(507 + m)
        d = 2 * m + 1
        a = [FP.rand_nonzero(rng) for _ in range(2 * d + 2)]
        F = parametric_family_form(OrbitLabel.X, d, a, FP)

        def predicted(pt):
            x3, x4 = pt[2], pt[3]
            block = [[(a[r + s + 1] * x3 + a[r + s + 2] * x4) % FP.p
                      for s in range(m)] for r in range(m)]
            return pow(FP.mul(FP.mul(a[0], x4), self._det(block)), 2, FP.p)

        self._check_identity(F, m, predicted, rng)

    def test_families_annihilated_by_their_webs(self):
        rng = random.Random(509)
        for label in (OrbitLabel.VII, OrbitLabel.IX, OrbitLabel.X):
            web = orbit_representative(label, FP)
            a = [FP.rand_nonzero(rng) for _ in range(12)]
            F = parametric_family_form(label, 5, a, FP)
            for q in web.quadrics:
                assert diff_action(q, F.poly).is_zero()


class TestSnakeConsistency:
    def test_hand_computed_monomial_case(self):
        # F = X1X2: A = k[x1,x2]/(x1^2, x2^2), g = x1, ell = x2.
        # C = A/(x1) = k[x2]/(x2^2) with h = (1, 1, 0); multiplication by x2
        # on C has rank 1 from degree 0 and rank 0 from degree 1.
        F = DF("X1*X2", 2, FP)
        g = parse_poly("X1", 2, FP)
        ell = parse_poly("X2", 2, FP)
        ledger = snake_consistency(F, g, ell)
        assert [r.dims_c for r in ledger.records] == [(1, 1), (1, 0), (0, 0)]
        assert [r.rank_c for r in ledger.records] == [1, 0, 0]
        assert [r.rank_b for r in ledger.records] == [0, 1, 0]
        assert [r.rank_a for r in ledger.records] == [1, 1, 0]
        assert ledger.consistent

    def test_perazzo_four_generic(self):
        F = modular(perazzo_dual_form(4))
        rng = random.Random(17)
        g = random_linear_form(6, FP, rng)
        ell = random_linear_form(6, FP, rng)
        ledger = snake_consistency(F, g, ell)
        assert ledger.consistent
        assert len(ledger.records) == 5

    def test_unit_g_makes_c_vanish(self):
        F = DF("X1^2*X2 + X2^3", 2, FP)
        g = Poly.one(2, FP)
        ell = random_linear_form(2, FP, random.Random(3))
        ledger = snake_consistency(F, g, ell)
        for r in ledger.records:
            assert r.dims_c == (0, 0) and r.rank_c == 0
            assert r.rank_b == r.rank_a or r.i == F.degree
        assert ledger.consistent

    def test_annihilating_g_makes_b_vanish(self):
        F = DF("X1^3", 2, FP)
        g = parse_poly("X2", 2, FP)
        ell = parse_poly("X1", 2, FP)
        ledger = snake_consistency(F, g, ell)
        h = tuple(hilbert_function(F))
        for r in ledger.records:
            assert r.dims_b == (0, 0) and r.rank_b == 0
            assert r.dims_c == r.dims_a
            assert r.rank_c == r.rank_a
        assert ledger.consistent

    def test_quadratic_g_on_random_forms(self):
        rng = random.Random(18)
        for _ in range(5):
            n = rng.randrange(2, 4)
            d = rng.randrange(3, 6)
            F = random_form(n, d, FP, rng)
            g = random_form(n, 2, FP, rng).poly
            ell = random_linear_form(n, FP, rng)
            assert snake_consistency(F, g, ell).consistent


@pytest.mark.parametrize("g, message", [
    (Poly.zero(2, FP), "zero polynomial"),
    (parse_poly("x1^2 + x2", 2, FP), "homogeneous"),
    (parse_poly("x1^4", 2, FP), "exceeds socle degree 3"),
])
def test_snake_rejects_a_bad_g(g, message):
    F = DF("X1^2*X2 + X2^3", 2, FP)
    with pytest.raises(ValueError, match=message):
        snake_consistency(F, g, parse_poly("x1 + x2", 2, FP))


@st.composite
def snake_inputs(draw):
    """F, g of degree 0..d and a linear ell over QQ, GF(7) or the default prime.

    QQ coefficients are non-integral fractions; n <= 4 and d <= 6.  F is
    sparse or generic, carrying every monomial it may; a generic F has
    rank_c pinned in its upper half and eliminated in its lower half.  When
    F leaves out the last variable x_n, a multiple of x_n annihilates it,
    which gives annihilating choices of g and of ell.
    """
    field = draw(st.sampled_from([QQ, GF(7), FP]))
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 6))
    else:
        coeff = st.integers(1, field.p - 1)
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    free_last = n > 1 and draw(st.booleans())

    def poly(degree, max_terms, skip_last=False):
        mons = [m for m in monomials_of_degree(n, degree) if not (skip_last and m[-1])]
        chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=max_terms,
                               unique=True))
        return Poly(n, field, {m: draw(coeff) for m in chosen})

    def generic(degree, skip_last):
        # up to 84 coefficients: drawn from a seeded generator, since that
        # many draws would overrun Hypothesis's buffer
        rng = random.Random(draw(st.integers(0, 2**32)))
        mons = [m for m in monomials_of_degree(n, degree) if not (skip_last and m[-1])]
        if field == QQ:
            return Poly(n, field, {m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                               rng.randint(2, 6)) for m in mons})
        return Poly(n, field, {m: rng.randrange(1, field.p) for m in mons})

    if draw(st.booleans()):
        F = DualForm(generic(d, free_last))
    else:
        F = DualForm(poly(d, 8, skip_last=free_last))
    s = draw(st.integers(0, d))
    x_n = Poly.variable(n, field, n)
    if free_last and s >= 1 and draw(st.booleans()):
        g = x_n * poly(s - 1, 3)
    else:
        g = poly(s, 4)
    ell = x_n if free_last and draw(st.booleans()) else poly(1, n)
    return F, g, ell


@settings(max_examples=150, deadline=None)
@given(snake_inputs())
@example((DF("X1^2*X2 + X2^3", 3, GF(7)), parse_poly("x3*x1", 3, GF(7)),
          parse_poly("x3", 3, GF(7))))
@example((DF("X1^3 + 1/2*X1*X2^2", 2), parse_poly("3/4", 2), parse_poly("x1 - 2/3*x2", 2)))
@example((DF("X1^4 + X1*X2^3 + X2^2*X3^2", 3, FP), parse_poly("x1^4 + x3^4", 3, FP),
          parse_poly("x1 + x2 + x3", 3, FP)))
# rank_c pinned by x ell onto [A]_{i+1}: the upper half of a generic quartic
@example((DF("X1^4 + X2^4 + X3^4 + X1*X2*X3^2 + 1/2*X1^2*X2^2", 3), parse_poly("x1 + 2*x3", 3),
          parse_poly("x1 - x2 + 1/3*x3", 3)))
# pinned by ell o F = 0, and by g o F = 0
@example((DF("X1^3 + 1/2*X1*X2^2", 3), parse_poly("x1 + x2 + x3", 3), parse_poly("x3", 3)))
@example((DF("X1^3 + 1/2*X1*X2^2", 3), parse_poly("x3*x2", 3), parse_poly("x1 + x2 - x3", 3)))
# not pinned: the lower half of a generic quintic, where both blocks are ranked
@example((DF("X1^5 + X2^5 + X3^5 + 1/2*X1^2*X2^2*X3 + 2/3*X1*X3^4 - X1^3*X2*X3", 3),
          parse_poly("x1 - x3", 3), parse_poly("x2 + 3*x3", 3)))
# both, beyond the strategy's sizes: a generic sextic in five variables
@example((random_form(5, 6, FP, random.Random(16), density=1.0),
          parse_poly("x1*x2 + x3^2 - x5^2", 5, FP), parse_poly("x1 + 2*x2 - x3 + x4 + 3*x5", 5, FP)))
def test_snake_ledger_agrees_with_naive_ranks(case):
    F, g, ell = case
    ledger = snake_consistency(F, g, ell)
    got = [(r.rank_b, r.rank_a, r.rank_c) for r in ledger.records]
    assert got == snake_ranks_naive(F, g, ell)


def generic_poly(n, degree, field, rng):
    """Every monomial of the degree, each with a nonzero coefficient from rng.

    Over QQ the coefficients are non-integral fractions.
    """
    if field == QQ:
        return Poly(n, field, {m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 6))
                               for m in monomials_of_degree(n, degree)})
    return Poly(n, field, {m: rng.randrange(1, field.p) for m in monomials_of_degree(n, degree)})


@st.composite
def ell_dividing_inputs(draw):
    """A generic F, a random ell and g = ell * q or ell^s over QQ, GF(7) or the default prime.

    F carries every monomial of its degree d <= 6 in n <= 4 variables, so
    Ann(F) vanishes in the low degrees, where the ledger reads rank_c off
    the dimensions of R; ell has a random nonempty support.
    """
    field = draw(st.sampled_from([QQ, GF(7), FP]))
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    F = DualForm(generic_poly(n, d, field, rng))
    units = monomials_of_degree(n, 1)
    support = draw(st.lists(st.sampled_from(units), min_size=1, max_size=n, unique=True))
    ell = Poly(n, field, {u: generic_poly(n, 1, field, rng).terms[u] for u in support})
    s = draw(st.integers(1, d))
    g = ell ** s if draw(st.booleans()) else ell * generic_poly(n, s - 1, field, rng)
    return F, g, ell


@settings(max_examples=100, deadline=None)
@given(ell_dividing_inputs())
# ell does not divide g: a linear g on ell's support, and a quadric g
@example((DualForm(generic_poly(3, 5, QQ, random.Random(1))), parse_poly("x1 + 2*x2 + x3", 3),
          parse_poly("x1 - x2 + 1/3*x3", 3)))
@example((DualForm(generic_poly(3, 5, GF(7), random.Random(2))), parse_poly("x1*x2 + x3^2", 3, GF(7)),
          parse_poly("x1 + x2 + 2*x3", 3, GF(7))))
# ell divides a quadric g
@example((DualForm(generic_poly(3, 5, FP, random.Random(3))),
          parse_poly("x1^2 - 2*x1*x2 + 2*x1*x3 - 2*x2*x3 + x3^2", 3, FP),
          parse_poly("x1 - 2*x2 + x3", 3, FP)))
# a constant g: h_B = h_A, so the bounds pin every degree and ell | g is never asked
@example((DualForm(generic_poly(3, 4, QQ, random.Random(4))), parse_poly("3/4", 3),
          parse_poly("x2 - 1/2*x3", 3)))
# Ann(F) vanishes up to degree 1 only: degree 0 reads rank_c off dimensions, degree 1 eliminates
@example((DF("X1*X4^2 + X2*X4*X5 + X3*X5^2 + X6^3", 6), parse_poly("x1 + x2 - x6", 6),
          parse_poly("x1 + 2*x2 + 3*x3 - x4 + x5 + x6", 6)))
def test_snake_ledger_with_ell_dividing_g(case):
    F, g, ell = case
    ledger = snake_consistency(F, g, ell)
    got = [(r.rank_b, r.rank_a, r.rank_c) for r in ledger.records]
    assert got == snake_ranks_naive(F, g, ell)


@pytest.mark.parametrize("field", [QQ, GF(7), FP], ids=["QQ", "GF7", "FP"])
def test_ell_divides_agrees_with_substitution(field):
    rng = random.Random(29)
    cases = [(parse_poly("x1 + x2", 2, field), parse_poly("5", 2, field)),
             (parse_poly("x1 + x2", 2, field), parse_poly("3*x1 + 3*x2", 2, field)),
             (parse_poly("x1 + x2", 2, field), parse_poly("3*x1 + 2*x2", 2, field)),
             (parse_poly("x1 + x2", 2, field), parse_poly("x1", 2, field)),
             (parse_poly("x2", 3, field), parse_poly("x1*x2 + x2*x3", 3, field)),
             (parse_poly("x2", 3, field), parse_poly("x1*x2 + x3^2", 3, field))]
    for _ in range(40):
        n = rng.randint(1, 4)
        terms = {u: c for u, c in generic_poly(n, 1, field, rng).terms.items() if rng.random() < 0.7}
        ell = Poly(n, field, terms) if terms else Poly.variable(n, field, n)
        s = rng.randint(1, 4)
        cases += [(ell, ell * generic_poly(n, s - 1, field, rng)), (ell, ell ** s),
                  (ell, generic_poly(n, s, field, rng)),
                  (ell, ell * generic_poly(n, s - 1, field, rng) + generic_poly(n, s, field, rng))]
    answers = [lefschetz._ell_divides(ell, g) for ell, g in cases if not g.is_zero()]
    assert answers == [ell_divides_by_substitution(ell, g) for ell, g in cases if not g.is_zero()]
    assert answers[:6] == [False, True, False, False, True, False]
    assert True in answers[6:] and False in answers[6:]


@pytest.mark.parametrize("F, g, ell, eliminated", [
    (DualForm(generic_poly(3, 5, QQ, random.Random(5))), parse_poly("x1 - x3", 3),
     parse_poly("x2 + 3*x3", 3), 0),
    (DualForm(generic_poly(3, 6, GF(7), random.Random(6))), parse_poly("x1^2 + 2*x2*x3", 3, GF(7)),
     parse_poly("x1 + x2 + x3", 3, GF(7)), 0),
    (DualForm(generic_poly(4, 4, FP, random.Random(7))), parse_poly("x1*x2 - x3*x4", 4, FP),
     parse_poly("x1 + 2*x4", 4, FP), 0),
    # h = (1, 6, 6, 1): h_j = dim R_j up to j = 1 only, so degree i = 1 eliminates
    (DF("X1*X4^2 + X2*X4*X5 + X3*X5^2 + X6^3", 6, FP), parse_poly("x1 + x2 - x6", 6, FP),
     parse_poly("x1 + 2*x2 + 3*x3 - x4 + x5 + x6", 6, FP), 1),
])
def test_snake_ledger_stacks_only_where_ann_does_not_vanish(monkeypatch, F, g, ell, eliminated):
    # where h_A(i + 1) = dim R_{i+1} the rank on C is read off dimensions of
    # R, with no stacked matrix, and ell | g is decided once, when first asked
    stacked, divides = ExactMatrix._stacked.__func__, lefschetz._ell_divides
    built, asked = [], []

    def counting(cls, blocks):
        built.append(blocks[0].rows)  # catalecticant(ell o F, i), dim R_i rows
        return stacked(cls, blocks)

    def asking(ell, g):
        asked.append(g)
        return divides(ell, g)

    monkeypatch.setattr(ExactMatrix, "_stacked", classmethod(counting))
    monkeypatch.setattr(lefschetz, "_ell_divides", asking)
    ledger = snake_consistency(F, g, ell)
    dims = [comb(F.n - 1 + j, j) for j in range(F.degree + 2)]
    h = hilbert_function(F)
    degrees = [dims.index(rows) for rows in built]
    assert all(h[i + 1] < dims[i + 1] for i in degrees)
    assert len(asked) == 1
    assert len(built) == eliminated
    assert [(r.rank_b, r.rank_a, r.rank_c) for r in ledger.records] == snake_ranks_naive(F, g, ell)


@settings(max_examples=150, deadline=None)
@given(snake_inputs())
@example((DF("X1^3 + X1^2*X2", 2, GF(7)), None, parse_poly("x2", 2, GF(7))))
@example((DF("X1^2*X2 + 1/3*X2^3", 3), None, parse_poly("x1 - 1/2*x2", 3)))
def test_power_chain_matches_expanded_powers(case):
    # the snake inputs' ell may miss variables, and ell = x_n on an F free
    # of x_n (or of low degree in x_n) drives the chain to None early
    F, _, ell = case
    _ell_power(chain := [F], ell, F.degree)
    assert len(chain) == F.degree + 1
    for k, G in enumerate(chain):
        want = diff_action(ell ** k, F.poly)
        assert (None if G is None else G.poly) == (None if want.is_zero() else want)
