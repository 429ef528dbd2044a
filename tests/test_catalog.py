import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import event, example, given, reject, settings, strategies as st

from apolar import (
    CATALOG_LABELS,
    EXPECTED_WEB_HF,
    GENERIC_GIN2,
    GF,
    HF_FAST,
    HF_FLAT,
    HF_SLOW,
    QQ,
    SPECIAL_GIN2,
    DualForm,
    HypothesisViolationError,
    InternalInconsistencyError,
    OrbitLabel,
    QuadricWeb,
    Verdict,
    ann_degree,
    classify_web,
    classify_web_report,
    diff_action,
    exceptional_hvector_examples,
    gin2,
    hilbert_function,
    inverse_system_sample,
    monomials_of_degree,
    orbit_representative,
    parametric_quintic,
    parse_poly,
    perazzo_dual_form,
    quadric_ideal_hf,
    wlp_check,
)
from apolar import catalog
from apolar.catalog import (
    _binary_signature,
    _common_kernel,
    _dual_pencil,
    _ideal_rows,
    _pencil_det,
    _quartic_det,
    _rank_one_locus_degree,
    _symmetric_matrices,
)
from apolar.linalg import ExactMatrix
from apolar.poly import LinearChange, Poly
from oracles import (
    binary_signature_by_random_chart,
    dual_pencil_by_substitution,
    gin2_by_exhaustion,
    gin2_by_sampling,
    ideal_rows_densely,
    pencil_form,
    pencil_signature_by_random_pencil,
    poly_det,
    quadric_ideal_hf_by_ranks,
    random_form,
    random_linear_change,
    rank_one_locus_by_random_chart,
)

FP = GF()


def generic_gin_dual_form(d: int, seed: int) -> DualForm:
    """A dual form X1^d + G(X2, X3, X4) whose algebra has h = (1, 4, 6, 8, ...).

    G is a general three-variable form annihilated by one random quadric, so
    the quadric part of the annihilator is x1*(x2, x3, x4) plus that quadric
    and the degree-2 generic initial monomials form the generic set.
    """
    rng = random.Random(seed)
    mons2 = [m for m in monomials_of_degree(4, 2) if m[0] == 0]
    while True:
        q = Poly(4, FP, {m: FP.rand(rng) for m in mons2})
        if not q.is_zero():
            break
    cols = [m for m in monomials_of_degree(4, d) if m[0] == 0]
    outs = [m for m in monomials_of_degree(4, d - 2) if m[0] == 0]
    rows = []
    for w in outs:
        row = []
        for v in cols:
            total = 0
            for u, c in q.terms.items():
                if all(wi + ui == vi for wi, ui, vi in zip(w, u, v)):
                    mult = 1
                    for a, b in zip(u, v):
                        for r in range(a):
                            mult *= b - r
                    total = (total + c * mult) % FP.p
            row.append(total)
        rows.append(row)
    kernel = ExactMatrix(rows, FP).kernel_basis()
    terms: dict = {}
    for vec in kernel:
        c = FP.rand(rng)
        for m, x in zip(cols, vec):
            s = (terms.get(m, 0) + c * x) % FP.p
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
    top = [0] * 4
    top[0] = d
    terms[tuple(top)] = 1
    return DualForm(Poly(4, FP, terms))


class TestRepresentatives:
    def test_count(self):
        assert len(CATALOG_LABELS) == 12

    def test_first_and_ninth_and_fifth(self):
        web = orbit_representative(OrbitLabel.I)
        assert [sorted(q.terms) for q in web.quadrics] == [
            [(1, 0, 1, 0)], [(1, 0, 0, 1)], [(0, 1, 1, 0)], [(0, 1, 0, 1)]]
        web = orbit_representative(OrbitLabel.IX)
        assert web.quadrics[3] == parse_poly("x1*x4 - x2*x3", 4)
        web = orbit_representative(OrbitLabel.V)
        assert web.quadrics[2] == parse_poly("x1*x3 - x2^2", 4)

    def test_unknown_has_no_representative(self):
        with pytest.raises(ValueError):
            orbit_representative(OrbitLabel.UNKNOWN)

    def test_dependent_quadrics_rejected(self):
        with pytest.raises(ValueError):
            QuadricWeb([parse_poly(t, 4, QQ)
                        for t in ("x1^2", "x2^2", "x1^2 + x2^2", "x3^2")])

    def test_coefficients_reduced_mod_p(self):
        quadrics = [Poly(4, GF(7), {e: c}) for e, c in (
            ((2, 0, 0, 0), 9), ((1, 1, 0, 0), -1), ((0, 2, 0, 0), 1), ((0, 0, 2, 0), 1))]
        web = QuadricWeb(quadrics)
        assert [q.terms for q in web.quadrics] == [
            {(2, 0, 0, 0): 2}, {(1, 1, 0, 0): 6}, {(0, 2, 0, 0): 1}, {(0, 0, 2, 0): 1}]
        # a coefficient that vanishes mod p leaves a zero quadric
        with pytest.raises(ValueError, match="nonzero quadrics"):
            QuadricWeb(quadrics[:3] + [Poly(4, GF(7), {(0, 0, 2, 0): 7})])

    def test_inexact_coefficient_rejected(self):
        quadrics = [parse_poly(t, 4, GF(7)) for t in ("x1^2", "x1*x2", "x2^2")]
        with pytest.raises(ValueError, match="coefficient 1.0 over GF\\(7\\) is not an int"):
            QuadricWeb(quadrics + [Poly(4, GF(7), {(0, 0, 2, 0): 1.0})])

    def test_characteristic_two_rejected(self):
        with pytest.raises(HypothesisViolationError, match="characteristic"):
            QuadricWeb([parse_poly(t, 4, GF(2))
                        for t in ("x1^2", "x1*x2", "x2^2 + x3*x4", "x3^2")])
        with pytest.raises(HypothesisViolationError, match="characteristic"):
            orbit_representative(OrbitLabel.I, GF(2))


class TestTransformed:
    @staticmethod
    def _random_change(field, rng: random.Random) -> LinearChange:
        while True:
            m = [[field.from_fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                 for _ in range(4)]
            if not field.is_zero(ExactMatrix(m, field).det()):
                return LinearChange(m, field)

    @pytest.mark.parametrize("field", [FP, QQ, GF(7)])
    def test_congruence_equals_substitution(self, field):
        rng = random.Random(303)
        for label in CATALOG_LABELS:
            web = orbit_representative(label, field)
            g = self._random_change(field, rng)
            assert web.transformed(g).quadrics == [g.apply(q) for q in web.quadrics]

    def test_mismatched_change_rejected(self):
        web = orbit_representative(OrbitLabel.I, FP)
        with pytest.raises(ValueError):
            web.transformed(LinearChange([[int(i == j) for j in range(4)] for i in range(4)], QQ))
        with pytest.raises(ValueError):
            web.transformed(LinearChange([[int(i == j) for j in range(3)] for i in range(3)], FP))


class TestQuadricIdealHF:
    def test_three_way_classification(self):
        for label in CATALOG_LABELS:
            web = orbit_representative(label)
            assert quadric_ideal_hf(web, 5) == EXPECTED_WEB_HF[label]

    def test_specific_values_from_statement(self):
        assert quadric_ideal_hf(orbit_representative(OrbitLabel.II), 4) == (1, 4, 6, 6, 6)
        assert quadric_ideal_hf(orbit_representative(OrbitLabel.V), 5) == (1, 4, 6, 7, 8, 9)
        assert quadric_ideal_hf(orbit_representative(OrbitLabel.X), 4) == (1, 4, 6, 8, 10)

    def test_invariant_under_coordinate_change(self):
        rng = random.Random(12)
        for label in CATALOG_LABELS:
            web = orbit_representative(label, FP)
            g = random_linear_change(4, FP, rng)
            assert quadric_ideal_hf(web.transformed(g), 5) == EXPECTED_WEB_HF[label]

    def test_complete_intersection_has_zero_tail(self):
        web = QuadricWeb([parse_poly(f"x{i}^2", 4, QQ) for i in range(1, 5)])
        assert quadric_ideal_hf(web, 6) == (1, 4, 6, 4, 1, 0, 0)

    @staticmethod
    def _shapes(monkeypatch, web, up_to):
        """The Hilbert function and the shapes of the matrices it was read off.

        Every matrix passes through `_hold`, whether the public constructor
        or the trusted `_integral` built it.
        """
        shapes = []
        hold = ExactMatrix._hold

        def recording(self, ints, den, field):
            hold(self, ints, den, field)
            shapes.append((self.rows, self.cols))

        with monkeypatch.context() as patch:
            patch.setattr(ExactMatrix, "_hold", recording)
            return quadric_ideal_hf(web, up_to), shapes

    def test_degree_two_runs_no_prolongation(self, monkeypatch):
        web = orbit_representative(OrbitLabel.I)
        assert self._shapes(monkeypatch, web, 2) == ((1, 4, 6), [(4, 10)])

    def test_prolongation_matrices_are_six_by_four_blocks(self, monkeypatch):
        # FAST webs grow maximally from degree 3 to 4 (8^<3> = 10), so Gotzmann
        # persistence gives h_5 and they build no degree-5 matrix
        last = {HF_FAST: (36, 32), HF_SLOW: (42, 32), HF_FLAT: (36, 24)}
        for label in CATALOG_LABELS:
            hf, shapes = self._shapes(monkeypatch, orbit_representative(label, FP), 5)
            assert hf == EXPECTED_WEB_HF[label]
            degrees = (3, 4) if hf == HF_FAST else (3, 4, 5)
            assert shapes == [(4, 10)] + [(6 * hf[k - 2], 4 * hf[k - 1]) for k in degrees]
            assert shapes[-1] == last[hf]

    @pytest.mark.parametrize("field", [QQ, GF(7), GF(101), FP], ids=repr)
    def test_persisted_hf_matches_ranks_of_ideal_matrices(self, field):
        # the representatives, and over F_p a conjugate of each: FAST webs
        # persist from degree 4 and SLOW webs from degree 5 on
        rng = random.Random(27)
        webs = []
        for label in CATALOG_LABELS:
            web = orbit_representative(label, field)
            webs.append(web)
            if field is not QQ:
                webs.append(web.transformed(random_linear_change(4, field, rng)))
        for web in webs:
            ranks = quadric_ideal_hf_by_ranks(web, 7)
            assert quadric_ideal_hf(web, 7) == ranks
            assert quadric_ideal_hf(web, 5) == ranks[:6]

    def test_hf_that_is_no_o_sequence_raises(self, monkeypatch):
        # a rank two short in degree 5 gives FLAT h_5 = 8 > 6^<4> = 7
        web = orbit_representative(OrbitLabel.II, FP)
        rank = ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "rank", lambda self: rank(self) - 2)
        with pytest.raises(InternalInconsistencyError, match="O-sequence"):
            quadric_ideal_hf(web, 5)

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError, match="up_to >= 2"):
            quadric_ideal_hf(orbit_representative(OrbitLabel.I), 1)


#: Fields of the prolongation property: QQ with fractional coefficients,
#: a characteristic just above the classifier's bound, and two larger primes.
HF_FIELDS = [QQ, GF(7), GF(101), FP]


@st.composite
def quadric_webs(draw, fields=HF_FIELDS):
    """A web over one of `fields`: a conjugate of a representative, or sparse and random.

    Sparse webs reach Hilbert functions outside the catalog.  In half of
    them quadric i holds the square x_i^2, which makes most of those
    complete intersections, whose Hilbert functions end in zeros.
    """
    field = draw(st.sampled_from(fields))
    if field is QQ:
        entry = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    else:
        entry = st.integers(1, field.p - 1)
    if draw(st.booleans()):
        matrix = draw(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=4, max_size=4))
        try:
            change = LinearChange(matrix, field)
        except ValueError:
            reject()
        return orbit_representative(draw(st.sampled_from(CATALOG_LABELS)), field).transformed(change)
    mons = monomials_of_degree(4, 2)
    squares = draw(st.booleans())
    quadrics = []
    for i in range(4):
        support = set(draw(st.lists(st.sampled_from(mons), min_size=1 - squares, max_size=3)))
        if squares:
            support.add(tuple(2 * (j == i) for j in range(4)))
        quadrics.append(Poly(4, field, {m: draw(entry) for m in sorted(support)}))
    try:
        return QuadricWeb(quadrics)
    except ValueError:
        reject()


@settings(max_examples=150, deadline=None)
@given(quadric_webs(), st.integers(2, 7))
@example(QuadricWeb([parse_poly(f"x{i}^2", 4, QQ) for i in range(1, 5)]), 7)
def test_prolonged_hf_matches_ranks_of_ideal_matrices(web, up_to):
    hf = quadric_ideal_hf(web, up_to)
    event("zero tail" if hf[-1] == 0 else "nonzero tail")
    assert hf == quadric_ideal_hf_by_ranks(web, up_to)


class TestGin2:
    def test_all_representatives_special(self):
        for label in CATALOG_LABELS:
            web = orbit_representative(label, FP)
            assert gin2(web) == SPECIAL_GIN2

    def test_generic_dual_form_web(self):
        F = generic_gin_dual_form(7, seed=5)
        assert tuple(hilbert_function(F))[:4] == (1, 4, 6, 8)
        web = QuadricWeb(ann_degree(F, 2))
        assert gin2(web) == GENERIC_GIN2

    def test_split_quadrics_give_generic_set(self):
        web = QuadricWeb([parse_poly(t, 4, FP)
                          for t in ("x1^2", "x2^2", "x3^2", "x4^2")])
        assert gin2(web) == GENERIC_GIN2

    def test_prime_field_required(self):
        with pytest.raises(ValueError):
            gin2(orbit_representative(OrbitLabel.I, QQ))


class TestClassifier:
    def test_representatives_round_trip(self):
        for label in CATALOG_LABELS:
            web = orbit_representative(label, FP)
            assert classify_web(web) is label

    def test_conjugates_round_trip(self):
        rng = random.Random(1010)
        for label in CATALOG_LABELS:
            web = orbit_representative(label, FP)
            g = random_linear_change(4, FP, rng)
            assert classify_web(web.transformed(g)) is label

    def test_case_i_from_text(self):
        web = QuadricWeb([parse_poly(t, 4, FP)
                          for t in ("x1*x3", "x1*x4", "x2*x3", "x2*x4")])
        assert classify_web(web) is OrbitLabel.I

    def test_generic_web_raises_hypothesis_violation(self):
        F = generic_gin_dual_form(5, seed=9)
        web = QuadricWeb(ann_degree(F, 2))
        with pytest.raises(HypothesisViolationError):
            classify_web(web)

    #: label -> (pencil_det_signature, dual_pencil_det_signature, rank_one_points)
    EVIDENCE = {
        OrbitLabel.I: ([0, 2, 0, 0], None, None),
        OrbitLabel.II: (None, [3, 0, 0], None),
        OrbitLabel.III: (None, [1, 1, 0], None),
        OrbitLabel.IV: (None, [0, 0, 1], None),
        OrbitLabel.V: (None, [0, 0, 1], None),
        OrbitLabel.VI: (None, [1, 1, 0], None),
        OrbitLabel.VII: (None, "zero", 2),
        OrbitLabel.VIII_X3X4: ([2, 1, 0, 0], None, None),
        OrbitLabel.VIII_X3SQ_X2X4: ([1, 0, 1, 0], None, None),
        OrbitLabel.VIII_X3SQ: (None, "zero", 0),
        OrbitLabel.IX: ([0, 0, 0, 1], None, None),
        OrbitLabel.X: (None, "zero", 1),
    }

    def test_evidence_fields(self):
        assert set(self.EVIDENCE) == set(CATALOG_LABELS)
        for label, (pencil, dual, rank_one) in self.EVIDENCE.items():
            got, evidence = classify_web_report(orbit_representative(label, FP))
            assert got is label
            assert evidence == {
                "gin2": "special",
                "web_hf": list(EXPECTED_WEB_HF[label]),
                "common_kernel_dim": 0 if pencil else 1,
                "pencil_det_signature": pencil,
                "dual_pencil_det_signature": dual,
                "rank_one_points": rank_one,
                "label": label.value,
            }

    def test_characteristic_at_most_four_rejected(self):
        # root multiplicities of the degree-4 pencil determinant need p > 4
        web = orbit_representative(OrbitLabel.IV, GF(3))
        with pytest.raises(ValueError, match="p > 4"):
            classify_web_report(web)

    @pytest.mark.parametrize("p", [5, 7, 13, 101, 10007])
    def test_conjugates_round_trip_small_primes(self, p):
        # p = 5, 7 and 13 are where sampled invariants would miss most often
        field = GF(p)
        rng = random.Random(p)
        for label in CATALOG_LABELS:
            web = orbit_representative(label, field)
            for _ in range(30 if p < 100 else 3):
                conjugate = web.transformed(random_linear_change(4, field, rng))
                assert classify_web(conjugate) is label


# -- binary forms in the fixed chart against the random-chart oracles ----------

BINARY_FIELDS = [GF(101), GF(10007), FP]


def _linear_factors(p: int):
    """Coefficients (a, b) of a alpha + b beta; beta itself puts its root at infinity."""
    coefficient = st.integers(0, p - 1)
    return st.one_of(st.just((0, 1)), st.just((1, 0)),
                     st.tuples(coefficient, coefficient).filter(any))


def _irreducible_quadratics(p: int):
    """Coefficients (1, 0, -n) of alpha^2 - n beta^2, n a non-residue: two roots outside F_p."""
    nonresidue = st.integers(1, p - 1).filter(lambda n: pow(n, (p - 1) // 2, p) == p - 1)
    return nonresidue.map(lambda n: (1, 0, p - n))


@st.composite
def factored_binary_forms(draw):
    """A field and a binary form given as a scale times factors with multiplicities.

    Each factor is a coefficient tuple of alpha^(e-j) beta^j, j = 0..e: a
    linear form or an irreducible quadratic.
    """
    field = draw(st.sampled_from(BINARY_FIELDS))
    p = field.p
    factor = st.one_of(_linear_factors(p), _irreducible_quadratics(p))
    factors = draw(st.lists(st.tuples(factor, st.integers(1, 3)), max_size=4))
    return field, draw(st.integers(1, p - 1)), factors


def _coefficients(form: Poly, e: int) -> list[int]:
    return [form.coefficient((e - j, j)) for j in range(e + 1)]


@settings(max_examples=200, deadline=None)
@given(factored_binary_forms(), st.integers(0, 2**32 - 1))
@example((GF(101), 5, [((0, 1), 2), ((1, 100), 1)]), 0)
@example((FP, 1, [((0, 1), 3)]), 0)
@example((GF(101), 3, [((1, 0, 99), 2), ((1, 0, 99), 1), ((0, 1), 1)]), 0)
def test_binary_signature_matches_random_chart(form, seed):
    field, scale, factors = form
    poly = Poly.constant(2, field, scale)
    for f, k in factors:
        poly = poly * Poly(2, field, {(len(f) - 1 - j, j): c for j, c in enumerate(f)}) ** k
    e = sum((len(f) - 1) * k for f, k in factors)
    expected = binary_signature_by_random_chart(poly, random.Random(seed))
    assert _binary_signature(_coefficients(poly, e), field.p) == expected
    assert _binary_signature([0] * (e + 1), field.p) is None


def test_binary_signature_needs_characteristic_above_degree():
    # over F_3 the derivative of alpha^4 is alpha^3 and that of alpha^3 is 0,
    # so the chain of gcds with derivatives never reaches a constant
    with pytest.raises(ValueError, match="p > 4"):
        _binary_signature([1, 0, 0, 0, 0], 3)
    assert _binary_signature([1, 0, 0, 0, 0], 5) == (0, 0, 0, 1)


@st.composite
def rank_one_pencils(draw):
    """A field and a pencil sum_k (a_k alpha + b_k beta) u_k u_k^T of 3x3 matrices."""
    field = draw(st.sampled_from(BINARY_FIELDS))
    p = field.p
    vector = st.lists(st.integers(0, p - 1), min_size=3, max_size=3)
    terms = draw(st.lists(st.tuples(vector, _linear_factors(p)), min_size=1, max_size=4))
    pencil = [[[0] * 3 for _ in range(3)] for _ in range(2)]
    for u, ab in terms:
        for m, c in zip(pencil, ab):
            for i in range(3):
                for j in range(3):
                    m[i][j] = (m[i][j] + c * u[i] * u[j]) % p
    return field, pencil


def _outcome(f, *args):
    try:
        return f(*args)
    except InternalInconsistencyError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(rank_one_pencils(), st.integers(0, 2**32 - 1))
@example((GF(101), [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]), 0)
def test_rank_one_locus_matches_random_chart(pencil, seed):
    field, matrices = pencil
    expected = _outcome(rank_one_locus_by_random_chart, matrices, field, random.Random(seed))
    assert _outcome(_rank_one_locus_degree, matrices, field.p) == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BINARY_FIELDS), st.integers(1, 4), st.data())
def test_pencil_det_matches_evaluated_det(field, size, data):
    p = field.p
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    matrix = st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size)
    m1, m2 = data.draw(matrix), data.draw(matrix)
    alpha, beta = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    coeffs = _pencil_det(m1, m2, p)
    assert coeffs == _coefficients(poly_det(pencil_form(m1, m2, field), 2, field), size)
    value = sum(c * pow(alpha, size - j, p) * pow(beta, j, p) for j, c in enumerate(coeffs)) % p
    at_point = [[(alpha * a + beta * b) % p for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)]
    assert value == ExactMatrix(at_point, field).det()


QUARTIC_FIELDS = [GF(7), GF(101), FP]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(QUARTIC_FIELDS), st.booleans(), st.data())
def test_quartic_det_matches_evaluated_det(field, sparse, data):
    p = field.p
    entry = st.integers(0, p - 1)
    if sparse:
        entry = st.one_of(st.just(0), entry)
    matrix = st.lists(st.lists(entry, min_size=4, max_size=4), min_size=4, max_size=4)
    mats = data.draw(st.lists(matrix, min_size=4, max_size=4))
    terms = _quartic_det(mats, p)
    assert all(sum(e) == 4 and 0 < c < p for e, c in terms.items())
    for _ in range(3):
        t = data.draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4))
        value = sum(c * prod(map(pow, t, e, [p] * 4)) for e, c in terms.items()) % p
        at_point = [[sum(x * m[i][j] for x, m in zip(t, mats)) % p for j in range(4)]
                    for i in range(4)]
        assert value == ExactMatrix(at_point, field).det()


#: The orbits whose member matrices share no kernel.
PENCIL_BRANCH_LABELS = [OrbitLabel.I, OrbitLabel.IX, OrbitLabel.VIII_X3X4,
                        OrbitLabel.VIII_X3SQ_X2X4]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PENCIL_BRANCH_LABELS), st.integers(0, 2**32 - 1))
def test_pencil_signature_matches_random_pencil(label, seed):
    rng = random.Random(seed)
    web = orbit_representative(label, FP).transformed(random_linear_change(4, FP, rng))
    got, evidence = classify_web_report(web)
    assert got is label
    assert evidence["pencil_det_signature"] == list(pencil_signature_by_random_pencil(web, rng))


@st.composite
def generic_gin_webs(draw):
    """A conjugate of the quadric web of `generic_gin_dual_form`, whose gin2 is generic."""
    F = generic_gin_dual_form(draw(st.sampled_from([5, 7])), draw(st.integers(0, 2**16)))
    change = random_linear_change(4, FP, random.Random(draw(st.integers(0, 2**32 - 1))))
    return QuadricWeb(ann_degree(F, 2)).transformed(change)


@settings(max_examples=100, deadline=None)
@given(st.one_of(quadric_webs([FP]), generic_gin_webs()), st.integers(0, 2**32 - 1))
def test_gin_quartic_vanishes_exactly_for_the_special_set(web, seed):
    pivots = gin2(web)
    event("special" if pivots == SPECIAL_GIN2 else "generic")
    assert pivots == gin2_by_sampling(web, trials=8, seed=seed)


@settings(max_examples=1, deadline=None)
@given(st.sampled_from([5, 7]), st.integers(0, 2**32 - 1))
@example(5, 10)  # the split web's conjugate fools gin2_by_sampling(web, 5, seed=10): special
@example(7, 0)
def test_gin2_matches_exhaustive_search(p, seed):
    field = GF(p)
    change = random_linear_change(4, field, random.Random(seed))
    split = QuadricWeb([parse_poly(f"x{i}^2", 4, field) for i in range(1, 5)])
    for web in [split] + [orbit_representative(label, field) for label in CATALOG_LABELS]:
        conjugate = web.transformed(change)
        assert gin2(conjugate) == gin2_by_exhaustion(conjugate)


#: The orbits whose member matrices share a one-dimensional kernel.
KERNEL_BRANCH_LABELS = [OrbitLabel.II, OrbitLabel.III, OrbitLabel.IV, OrbitLabel.V, OrbitLabel.VI,
                        OrbitLabel.VII, OrbitLabel.VIII_X3SQ, OrbitLabel.X]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BINARY_FIELDS), st.sampled_from(KERNEL_BRANCH_LABELS),
       st.integers(0, 2**32 - 1))
def test_dual_pencil_matches_substitution(field, label, seed):
    web = orbit_representative(label, field).transformed(
        random_linear_change(4, field, random.Random(seed)))
    mats = _symmetric_matrices(web.quadrics, 4)
    kernel = _common_kernel(mats, field)
    assert len(kernel) == 1
    pencil = _dual_pencil(mats, kernel[0], field)
    assert pencil is not None
    assert pencil == dual_pencil_by_substitution(web, kernel[0])


class TestInverseSystemSample:
    def test_annihilated_by_the_web(self):
        for label in (OrbitLabel.VII, OrbitLabel.III):
            web = orbit_representative(label, FP)
            F = inverse_system_sample(web, 5, seed=37)
            for q in web.quadrics:
                assert diff_action(q, F.poly).is_zero()

    def test_degree_two_complement_dimension(self):
        web = orbit_representative(OrbitLabel.X, FP)
        F = inverse_system_sample(web, 2, seed=41)
        assert F.degree == 2

    def test_case_v_coefficient_tie(self):
        web = orbit_representative(OrbitLabel.V, FP)
        for seed in (3, 4, 5):
            F = inverse_system_sample(web, 5, seed=seed)
            assert F.poly.coefficient((1, 0, 1, 3)) == FP.mul(
                2, F.poly.coefficient((0, 2, 0, 3)))

    def test_fast_webs_generic_hilbert_functions(self):
        for label in (OrbitLabel.VII, OrbitLabel.IX, OrbitLabel.X):
            web = orbit_representative(label, FP)
            F5 = inverse_system_sample(web, 5, seed=11)
            assert tuple(hilbert_function(F5)) == (1, 4, 6, 6, 4, 1)
            F7 = inverse_system_sample(web, 7, seed=11)
            assert tuple(hilbert_function(F7)) == (1, 4, 6, 8, 8, 6, 4, 1)

    def test_deterministic(self):
        web = orbit_representative(OrbitLabel.IX, FP)
        assert inverse_system_sample(web, 5, seed=2).poly == \
            inverse_system_sample(web, 5, seed=2).poly

    @pytest.mark.parametrize("degree", [7, 8])
    @pytest.mark.parametrize("label", [OrbitLabel.VII, OrbitLabel.IX, OrbitLabel.X])
    def test_weighted_rows_drop_the_entries_that_vanish_mod_p(self, label, degree):
        # over GF(7) in degree 7 or 8, c v! vanishes at the columns v with a
        # 7 in them; the sparse rows must leave them out, since the peel
        # takes every stored entry for a nonzero, and then their kernel is
        # the one of the dense rows built entry by entry
        web = orbit_representative(label, GF(7))
        mons, rows = _ideal_rows(web.quadrics, degree, weighted=True)
        dense = ideal_rows_densely(web.quadrics, degree, weighted=True)[1]
        assert all(all(row.values()) for row in rows)
        assert [[row.get(j, 0) for j in range(len(mons))] for row in rows] == dense
        assert (ExactMatrix._sparse(rows, len(mons), 1, GF(7)).kernel_basis()
                == ExactMatrix(dense, GF(7)).kernel_basis())


class TestParametricQuintic:
    def test_annihilated_by_its_web(self):
        rng = random.Random(6)
        for label in (OrbitLabel.V, OrbitLabel.VI):
            a = [FP.rand_nonzero(rng) for _ in range(9)]
            F = parametric_quintic(label, a, FP)
            for q in orbit_representative(label, FP).quadrics:
                assert diff_action(q, F.poly).is_zero()

    def test_rational_construction(self):
        F = parametric_quintic(OrbitLabel.V, [1] * 9, QQ)
        assert F.degree == 5

    def test_only_v_and_vi(self):
        with pytest.raises(ValueError):
            parametric_quintic(OrbitLabel.VII, [1] * 9, QQ)


class TestPerazzo:
    def test_degree_three_form(self):
        F = perazzo_dual_form(3)
        assert F.poly == parse_poly("X1*X4^2 + X2*X4*X5 + X3*X5^2", 5)

    def test_degree_four_shape(self):
        F = perazzo_dual_form(4)
        assert F.n == 6 and F.degree == 4
        assert tuple(hilbert_function(F)) == (1, 6, 6, 6, 1)

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            perazzo_dual_form(2)

    def test_hilbert_function_and_wlp_failure(self):
        for d in (3, 4):
            F = perazzo_dual_form(d)
            expected = (1,) + (d + 2,) * (d - 1) + (1,)
            assert tuple(hilbert_function(F)) == expected
            report = wlp_check(DualForm(F.poly.map_to_field(FP)), trials=3, seed=19)
            assert report.verdict is Verdict.FAILS


class TestExceptionalExamples:
    def test_entries_verify_on_load(self):
        entries = exceptional_hvector_examples()
        assert [tuple(h) for h, _ in entries] == [
            (1, 5, 5, 1), (1, 6, 6, 1), (1, 6, 6, 6, 1)]

    def test_first_and_last_are_trivial_extensions(self):
        entries = exceptional_hvector_examples()
        assert entries[0][1].poly == perazzo_dual_form(3).poly
        assert entries[2][1].poly == perazzo_dual_form(4).poly

    def test_middle_entry_fails_wlp_with_deficiency_one(self):
        _, form = exceptional_hvector_examples()[1]
        report = wlp_check(DualForm(form.poly.map_to_field(FP)), trials=3, seed=23)
        assert report.verdict is Verdict.FAILS
        assert report.records[1].achieved == 5 and report.records[1].expected == 6
