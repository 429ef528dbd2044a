import random

import pytest

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
    random_linear_change,
    wlp_check,
)
from apolar.linalg import ExactMatrix
from apolar.poly import LinearChange, Poly
from oracles import random_form

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

    @pytest.mark.parametrize("field", [FP, QQ])
    def test_congruence_equals_substitution(self, field):
        rng = random.Random(303)
        for label in CATALOG_LABELS:
            web = orbit_representative(label, field)
            g = self._random_change(field, rng)
            assert web.transformed(g).quadrics == [g.apply(q) for q in web.quadrics]

    def test_mismatched_change_rejected(self):
        web = orbit_representative(OrbitLabel.I, FP)
        with pytest.raises(ValueError):
            web.transformed(LinearChange.identity(4, QQ))
        with pytest.raises(ValueError):
            web.transformed(LinearChange.identity(3, FP))


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
        for label in (OrbitLabel.I, OrbitLabel.VI, OrbitLabel.VIII_X3SQ_X2X4):
            web = orbit_representative(label, FP)
            g = random_linear_change(4, FP, rng)
            assert quadric_ideal_hf(web.transformed(g), 5) == EXPECTED_WEB_HF[label]


class TestGin2:
    def test_all_representatives_special(self):
        for label in CATALOG_LABELS:
            web = orbit_representative(label, FP)
            assert gin2(web, trials=3, seed=17) == SPECIAL_GIN2

    def test_generic_dual_form_web(self):
        F = generic_gin_dual_form(7, seed=5)
        assert tuple(hilbert_function(F))[:4] == (1, 4, 6, 8)
        web = QuadricWeb(ann_degree(F, 2))
        assert gin2(web, trials=3, seed=23) == GENERIC_GIN2

    def test_split_quadrics_give_generic_set(self):
        web = QuadricWeb([parse_poly(t, 4, FP)
                          for t in ("x1^2", "x2^2", "x3^2", "x4^2")])
        assert gin2(web, trials=3, seed=29) == GENERIC_GIN2

    def test_second_seed_agrees(self):
        for label in (OrbitLabel.IV, OrbitLabel.IX):
            web = orbit_representative(label, FP)
            assert gin2(web, 3, seed=100) == gin2(web, 3, seed=200)

    def test_prime_field_required(self):
        with pytest.raises(ValueError):
            gin2(orbit_representative(OrbitLabel.I, QQ), 3, seed=1)


class TestClassifier:
    def test_representatives_round_trip(self):
        for label in CATALOG_LABELS:
            web = orbit_representative(label, FP)
            assert classify_web(web, seed=55) is label

    def test_conjugates_round_trip_two_seeds(self):
        rng = random.Random(1010)
        for label in CATALOG_LABELS:
            web = orbit_representative(label, FP)
            g = random_linear_change(4, FP, rng)
            conjugate = web.transformed(g)
            assert classify_web(conjugate, seed=61) is label
            assert classify_web(conjugate, seed=62) is label

    def test_case_i_from_text(self):
        web = QuadricWeb([parse_poly(t, 4, FP)
                          for t in ("x1*x3", "x1*x4", "x2*x3", "x2*x4")])
        assert classify_web(web, seed=3) is OrbitLabel.I

    def test_generic_web_raises_hypothesis_violation(self):
        F = generic_gin_dual_form(5, seed=9)
        web = QuadricWeb(ann_degree(F, 2))
        with pytest.raises(HypothesisViolationError):
            classify_web(web, seed=71)

    def test_evidence_fields(self):
        label, evidence = classify_web_report(orbit_representative(OrbitLabel.IX, FP), seed=81)
        assert label is OrbitLabel.IX
        assert evidence["web_hf"] == list(HF_FAST)
        assert evidence["common_kernel_dim"] == 0
        assert evidence["pencil_det_signature"] == [0, 0, 0, 1]
        label, evidence = classify_web_report(orbit_representative(OrbitLabel.V, FP), seed=82)
        assert evidence["common_kernel_dim"] == 1
        assert evidence["dual_pencil_det_signature"] == [0, 0, 1]


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
        entries = exceptional_hvector_examples(verify=False)
        assert entries[0][1].poly == perazzo_dual_form(3).poly
        assert entries[2][1].poly == perazzo_dual_form(4).poly

    def test_middle_entry_fails_wlp_with_deficiency_one(self):
        _, form = exceptional_hvector_examples(verify=False)[1]
        report = wlp_check(DualForm(form.poly.map_to_field(FP)), trials=3, seed=23)
        assert report.verdict is Verdict.FAILS
        assert report.records[1].achieved == 5 and report.records[1].expected == 6
