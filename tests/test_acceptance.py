"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Stated runtime budgets are asserted where given.
"""

import random
import time

from apolar import (
    CATALOG_LABELS,
    EXPECTED_WEB_HF,
    GENERIC_GIN2,
    GF,
    SPECIAL_GIN2,
    DualForm,
    OrbitLabel,
    QuadricWeb,
    Verdict,
    ann_degree,
    binom_expansion,
    catalecticant,
    classify_web,
    contract,
    exceptional_hvector_examples,
    gin2,
    green_bound,
    hessian_det_at,
    hessian_rank_at,
    hf_modulo_linear,
    hilbert_function,
    inverse_system_sample,
    is_o_sequence,
    macaulay_bound,
    mult_map_rank,
    orbit_representative,
    parametric_quintic,
    perazzo_dual_form,
    quadric_ideal_hf,
    random_linear_form,
    snake_consistency,
    wlp_check,
)
from apolar.poly import Poly
from oracles import (
    green_restriction_by_lex_segment,
    macaulay_growth_by_lex_segment,
    mult_rank_by_pairing,
    random_form,
    random_linear_change,
)
from test_catalog import generic_gin_dual_form

FP = GF()


def _report(k: int, what: str) -> None:
    print(f"ACCEPTANCE {k} ({what}): PASS")


def test_criterion_1_orbit_hilbert_functions():
    started = time.monotonic()
    for label in CATALOG_LABELS:
        web = orbit_representative(label)
        assert quadric_ideal_hf(web, 5) == EXPECTED_WEB_HF[label], label
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report(1, "orbit Hilbert functions, 12 entries, three-way classification")


def test_criterion_2_perazzo_sharpness():
    started = time.monotonic()
    for d in (3, 4, 5, 6):
        F = perazzo_dual_form(d)
        expected_h = (1,) + (d + 2,) * (d - 1) + (1,)
        assert tuple(hilbert_function(F)) == expected_h, d
        modular = DualForm(F.poly.map_to_field(FP))
        report = wlp_check(modular, trials=5, seed=4242)
        assert report.verdict is Verdict.FAILS, d
        assert report.failing_degrees == tuple(range(1, d - 1)), d
        for i in range(1, d - 1):
            rec = report.records[i]
            assert rec.expected == d + 2 and rec.achieved == d + 1, (d, i)
        # brute-force confirmation through the perfect pairing on quotient bases
        ell = random_linear_form(d + 2, FP, random.Random(1000 + d))
        assert mult_rank_by_pairing(modular, ell, d // 2) == d + 1, d
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    _report(2, "trivial-extension sharpness: h=(1,d+2,...,d+2,1), middle rank d+1")


def _closed_form_value(label: OrbitLabel, a, point):
    x3, x4 = point[2], point[3]
    if label is OrbitLabel.V:
        return FP.mul(pow(FP.mul(a[0], x4), 5, FP.p),
                      FP.add(FP.mul(a[3], x3), FP.mul(a[4], x4)))
    c1 = FP.sub(FP.mul(a[3], a[5]), FP.mul(a[4], a[4]))
    c2 = FP.sub(FP.mul(a[3], a[6]), FP.mul(a[4], a[5]))
    c3 = FP.sub(FP.mul(a[4], a[6]), FP.mul(a[5], a[5]))
    quad = (c1 * x3 * x3 + c2 * x3 * x4 + c3 * x4 * x4) % FP.p
    return FP.mul(pow(FP.mul(a[0], x4), 4, FP.p), quad)


def test_criterion_3_hessian_determinant_identities():
    started = time.monotonic()
    rng = random.Random(31415)
    for label in (OrbitLabel.V, OrbitLabel.VI):
        for _ in range(20):
            a = [FP.rand_nonzero(rng) for _ in range(9)]
            F = parametric_quintic(label, a, FP)
            scale = None
            for _ in range(20):
                point = [FP.rand(rng) for _ in range(4)]
                got = hessian_det_at(F, 2, point)
                want = _closed_form_value(label, a, point)
                if scale is None:
                    if want == 0:
                        assert got == 0, (label, point)
                        continue
                    scale = FP.div(got, want)  # one global scalar per instantiation
                assert got == FP.mul(scale, want), (label, a, point)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    _report(3, "parametric quintic Hessian determinants match closed forms, 0 mismatches")


#: degenerate draws per (web, degree) at which criterion 4 fails: over the
#: default prime the 120 kept draws meet none, so this many means the sampler
#: is broken, and the draw loop ends instead of running on
MAX_DEGENERATE = 10


def test_criterion_4_family_wlp():
    started = time.monotonic()
    generic_h = {
        5: (1, 4, 6, 6, 4, 1),
        7: (1, 4, 6, 8, 8, 6, 4, 1),
    }
    discarded = 0
    for label in (OrbitLabel.VII, OrbitLabel.IX, OrbitLabel.X):
        web = orbit_representative(label, FP)
        for degree in (5, 7):
            kept = 0
            seed = 0
            degenerate = []
            while kept < 20:
                seed += 1
                F = inverse_system_sample(web, degree, seed=seed)
                if tuple(hilbert_function(F)) != generic_h[degree]:
                    discarded += 1
                    degenerate.append(seed)
                    print(f"  discarded degenerate sample: {label.value} deg {degree} seed {seed}")
                    assert len(degenerate) < MAX_DEGENERATE, (
                        f"{label.value} deg {degree}: degenerate samples at seeds "
                        f"{degenerate}, {kept} generic ones kept")
                    continue
                kept += 1
                report = wlp_check(F, trials=5, seed=seed + 10**6)
                assert report.verdict is Verdict.HOLDS, (label, degree, seed)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"
    _report(4, f"family WLP holds on 120 generic samples ({discarded} degenerate discarded)")


def test_criterion_5_bounds_oracle_equivalence():
    for n in range(1, 61):
        for i in range(1, 6):
            assert binom_expansion(n, i).value == n, (n, i)
            assert macaulay_bound(n, i) == macaulay_growth_by_lex_segment(n, i), (n, i)
            assert green_bound(n, i) == green_restriction_by_lex_segment(n, i), (n, i)
    for j in range(1, 11):
        assert green_bound(2 * j, j) == 1, j
    _report(5, "Macaulay/Green bounds equal lex-segment counts, n<=60, i<=5")


def test_criterion_6_duality_exactness_suite():
    rng = random.Random(271828)
    for trial in range(200):
        n = rng.randrange(2, 6)
        d = rng.randrange(2, 8)
        F = random_form(n, d, FP, rng, density=rng.choice([0.3, 0.7]))
        h = hilbert_function(F)
        # rank symmetry of the catalecticants
        for i in range(d + 1):
            assert catalecticant(F, i).rank() == catalecticant(F, d - i).rank(), (trial, i)
        # growth obeys the Macaulay bound
        assert is_o_sequence(tuple(h))[0], trial
        # dimension bookkeeping of the basic exact sequence
        ell = random_linear_form(n, FP, rng)
        B = contract(ell, F)
        h_b = tuple(hilbert_function(B)) if B is not None else ()
        h_c = hf_modulo_linear(F, ell)
        for i in range(d + 1):
            b_prev = h_b[i - 1] if 0 <= i - 1 < len(h_b) else 0
            assert h[i] == b_prev + h_c[i], (trial, i)
        # snake-lemma ledger
        g = random_linear_form(n, FP, rng)
        assert snake_consistency(F, g, ell).consistent, trial
    _report(6, "rank symmetry, O-sequences, exactness and snake ledger: 200 forms, 0 violations")


def test_criterion_7_classifier_round_trip():
    master = random.Random(161803)
    for label in CATALOG_LABELS:
        web = orbit_representative(label, FP)
        for t in range(50):
            g = random_linear_change(4, FP, random.Random(master.getrandbits(63)))
            # the two seeds gin2 and the classifier once took, still drawn so
            # that the conjugates stay the same
            master.getrandbits(63)
            master.getrandbits(63)
            conjugate = web.transformed(g)
            assert gin2(conjugate) == SPECIAL_GIN2, (label, t)
            got = classify_web(conjugate)
            assert got is label, (label.value, t, got.value)
    # the generic side of the dichotomy
    F = generic_gin_dual_form(7, seed=9090)
    assert tuple(hilbert_function(F))[:4] == (1, 4, 6, 8)
    web = QuadricWeb(ann_degree(F, 2))
    for t in range(10):
        g = random_linear_change(4, FP, random.Random(master.getrandbits(63)))
        master.getrandbits(63)  # the seed gin2 once took
        conjugate = web.transformed(g)
        assert gin2(conjugate) == GENERIC_GIN2, t
    _report(7, "600 conjugates classify back, gin2 dichotomy exact, 0 misclassifications")


def test_criterion_8_hessian_catalecticant_agreement():
    rng = random.Random(141421)
    pairs = 0
    while pairs < 100:
        n = rng.randrange(2, 5)
        d = rng.randrange(2, 7)
        F = random_form(n, d, FP, rng)
        point = [FP.rand(rng) for _ in range(n)]
        if not any(point):
            continue
        pairs += 1
        ell = Poly(n, FP, {
            tuple(1 if j == i else 0 for j in range(n)): c
            for i, c in enumerate(point) if c})
        for i in range(d // 2 + 1):
            assert hessian_rank_at(F, i, point) == mult_map_rank(F, ell, i, d - 2 * i), (pairs, i)
    _report(8, "Hessian rank equals catalecticant rank of the power contraction, 100 pairs")


def test_criterion_9_exceptional_hvector_list():
    entries = exceptional_hvector_examples()
    expected = [(1, 5, 5, 1), (1, 6, 6, 1), (1, 6, 6, 6, 1)]
    assert [tuple(h) for h, _ in entries] == expected
    for h, form in entries:
        assert tuple(hilbert_function(form)) == tuple(h)
        modular = DualForm(form.poly.map_to_field(FP))
        assert wlp_check(modular, trials=5, seed=555).verdict is Verdict.FAILS
    _report(9, "exceptional h-vectors (1,5,5,1), (1,6,6,1), (1,6,6,6,1) verified on load")
