"""Weak and strong Lefschetz checks, Hessians, and snake-lemma bookkeeping.

Every multiplication rank is the Hilbert function of one contraction: the
rank of multiplication by g from [A]_i to [A]_{i + deg g} is h_{g o F}(i),
the rank of the i-th catalecticant of g applied to F, because that
contraction presents the image algebra A/(0 : g).  The weak and strong
Lefschetz checks and the snake ledger all read their ranks off it, with
every h-vector padded by zeros outside its degrees (`_padded_h`).  One
search, `_search`, ranks x ell^k on a list of maps (i, k) for each ell it
is given and makes the one `DegreeRecord` per map that `is_wl_element`
(one ell) and both Lefschetz checks (seeded draws) report; a report stores
the deficient maps and derives its verdict from them.  The ledger's one other
rank, on C = A/(g), is pinned by these h-vectors in every degree where ell
or g maps onto [A]_{i+1} or annihilates F, and is eliminated only elsewhere.
Powers of a linear form are never expanded: ell^k o F is ell o (ell^{k-1}
o F), so the forms ell^k o F for k = 1..d are a chain of d contractions by
ell.  With ell = sum a_j x_j, ell^k o G = k! G(a) for every form G of
degree k, so for k = d - 2i the i-th Hessian of F at the point a, times k!,
is a block of the catalecticant of ell^k o F (Maeno and Watanabe,
Illinois J. Math. 53, 2009).  Genericity of ell is handled Monte-Carlo
style over a big prime field: one successful sample is a certificate that
the property holds (maximal rank is an open condition), while uniform
failure across seeded trials is reported as failure together with the data
needed to re-run the experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial

from .duality import (
    DualForm,
    HVector,
    _padded_h,
    _require_linear,
    catalecticant,
    contract,
    hilbert_function,
    quotient_basis,
)
from .errors import InternalInconsistencyError
from .fields import PrimeField
from .grammar import format_poly
from .linalg import ExactMatrix
from .poly import Poly, monomials_of_degree, random_linear_form


class Verdict(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"


@dataclass(frozen=True)
class DegreeRecord:
    """Rank bookkeeping for one multiplication map."""

    i: int
    k: int
    expected: int
    achieved: int

    @property
    def maximal(self) -> bool:
        return self.achieved == self.expected

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "k": self.k,
            "expected": self.expected,
            "achieved": self.achieved,
            "maximal": self.maximal,
        }


@dataclass
class WlpReport:
    h: HVector
    records: list[DegreeRecord]
    failing_degrees: tuple[int, ...]  # source degrees i of deficient maps
    trials_used: int
    seed: int
    field_description: str
    certificate_trial: int | None = None
    certificate_form: str | None = None

    @property
    def verdict(self) -> Verdict:
        return Verdict.FAILS if self.failing_degrees else Verdict.HOLDS

    @property
    def dual_failing_degrees(self) -> tuple[int, ...]:
        """The mirrors d - i of the failing degrees under duality."""
        return tuple(sorted({self.h.socle_degree - i for i in self.failing_degrees}))

    def to_dict(self) -> dict:
        return {
            "h": list(self.h),
            "sperner": self.h.sperner,
            "socle_degree": self.h.socle_degree,
            "records": [r.to_dict() for r in self.records],
            "verdict": self.verdict.value,
            "failing_degrees": list(self.failing_degrees),
            "dual_failing_degrees": list(self.dual_failing_degrees),
            "trials_used": self.trials_used,
            "seed": self.seed,
            "field": self.field_description,
            "certificate_trial": self.certificate_trial,
            "certificate_form": self.certificate_form,
            "monte_carlo": "one maximal-rank sample certifies holds; uniform failure is probabilistic",
        }


@dataclass
class SlpReport:
    h: HVector
    records: list[DegreeRecord]  # the k = d - 2i diagonal
    failing_pairs: tuple[tuple[int, int], ...]  # (i, k) of deficient maps
    trials_used: int
    seed: int
    field_description: str
    certificate_trial: int | None = None
    certificate_form: str | None = None

    @property
    def verdict(self) -> Verdict:
        return Verdict.FAILS if self.failing_pairs else Verdict.HOLDS

    def to_dict(self) -> dict:
        return {
            "h": list(self.h),
            "records": [r.to_dict() for r in self.records],
            "verdict": self.verdict.value,
            "failing_pairs": [list(p) for p in self.failing_pairs],
            "trials_used": self.trials_used,
            "seed": self.seed,
            "field": self.field_description,
            "certificate_trial": self.certificate_trial,
            "certificate_form": self.certificate_form,
        }


def mult_map_rank(F: DualForm, ell: Poly, i: int, k: int) -> int:
    """Rank of multiplication by ell^k from [A]_i to [A]_{i+k}.

    Equals the rank of the i-th catalecticant of ell^k applied to F, with
    rank 0 when the contraction vanishes.
    """
    _require_linear(ell)
    if k < 0 or i < 0 or i + k > F.degree:
        raise ValueError(f"degrees out of range: i={i}, k={k}, d={F.degree}")
    G = _power_chain(F, ell, k)[k]
    return 0 if G is None else catalecticant(G, i).rank()


def _power_chain(F: DualForm, ell: Poly, top: int) -> list[DualForm | None]:
    """ell^k o F for k = 0..top <= d, each entry ell applied to the one before.

    ell^k o F = ell o (ell^{k-1} o F), so no power of ell is expanded.  Once
    an entry is None (ell^k annihilates F) every later entry is None.
    """
    chain: list[DualForm | None] = [F]
    for _ in range(top):
        chain.append(_times_ell(chain[-1], ell))
    return chain


def _times_ell(G: DualForm | None, ell: Poly) -> DualForm | None:
    """ell o G, or None when G is None or of degree 0, where ell annihilates it."""
    return None if G is None or G.degree == 0 else contract(ell, G)


def _require_prime_field(F: DualForm, what: str) -> None:
    if not isinstance(F.field, PrimeField):
        raise ValueError(f"{what} samples generic forms and needs a prime field")


def is_wl_element(F: DualForm, ell: Poly) -> list[DegreeRecord]:
    """Per-degree ranks of multiplication by the given linear form."""
    _require_linear(ell)
    return _search(F, [(i, 1) for i in range(F.degree)], [ell]).records


def _draws(F: DualForm, trials: int, seed: int):
    """The linear forms of trials 0..trials-1, drawn as each is needed.

    Trial t draws `random_linear_form` from Random(s_t), where s_t is the
    t-th `getrandbits(63)` of Random(seed).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    master = random.Random(seed)
    return (random_linear_form(F.n, F.field, random.Random(master.getrandbits(63)))
            for _ in range(trials))


@dataclass
class _Search:
    """Outcome of the trial loop over a list of maps (i, k)."""

    h: HVector
    records: list[DegreeRecord]  # per map: the certificate's rank, else the best one
    misses: tuple[tuple[int, int], ...]  # maps some trial left deficient, none after a certificate
    trials_used: int
    certificate_trial: int | None
    certificate_form: str | None


def _search(F: DualForm, maps: list[tuple[int, int]], ells) -> _Search:
    """Rank x ell^k on every map (i, k) for each linear form ell in turn.

    The only place ranks become `DegreeRecord`s, each against its expected
    rank min(h_i, h_{i+k}); a map with k = 0 is the identity, of rank h_i.
    The rank of x ell^k from [A]_i is h_{ell^k o F}(i), read off the chain of
    contractions by ell.  Stops at the first ell of maximal rank on all
    maps, which certifies the property: its ranks, and no misses.  Without
    one, keeps the best rank seen per map and the union of the deficient
    maps over all trials.
    """
    d = F.degree
    h = hilbert_function(F)
    expected = [min(h[i], h[i + k]) for i, k in maps]
    powers = {k for _, k in maps}
    best = [0] * len(maps)
    misses: set[tuple[int, int]] = set()
    certificate = None, None
    for t, ell in enumerate(ells):
        chain = _power_chain(F, ell, max(powers, default=0))
        ranks = {k: _padded_h(chain[k], d) for k in powers}
        achieved = [ranks[k][i] for i, k in maps]
        if any(a > e for a, e in zip(achieved, expected)):
            raise InternalInconsistencyError("multiplication rank exceeded its bound")
        bad = {m for m, a, e in zip(maps, achieved, expected) if a < e}
        if not bad:
            best, misses, certificate = achieved, set(), (t, format_poly(ell, var="x"))
            break
        best = list(map(max, best, achieved))
        misses |= bad
    records = [DegreeRecord(i, k, e, a) for (i, k), e, a in zip(maps, expected, best)]
    return _Search(h, records, tuple(sorted(misses)), t + 1, *certificate)


def wlp_check(F: DualForm, trials: int, seed: int) -> WlpReport:
    """Monte-Carlo weak Lefschetz check with a reproducibility certificate.

    Holds as soon as one sampled form has maximal rank at every degree
    simultaneously; otherwise the failure degrees are the union over trials
    of the deficient source degrees.
    """
    _require_prime_field(F, "wlp_check")
    found = _search(F, [(i, 1) for i in range(F.degree)], _draws(F, trials, seed))
    return WlpReport(
        h=found.h,
        records=found.records,
        failing_degrees=tuple(i for i, _ in found.misses),
        trials_used=found.trials_used,
        seed=seed,
        field_description=F.field.describe(),
        certificate_trial=found.certificate_trial,
        certificate_form=found.certificate_form,
    )


def slp_check(F: DualForm, trials: int, seed: int) -> SlpReport:
    """Monte-Carlo strong Lefschetz check.

    Every pair (i, k) with i + k <= d is ranked per trial, k = 0 included:
    those maps are identities of rank h_i, never deficient.  The reported
    records are the k = d - 2i diagonal, which already decides the property
    for a Gorenstein algebra; the other pairs are verified directly - cheap
    at this scale and independent of any reduction argument - and the
    deficient ones are the failing pairs.
    """
    _require_prime_field(F, "slp_check")
    d = F.degree
    pairs = [(i, k) for i in range(d + 1) for k in range(d - i + 1)]
    found = _search(F, pairs, _draws(F, trials, seed))
    return SlpReport(
        h=found.h,
        records=[r for r in found.records if r.k == d - 2 * r.i],
        failing_pairs=found.misses,
        trials_used=found.trials_used,
        seed=seed,
        field_description=F.field.describe(),
        certificate_trial=found.certificate_trial,
        certificate_form=found.certificate_form,
    )


# -- Hessians ----------------------------------------------------------------


@dataclass
class HessianMatrix:
    """Square matrix of forms over a chosen monomial basis of [A]_i."""

    basis: list[tuple[int, ...]]
    entries: list[list[Poly]]

    @property
    def size(self) -> int:
        return len(self.basis)


def hessian(F: DualForm, i: int) -> HessianMatrix:
    """The i-th Hessian of F over the greedy quotient basis B_i of [A]_i.

    Entry (u, v) is (m_u m_v) applied to F, a form of degree d - 2i in the
    dual variables, or the zero form where m_u m_v annihilates F.
    """
    if not 0 <= 2 * i <= F.degree:
        raise ValueError(f"hessian index {i} outside 0..{F.degree // 2}")
    basis = quotient_basis(F, i)
    zero = Poly.zero(F.n, F.field)
    # held in one list, so contracting by m_v m_u finds the form of m_u m_v
    images = [[contract(Poly.monomial(F.n, F.field, tuple(x + y for x, y in zip(u, v))), F)
               for v in basis] for u in basis]
    return HessianMatrix(basis, [[zero if G is None else G.poly for G in row] for row in images])


def _hessian_block(F: DualForm, i: int, point) -> ExactMatrix:
    """The i-th Hessian of F at the point a: catalecticant(ell^k o F, i) on B_i x B_i, over k!."""
    if len(point) != F.n:
        raise ValueError(f"point has length {len(point)}, expected {F.n}")
    if not 0 <= 2 * i <= F.degree:
        raise ValueError(f"hessian index {i} outside 0..{F.degree // 2}")
    field, k = F.field, F.degree - 2 * i
    p = field.p if isinstance(field, PrimeField) else None
    coordinates = []
    for a in point:
        if not isinstance(a, (int, Fraction)):
            raise ValueError(f"coordinate {a!r} is neither an int nor a Fraction")
        if p and a.denominator % p == 0:
            raise ValueError(f"coordinate {a} has a denominator that vanishes mod {p}")
        coordinates.append(field.from_fraction(a.numerator, a.denominator))
    ell = Poly(F.n, field, dict(zip(monomials_of_degree(F.n, 1), coordinates)))
    G = _power_chain(F, ell, k)[k] if k == 0 or ell.terms else None
    picks = list(map(monomials_of_degree(F.n, i).index, quotient_basis(F, i)))
    if G is None:
        return ExactMatrix._integral([[0] * len(picks) for _ in picks], 1, field)
    cat = catalecticant(G, i)
    rows = [[cat._ints[r][c] for c in picks] for r in picks]
    if p is None:
        return ExactMatrix._integral(rows, cat._den * factorial(k), field)
    inv = pow(factorial(k), -1, p)  # k <= d < p
    return ExactMatrix._integral([[x * inv % p for x in row] for row in rows], 1, field)


def hessian_det_at(F: DualForm, i: int, point) -> object:
    """Exact determinant of the i-th Hessian at a point, its coordinates read mod p over F_p."""
    return _hessian_block(F, i, point).det()


def hessian_rank_at(F: DualForm, i: int, point) -> int:
    """Exact rank of the i-th Hessian at a point, its coordinates read mod p over F_p."""
    return _hessian_block(F, i, point).rank()


# -- snake-lemma ledger -------------------------------------------------------


@dataclass(frozen=True)
class SnakeRecord:
    """Ranks and dimensions of the three vertical maps at one degree."""

    i: int
    dims_b: tuple[int, int]
    dims_a: tuple[int, int]
    dims_c: tuple[int, int]
    rank_b: int
    rank_a: int
    rank_c: int

    def _flags(self, rank, dims) -> tuple[bool, bool]:
        return rank == dims[0], rank == dims[1]

    @property
    def consistent(self) -> bool:
        b_inj, b_surj = self._flags(self.rank_b, self.dims_b)
        a_inj, a_surj = self._flags(self.rank_a, self.dims_a)
        c_inj, c_surj = self._flags(self.rank_c, self.dims_c)
        if b_inj and c_inj and not a_inj:
            return False
        if b_surj and c_surj and not a_surj:
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "B": {"dims": list(self.dims_b), "rank": self.rank_b},
            "A": {"dims": list(self.dims_a), "rank": self.rank_a},
            "C": {"dims": list(self.dims_c), "rank": self.rank_c},
            "consistent": self.consistent,
        }


@dataclass
class SnakeLedger:
    records: list[SnakeRecord]

    @property
    def consistent(self) -> bool:
        return all(r.consistent for r in self.records)

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "consistent": self.consistent,
        }


def snake_consistency(F: DualForm, g: Poly, ell: Poly) -> SnakeLedger:
    """Rank ledger for B = A/(0:g), A, C = A/(g) under multiplication by ell.

    For each degree i the ledger records dimensions and the rank of the three
    multiplication maps, and checks the snake-lemma implication: flanking
    maps both injective (resp. surjective) force the middle one to be so.

    g must be a nonzero form of degree s <= d, as `contract` requires; it
    raises ValueError otherwise.  The dimensions of A and B and the ranks
    on them are Hilbert functions of F, B = g o F, ell o F and ell o B, each
    padded with zeros to degrees 0..d+1 and B's shifted up by s.  The rank
    on C is the joint rank r of the pairing rows of ell * x^u and
    g * x^w in degree i + 1, less h_B(i + 1 - s).  Both blocks of rows have
    known ranks and lie in the row space of catalecticant(F, i + 1), so
    max(rank_a(i), h_B(i + 1 - s)) <= r <= min(h_A(i + 1), rank_a(i) +
    h_B(i + 1 - s)); r is eliminated only in the degrees where these
    bounds differ.
    """
    _require_linear(ell)
    B = contract(g, F)
    s, d = g.degree(), F.degree
    L = _times_ell(F, ell)
    # degrees 0..d+1: dimensions of A and of B(-s), and the ranks of x ell
    # on A from degree i and on B from degree i - s
    h_a = _padded_h(F, d + 1)
    h_b = [0] * s + _padded_h(B, d + 1 - s)
    ranks_a = _padded_h(L, d + 1)
    ranks_b = [0] * s + _padded_h(_times_ell(B, ell), d + 1 - s)
    records = []
    for i in range(d + 1):
        b_dims = (h_b[i], h_b[i + 1])
        a_dims = (h_a[i], h_a[i + 1])
        c_dims = (a_dims[0] - b_dims[0], a_dims[1] - b_dims[1])
        # right map: the image of x ell in [A/(g)]_{i+1} is the span of the
        # pairing rows of ell * x^u and g * x^w, minus the span of g * x^w.
        # Those rows are the rows of the catalecticants of ell o F at i (rank
        # rank_a(i)) and of g o F at i + 1 - s (rank h_B(i + 1 - s)), and
        # each is a combination of rows of catalecticant(F, i + 1), of rank
        # h_A(i + 1).  So their joint rank lies in [lo, hi]; the bounds meet
        # when x ell or x g maps onto [A]_{i+1}, when ell o F or g o F
        # vanishes, and at i = d, and only otherwise are both blocks built.
        lo = max(ranks_a[i], b_dims[1])
        hi = min(a_dims[1], ranks_a[i] + b_dims[1])
        if lo < hi:
            lo = ExactMatrix._stacked([catalecticant(L, i), catalecticant(B, i + 1 - s)]).rank()
        records.append(SnakeRecord(i=i, dims_b=b_dims, dims_a=a_dims, dims_c=c_dims,
                                   rank_b=ranks_b[i], rank_a=ranks_a[i], rank_c=lo - b_dims[1]))
    return SnakeLedger(records)
