"""Weak and strong Lefschetz checks, Hessians, and snake-lemma bookkeeping.

Every multiplication rank is the Hilbert function of one contraction: the
rank of multiplication by g from [A]_i to [A]_{i + deg g} is h_{g o F}(i),
the rank of the i-th catalecticant of g applied to F, because that
contraction presents the image algebra A/(0 : g).  The weak and strong
Lefschetz checks and the snake ledger all read their ranks off it; one
seeded trial loop serves both Lefschetz checks.  The ledger's one other
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
    verdict: Verdict
    failing_degrees: tuple[int, ...]  # source degrees i of deficient maps
    dual_failing_degrees: tuple[int, ...]  # their mirrors d - i under duality
    trials_used: int
    seed: int
    field_description: str
    certificate_trial: int | None = None
    certificate_form: str | None = None

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
    verdict: Verdict
    failing_pairs: tuple[tuple[int, int], ...]  # (i, k) of deficient maps
    trials_used: int
    seed: int
    field_description: str
    certificate_trial: int | None = None
    certificate_form: str | None = None

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
        G = chain[-1]
        chain.append(None if G is None else contract(ell, G))
    return chain


def _require_prime_field(F: DualForm, what: str) -> None:
    if not isinstance(F.field, PrimeField):
        raise ValueError(f"{what} samples generic forms and needs a prime field")


def _image_ranks(F: DualForm, g: Poly) -> list[int]:
    """Ranks of multiplication by g from [A]_i to [A]_{i + deg g}, i = 0..d.

    The image of x g is A/(0 : g), presented by g applied to F, so the rank
    from degree i is h_{g o F}(i): zero past the degree of g o F, and zero in
    every degree when g annihilates F or has degree above d.
    """
    return _padded_h(contract(g, F) if g.degree() <= F.degree else None, F.degree)


def _padded_h(G: DualForm | None, d: int) -> list[int]:
    """h_G in degrees 0..d, zero past its socle degree and everywhere for None."""
    return [0] * (d + 1) if G is None else list(hilbert_function(G)) + [0] * (d - G.degree)


def is_wl_element(F: DualForm, ell: Poly) -> list[DegreeRecord]:
    """Per-degree ranks of multiplication by the given linear form."""
    _require_linear(ell)
    h = hilbert_function(F)
    achieved = _image_ranks(F, ell)
    return [
        DegreeRecord(i, 1, min(h[i], h[i + 1]), achieved[i])
        for i in range(F.degree)
    ]


def _trial_seeds(seed: int, trials: int) -> list[int]:
    master = random.Random(seed)
    return [master.getrandbits(63) for _ in range(trials)]


@dataclass
class _Search:
    """Outcome of the seeded trial loop over a list of maps (i, k)."""

    h: HVector
    ranks: dict[tuple[int, int], int]  # the certificate's, else the best per map
    misses: tuple[tuple[int, int], ...]  # maps some trial left deficient
    trials_used: int
    certificate_trial: int | None
    certificate_form: str | None


def _search(F: DualForm, maps: list[tuple[int, int]], trials: int, seed: int) -> _Search:
    """Draw one linear form ell per seeded trial and rank x ell^k on every map.

    Stops at the first ell of maximal rank on all maps (i, k), which
    certifies the property; otherwise keeps the best rank seen per map and
    the union of the deficient maps over all trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    h = hilbert_function(F)
    expected = {(i, k): min(h[i], h[i + k]) for i, k in maps}
    powers = {k for _, k in maps}
    best = dict.fromkeys(maps, 0)
    misses: set[tuple[int, int]] = set()
    for t, ts in enumerate(_trial_seeds(seed, trials)):
        ell = random_linear_form(F.n, F.field, random.Random(ts))
        chain = _power_chain(F, ell, max(powers, default=0))
        ranks = {k: _padded_h(chain[k], F.degree) for k in powers}
        achieved = {(i, k): ranks[k][i] for i, k in maps}
        if any(achieved[m] > expected[m] for m in maps):
            raise InternalInconsistencyError("multiplication rank exceeded its bound")
        bad = [m for m in maps if achieved[m] < expected[m]]
        if not bad:
            return _Search(h, achieved, (), t + 1, t, format_poly(ell, var="x"))
        best = {m: max(best[m], achieved[m]) for m in maps}
        misses.update(bad)
    return _Search(h, best, tuple(sorted(misses)), trials, None, None)


def wlp_check(F: DualForm, trials: int, seed: int) -> WlpReport:
    """Monte-Carlo weak Lefschetz check with a reproducibility certificate.

    Holds as soon as one sampled form has maximal rank at every degree
    simultaneously; otherwise the failure degrees are the union over trials
    of the deficient source degrees.
    """
    _require_prime_field(F, "wlp_check")
    d = F.degree
    found = _search(F, [(i, 1) for i in range(d)], trials, seed)
    h = found.h
    failing = tuple(i for i, _ in found.misses)
    return WlpReport(
        h=h,
        records=[DegreeRecord(i, 1, min(h[i], h[i + 1]), found.ranks[(i, 1)]) for i in range(d)],
        verdict=Verdict.FAILS if failing else Verdict.HOLDS,
        failing_degrees=failing,
        dual_failing_degrees=tuple(sorted({d - i for i in failing})),
        trials_used=found.trials_used,
        seed=seed,
        field_description=F.field.describe(),
        certificate_trial=found.certificate_trial,
        certificate_form=found.certificate_form,
    )


def slp_check(F: DualForm, trials: int, seed: int) -> SlpReport:
    """Monte-Carlo strong Lefschetz check.

    The reported records follow the k = d - 2i diagonal that already decides
    the property for a Gorenstein algebra, but every pair (i, k) with k >= 1
    and i + k <= d is verified directly per trial - cheap at this scale and
    independent of any reduction argument.
    """
    _require_prime_field(F, "slp_check")
    d = F.degree
    pairs = [(i, k) for k in range(1, d + 1) for i in range(0, d - k + 1)]
    found = _search(F, pairs, trials, seed)
    h = found.h
    return SlpReport(
        h=h,
        records=[
            DegreeRecord(i, d - 2 * i, h[i], found.ranks[(i, d - 2 * i)] if d > 2 * i else h[i])
            for i in range(d // 2 + 1)
        ],
        verdict=Verdict.FAILS if found.misses else Verdict.HOLDS,
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
    ell = Poly(F.n, field, {e: a % p if p else Fraction(a)
                            for e, a in zip(monomials_of_degree(F.n, 1), point)})
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
    consistent: bool

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

    The ranks on A and B are Hilbert functions of ell o F and of ell o B.
    The rank on C is the joint rank r of the pairing rows of ell * x^u and
    g * x^w in degree i + 1, less h_B(i + 1 - s).  Both blocks of rows have
    known ranks and lie in the row space of catalecticant(F, i + 1), so
    max(rank_a(i), h_B(i + 1 - s)) <= r <= min(h_A(i + 1), rank_a(i) +
    h_B(i + 1 - s)); r is eliminated only in the degrees where these
    bounds differ.
    """
    _require_linear(ell)
    if g.is_zero():
        raise ValueError("expected a nonzero form g")
    if not g.is_homogeneous():
        raise ValueError("g must be homogeneous")
    s = g.degree()
    d = F.degree
    if s > d:
        raise ValueError(f"degree of g exceeds socle degree {d}")
    h_a = hilbert_function(F)
    B = contract(g, F)
    L = contract(ell, F) if d else None
    h_b: tuple[int, ...] = tuple(hilbert_function(B)) if B is not None else ()
    # x ell on A from degree i, and on B from degree i - s
    ranks_a = _padded_h(L, d)
    ranks_b = _image_ranks(B, ell) if B is not None else []

    def dim_a(j: int) -> int:
        return h_a[j] if 0 <= j <= d else 0

    def dim_b(j: int) -> int:
        return h_b[j] if 0 <= j < len(h_b) else 0

    records = []
    for i in range(d + 1):
        b_dims = (dim_b(i - s), dim_b(i + 1 - s))
        a_dims = (dim_a(i), dim_a(i + 1))
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
        rank_c = lo - b_dims[1]
        records.append(
            SnakeRecord(
                i=i,
                dims_b=b_dims,
                dims_a=a_dims,
                dims_c=c_dims,
                rank_b=ranks_b[i - s] if 0 <= i - s < len(ranks_b) else 0,
                rank_a=ranks_a[i],
                rank_c=rank_c,
            )
        )
    return SnakeLedger(records=records, consistent=all(r.consistent for r in records))
