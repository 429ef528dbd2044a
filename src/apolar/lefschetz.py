"""Weak and strong Lefschetz checks, Hessians, and snake-lemma bookkeeping.

The rank of multiplication by g from [A]_i to [A]_{i + deg g} is h_{g o F}(i),
the rank of the i-th catalecticant of g applied to F, because that
contraction presents the image algebra A/(0 : g).  The snake ledger reads
its ranks off these h-vectors, each padded by zeros outside its degrees
(`_padded_h`).  The ledger's one other rank, on C = A/(g), is pinned by
them in every degree where ell or g maps onto [A]_{i+1} or annihilates F,
is read off dimensions of R where Ann(F) vanishes in degree i + 1, and is
eliminated only elsewhere.

One search, `_search`, ranks x ell^k on a list of maps (i, k) for each ell
it is given and makes the one `DegreeRecord` per map that `is_wl_element`
(one ell) and both Lefschetz checks (seeded draws) report.  A report is
the search's outcome with its seed and field: it derives its verdict, and
the WLP's failing degrees or the SLP's failing pairs, from the deficient
maps it holds.  The search ranks only what h leaves open, on the smallest
matrix that has the rank:
- a map is forced, and never ranked, when k = 0 or when h_{i+k} or
  h_{d-i} is the dimension of the operator ring in its degree: the map is
  then injective or onto for every ell;
- an unforced map's rank is that of a block of the pairing matrix of
  ell^k o F, on rows B_i and columns B_{d-i-k}, the quotient bases of F;
- the maps that decide the property come first: the diagonal k = d - 2i
  for the strong one and the middle map for the weak one (Harima, Maeno,
  Morita, Numata, Wachi and Watanabe, "The Lefschetz Properties", LNM
  2080, 2013, ch. 3).  When they have maximal rank, so does every map, and
  the others are ranked only when one of them falls short.
Powers of a linear form are never expanded: ell^k o F is ell o (ell^{k-1}
o F), so the forms ell^k o F are a chain of contractions by ell.  With ell
= sum a_j x_j, ell^k o G = k! G(a) for every form G of degree k, so for k =
d - 2i the i-th Hessian of F at the point a, times k!, is the B_i x B_i
block of ell^k o F, the same block the strong check ranks (Maeno and
Watanabe, Illinois J. Math. 53, 2009).  Genericity of ell is handled
Monte-Carlo style over a big prime field: one successful sample is a
certificate that the property holds (maximal rank is an open condition),
while uniform failure across seeded trials is reported as failure together
with the data needed to re-run the experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, factorial

from .duality import (
    DualForm,
    HVector,
    _basis_codes,
    _block,
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


def mult_map_rank(F: DualForm, ell: Poly, i: int, k: int) -> int:
    """Rank of multiplication by ell^k from [A]_i to [A]_{i+k}.

    Equals the rank of the i-th catalecticant of ell^k applied to F, with
    rank 0 when the contraction vanishes.
    """
    _require_linear(ell)
    if k < 0 or i < 0 or i + k > F.degree:
        raise ValueError(f"degrees out of range: i={i}, k={k}, d={F.degree}")
    G = _ell_power([F], ell, k)
    return 0 if G is None else catalecticant(G, i).rank()


def _ell_power(chain: list[DualForm | None], ell: Poly, k: int) -> DualForm | None:
    """ell^k o F, k <= d, where the caller's chain [F, ell o F, ...] is grown here as far as k.

    ell^k o F = ell o (ell^{k-1} o F), so no power of ell is expanded.  Once
    an entry is None (ell^k annihilates F) every later entry is None.
    """
    while len(chain) <= k:
        chain.append(_times_ell(chain[-1], ell))
    return chain[k]


def _times_ell(G: DualForm | None, ell: Poly) -> DualForm | None:
    """ell o G, or None when G is None or of degree 0, where ell annihilates it."""
    return None if G is None or G.degree == 0 else contract(ell, G)


def is_wl_element(F: DualForm, ell: Poly) -> list[DegreeRecord]:
    """Per-degree ranks of multiplication by the given linear form."""
    _require_linear(ell)
    return _weak_search(F, [ell]).records


def _draws(F: DualForm, trials: int, seed: int):
    """The linear forms of trials 0..trials-1, drawn as each is needed.

    Trial t draws `random_linear_form` from Random(s_t), where s_t is the
    t-th `getrandbits(63)` of Random(seed).  A field that is not prime, or
    no trials, is refused here, before anything is ranked.
    """
    if not isinstance(F.field, PrimeField):
        raise ValueError("the Lefschetz checks sample linear forms and need a prime field")
    if trials < 1:
        raise ValueError("need at least one trial")
    master = random.Random(seed)
    return (random_linear_form(F.n, F.field, random.Random(master.getrandbits(63)))
            for _ in range(trials))


@dataclass(kw_only=True)
class _Search:
    """Outcome of the trial loop over a list of maps (i, k)."""

    h: HVector
    records: list[DegreeRecord]  # per map: the certificate's rank, else the best one
    misses: tuple[tuple[int, int], ...]  # maps some trial left deficient, none after a certificate
    trials_used: int
    certificate_trial: int | None
    certificate_form: str | None


@dataclass(kw_only=True)
class _Report(_Search):
    """A seeded Monte-Carlo check: the search's outcome, its seed and its field."""

    seed: int
    field_description: str

    @property
    def verdict(self) -> Verdict:
        return Verdict.FAILS if self.misses else Verdict.HOLDS

    def to_dict(self) -> dict:
        return {
            "h": list(self.h),
            "records": [r.to_dict() for r in self.records],
            "verdict": self.verdict.value,
            "trials_used": self.trials_used,
            "seed": self.seed,
            "field": self.field_description,
            "certificate_trial": self.certificate_trial,
            "certificate_form": self.certificate_form,
        }


@dataclass(kw_only=True)
class WlpReport(_Report):
    """`wlp_check`'s report: a record per map x ell from [A]_i, i < d."""

    @property
    def failing_degrees(self) -> tuple[int, ...]:  # the source degrees i of the misses
        return tuple(i for i, _ in self.misses)

    @property
    def dual_failing_degrees(self) -> tuple[int, ...]:
        """The mirrors d - i of the failing degrees under duality."""
        return tuple(sorted({self.h.socle_degree - i for i, _ in self.misses}))

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "sperner": self.h.sperner,
            "socle_degree": self.h.socle_degree,
            "failing_degrees": list(self.failing_degrees),
            "dual_failing_degrees": list(self.dual_failing_degrees),
            "monte_carlo": "one maximal-rank sample certifies holds; uniform failure is probabilistic",
        }


@dataclass(kw_only=True)
class SlpReport(_Report):
    """`slp_check`'s report: the records of the k = d - 2i diagonal."""

    @property
    def failing_pairs(self) -> tuple[tuple[int, int], ...]:
        return self.misses

    def to_dict(self) -> dict:
        return {**super().to_dict(), "failing_pairs": [list(p) for p in self.failing_pairs]}


def _search(F: DualForm, maps: list[tuple[int, int]], decisive: set[tuple[int, int]],
            ells) -> _Search:
    """Rank x ell^k on the maps (i, k) whose rank h leaves open, for each linear form ell in turn.

    The only place ranks become `DegreeRecord`s, each against its expected
    rank min(h_i, h_{i+k}).  R is a domain and the pairing of [A]_j with
    [A]_{d-j} is perfect, so h alone fixes a map's rank for every nonzero
    ell when
    - k = 0: the identity, of rank h_i;
    - h_{i+k} = dim R_{i+k}: then Ann(F) vanishes in degree i + k, so x ell^k
      is injective from [A]_i = R_i, of rank h_i;
    - h_{d-i} = dim R_{d-i}: then x ell^k from [A]_{d-i-k} is injective, and
      its transpose, x ell^k from [A]_i, is onto, of rank h_{i+k}.
    Such a forced map is never ranked.  Any other map is ranked on the
    smallest matrix that has its rank: the block of the pairing matrix of
    ell^k o F on rows B_i and columns B_{d-i-k}, h_i x h_{i+k}, since an
    operator in Ann(F) pairs to zero with ell^k o F; the codes of the
    quotient bases B_j are kept in F's record (`_basis_codes`).  The
    contractions ell^k o F are a chain of contractions by ell (`_ell_power`),
    grown only as far as the largest k a ranked map needs.

    In each trial the unforced maps of `decisive` are ranked first.  The
    caller's `decisive` maps must have maximal rank only when every map
    does, for any ell; if they do, the trial certifies the property with
    every record at its expected rank.  Otherwise every unforced map is
    ranked.  The search stops at the first ell that certifies: its ranks,
    and no misses.  Without one, it keeps the best rank seen per map and the
    union of the deficient maps over all trials.
    """
    d = F.degree
    h = hilbert_function(F)
    full = [comb(F.n - 1 + j, j) for j in range(d + 1)]  # dim R_j
    expected = [min(h[i], h[i + k]) for i, k in maps]
    unforced = [j for j, (i, k) in enumerate(maps)
                if k and h[i + k] < full[i + k] and h[d - i] < full[d - i]]
    first = [j for j in unforced if maps[j] in decisive]
    rest = [j for j in unforced if maps[j] not in decisive]
    best = [0 if j in unforced else e for j, e in enumerate(expected)]
    misses: set[tuple[int, int]] = set()
    certificate = None, None
    for t, ell in enumerate(ells):
        chain = [F]
        achieved = list(expected)
        for j in first:
            achieved[j] = _block_rank(chain, ell, *maps[j])
        if achieved != expected:  # a decisive map fell short: rank the others too
            for j in rest:
                achieved[j] = _block_rank(chain, ell, *maps[j])
        if any(a > e for a, e in zip(achieved, expected)):
            raise InternalInconsistencyError("multiplication rank exceeded its bound")
        bad = {m for m, a, e in zip(maps, achieved, expected) if a < e}
        if not bad:
            best, misses, certificate = achieved, set(), (t, format_poly(ell, var="x"))
            break
        best = list(map(max, best, achieved))
        misses |= bad
    records = [DegreeRecord(i, k, e, a) for (i, k), e, a in zip(maps, expected, best)]
    return _Search(h=h, records=records, misses=tuple(sorted(misses)), trials_used=t + 1,
                   certificate_trial=certificate[0], certificate_form=certificate[1])


def _block_rank(chain: list[DualForm | None], ell: Poly, i: int, k: int) -> int:
    """The rank of x ell^k from [A]_i: ell^k o F on rows B_i and columns B_{d-i-k}.

    `chain` holds F, ell o F, ..., grown by `_ell_power`; the codes of B_i and
    B_{d-i-k} come from F's record (`_basis_codes`).
    """
    F, G = chain[0], _ell_power(chain, ell, k)
    return 0 if G is None else _block(G, _basis_codes(F, i),
                                      _basis_codes(F, F.degree - i - k)).rank()


def _weak_search(F: DualForm, ells) -> _Search:
    """`_search` on x ell from every degree, decided by the middle map.

    A has its socle in degree d only, so a nonzero a in [A]_i, i < d, has
    x a != 0 for some linear x: a kernel vector of x ell in a low degree
    is carried up to the middle map, m = floor((d - 1) / 2), and
    injectivity passes down from it; by the pairing, surjectivity passes
    up.  So x ell has maximal rank from every degree exactly when it has
    from m (Migliore, Miro-Roig and Nagel, Trans. AMS 363, 2011, Prop. 2.1;
    Harima et al., "The Lefschetz Properties", LNM 2080, 2013, ch. 3).
    """
    d = F.degree
    return _search(F, [(i, 1) for i in range(d)], {((d - 1) // 2, 1)}, ells)


def wlp_check(F: DualForm, trials: int, seed: int) -> WlpReport:
    """Monte-Carlo weak Lefschetz check with a reproducibility certificate.

    Holds as soon as one sampled form has maximal rank at every degree
    simultaneously, which the middle map alone decides (`_weak_search`);
    otherwise every map h leaves open is ranked in every trial, and the
    failure degrees are the union over trials of the deficient source
    degrees.
    """
    found = _weak_search(F, _draws(F, trials, seed))
    return WlpReport(**vars(found), seed=seed, field_description=F.field.describe())


def slp_check(F: DualForm, trials: int, seed: int) -> SlpReport:
    """Monte-Carlo strong Lefschetz check.

    Every pair (i, k) with i + k <= d gets a record per trial, k = 0
    included.  The k = d - 2i diagonal decides the property for a Gorenstein
    algebra: if x ell^(d-2i) is bijective for every i <= d/2, then x ell^k
    from [A]_i factors a bijection (injective) below the diagonal and ends
    one (onto) above it.  So each trial ranks the diagonal first and certifies
    when it is maximal; only when it is not are the other pairs ranked, and
    the deficient ones are the failing pairs.  The reported records are the
    diagonal.
    """
    d = F.degree
    pairs = [(i, k) for i in range(d + 1) for k in range(d - i + 1)]
    diagonal = {(i, d - 2 * i) for i in range(d // 2 + 1)}
    found = vars(_search(F, pairs, diagonal, _draws(F, trials, seed)))
    shown = [r for r in found["records"] if (r.i, r.k) in diagonal]
    return SlpReport(**{**found, "records": shown}, seed=seed, field_description=F.field.describe())


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
    """The i-th Hessian of F at the point a: ell^k o F paired on B_i x B_i (`_block`), over k!."""
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
    G = _ell_power([F], ell, k) if k == 0 or ell.terms else None
    codes = _basis_codes(F, i)
    if G is None:
        return ExactMatrix._integral([[0] * len(codes) for _ in codes], 1, field)
    block = _block(G, codes, codes)
    if p is None:
        return ExactMatrix._integral(block._ints, block._den * factorial(k), field)
    inv = pow(factorial(k), -1, p)  # k <= d < p
    return ExactMatrix._integral([[x * inv % p for x in row] for row in block._ints], 1, field)


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
    h_B(i + 1 - s)).  Where these bounds differ and h_A(i + 1) = dim R_{i+1},
    Ann(F) vanishes in degree i + 1 and catalecticant(F, i + 1) is injective,
    so r = dim(ell R_i + g R_{i+1-s}).  R is a UFD and ell is prime, so that
    is dim R_i when ell divides g (then g R_{i+1-s} lies in ell R_i), and
    otherwise dim R_i + dim R_{i+1-s} - dim R_{i-s}, since then ell R_i meets
    g R_{i+1-s} in ell g R_{i-s} (dim R_j = 0 for j < 0).  This holds over
    QQ and every F_p.  r is eliminated only at the remaining degrees.
    """
    _require_linear(ell)
    B = contract(g, F)
    s, d = g.degree(), F.degree
    L = _times_ell(F, ell)
    dim = [comb(F.n - 1 + j, j) for j in range(d + 2)]  # dim R_j
    divides = None  # whether ell divides g, decided at the first degree that asks
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
        # vanishes, and at i = d.  Otherwise, where Ann(F)_{i+1} = 0, the joint
        # rank is dim(ell R_i + g R_{i+1-s}), and only elsewhere are both
        # blocks built.
        lo = max(ranks_a[i], b_dims[1])
        hi = min(a_dims[1], ranks_a[i] + b_dims[1])
        if lo < hi and a_dims[1] == dim[i + 1]:
            if divides is None:
                divides = _ell_divides(ell, g)
            # lo < hi needs h_B(i + 1 - s) > 0, so i + 1 >= s here
            lo = dim[i] if divides else dim[i] + dim[i + 1 - s] - (dim[i - s] if i >= s else 0)
        elif lo < hi:
            lo = ExactMatrix._stacked([catalecticant(L, i), catalecticant(B, i + 1 - s)]).rank()
        records.append(SnakeRecord(i=i, dims_b=b_dims, dims_a=a_dims, dims_c=c_dims,
                                   rank_b=ranks_b[i], rank_a=ranks_a[i], rank_c=lo - b_dims[1]))
    return SnakeLedger(records)


def _ell_divides(ell: Poly, g: Poly) -> bool:
    """Whether the linear form ell divides the nonzero form g in R.

    A constant g is never divisible.  A linear g is divisible exactly when
    it is proportional to ell: the same support, and g_e ell_f = g_f ell_e
    for a fixed e in it and every f.  Otherwise g is reduced modulo ell:
    with ell_e != 0, each x_e is replaced by x_e - ell / ell_e, one power of
    x_e at a time from the top, and ell divides g exactly when what is left,
    free of x_e, is zero.
    """
    s, field = g.degree(), g.field
    if s == 0:
        return False
    (unit, le), *others = ell.terms.items()
    if s == 1:
        ge = g.terms.get(unit)
        return (g.terms.keys() == ell.terms.keys()
                and all(field.mul(g.terms[u], le) == field.mul(ge, c) for u, c in others))
    e = unit.index(1)
    # x_e = sum_f r_f x_f on the hyperplane ell = 0, r_f = -ell_f / ell_e
    steps = [(u.index(1), field.neg(field.div(c, le))) for u, c in others]
    terms = dict(g.terms)
    for power in range(s, 0, -1):
        for exp in [x for x in terms if x[e] == power]:
            c = terms.pop(exp)
            for f, r in steps:
                lowered = list(exp)
                lowered[e] -= 1
                lowered[f] += 1
                lowered = tuple(lowered)
                terms[lowered] = field.add(terms.get(lowered, field.zero), field.mul(c, r))
    return all(field.is_zero(c) for c in terms.values())
