"""Macaulay duality: catalecticants, annihilators, Hilbert functions.

A dual form F of degree d in n dual variables presents the artinian
Gorenstein algebra A = R / Ann(F), where the operator ring R acts on forms
by differentiation.  The graded dimension dim [A]_i equals the rank of the
i-th catalecticant matrix, and all computations below reduce to exact ranks
and kernels of such pairing matrices.  Every pairing matrix is read off the
catalecticant: annihilators are its left kernel, and the pairing rows of
arbitrary operators are combinations of its rows.  (The inverse systems of
quadric webs in `catalog` are read off the web's ideal rows instead.)

A catalecticant entry is one lookup in F's coefficients scaled by e!, which
a private record on the form keeps with its h-vector.  Over QQ the record
holds them as integer numerators over one common denominator, so the
contractions and ranks below run on plain ints, and only `DualForm.poly`
divides, when something reads it.  The record is filled on first use and
never changes a result; a race only fills it twice.  A form with few terms
for the matrix (Perazzo's forms have d) fills only the cells its terms
reach, and a contraction of such a form is gathered from term pairs; both
are chosen by size alone, and give the same matrices and forms.  A private
block builder pairs a form with operator monomials given by their codes,
so a Lefschetz rank or a Hessian reads the h_i x h_j block on quotient
bases and never the whole catalecticant.

In the divided-power basis contraction is a shift of indices (Iarrobino and
Kanev, "Power Sums, Gorenstein Algebras, and Determinantal Loci", LNM 1721,
1999, Appendix A): if b_e = c_e e! are F's scaled coefficients, the scaled
coefficient of g o F at e' is sum_u g_u b_(e'+u), with no factorials.  Over
QQ, with b = B / D and g's coefficients cleared to integers G_u over D_g, it
is sum_u G_u B_(e'+u) over D D_g: integer products again.  So `contract`
gathers g o F's record straight from F's, and the contracted form
builds its polynomial only when something reads it.  F's record keeps a weak
map of the contractions still alive, so contracting twice by the same
operator returns the same form, h-vector included, while the map never keeps
a form alive.

Ann(F) is an ideal of the operator ring, a domain, so once it is zero in
one degree it is zero in every lower degree; the Hilbert function ranks
catalecticants from the middle down and stops at the first injective one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, lcm

from .fields import PrimeField
from .linalg import ExactMatrix
from .poly import Poly, monomials_of_degree, multi_factorial

__all__ = [
    "DualForm",
    "HVector",
    "monomials_of_degree",
    "catalecticant",
    "hilbert_function",
    "ann_degree",
    "quotient_basis",
    "contract",
    "hf_modulo_linear",
]


@dataclass(frozen=True)
class HVector:
    """The h-vector (h_0, ..., h_d) of an artinian graded algebra."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("h-vector must be nonempty")
        if any(e <= 0 for e in self.entries):
            raise ValueError("h-vector entries must be positive")

    @property
    def socle_degree(self) -> int:
        return len(self.entries) - 1

    @property
    def sperner(self) -> int:
        return max(self.entries)

    def is_symmetric(self) -> bool:
        return self.entries == self.entries[::-1]

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"HVector({self.entries})"


class DualForm:
    """A nonzero homogeneous form designated as Macaulay dual generator.

    Public constructors should pass degree >= 1; intermediate contractions may
    legitimately land in degree 0 (the algebra is then just the ground field).
    """

    __slots__ = ("_poly", "n", "degree", "field", "_record", "__weakref__")

    def __init__(self, poly: Poly):
        if poly.is_zero():
            raise ValueError("dual form must be nonzero")
        degrees = {sum(e) for e in poly.terms}
        if len(degrees) > 1:
            raise ValueError("dual form must be homogeneous")
        (degree,) = degrees
        if isinstance(poly.field, PrimeField) and poly.field.p <= degree:
            raise ValueError(
                f"dual forms over F_p need characteristic p > deg F, got p = "
                f"{poly.field.p} and deg F = {degree}: the factorials in the "
                "differentiation pairing vanish mod p"
            )
        self._poly = poly
        self.n = poly.n
        self.degree = degree
        self.field = poly.field
        self._record = None

    @property
    def poly(self) -> Poly:
        """The form as a polynomial; a contraction builds it from its record on first read."""
        if self._poly is None:
            field, record = self.field, self._record
            codes = _codes(self.n, self.degree, record.base)
            scaled, den = record.scaled, record.den
            self._poly = Poly._trusted(self.n, field, {
                e: field.div(field.from_int(scaled[c]), field.from_int(den * multi_factorial(e)))
                for e, c in zip(monomials_of_degree(self.n, self.degree), codes)
                if c in scaled
            })
        return self._poly

    def __eq__(self, other):
        return isinstance(other, DualForm) and self.poly == other.poly

    def __repr__(self):
        return f"DualForm(n={self.n}, d={self.degree}, {self.poly!r})"


class _Record:
    """Scaled coefficients, denominator, code base, h-vector and bases once found, contractions.

    `scaled` holds F's coefficients times e!, keyed by `_code(e, base)`, as
    plain ints: over F_p the residues, with `den` = 1; over QQ the numerators
    over one common denominator `den`, so the coefficient at e is
    scaled[code] / (den e!).  A contraction keeps its parent's base, so codes
    stay additive down a chain of contractions; `bases` maps a degree j to
    the codes of B_j, `quotient_basis(F, j)`, once `_basis_codes` finds them;
    `images` maps an operator's terms to its contraction of F while that
    form is alive.
    """

    __slots__ = ("scaled", "den", "base", "h", "bases", "images")

    def __init__(self, scaled: dict, den: int, base: int):
        self.scaled = scaled
        self.den = den
        self.base = base
        self.h: HVector | None = None
        self.bases: dict[int, tuple[int, ...]] = {}
        self.images = weakref.WeakValueDictionary()


def _record(F: DualForm) -> _Record:
    if F._record is None:
        field, base, terms = F.field, F.degree + 1, F.poly.terms
        if isinstance(field, PrimeField):
            den = 1
            scaled = {_code(e, base): c * multi_factorial(e) % field.p for e, c in terms.items()}
        else:
            # numerators over the lcm of the c_e's denominators, then over
            # the least denominator of the c_e e!: both divided by their gcd
            den = lcm(*(c.denominator for c in terms.values()))
            scaled = {_code(e, base): c.numerator * (den // c.denominator) * multi_factorial(e)
                      for e, c in terms.items()}
            common = gcd(den, *scaled.values())
            if common > 1:
                den //= common
                scaled = {code: b // common for code, b in scaled.items()}
        F._record = _Record(scaled, den, base)
    return F._record


def _code(exp: tuple[int, ...], base: int) -> int:
    """The exponent as digits; in base d + 1, codes of degrees i and d - i add like exponents."""
    code = 0
    for a in exp:
        code = code * base + a
    return code


@lru_cache(maxsize=256)
def _codes(n: int, degree: int, base: int) -> tuple[int, ...]:
    """The codes of the degree-`degree` monomials, in `monomials_of_degree` order."""
    return tuple(_code(e, base) for e in monomials_of_degree(n, degree))


#: A catalecticant or a contraction g o F is built from F's terms, not cell by
#: cell or target by target, when they are few against its size:
#: - a catalecticant when terms x min(rows, cols) x _SPARSE_CELLS < rows x
#:   cols, that is terms x _SPARSE_CELLS < max(rows, cols), since a term
#:   fills at most min(rows, cols) cells;
#: - a contraction when F's terms x g's terms x _SPARSE_TARGETS < the
#:   monomials of the target degree.
#: Timed on 2 cores, Python 3.11.7, over the forms of `cli_verdicts` (Perazzo
#: d = 4..7, inverse-system samples of webs VII, IX and X at d = 7 and 9),
#: of `exactness_rational`, and random forms of 10, 30 and 100 terms in 4 to
#: 6 variables of degree 4 to 7: every catalecticant of each form built and
#: ranked both ways, best of 5 or 21 runs, and summed by the ratio
#: max(rows, cols) / terms, in two sweeps:
#:     ratio   matrices   terms faster   cells (ms)    terms (ms)
#:       1-4        297          6, 9   55.0, 42.1   118.5, 87.3
#:       4-8         74        28, 30   20.8, 17.1    26.0, 22.6
#:      8-12         20        11, 11    5.7, 4.9      5.6, 4.7
#:     12-16         22        15, 15    7.9, 6.6      5.3, 4.6
#:     16-24          7         5, 5     3.4, 2.7      0.9, 0.7
#:       24+         36        30, 30   74.0, 62.9    11.8, 9.7
#: A term-built catalecticant holds only its nonzeros, as sparse rows that
#: the peel reads without a scan, so the terms now break even near a ratio
#: of 10 and win from 12 on, where they won from about 16 when they filled a
#: matrix of zeros.  The cells still win on most wide matrices of one to six
#: rows (a 1 x 126 row of 10 terms: 38 against 91 us), whose few dense rows
#: are built and scanned in one pass each.  Of the matrices the workloads
#: build, the cutoff 12 moves only Perazzo d = 4's 6 x 56 of degree 1
#: (ratio 14), built twice per `cli_verdicts` pass, to the terms, which
#: build and rank it in 64 against 71 us.
#: For a contraction by a linear form the ratio targets / (terms x
#: g's terms) breaks even near 1 on forms of 10 terms or more, but the term
#: path costs about 3 us more to set up, so on the 1- to 5-term forms of
#: `exactness_rational` in 2 variables it loses up to a ratio of 1.75; at 2
#: and above it wins on every form timed.
_SPARSE_CELLS = 12
_SPARSE_TARGETS = 2


def catalecticant(F: DualForm, i: int) -> ExactMatrix:
    """The pairing matrix between degree-i and degree-(d-i) operator monomials.

    Entry (u, v) is the constant (m_u m_v) applied to F, i.e. the coefficient
    of F at exponent u+v times the product of factorials of u+v: one lookup
    of the code of u+v in the scaled coefficients kept in F's record
    (`_block` over every code of degrees i and d - i).  Rows
    and columns run over the full monomial bases of the operator ring; the
    rank agrees with any quotient-basis version.  A form with few terms for
    the matrix's size (`_SPARSE_CELLS`) fills instead, per term b_e, the
    cells (u, e - u) of the divisors u of e of degree i, into sparse rows
    that hold no zero: the elimination peels them off their supports, and
    dense rows are made only if something reads them.  The matrix keeps the
    record's ints over its denominator: over QQ it is ranked and reduced
    with no Fraction, and its entries become Fractions only when read.
    """
    d = F.degree
    if not 0 <= i <= d:
        raise ValueError(f"catalecticant index {i} outside 0..{d}")
    record = _record(F)
    n, base, scaled = F.n, record.base, record.scaled
    rows, cols = _codes(n, i, base), _codes(n, d - i, base)
    if _SPARSE_CELLS * len(scaled) >= max(len(rows), len(cols)):
        return _block(F, rows, cols)
    at, where = _positions(n, i, base), _positions(n, d - i, base)
    maps = [{} for _ in rows]
    for code, b in scaled.items():
        for u in _divisor_codes(code, n, base, i):
            maps[at[u]][where[code - u]] = b
    return ExactMatrix._sparse(maps, len(cols), record.den, F.field)


@lru_cache(maxsize=256)
def _positions(n: int, degree: int, base: int) -> dict[int, int]:
    """The position of each degree-`degree` monomial's code in `monomials_of_degree` order."""
    return {code: j for j, code in enumerate(_codes(n, degree, base))}


def _divisor_codes(code: int, n: int, base: int, i: int) -> list[int]:
    """The codes of the exponents u <= e of degree i, where `code` is e's `_code` in `base`.

    The enumeration walks only e's nonzero digits, so a term in few
    variables has few partial codes to extend.
    """
    digits = []  # (place value, digit) of e's nonzero digits
    place = 1
    for _ in range(n):
        code, a = divmod(code, base)
        if a:
            digits.append((place, a))
        place *= base
    partial = [(0, i)]  # (code of the digits so far, degree still to place)
    room = sum(a for _, a in digits)  # the degree the digits still to come can hold
    for place, a in digits:
        room -= a
        partial = [(u + x * place, left - x) for u, left in partial
                   for x in range(max(0, left - room), min(a, left) + 1)]
    return [u for u, _ in partial]


def _basis_codes(F: DualForm, j: int) -> tuple[int, ...]:
    """The codes of B_j in F's base, kept in F's record: `quotient_basis(F, j)`.

    B_j is the pivot columns of catalecticant(F, d - j), or every monomial
    of degree j when the record already holds h and h_j = dim R_j; then no
    catalecticant is reduced for it.
    """
    record = _record(F)
    if j not in record.bases:
        codes = _codes(F.n, j, record.base)
        if record.h is None or record.h[j] < len(codes):
            codes = tuple(codes[c] for c in catalecticant(F, F.degree - j).pivot_columns())
        record.bases[j] = codes
    return record.bases[j]


def _block(G: DualForm, rows: list[int], cols: list[int]) -> ExactMatrix:
    """The pairing matrix of G on the operator monomials of the given codes, one lookup a cell.

    The codes must be in G's base, so that a row's and a column's add up to
    their product's; the contractions of a form share its base.
    """
    record = _record(G)
    lookup = record.scaled.get
    return ExactMatrix._integral([[lookup(r + c, 0) for c in cols] for r in rows],
                                 record.den, G.field)


def hilbert_function(F: DualForm) -> HVector:
    """h-vector of A_F via catalecticant ranks.

    Only degrees i <= d/2 are ranked: catalecticant(F, d - i) is the
    transpose of catalecticant(F, i), so the rest is their mirror image.
    They are ranked from d/2 down, and the walk stops at the first
    catalecticant of full row rank: Ann(F) is an ideal of a domain, so
    Ann(F)_i = 0 forces Ann(F)_j = 0 for every j < i (x_1^(i-j) times a
    nonzero annihilator of degree j would be one of degree i), and then
    h_j = dim R_j.  The result is kept in the form's record.
    """
    record = _record(F)
    if record.h is None:
        half = []
        for i in range(F.degree // 2, -1, -1):
            cat = catalecticant(F, i)
            half.append(cat.rank())
            if half[-1] == cat.rows:
                half += [comb(F.n - 1 + j, j) for j in range(i - 1, -1, -1)]
                break
        half.reverse()
        record.h = HVector(tuple(half + half[:(F.degree + 1) // 2][::-1]))
    return record.h


def _padded_h(G: DualForm | None, d: int) -> list[int]:
    """h_G in degrees 0..d, zero past its socle degree and everywhere for None."""
    return [0] * (d + 1) if G is None else list(hilbert_function(G)) + [0] * (d - G.degree)


def pairing_rows(F: DualForm, operators: list[Poly], i: int) -> ExactMatrix:
    """Rows of pairings of degree-i operators against the degree-(d-i) basis.

    The row of an operator p is the vector ((p m_v) applied to F) over the
    monomials m_v of degree d-i; its row space is [p] inside [A_F]_i under
    the perfect pairing, so ranks of these matrices are dimensions of spans
    in the quotient algebra.  It is read off the catalecticant: the row of
    p = sum c_u m_u is sum c_u cat[u].
    """
    field = F.field
    row_index = {e: j for j, e in enumerate(monomials_of_degree(F.n, i))}
    cat = catalecticant(F, i)
    rows = []
    for p in operators:
        row = [field.zero] * cat.cols
        for u, c in p.terms.items():
            if u not in row_index:
                raise ValueError(f"pairing operators must have degree {i}, got {p!r}")
            for j, x in enumerate(cat.entries[row_index[u]]):
                if not field.is_zero(x):
                    row[j] = field.add(row[j], field.mul(c, x))
        rows.append(row)
    return ExactMatrix(rows, field)


def ann_degree(F: DualForm, i: int) -> list[Poly]:
    """A basis of the degree-i part of the annihilator of F.

    Kernel of the differentiation map R_i -> S_{d-i}, the left kernel of the
    i-th catalecticant, i.e. the right kernel of the (d-i)-th; all of R_i
    when i > d.  dim Ann(F)_i = dim R_i - h_i, so when F's record already
    holds h and h_i = dim R_i the piece is empty and nothing is eliminated;
    h is only read, never ranked here, since that would cost more than the
    one elimination it could save.
    """
    if i < 0:
        raise ValueError("degree must be non-negative")
    field = F.field
    mons = monomials_of_degree(F.n, i)
    if i > F.degree:
        return [Poly.monomial(F.n, field, e) for e in mons]
    h = _record(F).h
    if h is not None and h[i] == len(mons):
        return []
    return [Poly(F.n, field, {e: c for e, c in zip(mons, v) if not field.is_zero(c)})
            for v in catalecticant(F, F.degree - i).kernel_basis()]


def quotient_basis(F: DualForm, i: int) -> list[tuple[int, ...]]:
    """Monomials of degree i whose classes form a basis of [A_F]_i.

    Greedy in descending graded-lex order: a monomial is kept exactly when
    its catalecticant row is independent of the rows before it, so the
    result is the row rank profile, the pivot columns of the transpose,
    which is the (d-i)-th catalecticant.  The basis is kept in the form's
    record as codes (`_basis_codes`), so a form reduces each catalecticant
    for it once, and none when the record holds h and h_i = dim R_i.
    """
    if not 0 <= i <= F.degree:
        raise ValueError(f"degree {i} outside 0..{F.degree}")
    mons, at = monomials_of_degree(F.n, i), _positions(F.n, i, _record(F).base)
    return [mons[at[code]] for code in _basis_codes(F, i)]


def contract(g: Poly, F: DualForm) -> DualForm | None:
    """The dual form g applied to F, or None when g annihilates F.

    For homogeneous g of degree s <= d this is the dual generator of the
    Gorenstein quotient A / (0 : g); the None case means that quotient is the
    zero ring (its Hilbert function vanishes in every degree).

    It is computed in the divided-power basis: the scaled coefficient of
    g o F at a degree-(d - s) exponent e' is sum_u g_u b_(e'+u), one lookup
    per term of g in F's scaled coefficients b.  When F's and g's terms are
    few against the target monomials (`_SPARSE_TARGETS`), the same sums are
    gathered from the term pairs instead: g_u b_e goes to e - u for each
    term u of g with u <= e.  Over QQ g's coefficients are cleared to ints
    once, and the image's denominator is F's times theirs.
    The result shares F's code base and builds its `poly` only when read;
    while it is alive, contracting F by the same g again returns it.
    """
    if g.is_zero():
        raise ValueError("contraction by the zero polynomial")
    if not g.is_homogeneous():
        raise ValueError("contraction requires a homogeneous operator")
    if g.degree() > F.degree:
        raise ValueError(f"operator degree {g.degree()} exceeds socle degree {F.degree}")
    g._check_compatible(F)  # reads only n and field, which a DualForm has too
    record = _record(F)
    key = frozenset(g.terms.items())
    image = record.images.get(key)
    if image is not None:
        return image
    field, base, degree = F.field, record.base, F.degree - g.degree()
    # sum int products raw: mod p reduce once, over QQ clear g's denominators
    p = field.p if isinstance(field, PrimeField) else None
    if p is None:
        den_g = lcm(*(c.denominator for c in g.terms.values()))
        shifts = [(_code(u, base), c.numerator * (den_g // c.denominator))
                  for u, c in g.terms.items()]
    else:
        den_g = 1
        shifts = [(_code(u, base), c) for u, c in g.terms.items()]
    scaled = {}
    if _SPARSE_TARGETS * len(record.scaled) * len(shifts) < comb(F.n - 1 + degree, degree):
        # term pairs: b_e goes to e - u for each term u of g with u <= e,
        # read digit by digit off e's code
        supports = [[(base ** (F.n - 1 - j), a) for j, a in enumerate(u) if a] for u in g.terms]
        sums = {}
        for code, b in record.scaled.items():
            for (shift, c), support in zip(shifts, supports):
                for place, a in support:
                    if code // place % base < a:
                        break
                else:
                    sums[code - shift] = sums.get(code - shift, 0) + c * b
        for code, acc in sums.items():
            if p is not None:
                acc %= p
            if acc:
                scaled[code] = acc
    else:
        lookup = record.scaled.get
        for code in _codes(F.n, degree, base):
            acc = 0
            for shift, c in shifts:
                b = lookup(code + shift)
                if b is not None:
                    acc += c * b
            if p is not None:
                acc %= p
            if acc:
                scaled[code] = acc
    if not scaled:
        return None
    image = object.__new__(DualForm)
    image._poly = None
    image.n, image.degree, image.field = F.n, degree, field
    image._record = _Record(scaled, record.den * den_g, base)
    record.images[key] = image
    return image


def _require_linear(ell: Poly) -> None:
    if ell.is_zero() or not ell.is_homogeneous() or ell.degree() != 1:
        raise ValueError("expected a nonzero linear form")


def hf_modulo_linear(F: DualForm, ell: Poly) -> tuple[int, ...]:
    """Hilbert function of A / (ell), degrees 0..d, trailing zeros allowed.

    Exactness of 0 -> B(-1) -> A -> A/(ell) -> 0 gives
    HF(A/ell)(i) = HF(A)(i) - HF(B)(i-1) with B presented by ell applied to F.
    """
    _require_linear(ell)
    h_b = [0] + _padded_h(contract(ell, F), F.degree - 1)
    return tuple(a - b for a, b in zip(hilbert_function(F), h_b))
