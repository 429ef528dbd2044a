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
never changes a result; a race only fills it twice.

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
        if not poly.is_homogeneous():
            raise ValueError("dual form must be homogeneous")
        degree = poly.degree()
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
    stay additive down a chain of contractions; `bases` maps a degree i to
    `quotient_basis(F, i)` once computed; `images` maps an operator's terms to
    its contraction of F while that form is alive.
    """

    __slots__ = ("scaled", "den", "base", "h", "bases", "images")

    def __init__(self, scaled: dict, den: int, base: int):
        self.scaled = scaled
        self.den = den
        self.base = base
        self.h: HVector | None = None
        self.bases: dict[int, tuple[tuple[int, ...], ...]] = {}
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


def catalecticant(F: DualForm, i: int) -> ExactMatrix:
    """The pairing matrix between degree-i and degree-(d-i) operator monomials.

    Entry (u, v) is the constant (m_u m_v) applied to F, i.e. the coefficient
    of F at exponent u+v times the product of factorials of u+v: one lookup
    of the code of u+v in the scaled coefficients kept in F's record.  Rows
    and columns run over the full monomial bases of the operator ring; the
    rank agrees with any quotient-basis version.  The matrix keeps the
    record's ints over its denominator: over QQ it is ranked and reduced
    with no Fraction, and its entries become Fractions only when read.
    """
    d = F.degree
    if not 0 <= i <= d:
        raise ValueError(f"catalecticant index {i} outside 0..{d}")
    record = _record(F)
    lookup = record.scaled.get
    cols = _codes(F.n, d - i, record.base)
    return ExactMatrix._integral([[lookup(r + c, 0) for c in cols]
                                  for r in _codes(F.n, i, record.base)], record.den, F.field)


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
    h = F._record.h if F._record is not None else None
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
    record, so a form reduces each catalecticant for it once.
    """
    d = F.degree
    if not 0 <= i <= d:
        raise ValueError(f"degree {i} outside 0..{d}")
    bases = _record(F).bases
    if i not in bases:
        mons = monomials_of_degree(F.n, i)
        bases[i] = tuple(mons[j] for j in catalecticant(F, d - i).pivot_columns())
    return list(bases[i])


def contract(g: Poly, F: DualForm) -> DualForm | None:
    """The dual form g applied to F, or None when g annihilates F.

    For homogeneous g of degree s <= d this is the dual generator of the
    Gorenstein quotient A / (0 : g); the None case means that quotient is the
    zero ring (its Hilbert function vanishes in every degree).

    It is computed in the divided-power basis: the scaled coefficient of
    g o F at a degree-(d - s) exponent e' is sum_u g_u b_(e'+u), one lookup
    per term of g in F's scaled coefficients b.  Over QQ g's coefficients are
    cleared to ints once, and the image's denominator is F's times theirs.
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
    lookup = record.scaled.get
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
