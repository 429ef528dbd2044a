"""Macaulay duality: catalecticants, annihilators, Hilbert functions.

A dual form F of degree d in n dual variables presents the artinian
Gorenstein algebra A = R / Ann(F), where the operator ring R acts on forms
by differentiation.  The graded dimension dim [A]_i equals the rank of the
i-th catalecticant matrix, and all computations below reduce to exact ranks
and kernels of such pairing matrices.  Every pairing matrix is read off the
catalecticant: annihilators are its left kernel, and the pairing rows of
arbitrary operators are combinations of its rows.  (The inverse systems of
quadric webs in `catalog` are read off the web's ideal rows instead.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import PrimeField
from .linalg import ExactMatrix
from .poly import Poly, diff_action, monomials_of_degree, multi_factorial

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

    __slots__ = ("poly", "n", "degree", "field")

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
        self.poly = poly
        self.n = poly.n
        self.degree = degree
        self.field = poly.field

    def __eq__(self, other):
        return isinstance(other, DualForm) and self.poly == other.poly

    def __repr__(self):
        return f"DualForm(n={self.n}, d={self.degree}, {self.poly!r})"


def catalecticant(F: DualForm, i: int) -> ExactMatrix:
    """The pairing matrix between degree-i and degree-(d-i) operator monomials.

    Entry (u, v) is the constant (m_u m_v) applied to F, i.e. the coefficient
    of F at exponent u+v times the product of factorials of u+v.  Rows and
    columns run over the full monomial bases of the operator ring; the rank
    agrees with any quotient-basis version.
    """
    d = F.degree
    if not 0 <= i <= d:
        raise ValueError(f"catalecticant index {i} outside 0..{d}")
    field = F.field
    rows = monomials_of_degree(F.n, i)
    cols = monomials_of_degree(F.n, d - i)
    col_index = {e: j for j, e in enumerate(cols)}
    m = [[field.zero] * len(cols) for _ in rows]
    row_index = {e: j for j, e in enumerate(rows)}
    for exp, c in F.poly.terms.items():
        scale = field.mul(c, field.from_int(multi_factorial(exp)))
        for u in _divisors_of_degree(exp, i):
            v = tuple(a - b for a, b in zip(exp, u))
            m[row_index[u]][col_index[v]] = scale
    return ExactMatrix(m, field)


def _divisors_of_degree(exp: tuple[int, ...], i: int):
    """All exponents u <= exp componentwise with total degree i."""
    out: list[tuple[int, ...]] = []

    def build(prefix, pos, remaining):
        if pos == len(exp):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        lo = max(0, remaining - sum(exp[pos + 1:]))
        hi = min(exp[pos], remaining)
        for e in range(hi, lo - 1, -1):
            build(prefix + [e], pos + 1, remaining - e)

    build([], 0, i)
    return out


def hilbert_function(F: DualForm) -> HVector:
    """h-vector of A_F via catalecticant ranks.

    Only degrees i <= d/2 are ranked: catalecticant(F, d - i) is the
    transpose of catalecticant(F, i), so the rest is their mirror image.
    """
    half = [catalecticant(F, i).rank() for i in range(F.degree // 2 + 1)]
    return HVector(tuple(half + half[:(F.degree + 1) // 2][::-1]))


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


def span_dimension(F: DualForm, operators: list[Poly], i: int) -> int:
    """Dimension of the span of the given degree-i operators inside [A_F]_i.

    Raises ValueError when an operator has a term of another degree.
    """
    if not operators:
        return 0
    return pairing_rows(F, operators, i).rank()


def ann_degree(F: DualForm, i: int) -> list[Poly]:
    """A basis of the degree-i part of the annihilator of F.

    Kernel of the differentiation map R_i -> S_{d-i}, the left kernel of the
    i-th catalecticant; all of R_i when i > d.
    """
    if i < 0:
        raise ValueError("degree must be non-negative")
    field = F.field
    mons = monomials_of_degree(F.n, i)
    if i > F.degree:
        return [Poly.monomial(F.n, field, e) for e in mons]
    basis = []
    for v in catalecticant(F, i).transpose().kernel_basis():
        terms = {e: c for e, c in zip(mons, v) if not field.is_zero(c)}
        basis.append(Poly(F.n, field, terms))
    return basis


def quotient_basis(F: DualForm, i: int) -> list[tuple[int, ...]]:
    """Monomials of degree i whose classes form a basis of [A_F]_i.

    Greedy in descending graded-lex order: a monomial is kept exactly when
    its catalecticant row is independent of the rows before it, so the
    result is the row rank profile, the pivot columns of the transpose.
    """
    d = F.degree
    if not 0 <= i <= d:
        raise ValueError(f"degree {i} outside 0..{d}")
    mons = monomials_of_degree(F.n, i)
    return [mons[j] for j in catalecticant(F, i).transpose().pivot_columns()]


def contract(g: Poly, F: DualForm) -> DualForm | None:
    """The dual form g applied to F, or None when g annihilates F.

    For homogeneous g of degree s <= d this is the dual generator of the
    Gorenstein quotient A / (0 : g); the None case means that quotient is the
    zero ring (its Hilbert function vanishes in every degree).
    """
    if g.is_zero():
        raise ValueError("contraction by the zero polynomial")
    if not g.is_homogeneous():
        raise ValueError("contraction requires a homogeneous operator")
    if g.degree() > F.degree:
        raise ValueError(f"operator degree {g.degree()} exceeds socle degree {F.degree}")
    image = diff_action(g, F.poly)
    if image.is_zero():
        return None
    return DualForm(image)


def hf_modulo_linear(F: DualForm, ell: Poly) -> tuple[int, ...]:
    """Hilbert function of A / (ell), degrees 0..d, trailing zeros allowed.

    Exactness of 0 -> B(-1) -> A -> A/(ell) -> 0 gives
    HF(A/ell)(i) = HF(A)(i) - HF(B)(i-1) with B presented by ell applied to F.
    """
    if ell.is_zero() or not ell.is_homogeneous() or ell.degree() != 1:
        raise ValueError("expected a nonzero linear form")
    h_a = hilbert_function(F)
    B = contract(ell, F)
    if B is None:
        h_b = ()
    else:
        h_b = tuple(hilbert_function(B))
    out = []
    for i in range(F.degree + 1):
        b_prev = h_b[i - 1] if 0 <= i - 1 < len(h_b) else 0
        out.append(h_a[i] - b_prev)
    return tuple(out)
