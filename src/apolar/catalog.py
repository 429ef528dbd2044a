"""Concrete catalog: quadric-web orbits, their classifier, and sharp examples.

The catalog covers the twelve four-dimensional spaces of quadrics in four
variables that occur (up to coordinate change) as degree-two parts of the
relevant ideals, with their Hilbert functions, read off the web's inverse
system prolonged one degree at a time in divided powers; a
conjugation-invariant classifier that reads its invariants off that
Hilbert function and the quadrics' symmetric matrices; degree-two generic
initial ideals under lex; inverse-system samplers; and the
trivial-extension dual forms whose algebras have h-vector
(1, d+2, ..., d+2, 1) and fail the weak Lefschetz property.

The prolongation stops at the first degree where the growth is maximal,
since Gotzmann's persistence theorem then gives every later entry; each
Hilbert function it returns is checked to be an O-sequence.

The classifier and `gin2` sample nothing: every invariant they read is a
rank, a kernel or a determinant.  The inverse-system samplers draw from a
seed.  A web over F_p holds its coefficients as residues, so every F_p
matrix built here is made by the trusted `ExactMatrix._integral`, or by
`ExactMatrix._sparse` from the sparse rows of the inverse-system samplers.
"""

from __future__ import annotations

import random
from enum import Enum
from itertools import combinations, combinations_with_replacement, permutations
from operator import add, mul

from .bounds import gotzmann_values, is_o_sequence, macaulay_bound
from .duality import DualForm, hilbert_function
from .errors import HypothesisViolationError, InternalInconsistencyError
from .fields import DEFAULT_PRIME, QQ, PrimeField
from .grammar import parse_poly
from .linalg import ExactMatrix
from .poly import LinearChange, Poly, monomials_of_degree, multi_factorial


class OrbitLabel(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"
    VIII_X3X4 = "VIII_x3x4"
    VIII_X3SQ_X2X4 = "VIII_x3sq_x2x4"
    VIII_X3SQ = "VIII_x3sq"
    IX = "IX"
    X = "X"
    UNKNOWN = "Unknown"

    @classmethod
    def from_text(cls, text: str) -> "OrbitLabel":
        for label in cls:
            if label.value.lower() == text.lower():
                return label
        raise ValueError(f"unknown orbit label {text!r}")


CATALOG_LABELS = tuple(l for l in OrbitLabel if l is not OrbitLabel.UNKNOWN)

_REPRESENTATIVES: dict[OrbitLabel, tuple[str, str, str, str]] = {
    OrbitLabel.I: ("x1*x3", "x1*x4", "x2*x3", "x2*x4"),
    OrbitLabel.II: ("x1^2", "x2^2", "x3^2", "x1*x2 + x1*x3 + x2*x3"),
    OrbitLabel.III: ("x1^2", "x2^2", "x3^2", "x1*x3 + x2*x3"),
    OrbitLabel.IV: ("x1^2", "x1*x2", "x1*x3 - x2^2", "x3^2"),
    OrbitLabel.V: ("x1^2", "x1*x2", "x1*x3 - x2^2", "x2*x3"),
    OrbitLabel.VI: ("x1^2", "x1*x3", "x2^2", "x2*x3"),
    OrbitLabel.VII: ("x1^2", "x1*x2", "x1*x3", "x2*x3"),
    OrbitLabel.VIII_X3X4: ("x1^2", "x1*x2", "x2^2", "x3*x4"),
    OrbitLabel.VIII_X3SQ_X2X4: ("x1^2", "x1*x2", "x2^2", "x3^2 + x2*x4"),
    OrbitLabel.VIII_X3SQ: ("x1^2", "x1*x2", "x2^2", "x3^2"),
    OrbitLabel.IX: ("x1^2", "x1*x2", "x2^2", "x1*x4 - x2*x3"),
    OrbitLabel.X: ("x1^2", "x1*x2", "x2^2", "x1*x3"),
}

#: The three possible Hilbert functions of the quadric ideals, degrees 0..5.
HF_FLAT = (1, 4, 6, 6, 6, 6)
HF_SLOW = (1, 4, 6, 7, 8, 9)
HF_FAST = (1, 4, 6, 8, 10, 12)

EXPECTED_WEB_HF: dict[OrbitLabel, tuple[int, ...]] = {
    OrbitLabel.I: HF_FAST,
    OrbitLabel.II: HF_FLAT,
    OrbitLabel.III: HF_FLAT,
    OrbitLabel.IV: HF_FLAT,
    OrbitLabel.V: HF_SLOW,
    OrbitLabel.VI: HF_SLOW,
    OrbitLabel.VII: HF_FAST,
    OrbitLabel.VIII_X3X4: HF_FLAT,
    OrbitLabel.VIII_X3SQ_X2X4: HF_FLAT,
    OrbitLabel.VIII_X3SQ: HF_FLAT,
    OrbitLabel.IX: HF_FAST,
    OrbitLabel.X: HF_FAST,
}

#: Degree-2 gin outcomes: the generic pivot set and the special one.
GENERIC_GIN2 = ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))
SPECIAL_GIN2 = ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 0))


class QuadricWeb:
    """A four-dimensional space of quadrics in four variables."""

    def __init__(self, quadrics):
        """The web spanned by four independent quadrics over one field.

        Over F_p each coefficient must be an int and is reduced mod p, so
        that the matrices built from the web hold residues; any other
        coefficient raises ValueError.
        """
        quadrics = list(quadrics)
        if len(quadrics) != 4:
            raise ValueError("a quadric web needs exactly four generators")
        field = quadrics[0].field
        p = field.p if isinstance(field, PrimeField) else None
        for k, q in enumerate(quadrics):
            if q.n != 4:
                raise ValueError("web quadrics must live in four variables")
            if q.field != field:
                raise ValueError("web quadrics must share one field")
            if p is not None:
                q = quadrics[k] = _residues(q, p)
            if q.is_zero() or not q.is_homogeneous() or q.degree() != 2:
                raise ValueError("web generators must be nonzero quadrics")
        if p == 2:
            raise HypothesisViolationError(
                "quadric webs need characteristic != 2: their symmetric matrices "
                "halve the mixed coefficients"
            )
        self.quadrics = quadrics
        self.field = field
        if self.coefficient_matrix().rank() != 4:
            raise ValueError("web quadrics are linearly dependent")

    @classmethod
    def _trusted(cls, quadrics: list[Poly], field) -> "QuadricWeb":
        """Wrap ``quadrics`` without the checks of ``__init__``.

        Only for the image of a web under an invertible change: it keeps
        nonzero quadrics nonzero and independent ones independent.
        """
        web = object.__new__(cls)
        web.quadrics = quadrics
        web.field = field
        return web

    def coefficient_matrix(self) -> ExactMatrix:
        mons, rows = _ideal_rows(self.quadrics, 2)
        zero = self.field.zero
        return _matrix([[row.get(j, zero) for j in range(len(mons))] for row in rows], self.field)

    def transformed(self, change: LinearChange) -> "QuadricWeb":
        """The web after substituting x -> M x in every quadric.

        A quadric x^T S x becomes x^T (M^T S M) x, so each image is read off
        the congruent symmetric matrix instead of expanding the substitution.
        A `LinearChange` is invertible, so the image is a web without
        ranking its coefficient matrix again.
        """
        if change.n != 4 or change.field != self.field:
            raise ValueError("coordinate change must act on the web's four variables and field")
        field = self.field
        p = field.p if isinstance(field, PrimeField) else None
        zero = field.zero
        columns = list(zip(*change.matrix))
        out = []
        for s in _symmetric_matrices(self.quadrics, 4):
            # payloads are Fractions or ints: sum the products of M^T (S M)
            # raw, and over F_p reduce once per coefficient
            sm = [[sum(map(mul, row, col), zero) for col in columns] for row in s]
            sm_columns = list(zip(*sm))
            terms = {}
            for i in range(4):
                for j in range(i, 4):
                    acc = sum(map(mul, columns[i], sm_columns[j]), zero)
                    if i != j:
                        acc *= 2
                    if p is not None:
                        acc %= p
                    if acc:
                        exp = [0] * 4
                        exp[i] += 1
                        exp[j] += 1
                        terms[tuple(exp)] = acc
            out.append(Poly._trusted(4, field, terms))
        return QuadricWeb._trusted(out, field)

    def map_to_field(self, field) -> "QuadricWeb":
        return QuadricWeb([q.map_to_field(field) for q in self.quadrics])

    def __repr__(self):
        return f"QuadricWeb({self.quadrics!r})"


def _residues(q: Poly, p: int) -> Poly:
    """`q` with every coefficient reduced mod p; a coefficient that is not an int raises."""
    terms = {}
    for e, c in q.terms.items():
        if not isinstance(c, int):
            raise ValueError(f"quadric coefficient {c!r} over GF({p}) is not an int")
        c %= p
        if c:
            terms[e] = c
    return Poly._trusted(q.n, q.field, terms)


def _matrix(rows: list[list], field) -> ExactMatrix:
    """The matrix of `rows` built by the catalog: trusted over F_p, checked over QQ.

    Over F_p every builder here writes residues in [0, p): a web's
    coefficients are reduced when it is made, and every later row is read
    off them or off kernel vectors.
    """
    if isinstance(field, PrimeField):
        return ExactMatrix._integral(rows, 1, field)
    return ExactMatrix(rows, field)


def orbit_representative(label: OrbitLabel, field=QQ) -> QuadricWeb:
    """The verbatim generator set of one catalog orbit."""
    if label is OrbitLabel.UNKNOWN:
        raise ValueError("no representative for the Unknown label")
    return QuadricWeb([parse_poly(t, 4, field) for t in _REPRESENTATIVES[label]])


def _ideal_rows(quadrics: list[Poly], degree: int, weighted: bool = False):
    """The degree-`degree` monomials and the rows of q * x^w over them, sparse.

    One row per quadric q and monomial x^w of degree `degree` - 2, a map
    from column to the coefficient of q at the shifted exponent, nonzero
    ones only.  With `weighted`, column v is scaled by v!, so that the
    kernel is the inverse system: the forms of that degree annihilated by
    every q * x^w; an entry c v! that vanishes mod p is left out.
    """
    field = quadrics[0].field
    n = quadrics[0].n
    mons = monomials_of_degree(n, degree)
    idx = {m: j for j, m in enumerate(mons)}
    if weighted:
        scale = [field.from_int(multi_factorial(m)) for m in mons]
    rows = []
    for q in quadrics:
        for w in monomials_of_degree(n, degree - 2):
            row = {}
            for e, c in q.terms.items():
                j = idx[tuple(map(add, e, w))]
                x = field.mul(c, scale[j]) if weighted else c
                if x:
                    row[j] = x
            rows.append(row)
    return mons, rows


def quadric_ideal_hf(web: QuadricWeb, up_to: int) -> tuple[int, ...]:
    """Hilbert function of the quotient by the web ideal, degrees 0..up_to.

    Entry k is h_k = dim V_k, where V_k = (I_k)^perp is the web's inverse
    system in the divided powers D_k, in which x_i o X^[a] = X^[a - e_i] and
    the pairing of x^w with X^[a] is 1 exactly when w = a.  V_2 is the kernel
    of the coefficient matrix.  For k >= 3, I_k = sum_j x_j I_{k-1}, since
    I is generated in degree 2, and <x_j phi, F> = <phi, x_j o F>; so V_k is
    the set of F with x_j o F in V_{k-1} for every j (Iarrobino and Kanev,
    "Power Sums, Gorenstein Algebras, and Determinantal Loci", LNM 1721,
    1999, Appendix A).  A tuple (G_0, .., G_3) in D_{k-1} is the gradient of
    exactly one F in D_k when x_i o G_j = x_j o G_i for all i < j, in every
    characteristic.  With G_j = sum_a c_{j,a} v_a on a basis of V_{k-1} and
    T_i the matrix of x_i o from V_{k-1} to V_{k-2} in coordinates, V_k is
    the kernel of the rows T_i c_j - T_j c_i: a (6 h_{k-2}) x (4 h_{k-1})
    matrix, so h_k = 4 h_{k-1} - its rank.  Block i of a kernel vector is
    x_i o F, so the blocks give the next T_i without building a form; the
    first T_i are lookups in V_2's basis, since V_1 = D_1.  The last degree
    needs only the rank, and once some h_k is 0 every later entry is 0.

    The prolongation also stops once the growth is maximal: I is generated
    in degree 2, so when h_{k-1} = macaulay_bound(h_{k-2}, k-2) for some
    k >= 4, Gotzmann's persistence theorem (Math. Z. 158, 1978) gives
    h_t = gotzmann_values(h_{k-1}, k-1, t-k+1) for every t >= k.  Extending
    the field changes no h, so this holds over F_p as well.  The FAST webs
    reach it at k = 5 (8^<3> = 10), so they rank nothing above degree 4;
    the SLOW and FLAT webs do not grow maximally from degree 3 to 4.  Over
    F_p the rows hold residues and are negated as p - x, and the matrices
    are built by the trusted `ExactMatrix._integral`.  The result must be an
    O-sequence (`is_o_sequence`), as the Hilbert function of every standard
    graded algebra is; one that is not raises InternalInconsistencyError.
    """
    if up_to < 2:
        raise ValueError("need up_to >= 2")
    field = web.field
    zero = field.zero
    if isinstance(field, PrimeField):
        p = field.p

        def negated(row):
            return [p - x if x else 0 for x in row]
    else:
        def negated(row):
            return list(map(field.neg, row))
    basis = web.coefficient_matrix().kernel_basis()
    out = [1, 4, len(basis)]
    col = {m: c for c, m in enumerate(monomials_of_degree(4, 2))}
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    # t[i][l][m]: coordinate l of x_i o v_m, for the basis vectors v_m of V_{k-1}
    t = [[[v[col[tuple(map(add, unit[i], unit[l]))]] for v in basis] for l in range(4)]
         for i in range(4)]
    for k in range(3, up_to + 1):
        h = out[-1]
        if not h:
            out += [0] * (up_to + 1 - k)
            break
        if k >= 4 and h == macaulay_bound(out[-2], k - 2):
            out += [gotzmann_values(h, k - 1, s) for s in range(1, up_to + 2 - k)]
            break
        minus = [[negated(row) for row in ti] for ti in t]
        rows = []
        for i, j in combinations(range(4), 2):
            for ti, tj in zip(t[i], minus[j]):
                row = [zero] * (4 * h)
                row[j * h:(j + 1) * h] = ti
                row[i * h:(i + 1) * h] = tj
                rows.append(row)
        m = _matrix(rows, field)
        if k == up_to:
            out.append(4 * h - m.rank())
            break
        kernel = m.kernel_basis()
        out.append(len(kernel))
        t = [[[u[i * h + a] for u in kernel] for a in range(h)] for i in range(4)]
    if not is_o_sequence(out)[0]:
        raise InternalInconsistencyError(
            f"web ideal Hilbert function {tuple(out)} is not an O-sequence")
    return tuple(out)


def gin2(web: QuadricWeb) -> tuple[tuple[int, ...], ...]:
    """Degree-2 part of the lex generic initial ideal as a pivot monomial set.

    Under x -> M x the x_1 row of M^T S_k M is M^T S_k m_1, S_k the symmetric
    matrix of the k-th quadric and m_1 the first column of M, so a generic M
    makes the four x_1 x_j the lex pivots exactly when the quartic
    P(v) = det[S_1 v | .. | S_4 v] is not zero.  A gin is Borel-fixed (Bayer
    and Stillman), p-Borel-fixed in characteristic p (Pardue), and for p > 2
    the only such sets in degree 2 are `GENERIC_GIN2` and `SPECIAL_GIN2`: it
    is special exactly when P = 0.
    """
    if not isinstance(web.field, PrimeField):
        raise ValueError("gin2 runs over a prime field")
    if _gin_quartic(_symmetric_matrices(web.quadrics, 4), web.field.p):
        return GENERIC_GIN2
    return SPECIAL_GIN2


# -- classifier internals ------------------------------------------------------

def _symmetric_matrices(quadrics, n: int) -> list:
    """Symmetric matrices of quadrics in n variables (off-diagonal entries are halves)."""
    field = quadrics[0].field
    half = field.inv(field.from_int(2))
    mats = []
    for q in quadrics:
        m = [[field.zero] * n for _ in range(n)]
        for e, c in q.terms.items():
            support = [i for i, x in enumerate(e) if x]
            if len(support) == 1:
                i = support[0]
                m[i][i] = c
            else:
                i, j = support
                m[i][j] = m[j][i] = field.mul(c, half)
        mats.append(m)
    return mats


def _common_kernel(mats, field) -> list[list]:
    """Basis of the vectors k with S k = 0 for every member matrix S."""
    return ExactMatrix._integral([row for s in mats for row in s], 1, field).kernel_basis()


def _dual_pencil(mats, k, field):
    """The two 3x3 matrices spanning the dual pencil of a web with kernel k, or None.

    Under x -> M x with M = [e_j for j != pivot | k], each S becomes S with
    row and column `pivot` deleted, bordered by zeros since S k = 0.  The
    dual quadrics T orthogonal to those, <S, T> = 2 tr(S T), are the kernel
    of the rows (S_ab), a <= b; v gives T_aa = v_aa and T_ab = v_ab / 2.
    """
    p = field.p
    if any(sum(map(mul, row, k)) % p for s in mats for row in s):
        raise InternalInconsistencyError("a web matrix does not kill the common kernel")
    pivot = next(i for i, x in enumerate(k) if x)
    kept = [j for j in range(4) if j != pivot]
    pairs = list(combinations_with_replacement(range(3), 2))
    rows = [[s[kept[a]][kept[b]] for a, b in pairs] for s in mats]
    kernel = ExactMatrix._integral(rows, 1, field).kernel_basis()
    if len(kernel) != 2:
        return None
    half = field.inv(2)
    out = []
    for v in kernel:
        t = [[0] * 3 for _ in range(3)]
        for (a, b), c in zip(pairs, v):
            t[a][b] = t[b][a] = c if a == b else c * half % p
        out.append(t)
    return out


def _pencil_det(m1, m2, p: int) -> list[int]:
    """Binary form det(alpha*m1 + beta*m2) over F_p as a coefficient list.

    Entry j is the coefficient of alpha^(e-j) beta^j, where e is the size of
    the matrices; each Leibniz term multiplies out its linear factors.
    """
    size = len(m1)
    total = [0] * (size + 1)
    for perm in permutations(range(size)):
        term = [1]
        for i, j in enumerate(perm):
            a, b = m1[i][j], m2[i][j]
            term = [(x * a + y * b) % p for x, y in zip(term + [0], [0] + term)]
        if sum(perm[i] > perm[j] for i, j in combinations(range(size), 2)) % 2:
            term = [-x for x in term]
        total = [(x + y) % p for x, y in zip(total, term)]
    return total


# Tables of `_quartic_det`: column pairs with their complements and signs, the
# monomials t_k t_l (k <= l) of a 2x2 minor, and the quartic index of each product.
_LAPLACE = [((a, b), tuple(c for c in range(4) if c not in (a, b)), (-1) ** (1 + a + b))
            for a, b in combinations(range(4), 2)]
_QUADRATIC = list(combinations_with_replacement(range(4), 2))
_QUARTIC = monomials_of_degree(4, 4)
_PRODUCT = [[_QUARTIC.index(tuple((k, l, m, n).count(x) for x in range(4)))
             for m, n in _QUADRATIC] for k, l in _QUADRATIC]


def _quartic_det(mats, p: int) -> dict:
    """The quartic det(sum_k t_k M_k) of four 4x4 matrices over F_p, by exponent.

    The sum over column pairs a < b of (-1)^(1+a+b) times the minor on rows
    0, 1 and columns a, b times the complementary minor on rows 2, 3.  Each
    minor is a quadratic in t with plain-int coefficients; the products are
    summed through `_PRODUCT` and reduced mod p once at the end.
    """

    def minor(r, s, a, b):
        x, y = [m[r][a] for m in mats], [m[s][b] for m in mats]
        z, w = [m[r][b] for m in mats], [m[s][a] for m in mats]
        return [x[k] * y[l] - z[k] * w[l] + (x[l] * y[k] - z[l] * w[k] if k != l else 0)
                for k, l in _QUADRATIC]

    total = [0] * len(_QUARTIC)
    for (a, b), (c, d), sign in _LAPLACE:
        lower = minor(2, 3, c, d)
        for u, row in zip(minor(0, 1, a, b), _PRODUCT):
            if u:
                u *= sign
                for v, i in zip(lower, row):
                    total[i] += u * v
    return {e: c % p for e, c in zip(_QUARTIC, total) if c % p}


def _gin_quartic(mats, p: int) -> dict:
    """P(v) = det[S_1 v | .. | S_4 v] = det(sum_j v_j A_j), A_j[i][k] = S_k[i][j]."""
    return _quartic_det([[[s[i][j] for s in mats] for i in range(4)] for j in range(4)], p)


# univariate helpers over F_p; coefficient lists are low-degree first

def _utrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _uderiv(c, p):
    return _utrim([(j * c[j]) % p for j in range(1, len(c))])


def _ugcd(a, b, p):
    """A gcd, up to a unit, by Euclid's algorithm; each pass reduces a mod b in place."""
    a, b = _utrim(a[:]), _utrim(b[:])
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            shift = len(a) - len(b)
            for j, x in enumerate(b):
                a[shift + j] = (a[shift + j] - f * x) % p
            _utrim(a)
        a, b = b, a
    return a


def _root_counts(c, p) -> list[int]:
    """Numbers of distinct roots of multiplicity >= k, for k = 1 .. deg c + 1.

    With g_0 = c and g_k = gcd(g_{k-1}, g_{k-1}'), each step lowers every
    root multiplicity by one over the algebraic closure when p > deg c, so
    entry k-1 is deg g_{k-1} - deg g_k.  A smaller p raises ValueError.
    """
    g = _utrim(c[:])
    if p <= len(g) - 1:
        raise ValueError(f"root multiplicities of a degree-{len(g) - 1} polynomial "
                         f"need characteristic p > {len(g) - 1}, got {p}")
    counts = [0] * len(g)
    k = 0
    while len(g) > 1:
        h = _ugcd(g, _uderiv(g, p), p)
        counts[k] = len(g) - len(h)
        g, k = h, k + 1
    return counts


def _binary_signature(coeffs: list[int], p: int) -> tuple[int, ...] | None:
    """Squarefree signature of a binary form, or None for the zero form.

    ``coeffs[j]`` is the coefficient of alpha^(e-j) beta^j; entry j-1 counts
    the distinct roots of multiplicity j.  The roots other than beta = 0 are
    those of the chart beta = 1, counted by `_root_counts`; the root beta = 0
    has the multiplicity m of the first nonzero coefficient and adds one to
    entry m-1.  A projective change of coordinates keeps the multiplicities,
    so every chart gives the signature of the projective root divisor.
    """
    m = next((j for j, c in enumerate(coeffs) if c), None)
    if m is None:
        return None
    counts = _root_counts(coeffs[::-1], p)
    sig = [a - b for a, b in zip(counts, counts[1:])]
    sig += [0] * (len(coeffs) - 1 - len(sig))
    if m:
        sig[m - 1] += 1
    return tuple(sig)


def _rank_one_locus_degree(pencil, p: int) -> int:
    """Number of distinct rank-<=1 members of a pencil of symmetric matrices.

    These are the common roots of the 2x2 minors along the pencil: the
    distinct roots of the gcd of the minors in the chart beta = 1, plus one
    when beta = 0 is a root of every nonzero minor.
    """
    m1, m2 = pencil
    pairs = list(combinations(range(len(m1)), 2))
    minors = []
    for rows in pairs:
        for cols in pairs:
            minor = _pencil_det([[m1[r][c] for c in cols] for r in rows],
                                [[m2[r][c] for c in cols] for r in rows], p)
            if any(minor):
                minors.append(minor)
    if not minors:
        raise InternalInconsistencyError("pencil of quadrics is entirely rank one")
    common: list[int] = []
    for minor in minors:
        common = _ugcd(common, minor[::-1], p)
    at_infinity = all(minor[0] == 0 for minor in minors)
    return _root_counts(common, p)[0] + int(at_infinity)


#: Kernel-free catalog webs by the h-vector of D(t) = det(sum_k t_k S_k): their
#: web-ideal Hilbert function, label, and D's signature along a generic pencil.
_PENCIL_BRANCH = {
    (1, 4, 10, 4, 1): (HF_FAST, OrbitLabel.I, (0, 2, 0, 0)),
    (1, 1, 1, 1, 1): (HF_FAST, OrbitLabel.IX, (0, 0, 0, 1)),
    (1, 4, 5, 4, 1): (HF_FLAT, OrbitLabel.VIII_X3X4, (2, 1, 0, 0)),
    (1, 2, 2, 2, 1): (HF_FLAT, OrbitLabel.VIII_X3SQ_X2X4, (1, 0, 1, 0)),
}


def classify_web_report(web: QuadricWeb, seed=None) -> tuple[OrbitLabel, dict]:
    """Orbit label of a quadric web together with the invariant evidence.

    Decision tree over computable invariants: the Hilbert function of the web
    ideal up to degree 5, from its inverse system prolonged degree by degree
    (see `quadric_ideal_hf`); the common kernel of the four symmetric matrices
    S_k of the quadrics x^T S_k x, built once; the squarefree signature of
    the determinant along pencils (of the web itself when the kernel is
    zero, of the dual pencil when it is a line); and the rank-one locus of
    the dual pencil.  The dual pencil is read off the matrices with the
    kernel's pivot row and column deleted (see `_dual_pencil`).  Webs outside
    the catalog orbits may come back Unknown.

    Nothing is sampled, so ``seed`` is ignored; it stays only because the
    benchmark's classifier workload passes one.  The web's `gin2` must be
    the special set, so its quartic P must vanish.  In the kernel-free
    branch D(t) = det(sum_k t_k S_k), a quartic determinant (`_quartic_det`),
    moves only by a scalar and a linear substitution in t under a change of
    coordinates or of basis, so the h-vector of D as a dual form is an orbit
    invariant; `_PENCIL_BRANCH` maps it to a generic pencil's signature.

    Binary forms are read in the fixed chart beta = 1 with the root beta = 0
    counted apart.  Root multiplicities come from derivatives, and D is a
    dual form of degree 4, so p <= 4 raises ValueError.
    """
    field = web.field
    if not isinstance(field, PrimeField):
        raise ValueError("classification runs over a prime field")
    p = field.p
    if p <= 4:
        raise ValueError(f"classification needs characteristic p > 4, the degree of the "
                         f"pencil determinant whose root multiplicities it reads; got p = {p}")

    mats = _symmetric_matrices(web.quadrics, 4)
    if _gin_quartic(mats, p):
        raise HypothesisViolationError(
            "degree-2 generic initial ideal is the generic set; "
            "the classifier needs the special set"
        )

    hf = quadric_ideal_hf(web, 5)
    kernel = _common_kernel(mats, field)
    evidence: dict = {
        "gin2": "special",
        "web_hf": list(hf),
        "common_kernel_dim": len(kernel),
        "pencil_det_signature": None,
        "dual_pencil_det_signature": None,
        "rank_one_points": None,
    }

    def done(label: OrbitLabel) -> tuple[OrbitLabel, dict]:
        evidence["label"] = label.value
        return label, evidence

    if hf not in (HF_FAST, HF_SLOW, HF_FLAT) or len(kernel) > 1:
        return done(OrbitLabel.UNKNOWN)

    if not kernel:
        terms = _quartic_det(mats, p)
        h = tuple(hilbert_function(DualForm(Poly._trusted(4, field, terms)))) if terms else None
        web_hf, label, sig = _PENCIL_BRANCH.get(h, (None, OrbitLabel.UNKNOWN, None))
        evidence["pencil_det_signature"] = list(sig) if sig else None
        return done(label if web_hf == hf else OrbitLabel.UNKNOWN)

    pencil = _dual_pencil(mats, kernel[0], field)
    if pencil is None:
        return done(OrbitLabel.UNKNOWN)
    det = _pencil_det(*pencil, p)
    if not any(det):
        evidence["dual_pencil_det_signature"] = "zero"
        r1 = _rank_one_locus_degree(pencil, p)
        evidence["rank_one_points"] = r1
        if hf == HF_FAST:
            table = {2: OrbitLabel.VII, 1: OrbitLabel.X}
            return done(table.get(r1, OrbitLabel.UNKNOWN))
        if hf == HF_FLAT and r1 == 0:
            return done(OrbitLabel.VIII_X3SQ)
        return done(OrbitLabel.UNKNOWN)
    sig = _binary_signature(det, p)
    evidence["dual_pencil_det_signature"] = list(sig)
    table = {
        HF_FLAT: {
            (3, 0, 0): OrbitLabel.II,
            (1, 1, 0): OrbitLabel.III,
            (0, 0, 1): OrbitLabel.IV,
        },
        HF_SLOW: {(0, 0, 1): OrbitLabel.V, (1, 1, 0): OrbitLabel.VI},
        HF_FAST: {},
    }[hf]
    return done(table.get(sig, OrbitLabel.UNKNOWN))


def classify_web(web: QuadricWeb) -> OrbitLabel:
    """Conjugation-invariant orbit label of a quadric web; see classify_web_report."""
    return classify_web_report(web)[0]


# -- inverse systems and sharp examples ---------------------------------------


def inverse_system_sample(web: QuadricWeb, degree: int, seed: int) -> DualForm:
    """A random form of the given degree annihilated by every web quadric.

    Uniformly random coordinates over the kernel of the factorial-weighted
    ideal rows (the inverse system of the web in that degree); deterministic
    given the seed.  Each row holds at most as many nonzeros as its quadric
    has terms, so the rows enter the elimination sparse, and the peel leaves
    only a few of them to be made dense: 8 of the 480 x 220 rows of web IX
    in degree 9.
    """
    if degree < 2:
        raise ValueError("need degree >= 2")
    if not isinstance(web.field, PrimeField):
        raise ValueError("inverse-system sampling needs a prime field")
    field = web.field
    cols, rows = _ideal_rows(web.quadrics, degree, weighted=True)
    kernel = ExactMatrix._sparse(rows, len(cols), 1, field).kernel_basis()
    if not kernel:
        raise ValueError(f"the web has no inverse system in degree {degree}")
    rng = random.Random(seed)
    while True:
        combo = [field.rand(rng) for _ in kernel]
        if any(combo):
            break
    coeffs = (field.from_int(sum(map(mul, combo, column))) for column in zip(*kernel))
    return DualForm(Poly(4, field, dict(zip(cols, coeffs))))


_QUINTIC_TAIL = (
    ((0, 0, 5, 0), 4, 120),
    ((0, 0, 4, 1), 5, 24),
    ((0, 0, 3, 2), 6, 12),
    ((0, 0, 2, 3), 7, 12),
    ((0, 0, 1, 4), 8, 24),
    ((0, 0, 0, 5), 9, 120),
)

_QUINTIC_TABLES: dict[OrbitLabel, tuple] = {
    OrbitLabel.V: (
        ((0, 2, 0, 3), 1, 12),
        ((1, 0, 1, 3), 1, 6),
        ((1, 0, 0, 4), 2, 24),
        ((0, 1, 0, 4), 3, 24),
    ) + _QUINTIC_TAIL,
    OrbitLabel.VI: (
        ((1, 1, 0, 3), 1, 6),
        ((1, 0, 0, 4), 2, 24),
        ((0, 1, 0, 4), 3, 24),
    ) + _QUINTIC_TAIL,
}


def parametric_quintic(label: OrbitLabel, coeffs, field=QQ) -> DualForm:
    """The normalized 9-parameter quintic annihilated by web V or VI.

    Coefficients are written with the factorial denominators that make the
    pairing matrices against monomial bases come out as the bare parameters.
    """
    if label not in _QUINTIC_TABLES:
        raise ValueError("parametric quintics exist for labels V and VI only")
    coeffs = list(coeffs)
    if len(coeffs) != 9:
        raise ValueError("need nine coefficients")
    terms: dict = {}
    for exp, idx, den in _QUINTIC_TABLES[label]:
        c = field.mul(field.from_int(coeffs[idx - 1]), field.from_fraction(1, den))
        if not field.is_zero(c):
            terms[exp] = field.add(terms.get(exp, field.zero), c)
    poly = Poly(4, field, terms)
    if poly.is_zero():
        raise ValueError("all coefficients vanish")
    return DualForm(poly)


def parametric_family_form(label: OrbitLabel, degree: int, coeffs, field=QQ) -> DualForm:
    """General inverse-system element of odd degree for webs VII, IX or X.

    The basis elements are normalized by dividing each monomial by the
    product of factorials of its exponents, so pairings against monomial
    operator bases produce the bare parameters; web IX ties two monomials
    per middle basis element.  Takes 2*degree + 2 coefficients.
    """
    if degree < 5 or degree % 2 == 0:
        raise ValueError("need an odd degree >= 5")
    d = degree
    elements: list[list[tuple[int, ...]]]
    if label is OrbitLabel.VII:
        elements = [[(1, 0, 0, d - 1)]]
        elements += [[(0, d + 1 - j, 0, j - 1)] for j in range(1, d + 1)]
        elements += [[(0, 0, d + 1 - j, j - 1)] for j in range(1, d + 1)]
        elements.append([(0, 0, 0, d)])
    elif label is OrbitLabel.IX:
        elements = [[(1, 0, d - 1, 0)]]
        elements += [[(1, 0, d - 1 - j, j), (0, 1, d - j, j - 1)] for j in range(1, d)]
        elements.append([(0, 1, 0, d - 1)])
        elements += [[(0, 0, d - j, j)] for j in range(0, d + 1)]
    elif label is OrbitLabel.X:
        elements = [[(1, 0, 0, d - 1)]]
        elements += [[(0, 1, d - j, j - 1)] for j in range(1, d + 1)]
        elements += [[(0, 0, d + 1 - j, j - 1)] for j in range(1, d + 2)]
    else:
        raise ValueError("parametric families exist for labels VII, IX and X only")
    coeffs = list(coeffs)
    if len(coeffs) != 2 * d + 2:
        raise ValueError(f"need {2 * d + 2} coefficients for degree {d}")
    terms: dict = {}
    for c, elem in zip(coeffs, elements):
        cf = field.from_int(c) if isinstance(c, int) else c
        for e in elem:
            part = field.mul(cf, field.from_fraction(1, multi_factorial(e)))
            s = field.add(terms.get(e, field.zero), part)
            if field.is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
    poly = Poly(4, field, terms)
    if poly.is_zero():
        raise ValueError("all coefficients vanish")
    return DualForm(poly)


def perazzo_dual_form(d: int, field=QQ) -> DualForm:
    """Trivial-extension dual form of socle degree d in d+2 variables.

    The algebra has h-vector (1, d+2, ..., d+2, 1) and fails the weak
    Lefschetz property for every d >= 3; the middle multiplication maps have
    rank exactly d+1 for a general linear form.
    """
    if d < 3:
        raise ValueError("need socle degree d >= 3")
    n = d + 2
    terms = {}
    for i in range(1, d + 1):
        exp = [0] * n
        exp[i - 1] = 1
        exp[d] = d - i
        exp[d + 1] = i - 1
        terms[tuple(exp)] = field.one
    return DualForm(Poly(n, field, terms))


#: Stored six-variable cubic with h-vector (1, 6, 6, 1) failing the WLP;
#: a trivial-extension block plus an independent cube.
_CUBIC_16661_TEXT = "X1*X4^2 + X2*X4*X5 + X3*X5^2 + X6^3"


def exceptional_hvector_examples():
    """The three h-vectors that do not force the WLP, with witnesses.

    Returns (HVector, DualForm) pairs over the rationals.  Each entry is
    re-checked on load: the Hilbert function must match exactly and a weak
    Lefschetz check over the default prime field (5 trials at the fixed
    seed 20240901) must fail.
    """
    from .lefschetz import Verdict, wlp_check

    entries = [
        ((1, 5, 5, 1), perazzo_dual_form(3)),
        ((1, 6, 6, 1), DualForm(parse_poly(_CUBIC_16661_TEXT, 6, QQ))),
        ((1, 6, 6, 6, 1), perazzo_dual_form(4)),
    ]
    out = []
    for expected, form in entries:
        h = hilbert_function(form)
        if tuple(h) != expected:
            raise InternalInconsistencyError(
                f"catalog form for {expected} has Hilbert function {tuple(h)}"
            )
        modular = DualForm(form.poly.map_to_field(PrimeField(DEFAULT_PRIME)))
        if wlp_check(modular, trials=5, seed=20240901).verdict is not Verdict.FAILS:
            raise InternalInconsistencyError(f"catalog form for {expected} did not fail the WLP")
        out.append((h, form))
    return out
