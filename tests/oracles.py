"""Independent oracles used to freeze expected values.

Each oracle deliberately takes a different computational route from the
library path it checks: Hilbert functions, pairing rows and contractions
via differentiation built out of polynomial arithmetic (not the
coefficient-times-factorial closed form of the catalecticant, nor the
index shift of the divided-power basis), Hessians with each entry
differentiated and then evaluated at the point term by term (not read off a
block of the catalecticant of ell^k o F),
multiplication ranks via the perfect pairing on quotient bases, ranked by
textbook Gauss-Jordan (not the library's packed elimination), whole
Lefschetz reports by replaying their seeded trials with every map ranked
that way (not read off the Hilbert functions of a chain of contractions), snake
ledger ranks from those and from spans of naive pairing rows, whether a
linear form divides a form by restricting it to the hyperplane (not by
reducing it one power of a variable at a time),
coordinate changes by multiplying out linear factors one at a time,
growth bounds via explicit lex-segment monomial counting, binomial
expansions via exhaustive search, and pivot columns and determinants of
plain matrices via textbook Gauss-Jordan elimination and the Leibniz
formula, a rational row cleared of its own denominators by Fraction
multiplication (not put over the matrix's one common denominator), the
kernel mod p of a rank certificate from the textbook echelon form of the
whole matrix or its transpose and checked in Fraction arithmetic (not from
packed rows of its pivot columns, nor by integer products), the
invariants of binary forms over F_p in a random chart:
pencil determinants expanded as two-variable polynomials, and each form
dehomogenized after a random coordinate change has moved its roots off
infinity, then split by Yun's squarefree decomposition (not the library's
chain of gcds with derivatives), the determinant along a random pencil of a
quadric web (not the h-vector of its determinantal quartic), the dual
pencil of a quadric web with a common kernel by substituting coordinates
into its quadrics (not by deleting a row and column of their symmetric
matrices), the degree-2 generic initial ideal of a web from the pivots of
its transformed quadrics, under sampled coordinate changes or under every
first column over a small field (not from the quartic det[S_1 v | .. |
S_4 v]), the Hilbert function of a web ideal from the rank of its whole
matrix of q * x^w in each degree (not by prolonging its inverse system),
and polynomial text read one character per method call (not one
regular-expression match per term).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, lcm, prod

from apolar import (
    GENERIC_GIN2,
    SPECIAL_GIN2,
    DualForm,
    ExactMatrix,
    QQ,
    InternalInconsistencyError,
    LinearChange,
    ParseError,
    Poly,
    PrimeField,
    QuadricWeb,
    ann_degree,
    diff_action,
    format_poly,
    monomials_of_degree,
    quotient_basis,
    random_linear_form,
)
from apolar.catalog import _symmetric_matrices


def differentiation_matrix(F: DualForm, i: int) -> ExactMatrix:
    """Matrix of the map R_i -> S_{d-i}, built term by term via diff_action."""
    field = F.field
    image_mons = monomials_of_degree(F.n, F.degree - i)
    col = {m: j for j, m in enumerate(image_mons)}
    rows = []
    for m in monomials_of_degree(F.n, i):
        image = diff_action(Poly.monomial(F.n, field, m), F.poly)
        row = [field.zero] * len(image_mons)
        for e, c in image.terms.items():
            row[col[e]] = c
        rows.append(row)
    return ExactMatrix(rows, field)


def pairing_rows_naive(F: DualForm, operators: list[Poly], i: int) -> ExactMatrix:
    """Pairing rows without the catalecticant, one diff_action per operator.

    (p m_v) applied to F is the coefficient of p applied to F at v times v!,
    so the row of p lists those over the monomials m_v of degree d-i.
    """
    field = F.field
    cols = monomials_of_degree(F.n, F.degree - i)
    rows = []
    for p in operators:
        image = diff_action(p, F.poly)
        rows.append([field.mul(image.coefficient(v), field.from_int(prod(map(factorial, v))))
                     for v in cols])
    return ExactMatrix(rows, field)


def contract_by_differentiation(g: Poly, F: DualForm) -> DualForm | None:
    """g applied to F term by term with falling factorials, or None when it vanishes."""
    image = diff_action(g, F.poly)
    return None if image.is_zero() else DualForm(image)


def hessian_by_differentiation(F: DualForm, i: int) -> list[list[Poly]]:
    """Entries (m_u m_v) applied to F over quotient_basis(F, i), one diff_action each."""
    basis = quotient_basis(F, i)
    return [[diff_action(Poly.monomial(F.n, F.field, tuple(x + y for x, y in zip(u, v))), F.poly)
             for v in basis] for u in basis]


def hessian_at_by_evaluation(F: DualForm, i: int, point) -> ExactMatrix:
    """The i-th Hessian with each differentiated entry evaluated term by term at the point."""
    field = F.field
    rows = []
    for row in hessian_by_differentiation(F, i):
        values = []
        for entry in row:
            total = field.zero
            for exp, c in entry.terms.items():
                for x, e in zip(point, exp):
                    for _ in range(e):
                        c = field.mul(c, x)
                total = field.add(total, c)
            values.append(total)
        rows.append(values)
    return ExactMatrix(rows, field)


def hf_by_kernels(F: DualForm) -> tuple[int, ...]:
    """Hilbert function as rank of the differentiation maps, degree by degree."""
    return tuple(differentiation_matrix(F, i).rank() for i in range(F.degree + 1))


def ann_dimension_by_kernel(F: DualForm, i: int) -> int:
    """dim [Ann F]_i as the kernel dimension of the differentiation map."""
    m = differentiation_matrix(F, i)
    return m.rows - m.rank()


def mult_rank_by_pairing(F: DualForm, ell: Poly, i: int, k: int = 1) -> int:
    """Rank of x ell^k : [A]_i -> [A]_{i+k} via the perfect pairing.

    The image is spanned by ell^k * m_u over a quotient basis of [A]_i, and
    its dimension is the rank of the pairing of those elements against a
    spanning set of [A]_{d-i-k}; every entry is one full contraction
    (ell^k * m_u * m_w) o F = m_w o ((ell^k * m_u) o F), computed with
    polynomial arithmetic: w! times the coefficient at w of the form
    (ell^k * m_u) o F, which one diff_action per row gives.  The rows are
    ranked by textbook Gauss-Jordan, not by the library's elimination: for
    k = d - 2i the matrix is symmetric, as is the block `slp_check` ranks.
    """
    field = F.field
    d = F.degree
    src = quotient_basis(F, i)
    pair = quotient_basis(F, d - i - k)
    lk = ell ** k
    rows = []
    for u in src:
        image = diff_action(lk * Poly.monomial(F.n, field, u), F.poly)
        rows.append([field.mul(image.coefficient(w), field.from_int(prod(map(factorial, w))))
                     for w in pair])
    return len(column_rank_profile(rows, field.p if isinstance(field, PrimeField) else None))


def lefschetz_search_by_pairing(F: DualForm, h, maps: list[tuple[int, int]], trials: int,
                                seed: int):
    """The seeded trial loop of `wlp_check` and `slp_check`, every map ranked by the pairing.

    Trial t draws ell = random_linear_form(n, field, Random(s_t)), s_t the
    t-th `getrandbits(63)` of Random(seed), and ranks x ell^k on every map
    (i, k) by `mult_rank_by_pairing` against min(h_i, h_(i+k)), where h is
    F's h-vector as the caller found it (`hf_by_kernels`).  Returns (ranks
    by map, misses, trials used, certificate trial, certificate form): the
    first ell of maximal rank on every map gives its own ranks, no misses,
    its index and its text; without one, the best rank per map and the
    sorted maps that some trial left deficient, with no certificate.
    """
    master = random.Random(seed)
    best = dict.fromkeys(maps, 0)
    misses: set[tuple[int, int]] = set()
    for t in range(trials):
        ell = random_linear_form(F.n, F.field, random.Random(master.getrandbits(63)))
        ranks = {(i, k): mult_rank_by_pairing(F, ell, i, k) for i, k in maps}
        bad = {(i, k) for i, k in maps if ranks[(i, k)] < min(h[i], h[i + k])}
        if not bad:
            return ranks, (), t + 1, t, format_poly(ell, var="x")
        best = {m: max(best[m], ranks[m]) for m in maps}
        misses |= bad
    return best, tuple(sorted(misses)), trials, None, None


def snake_ranks_naive(F: DualForm, g: Poly, ell: Poly) -> list[tuple[int, int, int]]:
    """(rank_b, rank_a, rank_c) of the snake ledger for degrees i = 0..d.

    rank_a and rank_b are multiplication ranks by the perfect pairing on A
    and on B = A/(0 : g), presented by g applied to F; rank_c is the
    dimension the span of ell * x^u gains in [A]_{i+1} over the span of
    g * x^w, both measured with `pairing_rows_naive`.
    """
    field = F.field
    d = F.degree
    s = g.degree()
    B = contract_by_differentiation(g, F)

    def span(ops, j):
        return pairing_rows_naive(F, ops, j).rank() if ops else 0

    def times(p, j):
        return [p * Poly.monomial(F.n, field, m) for m in monomials_of_degree(F.n, j)]

    out = []
    for i in range(d + 1):
        rank_a = mult_rank_by_pairing(F, ell, i) if i < d else 0
        j = i - s
        rank_b = mult_rank_by_pairing(B, ell, j) if B is not None and 0 <= j < B.degree else 0
        rank_c = 0
        if i < d:
            g_ops = times(g, i + 1 - s) if i + 1 >= s else []
            rank_c = span(times(ell, i) + g_ops, i + 1) - span(g_ops, i + 1)
        out.append((rank_b, rank_a, rank_c))
    return out


def substitute_naively(matrix, field, p: Poly) -> Poly:
    """p with x_i replaced by sum_j matrix[i][j] x_j, the slow way.

    Every monomial is expanded as the product of its linear factors, taken
    one at a time with plain `*`: no cached powers, no squaring, and the
    terms are summed with `+`.
    """
    n = len(matrix)
    images = []
    for row in matrix:
        terms = {tuple(int(k == j) for k in range(n)): c for j, c in enumerate(row) if c}
        images.append(Poly(n, field, terms))
    result = Poly.zero(n, field)
    for exp, c in p.terms.items():
        term = Poly.constant(n, field, c)
        for image, e in zip(images, exp):
            for _ in range(e):
                term = term * image
        result = result + term
    return result


def ell_divides_by_substitution(ell: Poly, g: Poly) -> bool:
    """Whether the linear form ell divides the form g, by restricting g to ell = 0.

    x_e, for the last variable with ell_e != 0, is replaced by
    -sum_{f != e} (ell_f / ell_e) x_f with `substitute_naively`, every other
    variable by itself; R / (ell) is the ring of the other variables, so ell
    divides g exactly when the result is zero.
    """
    field, n = g.field, g.n
    coords = [ell.coefficient(tuple(int(k == j) for k in range(n))) for j in range(n)]
    e = max(j for j in range(n) if coords[j])
    matrix = [[field.one if k == j else field.zero for k in range(n)] for j in range(n)]
    matrix[e] = [field.zero if k == e else field.neg(field.div(coords[k], coords[e]))
                 for k in range(n)]
    return substitute_naively(matrix, field, g).is_zero()


def in_span_of_ann(F: DualForm, p: Poly, i: int) -> bool:
    """Whether a degree-i operator lies in the span of the annihilator piece."""
    field = F.field
    mons = monomials_of_degree(F.n, i)
    col = {m: j for j, m in enumerate(mons)}
    basis = ann_degree(F, i)

    def vec(q: Poly):
        v = [field.zero] * len(mons)
        for e, c in q.terms.items():
            v[col[e]] = c
        return v

    rows = [vec(q) for q in basis]
    before = ExactMatrix(rows, field).rank() if rows else 0
    after = ExactMatrix(rows + [vec(p)], field).rank()
    return after == before


# -- plain matrix oracles --------------------------------------------------------


def column_rank_profile(entries, p: int | None = None) -> list[int]:
    """Pivot columns of the reduced row echelon form, by textbook Gauss-Jordan."""
    return reduced_row_echelon(entries, p)[0]


def reduced_row_echelon(entries, p: int | None = None) -> tuple[list[int], list[list]]:
    """(pivot columns, nonzero rows) of the reduced row echelon form, by textbook Gauss-Jordan.

    Over QQ (p None) every entry is a Fraction; over F_p an int reduced mod p
    after every operation.  Each pivot row is divided by its pivot and the
    pivot column is cleared in every other row.
    """
    if p is None:
        norm, inverse = Fraction, lambda x: 1 / x
    else:
        norm, inverse = (lambda x: x % p), (lambda x: pow(x, p - 2, p))
    m = [[norm(x) for x in row] for row in entries]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        candidates = [i for i in range(r, len(m)) if m[i][c] != 0]
        if not candidates:
            continue
        m[r], m[candidates[0]] = m[candidates[0]], m[r]
        s = inverse(m[r][c])
        m[r] = [norm(x * s) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [norm(a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[:len(pivots)]


def cleared_row(row) -> list[int]:
    """A row of rationals times the lcm of its denominators: integers with the same row space."""
    scale = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * scale) for x in row]


def leibniz_det(entries, p: int | None = None):
    """Determinant as the signed sum over all permutations (mod p when given).

    Each row is first multiplied by the lcm of its entries' denominators, so
    the sum runs over ints, and the product of those lcms divides it once at
    the end.
    """
    n = len(entries)
    scales = [lcm(*(Fraction(x).denominator for x in row)) for row in entries]
    rows = [[int(Fraction(x) * s) for x in row] for row, s in zip(entries, scales)]
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    det = Fraction(total, prod(scales))
    return det if p is None else int(det) % p


# -- binary forms over F_p in a random chart ----------------------------------

# univariate polynomials over F_p as coefficient lists, low degree first


def _utrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _uderiv(c, p):
    return _utrim([(j * c[j]) % p for j in range(1, len(c))])


def _umonic(c, p):
    return [x * pow(c[-1], p - 2, p) % p for x in c] if c else c


def _udivmod(a, b, p):
    a = a[:]
    out = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        f = a[-1] * inv % p
        shift = len(a) - len(b)
        out[shift] = f
        for j in range(len(b)):
            a[shift + j] = (a[shift + j] - f * b[j]) % p
        _utrim(a)
    return _utrim(out), a


def _ugcd(a, b, p):
    """Monic gcd by Euclid's algorithm."""
    a, b = _utrim(a[:]), _utrim(b[:])
    while b:
        a, b = b, _udivmod(a, b, p)[1]
    return _umonic(a, p)


def yun_signature(c, p) -> tuple[int, ...]:
    """Multiplicity signature of Yun's squarefree decomposition c = unit * prod a_j^j.

    Entry j-1 is the degree of a_j; valid when p exceeds the degree.
    """
    f = _umonic(_utrim(c[:]), p)
    degree = len(f) - 1
    sig = [0] * degree
    d = _uderiv(f, p)
    a = _ugcd(f, d, p)
    b = _udivmod(f, a, p)[0]
    cpart = _udivmod(d, a, p)[0]
    j = 1
    while len(b) > 1:
        db = _uderiv(b, p)
        diff = _utrim([
            ((cpart[k] if k < len(cpart) else 0) - (db[k] if k < len(db) else 0)) % p
            for k in range(max(len(cpart), len(db), 1))
        ])
        aj = _ugcd(b, diff, p)
        sig[j - 1] += len(aj) - 1
        b = _udivmod(b, aj, p)[0]
        cpart = _udivmod(diff, aj, p)[0]
        j += 1
        if j > degree + 1:
            raise InternalInconsistencyError("squarefree decomposition failed to terminate")
    return tuple(sig)


def poly_det(entries, n: int, field) -> Poly:
    """Leibniz determinant of a small matrix of polynomials."""
    size = len(entries)
    total = Poly.zero(n, field)
    for perm in permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Poly.constant(n, field, field.one if sign > 0 else field.neg(field.one))
        for i in range(size):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def pencil_form(m1, m2, field) -> list[list[Poly]]:
    """Matrix with binary-form entries alpha*m1 + beta*m2."""
    out = []
    for row1, row2 in zip(m1, m2):
        row = []
        for a, b in zip(row1, row2):
            terms = {}
            if not field.is_zero(a):
                terms[(1, 0)] = a
            if not field.is_zero(b):
                terms[(0, 1)] = b
            row.append(Poly(2, field, terms))
        out.append(row)
    return out


def binary_signature_by_random_chart(form: Poly, rng: random.Random):
    """Squarefree signature of a binary form, or None for the zero form.

    A random coordinate change moves all roots away from infinity before
    dehomogenizing, so the signature is that of the projective root divisor.
    """
    if form.is_zero():
        return None
    field = form.field
    e = form.degree()
    for _ in range(8):
        t = random_linear_change(2, field, rng).apply(form)
        univ = [t.terms.get((e - j, j), 0) for j in range(e + 1)][::-1]
        if univ[-1] != 0:
            return yun_signature(univ, field.p)
    raise InternalInconsistencyError("failed to dehomogenize a binary form")


def rank_one_locus_by_random_chart(pencil, field, rng: random.Random) -> int:
    """Number of distinct rank-<=1 members of a pencil of symmetric matrices.

    The degree of the squarefree part of the gcd of all 2x2 minors along the
    pencil, after a shared random change keeps every root off infinity.
    """
    p = field.p
    entries = pencil_form(*pencil, field)
    size = len(entries)
    minors = [
        entries[r1][c1] * entries[r2][c2] - entries[r1][c2] * entries[r2][c1]
        for r1 in range(size) for r2 in range(r1 + 1, size)
        for c1 in range(size) for c2 in range(c1 + 1, size)
    ]
    minors = [m for m in minors if not m.is_zero()]
    if not minors:
        raise InternalInconsistencyError("pencil of quadrics is entirely rank one")
    for _ in range(8):
        g = random_linear_change(2, field, rng)
        univs = []
        for minor in minors:
            t = g.apply(minor)
            univs.append(_utrim([t.terms.get((2 - j, j), 0) for j in range(3)][::-1]))
        if any(len(u) < 3 for u in univs):
            continue  # the change sent a root of some minor to infinity
        common = univs[0]
        for u in univs[1:]:
            common = _ugcd(common, u, p)
        common = _utrim(common[:])
        if len(common) == 1:
            return 0
        repeated = _ugcd(common, _uderiv(common, p), p)
        return (len(common) - 1) - (len(repeated) - 1)
    raise InternalInconsistencyError("failed to normalize the rank-one locus")


def dual_pencil_by_substitution(web: QuadricWeb, k):
    """The dual pencil of a web with common kernel k, by substituting coordinates.

    x -> M x with M = [e_j for j != pivot | k] moves k to the last variable,
    which then drops out of every quadric (each expanded with
    `LinearChange.apply`).  The dual pencil is the kernel of the
    factorial-weighted degree-2 rows of the three-variable quadrics, each
    kernel vector read back as the symmetric matrix of a quadric.  None when
    that kernel does not have dimension two.
    """
    field = web.field
    pivot = next(i for i, x in enumerate(k) if not field.is_zero(x))
    others = [j for j in range(4) if j != pivot]
    matrix = [[field.one if i == j else field.zero for j in others] + [k[i]] for i in range(4)]
    change = LinearChange(matrix, field)
    reduced = []
    for q in web.quadrics:
        t = change.apply(q)
        if any(e[3] for e in t.terms):
            raise InternalInconsistencyError("kernel reduction left a trailing variable")
        reduced.append(Poly(3, field, {e[:3]: c for e, c in t.terms.items()}))
    mons, rows = ideal_rows_densely(reduced, 2, weighted=True)
    kernel = ExactMatrix(rows, field).kernel_basis()
    if len(kernel) != 2:
        return None
    return _symmetric_matrices(
        [Poly(3, field, {w: c for w, c in zip(mons, v) if c}) for v in kernel], 3)


def pencil_signature_by_random_pencil(web: QuadricWeb, rng: random.Random):
    """Squarefree signature of the determinant along a random pencil of the web.

    Two random members of the web's symmetric matrices span the pencil; its
    determinant is expanded as a binary form by the Leibniz formula over
    polynomials and split in a random chart (not read off the h-vector of
    the determinantal quartic).  None when eight pencils all have a zero
    member or a zero determinant.
    """
    field = web.field
    mats = _symmetric_matrices(web.quadrics, 4)
    for _ in range(8):
        members = []
        for _ in range(2):
            coeffs = [field.rand(rng) for _ in range(4)]
            members.append([[sum(c * s[i][j] for c, s in zip(coeffs, mats)) % field.p
                             for j in range(4)] for i in range(4)])
        if not all(any(map(any, m)) for m in members):
            continue
        det = poly_det(pencil_form(*members, field), 2, field)
        sig = binary_signature_by_random_chart(det, rng)
        if sig is not None:
            return sig
    return None


def gin2_by_sampling(web: QuadricWeb, trials: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Degree-2 lex gin of a web as the lex-greatest pivot set over random changes.

    Per trial, a random coordinate change is applied, the four transformed
    quadrics are row-reduced against the lex-descending degree-2 monomial
    columns, and the pivot columns are read off; the outcome with the
    smallest column index tuple wins.  It is the gin with high probability
    over a large field, not over a small one.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    master = random.Random(seed)
    best = None
    for _ in range(trials):
        g = random_linear_change(4, web.field, random.Random(master.getrandbits(63)))
        pivots = tuple(web.transformed(g).coefficient_matrix().pivot_columns())
        if len(pivots) < 4:
            raise InternalInconsistencyError("independent web lost rank under a coordinate change")
        if best is None or pivots < best:
            best = pivots
    mons = monomials_of_degree(4, 2)
    return tuple(mons[c] for c in best)


def gin2_by_exhaustion(web: QuadricWeb) -> tuple[tuple[int, ...], ...]:
    """Degree-2 lex gin of a web over a small prime field, by walking every first column.

    Under x -> M x the coefficients of x_1 x_j in the transformed quadrics
    form M^T [S_1 v | .. | S_4 v], v the first column of M, so whether they
    have rank four depends on v alone; M = [v | e_j for j != i], i the first
    nonzero index of v, is invertible.  Every projective v is tried; the gin
    is generic when one of them makes x_1^2, .., x_1 x_4 the pivots, special
    otherwise.  Exact for p > 4, where a nonzero quartic does not vanish on
    all of F_p^4.
    """
    field = web.field
    p = field.p
    for i in range(4):
        for tail in product(range(p), repeat=3 - i):
            v = [0] * i + [1, *tail]
            matrix = [[v[r]] + [int(r == j) for j in range(4) if j != i] for r in range(4)]
            change = LinearChange(matrix, field)
            if web.transformed(change).coefficient_matrix().pivot_columns() == [0, 1, 2, 3]:
                return GENERIC_GIN2
    return SPECIAL_GIN2


def quadric_ideal_hf_by_ranks(web: QuadricWeb, up_to: int) -> tuple[int, ...]:
    """Hilbert function of a web ideal from the rank of its ideal matrix in each degree.

    Degree i has comb(i + 3, 3) monomials less the rank of the rows q * x^w,
    over every web quadric q and monomial x^w of degree i - 2: the whole
    ideal in that degree, not the inverse system prolonged from the last.
    """
    out = [1, 4]
    for i in range(2, up_to + 1):
        rows = ideal_rows_densely(web.quadrics, i)[1]
        out.append(comb(i + 3, 3) - ExactMatrix(rows, web.field).rank())
    return tuple(out)


def ideal_rows_densely(quadrics, degree: int, weighted: bool = False):
    """The degree-`degree` monomials and the dense rows of q * x^w over them.

    One row per quadric q and monomial x^w of degree `degree` - 2: the
    coefficient of q * x^w at every monomial, a zero wherever it has no
    term, and with `weighted` the one at v times v! in the field.
    """
    field = quadrics[0].field
    n = quadrics[0].n
    mons = monomials_of_degree(n, degree)
    rows = []
    for q in quadrics:
        for w in monomials_of_degree(n, degree - 2):
            shifted = {tuple(a + b for a, b in zip(e, w)): c for e, c in q.terms.items()}
            rows.append([field.mul(shifted[v], field.from_int(prod(map(factorial, v))))
                         if weighted and v in shifted else shifted.get(v, field.zero)
                         for v in mons])
    return mons, rows


# -- lex-segment oracles for the growth bounds --------------------------------


def _lex_segment(n: int, i: int):
    """Smallest fitting ambient, its degree-i monomials, and the top segment."""
    v = 1
    while comb(v + i - 1, i) < n:
        v += 1
    mons = monomials_of_degree(v, i)  # already descending lex
    cut = len(mons) - n
    return v, mons[:cut], mons[cut:]


def macaulay_growth_by_lex_segment(n: int, i: int) -> int:
    """Maximal next-degree dimension, counted on the lex-segment ideal."""
    if n == 0:
        return 0
    v, ideal, _ = _lex_segment(n, i)
    count = 0
    for m in monomials_of_degree(v, i + 1):
        if not any(all(a >= b for a, b in zip(m, g)) for g in ideal):
            count += 1
    return count


def green_restriction_by_lex_segment(n: int, i: int) -> int:
    """Dimension after restriction to a hyperplane, counted on the lex segment.

    For the lex segment the generic hyperplane can be taken to be the last
    variable: the restricted dimension is the number of complement monomials
    not involving it.
    """
    if n == 0:
        return 0
    _, _, complement = _lex_segment(n, i)
    return sum(1 for m in complement if m[-1] == 0)


def all_binomial_decompositions(n: int, i: int):
    """Every decomposition n = sum C(n_k, k) with strictly decreasing tops
    and bottoms descending one by one from i."""
    results = []

    def rec(remaining, bot, max_top, parts):
        if remaining == 0:
            results.append(tuple(parts))
            return
        if bot < 1:
            return
        top = bot
        while top < max_top and comb(top, bot) <= remaining:
            rec(remaining - comb(top, bot), bot - 1, top, parts + [(top, bot)])
            top += 1

    rec(n, i, 10**9, [])
    return results


# -- random inputs -------------------------------------------------------------


def random_form(n: int, d: int, field, rng: random.Random, density: float = 0.7) -> DualForm:
    """A random nonzero homogeneous form with the given shape."""
    mons = monomials_of_degree(n, d)
    while True:
        terms = {}
        for m in mons:
            if rng.random() < density:
                c = field.rand(rng)
                if c:
                    terms[m] = c
        if terms:
            return DualForm(Poly(n, field, terms))


def random_linear_change(n: int, field, rng: random.Random) -> LinearChange:
    """A uniformly random invertible change of coordinates (resampled until invertible)."""
    if not isinstance(field, PrimeField):
        raise ValueError("random coordinate changes require a prime field")
    while True:
        m = [[field.rand(rng) for _ in range(n)] for _ in range(n)]
        try:
            return LinearChange(m, field)
        except ValueError:  # singular: draw again
            pass


def random_operator(n: int, d: int, field, rng: random.Random) -> Poly:
    """A random nonzero homogeneous operator polynomial."""
    return random_form(n, d, field, rng).poly


# -- polynomial text, one character per method call -------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect_int(self, what: str) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            raise ParseError(f"expected {what}", self.pos)
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])


def parse_poly_by_scanner(text: str, n: int, field=QQ) -> Poly:
    """The grammar of `apolar.parse_poly`, read by a hand-written scanner."""
    sc = _Scanner(text)
    terms: dict = {}
    sc.skip_ws()
    if sc.pos == len(text):
        raise ParseError("empty input", 0)
    first = True
    while True:
        sign = 1
        if sc.peek() in "+-":
            if sc.peek() == "-":
                sign = -1
            sc.pos += 1
            sc.skip_ws()
        elif not first:
            raise ParseError("expected '+' or '-' between terms", sc.pos)
        exp, coeff = _scan_term(sc, n, field, sign)
        terms[exp] = field.add(terms.get(exp, field.zero), coeff)
        first = False
        sc.skip_ws()
        if sc.pos == len(text):
            return Poly(n, field, terms)
        if sc.peek() not in "+-":
            raise ParseError(f"unexpected character {sc.peek()!r}", sc.pos)


def _scan_term(sc: _Scanner, n: int, field, sign: int):
    sc.skip_ws()
    coeff = field.one
    have_coeff = False
    if sc.peek().isdigit() or sc.peek() == "-":
        num = sc.expect_int("coefficient")
        den = 1
        if sc.peek() == "/":
            sc.pos += 1
            den_pos = sc.pos
            den = sc.expect_int("denominator")
            if den <= 0:
                raise ParseError("denominator must be positive", den_pos)
        try:
            coeff = field.from_fraction(num, den)
        except ZeroDivisionError:
            raise ParseError("denominator vanishes in this field", sc.pos) from None
        have_coeff = True
    exp = [0] * n
    have_factor = False
    while True:
        sc.skip_ws()
        if have_coeff or have_factor:
            if sc.peek() != "*":
                break
            sc.pos += 1
            sc.skip_ws()
        if sc.peek() not in ("X", "x"):
            if have_factor or have_coeff:
                raise ParseError("expected a variable after '*'", sc.pos)
            raise ParseError("expected a coefficient or a variable", sc.pos)
        sc.pos += 1
        idx_pos = sc.pos
        index = sc.expect_int("variable index")
        if not 1 <= index <= n:
            raise ParseError(f"variable index {index} out of range 1..{n}", idx_pos)
        power = 1
        if sc.peek() == "^":
            sc.pos += 1
            pow_pos = sc.pos
            power = sc.expect_int("exponent")
            if power <= 0:
                raise ParseError("exponent must be positive", pow_pos)
        exp[index - 1] += power
        have_factor = True
    if sign < 0:
        coeff = field.neg(coeff)
    return tuple(exp), coeff
