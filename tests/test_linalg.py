import random
import re
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from apolar import (
    GF,
    QQ,
    ExactMatrix,
    LinearChange,
    Poly,
    PrimeField,
    monomials_of_degree,
    parse_poly,
)
from apolar import fields, linalg
from oracles import cleared_row, column_rank_profile, leibniz_det

FP = GF()


def test_identity_rank():
    m = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], FP)
    assert m.rank() == 3


def test_zero_rank():
    assert ExactMatrix([[0, 0], [0, 0]], FP).rank() == 0


def test_antidiagonal():
    assert ExactMatrix([[0, 1], [1, 0]], FP).rank() == 2


def test_rational_rank_uses_exact_arithmetic():
    # a matrix that defeats floating point: tiny pivot differences
    m = ExactMatrix(
        [[Fraction(1, 3), Fraction(1, 7)],
         [Fraction(2, 6), Fraction(2, 14)]], QQ)
    assert m.rank() == 1


def _low_rank(rng: random.Random, rows: int, cols: int, r: int) -> list[list[int]]:
    """A rows x cols integer matrix of rank at most r, as a product of two factors."""
    a = [[rng.randrange(-3, 4) for _ in range(r)] for _ in range(rows)]
    b = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(r)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _web_ideal_quintics() -> list[list[int]]:
    """The 80 x 56 matrix of q * m for a conjugate of the web (x1, x2)(x3, x4).

    Rows run over the four quadrics times the 20 cubic monomials, columns
    over the 56 quintic monomials; the rank is 56 - 12 = 44.
    """
    change = LinearChange([[1, 2, 0, -1], [0, 1, 3, 1], [2, 0, 1, 0], [1, -1, 0, 2]], QQ)
    quadrics = [change.apply(parse_poly(t, 4, QQ))
                for t in ("x1*x3", "x1*x4", "x2*x3", "x2*x4")]
    col = {m: j for j, m in enumerate(monomials_of_degree(4, 5))}
    rows = []
    for q in quadrics:
        for m in monomials_of_degree(4, 3):
            row = [0] * len(col)
            for e, c in (q * Poly.monomial(4, QQ, m)).terms.items():
                row[col[e]] = int(c)
            rows.append(row)
    return rows


def test_bareiss_agrees_with_modular_on_integer_matrices():
    rng = random.Random(5)
    inputs = []
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        inputs.append([[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])
    # tall and rank-deficient, where elimination runs out of pivots early
    for rows, cols, r in ((12, 5, 3), (20, 8, 1), (30, 12, 7), (40, 10, 10)):
        inputs.append(_low_rank(rng, rows, cols, r))
    web = _web_ideal_quintics()
    assert (len(web), len(web[0])) == (80, 56)
    inputs.append(web)
    for ints in inputs:
        rq = ExactMatrix([[Fraction(x) for x in row] for row in ints], QQ).rank()
        rp = ExactMatrix([[x % FP.p for x in row] for row in ints], FP).rank()
        assert rq == rp


def test_det_exact():
    m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]], QQ)
    # Bareiss eliminates in place, so a second call sees whether it had a copy
    assert [m.det(), m.det()] == [Fraction(1, 10) - Fraction(1, 12)] * 2
    mp = ExactMatrix([[3, 1], [4, 2]], GF(101))
    assert mp.det() == 2


def test_det_requires_square():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2, 3]], FP).det()


def test_kernel_basis():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6]], FP)
    kernel = m.kernel_basis()
    assert len(kernel) == 2
    for v in kernel:
        for row in m.entries:
            assert sum(a * b for a, b in zip(row, v)) % FP.p == 0


def test_pivot_columns():
    m = ExactMatrix([[0, 1, 2], [0, 2, 4], [0, 0, 5]], FP)
    assert m.pivot_columns() == [1, 2]


@pytest.mark.parametrize("entries, rank, det, pivots, kernel", [
    ([[7, 1], [1, 0]], 2, 6, [0, 1], []),
    ([[1, 1], [1, 8]], 1, 0, [0], [[6, 1]]),
    ([[-1, 3], [2, -6]], 1, 0, [0], [[3, 1]]),
])
def test_unreduced_entries_mean_their_residues(entries, rank, det, pivots, kernel):
    m = ExactMatrix(entries, GF(7))
    assert (m.rank(), m.det(), m.pivot_columns(), m.kernel_basis()) == (rank, det, pivots, kernel)


@pytest.mark.parametrize("field, entries, message", [
    (GF(7), [[Fraction(1, 2), 1], [1, 1]], "entry Fraction(1, 2) at row 0, column 0 is not an int"),
    (GF(7), [[1, 1], [1, 0.5]], "entry 0.5 at row 1, column 1 is not an int"),
    (GF(7), [[1, 2], [0, Fraction(7, 1)]], "entry Fraction(7, 1) at row 1, column 1 is not an int"),
    (FP, [[1, 2, "3"]], "entry '3' at row 0, column 2 is not an int"),
    (QQ, [[Fraction(1, 2), 1], [1, 0.5]],
     "entry 0.5 at row 1, column 1 is not an int or a Fraction"),
    (QQ, [[0.0, 1]], "entry 0.0 at row 0, column 0 is not an int or a Fraction"),
    # over F_p zeros are checked too, so an inexact zero never reaches the packer
    (GF(7), [[0.0, 1, 1], [1, 1, 2], [1, 2, 1]], "entry 0.0 at row 0, column 0 is not an int"),
    (GF(7), [[1, 1], [1, QQ.zero]], "entry Fraction(0, 1) at row 1, column 1 is not an int"),
])
def test_constructor_rejects_inexact_entries(field, entries, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExactMatrix(entries, field)


@st.composite
def field_matrices(draw, singletons: bool = False):
    """A field and a matrix of up to 7 x 7 over it, often a low-rank product.

    QQ entries mix plain ints with fractions, and over QQ each row is then
    divided by a denominator of its own, unrelated to the others'; F_p
    entries are raw ints, many of them outside [0, p) and, over GF(7), many
    vanishing mod p.  Half the entries are zero, so that pivots meet zeros
    in the rows around them.  With `singletons`, some rows are then
    replaced by rows with one nonzero, each perhaps with a cascade row: two
    nonzeros, one of them in the singleton's column, so that it becomes a
    singleton once that is peeled.
    """
    field = draw(st.sampled_from([QQ, GF(7), FP]))
    p = field.p if isinstance(field, PrimeField) else None
    if field == QQ:
        entry = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9),
                                                        st.integers(1, 6)))
    elif field == FP:
        entry = st.one_of(st.integers(-20, 20), st.integers(0, FP.p - 1))
    else:
        entry = st.integers(-20, 20)
    nonzero = entry.filter(lambda x: x % p != 0 if p else x != 0)
    entry = st.one_of(st.just(0), entry)
    rows = draw(st.integers(1, 7))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 7)))

    def block(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        m = block(rows, cols)
    else:
        r = draw(st.integers(0, min(rows, cols)))
        a, b = block(rows, r), block(r, cols)
        m = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(cols)] for i in range(rows)]
    if singletons:
        row, col = st.integers(0, rows - 1), st.integers(0, cols - 1)
        for _ in range(draw(st.integers(1, rows))):
            i, c = draw(row), draw(col)
            m[i] = [0] * cols
            m[i][c] = draw(nonzero)
            k, c2 = draw(row), draw(col)
            if k != i and c2 != c and draw(st.booleans()):
                m[k] = [0] * cols
                m[k][c], m[k][c2] = draw(nonzero), draw(nonzero)
    if field == QQ:
        dens = st.sampled_from([1, 1, 5, 7, 11, 13, 49])
        m = [[x if d == 1 else Fraction(x) / d for x in row] for row, d in
             zip(m, (draw(dens) for _ in m))]
    return field, m


@settings(max_examples=400, deadline=None)
@given(st.one_of(field_matrices(), field_matrices(singletons=True)))
# each row over its own prime: over their lcm every row carries the other
# four primes, which Bareiss would carry into every minor
@example((QQ, [[Fraction(x, q) for x in row] for row, q in zip(
    [[3, -1, 4, 1, -5], [9, 2, -6, 5, 3], [-5, 8, 9, 7, 9], [3, 2, -3, 8, 4], [6, -2, 6, 4, 3]],
    [101, 103, 107, 109, 113])]))
def test_derived_operations_agree_with_oracles(case):
    field, entries = case
    p = field.p if isinstance(field, PrimeField) else None

    def reduce(x):
        return x if p is None else x % p

    m = ExactMatrix(entries, field)
    pivots = m.pivot_columns()
    rank = m.rank()
    assert rank == len(pivots) == ExactMatrix(list(map(list, zip(*entries))), field).rank()
    assert pivots == column_rank_profile(entries, p)
    free = [c for c in range(m.cols) if c not in pivots]
    kernel = m.kernel_basis()
    assert len(kernel) == m.cols - rank
    for fc, v in zip(free, kernel):
        assert [reduce(sum(a * x for a, x in zip(row, v))) for row in entries] == [0] * m.rows
        assert [v[c] for c in free] == [int(c == fc) for c in free]
    assert m.entries == [[reduce(x) for x in row] for row in entries]
    if m.rows != m.cols:
        return
    n = m.rows
    det = m.det()
    assert det == leibniz_det(entries, p)
    if det == 0:
        return
    # the reduced form of [M | I]: its kernel is spanned by (-M^-1 e_j, e_j)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    kernel = ExactMatrix([row + u for row, u in zip(entries, unit)], field).kernel_basis()
    assert [v[n:] for v in kernel] == unit
    product = [[reduce(-sum(entries[i][k] * v[k] for k in range(n))) for v in kernel]
               for i in range(n)]
    assert product == unit


@settings(max_examples=200, deadline=None)
@given(field_matrices(singletons=True), st.sampled_from([2, 6]))
def test_sparse_rows_agree_with_dense_rows(case, scale):
    # the same integer rows given as {column: entry} maps, as the term-built
    # catalecticant and the inverse-system rows give them, and given dense;
    # over QQ they are put over `scale` times the lcm of the denominators,
    # so that den > 1
    field, entries = case
    if field == QQ:
        den = scale * lcm(*(Fraction(x).denominator for row in entries for x in row))
        ints = [[int(Fraction(x) * den) for x in row] for row in entries]
    else:
        den, ints = 1, [[x % field.p for x in row] for row in entries]
    cols = len(ints[0])
    sparse = ExactMatrix._sparse([{c: x for c, x in enumerate(row) if x} for row in ints], cols,
                                 den, field)
    dense = ExactMatrix._integral(ints, den, field)
    assert sparse.rank() == dense.rank()
    assert sparse.pivot_columns() == dense.pivot_columns()
    assert sparse.kernel_basis() == dense.kernel_basis()
    if sparse.rows == cols:
        assert sparse.det() == dense.det()
    assert sparse._rows is None  # none of them built the dense rows
    assert sparse == dense
    # stacked on a dense block over another denominator, as the snake
    # ledger stacks a term-built catalecticant on a cell-built one
    other = ExactMatrix._integral([[1] * cols, [0] * (cols - 1) + [3]], 1 if den == 1 else 5, field)
    assert ExactMatrix._stacked([sparse, other]) == ExactMatrix._stacked([dense, other])
    rank = ExactMatrix._stacked([other, dense]).rank()
    assert ExactMatrix._stacked([other, sparse]).rank() == rank


def _stress_matrix(kind: str, p: int, rng: random.Random) -> list[list[int]]:
    """Matrices mod p large enough to fill many slots of a packed row."""

    def dense(rows, cols):
        return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]

    def product(rows, cols, r):
        a, b = dense(rows, r), dense(r, cols)
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]

    if kind == "square":
        return dense(60, 60)
    if kind == "tall":
        return dense(60, 24)
    if kind == "wide":
        return dense(24, 60)
    if kind == "tall low rank":
        return product(60, 30, 9)
    if kind == "wide low rank":
        return product(30, 60, 12)
    if kind == "all p-1":
        return [[p - 1] * 40 for _ in range(40)]
    if kind == "zero rows and columns":
        inner = dense(30, 30)
        return [[inner[i // 2][j // 2] if i % 2 == 0 and j % 2 == 1 else 0 for j in range(60)]
                for i in range(60)]
    if kind == "singleton cascade":
        # rows 0..29 peel one after another: row 0 has one nonzero, and row k
        # shares a column with row k - 1 and has one other; the other 30 rows
        # are dense, and every row and column sits at a shuffled place
        order, cols = list(range(60)), list(range(60))
        rng.shuffle(order)
        rng.shuffle(cols)
        m = [[0] * 60 for _ in range(60)]
        for k in range(30):
            m[order[k]][cols[k]] = rng.randrange(1, p)
            if k:
                m[order[k]][cols[k - 1]] = rng.randrange(1, p)
        for k in range(30, 60):
            m[order[k]] = [rng.randrange(p) for _ in range(60)]
        return m
    # L U with L unit lower triangular, every entry below the diagonal p - 1,
    # and U all ones on and above the diagonal: each elimination step adds
    # (p - 1)^2 to every slot right of the pivot, the largest growth there is
    assert kind == "largest growth"
    return [[(int(j >= i) + (p - 1) * min(i, j + 1)) % p for j in range(60)] for i in range(60)]


STRESS_KINDS = ["square", "tall", "wide", "tall low rank", "wide low rank", "all p-1",
                "zero rows and columns", "largest growth", "singleton cascade"]


def _largest_prime_below(bound: int) -> int:
    q = bound - 1 - bound % 2
    while not fields._is_prime(q):
        q -= 2
    return q


# 2^64 + 13 is packed with `to_bytes` and folded wider than 64 bits; the
# 82-bit prime is the largest that GF accepts
@pytest.mark.parametrize("kind", STRESS_KINDS)
@pytest.mark.parametrize("p", [2, 3, 101, FP.p, 2**64 + 13,
                               _largest_prime_below(fields._PRIMALITY_BOUND)])
def test_packed_elimination_on_large_matrices(kind, p):
    rng = random.Random(f"{kind}:{p}")
    entries = _stress_matrix(kind, p, rng)
    m = ExactMatrix(entries, GF(p))
    pivots = m.pivot_columns()
    assert pivots == column_rank_profile(entries, p)
    assert m.rank() == len(pivots) == ExactMatrix(list(map(list, zip(*entries))), GF(p)).rank()
    if kind == "all p-1":
        assert pivots == [0]
    if kind == "largest growth":
        assert pivots == list(range(60))
    free = [c for c in range(m.cols) if c not in pivots]
    kernel = m.kernel_basis()
    assert len(kernel) == len(free)
    for fc, v in zip(free, kernel):
        assert [sum(a * x for a, x in zip(row, v)) % p for row in entries] == [0] * m.rows
        assert [v[c] for c in free] == [int(c == fc) for c in free]
    if m.rows != m.cols:
        return
    n = m.rows
    if len(pivots) < n:
        assert m.det() == 0
        return
    assert m.det() != 0
    # the reduced form of [M | I]: its kernel is spanned by (-M^-1 e_j, e_j)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    kernel = ExactMatrix([row + u for row, u in zip(entries, unit)], GF(p)).kernel_basis()
    assert [v[n:] for v in kernel] == unit
    product = [[-sum(entries[i][k] * v[k] for k in range(n)) % p for v in kernel]
               for i in range(n)]
    assert product == unit


#: The largest prime below 2^62: with min(rows, cols) in 4..7 the slot width
#: 2 bits(p) + bits(min(rows, cols)) + 1 is 128 bits, whole bytes, so the
#: packed rows have no spare bit.
TOP_OF_BRACKET = 2**62 - 57


@st.composite
def bracket_top_matrices(draw):
    """Matrices over GF(TOP_OF_BRACKET) with min(rows, cols) in 4..7 and no zero entry.

    Entries are often p - 1, the largest slot growth there is; half the
    matrices are products of a lower rank.  No entry is zero, so nothing is
    peeled and the elimination sees the whole matrix.
    """
    p = TOP_OF_BRACKET
    entry = st.one_of(st.just(p - 1), st.integers(1, p - 1))
    rows, cols = draw(st.integers(4, 7)), draw(st.integers(4, 12))
    if draw(st.booleans()):
        rows, cols = cols, rows

    def block(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        return block(rows, cols)
    r = draw(st.integers(1, min(rows, cols) - 1))
    a, b = block(rows, r), block(r, cols)
    return [[sum(a[i][k] * b[k][j] for k in range(r)) % p for j in range(cols)]
            for i in range(rows)]


@settings(max_examples=150, deadline=None)
@given(bracket_top_matrices())
def test_packed_elimination_at_the_top_of_a_slot_width(entries):
    p = TOP_OF_BRACKET
    assume(all(all(row) for row in entries))
    rows, cols = len(entries), len(entries[0])
    assert (2 * p.bit_length() + min(rows, cols).bit_length() + 1) % 8 == 0
    m = ExactMatrix(entries, GF(p))
    pivots = m.pivot_columns()
    assert pivots == column_rank_profile(entries, p)
    assert m.rank() == len(pivots)
    free = [c for c in range(cols) if c not in pivots]
    kernel = m.kernel_basis()
    assert len(kernel) == len(free)
    for fc, v in zip(free, kernel):
        assert [sum(a * x for a, x in zip(row, v)) % p for row in entries] == [0] * rows
        assert [v[c] for c in free] == [int(c == fc) for c in free]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_stacked_integral_blocks_keep_their_entries(field):
    # the blocks' denominators differ over QQ, so the top block is scaled
    den = 3 if field == QQ else 1
    top = ExactMatrix._integral([[1, 2]], den, field)
    bottom = ExactMatrix._integral([[4, 0], [1, 1]], 2 if field == QQ else 1, field)
    stacked = ExactMatrix._stacked([top, bottom])
    assert stacked == ExactMatrix(top.entries + bottom.entries, field)
    assert stacked.rank() == 2


@st.composite
def shadow_cases(draw):
    """(kind, integer rows, a denominator per row) on both sides of the shadow's cutoff.

    Every entry is nonzero, so nothing is peeled and the shadow, where it
    runs, sees the whole matrix.  `dense` rows are random; `product` plants
    a deficiency, the product of a rows x k and a k x cols matrix; `lifted`
    rows are b + p e with b such a product, k < min(rows, cols), so they are
    deficient mod the shadow's prime p = `linalg._SHADOW_PRIME` and, for
    almost every e, of full rank over QQ.
    """
    kind = draw(st.sampled_from(["dense", "product", "lifted"]))
    size = st.one_of(st.integers(1, 12), st.integers(20, 32))
    rows, cols = draw(size), draw(size)
    rng = draw(st.randoms(use_true_random=False))

    def block(r, c, low=1):
        return [[rng.randint(low, 9) for _ in range(c)] for _ in range(r)]

    if kind == "dense":
        ints = [[x if rng.random() < 0.5 else -x for x in row] for row in block(rows, cols)]
    else:
        k = draw(st.integers(0 if kind == "lifted" else 1, min(rows, cols) - (kind == "lifted")))
        a, b = block(rows, k), block(k, cols)
        ints = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)]
                for i in range(rows)]
        if kind == "lifted":
            ints = [[x + linalg._SHADOW_PRIME * e for x, e in zip(row, lift)]
                    for row, lift in zip(ints, block(rows, cols))]
    return kind, ints, [rng.randint(1, 6) for _ in range(rows)]


def _planted(rows: int, cols: int, k: int, low: int, high: int, seed: str) -> list[list[int]]:
    """The product of a rows x k and a k x cols integer matrix, entries drawn from [low, high]."""
    rng = random.Random(seed)
    a = [[rng.randint(low, high) for _ in range(k)] for _ in range(rows)]
    b = [[rng.randint(low, high) for _ in range(cols)] for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _lifted(rows: int, cols: int, k: int, seed: str) -> list[list[int]]:
    """A planted rank-k product plus p times a positive matrix, p the shadow's prime.

    Its rank is k mod p and full over QQ.
    """
    rng = random.Random(seed)
    return [[x + linalg._SHADOW_PRIME * rng.randint(1, 9) for x in row]
            for row in _planted(rows, cols, k, 1, 9, seed)]


def _dens(rows: int) -> list[int]:
    return [1 + i % 6 for i in range(rows)]


#: Deficient shadows of at least `linalg._SHADOW_CELLS` cells and their rank
#: over QQ, all mod the shadow's prime p: a rank-2 product; `lifted` rows of
#: rank 3 mod p and full rank over QQ, wide (rows < cols) and tall
#: (rows > cols); and rank-3 products of factors in [2^18, 2^19] and in
#: [2^8, 2^9].  The names say what rational reconstruction of the kernel
#: mod p would give: a kernel over QQ, vectors that are no kernel over QQ,
#: or entries n / d past sqrt(p / 2), at 2^61 - 1 too or at p only.  Each
#: takes the one route of a deficient shadow all the same: Bareiss.
SHADOW_ROUTES = {
    "certified": (("product", _planted(24, 24, 2, 1, 9, "rank two"), _dens(24)), 2),
    "lifted wide": (("lifted", _lifted(24, 30, 3, "wide"), _dens(24)), 24),
    "lifted tall": (("lifted", _lifted(30, 24, 3, "tall"), _dens(30)), 24),
    "past the bound": (("product", _planted(24, 24, 3, 2**18, 2**19, "wide entries"), _dens(24)),
                       3),
    "between the bounds": (("product", _planted(24, 24, 3, 2**8, 2**9, "mid entries"), _dens(24)),
                           3),
}


@settings(max_examples=80, deadline=None)
@given(shadow_cases())
@example(("dense", [[linalg._SHADOW_PRIME, 1]], [1]))  # pivots at column 0 over QQ, at 1 mod p
@example(SHADOW_ROUTES["certified"][0])
@example(SHADOW_ROUTES["lifted wide"][0])
@example(SHADOW_ROUTES["lifted tall"][0])
@example(SHADOW_ROUTES["past the bound"][0])
@example(SHADOW_ROUTES["between the bounds"][0])
def test_qq_rank_equals_bareiss_on_the_cleared_rows(case):
    # a full rank mod p certifies the rank over QQ; a deficient one, or a
    # matrix below the cutoff, is ranked by Bareiss, and only `rank` reads
    # the shadow, so the pivot columns stay those over QQ
    kind, ints, dens = case
    rows, cols = len(ints), len(ints[0])
    entries = [[Fraction(x, d) for x in row] for row, d in zip(ints, dens)]
    cleared = [cleared_row(row) for row in entries]
    pivots = linalg._eliminate_int([row[:] for row in cleared], False)[0]
    full = min(rows, cols)
    den = lcm(*dens)
    integral = [[x * (den // d) for x in row] for row, d in zip(ints, dens)]
    shadow = len(column_rank_profile(integral, linalg._SHADOW_PRIME))
    if kind == "lifted":
        assume(len(pivots) == full)
        assert shadow < full
    certified = rows * cols >= linalg._SHADOW_CELLS and shadow == full
    for m in (ExactMatrix(entries, QQ), ExactMatrix._integral(integral, den, QQ)):
        with mock.patch.object(linalg, "_eliminate_int", wraps=linalg._eliminate_int) as bareiss:
            assert m.rank() == len(pivots)
        assert bareiss.called != certified
        assert m.pivot_columns() == pivots


@pytest.mark.parametrize("name", SHADOW_ROUTES)
def test_deficient_shadows_take_their_route(name):
    # one elimination mod p finds the shadow deficient, and Bareiss ranks it
    (_, ints, dens), expected = SHADOW_ROUTES[name]
    den = lcm(*dens)
    m = ExactMatrix._integral([[x * (den // d) for x in row] for row, d in zip(ints, dens)],
                              den, QQ)
    with mock.patch.object(linalg, "_eliminate_int", wraps=linalg._eliminate_int) as bareiss, \
            mock.patch.object(linalg, "_eliminate_mod", wraps=linalg._eliminate_mod) as shadow:
        rank = m.rank()
    assert rank == expected
    assert shadow.call_count == 1 and shadow.call_args.args[1] == linalg._SHADOW_PRIME
    assert bareiss.call_count == 1


def test_shadow_prime_packs_a_127_wide_shadow_in_8_byte_slots():
    q = linalg._SHADOW_PRIME
    assert fields._is_prime(q) and q < 2**28
    rng = random.Random(127)
    rows = [[rng.randrange(1, q) for _ in range(127)] for _ in range(127)]
    with mock.patch.object(linalg, "_slots", wraps=linalg._slots) as slots:
        assert len(linalg._eliminate_mod(rows, q, False)[0]) == 127
    assert slots.call_args.args[:2] == (q, 8)
