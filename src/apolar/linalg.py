"""Dense exact matrices and exact rank/determinant/kernel computations.

Rank over the rationals uses fraction-free Bareiss elimination on the
denominator-cleared integer matrix; rank over a prime field uses ordinary
Gaussian elimination with modular inverses.  Everything is deliberately
dense: the matrices at play are desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import PrimeField


class ExactMatrix:
    """Rectangular matrix with all entries in one exact field."""

    def __init__(self, entries, field):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self.field = field

    @classmethod
    def zeros(cls, rows: int, cols: int, field) -> "ExactMatrix":
        return cls([[field.zero] * cols for _ in range(rows)], field)

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field!r})"

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)],
            self.field,
        )

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        if isinstance(self.field, PrimeField):
            return _rank_mod(self.entries, self.field.p)
        return _rank_bareiss(_cleared_int_rows(self.entries))

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return self.field.one
        if isinstance(self.field, PrimeField):
            return _det_mod(self.entries, self.field.p)
        return _det_bareiss_rational(self.entries)

    def kernel_basis(self) -> list[list]:
        """Basis of the right kernel {v : M v = 0}, deterministic."""
        return _kernel(self.entries, self.rows, self.cols, self.field)

    def pivot_columns(self) -> list[int]:
        """Column indices of the pivots of the row echelon form."""
        F = self.field
        m = [row[:] for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot = None
            for i in range(r, self.rows):
                if not F.is_zero(m[i][c]):
                    pivot = i
                    break
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = F.inv(m[r][c])
            m[r] = [F.mul(inv, x) for x in m[r]]
            for i in range(self.rows):
                if i != r and not F.is_zero(m[i][c]):
                    f = m[i][c]
                    m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return pivots

    def inverse_entries(self) -> list[list]:
        """Entries of the inverse matrix (square, invertible)."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        F = self.field
        n = self.rows
        m = [self.entries[i][:] + [F.one if j == i else F.zero for j in range(n)]
             for i in range(n)]
        for c in range(n):
            pivot = None
            for i in range(c, n):
                if not F.is_zero(m[i][c]):
                    pivot = i
                    break
            if pivot is None:
                raise ValueError("matrix is singular")
            m[c], m[pivot] = m[pivot], m[c]
            inv = F.inv(m[c][c])
            m[c] = [F.mul(inv, x) for x in m[c]]
            for i in range(n):
                if i != c and not F.is_zero(m[i][c]):
                    f = m[i][c]
                    m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[c])]
        return [row[n:] for row in m]


def rank(matrix: ExactMatrix) -> int:
    return matrix.rank()


# -- prime field kernels ----------------------------------------------------

def _rank_mod(entries, p: int) -> int:
    m = [[x % p for x in row] for row in entries]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        # rows below the pivot are zero left of c, and column c is never read
        # again, so only columns c+1.. need updating
        tail = m[r][c + 1:]
        for i in range(r + 1, rows):
            row = m[i]
            if row[c]:
                f = row[c] * inv % p
                row[c + 1:] = [(a - f * b) % p for a, b in zip(row[c + 1:], tail)]
        r += 1
        if r == rows:
            break
    return r


def _det_mod(entries, p: int):
    m = [[x % p for x in row] for row in entries]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = p - det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        prow = m[c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], prow)]
    return det % p


# -- rational kernels (fraction-free) ----------------------------------------

def _cleared_int_rows(entries) -> list[list[int]]:
    """Scale each row by the lcm of denominators; rank is unchanged."""
    out = []
    for row in entries:
        lcm = 1
        for x in row:
            d = Fraction(x).denominator
            lcm = lcm // gcd(lcm, d) * d
        out.append([int(Fraction(x) * lcm) for x in row])
    return out


def _rank_bareiss(m: list[list[int]]) -> int:
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        pc = prow[c]
        for i in range(r + 1, rows):
            row = m[i]
            f = row[c]
            m[i] = [(pc * a - f * b) // prev for a, b in zip(row, prow)]
        prev = pc
        r += 1
        if r == rows:
            break
    return r


def _det_bareiss_rational(entries):
    n = len(entries)
    denom = Fraction(1)
    m = []
    for row in entries:
        lcm = 1
        for x in row:
            d = Fraction(x).denominator
            lcm = lcm // gcd(lcm, d) * d
        denom *= lcm
        m.append([int(Fraction(x) * lcm) for x in row])
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot = None
        for i in range(c, n):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        prow = m[c]
        pc = prow[c]
        for i in range(c + 1, n):
            row = m[i]
            f = row[c]
            m[i] = [(pc * a - f * b) // prev for a, b in zip(row, prow)]
        prev = pc
    return Fraction(sign * m[n - 1][n - 1]) / denom


def _kernel(entries, rows, cols, field) -> list[list]:
    F = field
    m = [row[:] for row in entries]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not F.is_zero(m[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not F.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * cols
        v[fc] = F.one
        for pr, pc in enumerate(pivots):
            v[pc] = F.neg(m[pr][fc])
        basis.append(v)
    return basis
