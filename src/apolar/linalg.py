"""Dense exact matrices and the one row reduction per field that serves them.

Rank, determinant, pivot columns, kernel and inverse are all read off a
single row-reduction routine for each field family:

- over F_p, `_eliminate_mod` runs Gaussian elimination on raw ints, reduced
  mod p once on entry;
- over QQ, `_eliminate_int` runs fraction-free Bareiss elimination (Bareiss
  1968) on the rows cleared of their denominators.  Its reduced variant is
  fraction-free Gauss-Jordan elimination: every pivot ends equal to the last
  one, D, and the reduced row echelon form is the integer matrix over D.

Everything is deliberately dense: the matrices at play are desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

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
        return len(_echelon(self.entries, self.field, False)[1])

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        m, pivots, sign = _echelon(self.entries, self.field, False)
        if len(pivots) < self.rows:
            return self.field.zero
        if isinstance(self.field, PrimeField):
            p = self.field.p
            det = sign
            for r, row in enumerate(m):
                det = det * row[r] % p
            return det
        # the last Bareiss pivot is the determinant of the cleared rows
        last = m[-1][-1] if m else 1
        return Fraction(sign * last, prod(_row_lcm(row) for row in self.entries))

    def kernel_basis(self) -> list[list]:
        """Basis of the right kernel {v : M v = 0}, read off the reduced echelon form.

        One vector per free column: 1 there, 0 at the other free columns.
        """
        F = self.field
        m, pivots = _rref(self.entries, F)
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            v = [F.zero] * self.cols
            v[fc] = F.one
            for row, pc in zip(m, pivots):
                v[pc] = F.neg(row[fc])
            basis.append(v)
        return basis

    def pivot_columns(self) -> list[int]:
        """Column indices of the pivots of the row echelon form."""
        return _echelon(self.entries, self.field, False)[1]

    def inverse_entries(self) -> list[list]:
        """Entries of the inverse matrix: the right half of the reduced form of [M | I]."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        F = self.field
        n = self.rows
        augmented = [row + [F.one if j == i else F.zero for j in range(n)]
                     for i, row in enumerate(self.entries)]
        m, pivots = _rref(augmented, F)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return [row[n:] for row in m]


def _echelon(entries, field, reduced: bool):
    """Row-reduce a copy of `entries`: (rows, pivot columns, sign of the row swaps).

    Over F_p the rows are ints in [0, p).  Over QQ each row is first scaled by
    the lcm of its denominators, so the rows are integers.
    """
    if isinstance(field, PrimeField):
        p = field.p
        m = [[x % p for x in row] for row in entries]
        return (m, *_eliminate_mod(m, p, reduced))
    m = [_cleared(row) for row in entries]
    return (m, *_eliminate_int(m, reduced))


def _rref(entries, field):
    """The nonzero rows of the reduced row echelon form, as field elements, and its pivots."""
    m, pivots, _ = _echelon(entries, field, True)
    m = m[:len(pivots)]
    if isinstance(field, PrimeField) or not pivots:
        return m, pivots
    last = m[-1][pivots[-1]]
    return [[Fraction(x, last) for x in row] for row in m], pivots


def _row_lcm(row) -> int:
    return lcm(*(x.denominator for x in row))


def _cleared(row) -> list[int]:
    """The row scaled by the lcm of its denominators; the row space is unchanged."""
    scale = _row_lcm(row)
    return [x.numerator * (scale // x.denominator) for x in row]


def _eliminate_mod(m: list[list[int]], p: int, reduced: bool):
    """Gaussian elimination in place on rows of ints in [0, p).

    Each pivot clears its column below it.  With `reduced`, the pivot row is
    first scaled to a leading 1 and the rows above are cleared too, which
    leaves the reduced row echelon form.  Returns the pivot columns and the
    sign of the row swaps.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        prow = m[r]
        inv = pow(prow[c], -1, p)
        if reduced:
            prow[c:] = [1] + [x * inv % p for x in prow[c + 1:]]
            inv = 1
            others = [*range(r), *range(r + 1, rows)]
        else:
            others = range(r + 1, rows)
        # the pivot row is zero left of c: column c becomes 0, columns c+1.. change
        tail = prow[c + 1:]
        for i in others:
            row = m[i]
            if row[c]:
                f = row[c] * inv % p
                row[c + 1:] = [(a - f * b) % p for a, b in zip(row[c + 1:], tail)]
                row[c] = 0
        pivots.append(c)
    return pivots, sign


def _eliminate_int(m: list[list[int]], reduced: bool):
    """Fraction-free (Bareiss) elimination in place on integer rows.

    Each step replaces a row by (pivot * row - row[c] * pivot row) / previous
    pivot; the division is exact because every entry stays a minor of the
    input.  With `reduced`, the rows above the pivot get the same update
    (fraction-free Gauss-Jordan), so every pivot ends equal to the last one
    and the matrix is its reduced row echelon form times that pivot.  Returns
    the pivot columns and the sign of the row swaps.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        prow = m[r]
        pc = prow[c]
        # rows below are zero left of c
        tail = prow[c:]
        for i in range(r + 1, rows):
            row = m[i]
            f = row[c]
            row[c:] = [(pc * a - f * b) // prev for a, b in zip(row[c:], tail)]
        if reduced:
            for i in range(r):
                row = m[i]
                f = row[c]
                m[i] = [(pc * a - f * b) // prev for a, b in zip(row, prow)]
        prev = pc
        pivots.append(c)
    return pivots, sign
