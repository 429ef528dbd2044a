"""Dense exact matrices and the one row reduction per field that serves them.

Rank, determinant, pivot columns, kernel and inverse are all read off a
single row-reduction routine for each field family:

- over F_p, `_eliminate_mod` runs Gaussian elimination on packed rows:
  each row is one Python int with a slot of w bits per column, where
  w >= 2 bits(p) + bits(min(rows, cols)) + 1, rounded up to whole bytes.
  A row update is one big-int multiply-add with no per-entry loop; the
  slots are reduced mod p only when a row becomes a pivot row (delayed
  modular reduction, after Dumas, Giorgi and Pernet, "Dense linear algebra
  over word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS
  35(3), 2008);
- over QQ, `_eliminate_int` runs fraction-free Bareiss elimination (Bareiss
  1968) on the rows cleared of their denominators.  Its reduced variant is
  fraction-free Gauss-Jordan elimination: every pivot ends equal to the last
  one, D, and the reduced row echelon form is the integer matrix over D.

Everything is deliberately dense: the matrices at play are desk scale.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import compress, repeat
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
        _, pivots, det = _echelon(self.entries, self.field, False)
        if len(pivots) < self.rows:
            return self.field.zero
        if isinstance(self.field, PrimeField):
            return det
        # over QQ, the determinant of the cleared rows over their row lcms
        return Fraction(det, prod(_row_lcm(row) for row in self.entries))

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
    """Row-reduce `entries`: (rows, pivot columns, det).

    `det` is the determinant when the pivots fill the rows of a square
    matrix.  Over QQ each row is first scaled by the lcm of its denominators,
    so the rows are integers and `det` is that of the scaled rows.
    """
    if isinstance(field, PrimeField):
        return _eliminate_mod(entries, field.p, reduced)
    m = [_cleared(row) for row in entries]
    return (m, *_eliminate_int(m, reduced))


def _rref(entries, field):
    """The nonzero rows of the reduced row echelon form, as field elements, and its pivots."""
    m, pivots, _ = _echelon(entries, field, True)
    if isinstance(field, PrimeField) or not pivots:
        return m, pivots
    m = m[:len(pivots)]
    last = m[-1][pivots[-1]]
    return [[Fraction(x, last) for x in row] for row in m], pivots


def _row_lcm(row) -> int:
    return lcm(*(x.denominator for x in row))


def _cleared(row) -> list[int]:
    """The row scaled by the lcm of its denominators; the row space is unchanged."""
    scale = _row_lcm(row)
    return [x.numerator * (scale // x.denominator) for x in row]


def _eliminate_mod(entries, p: int, reduced: bool):
    """Gaussian elimination mod p on packed rows: (rows, pivot columns, det).

    Entries outside [0, p) are reduced mod p once, and the all-zero rows and
    columns are dropped.  Each remaining row becomes one int with a
    `size`-byte slot per column, column 0 in the highest slot, so a row's top
    nonzero slot is its leading column; the rows wait in `leading` under that
    column.  At column c, the pivot row is unpacked once, scaled to a leading
    1, and its entries right of c are packed again as their negatives mod p,
    `negtail`.  Every other row led by c is then updated by one multiply-add,
    row += f * negtail, with f its slot at c mod p, and that slot is cleared
    exactly.  Slots start below p and gain less than p^2 per pivot, so with
    2 bits(p) + bits(min(rows, cols)) + 1 bits they never carry into each
    other, and no slot ever borrows.  Only the pivot column is read, by
    shift and `% p`.

    `det` is the product of the pivots times the sign of the order in which
    the rows became pivot rows: the determinant when the pivots fill the
    rows of a square matrix.  With `reduced`, each pivot row is kept scaled,
    back substitution clears the entries above every pivot, and `rows` is
    the reduced row echelon form without its zero rows, unpacked once at the
    end; otherwise `rows` is empty.
    """
    cols = len(entries[0]) if entries else 0
    if cols and any(min(row) < 0 or max(row) >= p for row in entries):
        entries = [[x % p for x in row] for row in entries]
    nonzero = [any(column) for column in zip(*entries)]
    keep = list(compress(range(cols), nonzero))
    n = len(keep)
    m = [row for row in entries if any(row)]
    size = (2 * p.bit_length() + min(len(m), n).bit_length() + 8) // 8
    width = 8 * size
    # leading[c]: (index, packed row) for the rows whose top nonzero slot is column c
    leading = [[] for _ in range(n)]
    for i, row in enumerate(m):
        x = _pack(compress(row, nonzero) if n < cols else row, size, n)
        leading[n - 1 - (x.bit_length() - 1) // width].append((i, x))
    pivots, pivot_rows, tails = [], [], []
    det = 1
    for c in range(n):
        bucket = leading[c]
        if not bucket:
            continue
        shift = (n - 1 - c) * width
        negtail = 0
        for k, (i, x) in enumerate(bucket):
            if (x >> shift) % p:
                break
        else:
            i = None
        if i is not None:
            del bucket[k]
            det = det * (x >> shift) % p
            pivots.append(c)
            pivot_rows.append(i)
            if bucket or reduced:
                tail = _unpack(x, size, n - c)
                ninv = -pow(tail[0], -1, p)
                neg = [y * ninv % p for y in tail[1:]]
                negtail = _pack(neg, size, n - c - 1)
                if reduced:
                    tails.append([1] + [-y % p for y in neg])
        for i, x in bucket:
            s = x >> shift
            x += s % p * negtail - (s << shift)
            if x:
                leading[n - 1 - (x.bit_length() - 1) // width].append((i, x))
    if len(pivots) == len(entries) == cols:
        det *= (-1) ** sum(a > b for k, a in enumerate(pivot_rows) for b in pivot_rows[k + 1:])
    rows = []
    if reduced:
        # back substitution, last pivot first: each echelon row minus its entry
        # at every later pivot times that reduced row, kept negated and packed;
        # a tail runs from its pivot to its last nonzero slot
        later = []
        for c, tail in zip(reversed(pivots), reversed(tails)):
            acc = 0
            for pc, negrow in reversed(later):
                if pc - c >= len(tail):
                    break
                acc += tail[pc - c] * negrow
            if acc:
                acc += _pack(tail, size, n - c)
                tail = [y % p for y in _unpack(acc, size, n - c)]
            later.append((c, _pack([-y % p for y in tail], size, n - c)))
            if n == cols:
                rows.append([0] * c + tail + [0] * (n - c - len(tail)))
                continue
            row = [0] * cols
            for j, y in zip(keep[c:], tail):
                row[j] = y
            rows.append(row)
        rows.reverse()
    return rows, [keep[c] for c in pivots], det % p


def _pack(values, size: int, slots: int) -> int:
    """Non-negative ints below 2^(8 size) as the highest of `slots` slots of `size` bytes."""
    zero = bytes(size)
    data = [x.to_bytes(size, "big") if x else zero for x in values]
    return int.from_bytes(b"".join(data), "big") << (slots - len(data)) * 8 * size


def _unpack(packed: int, size: int, slots: int) -> list[int]:
    """The slots of a nonzero packed int of `slots` slots, down to its lowest nonzero one."""
    low = ((packed & -packed).bit_length() - 1) // (8 * size)
    slots -= low
    data = (packed >> low * 8 * size).to_bytes(slots * size, "big")
    return list(map(int.from_bytes, struct.unpack(f"{size}s" * slots, data), repeat("big")))


def _eliminate_int(m: list[list[int]], reduced: bool):
    """Fraction-free (Bareiss) elimination in place on integer rows.

    Each step replaces a row by (pivot * row - row[c] * pivot row) / previous
    pivot; the division is exact because every entry stays a minor of the
    input.  With `reduced`, the rows above the pivot get the same update
    (fraction-free Gauss-Jordan), so every pivot ends equal to the last one
    and the matrix is its reduced row echelon form times that pivot.  Returns
    the pivot columns and the sign of the row swaps times the last pivot,
    which is the determinant when the pivots fill the rows of a square matrix.
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
    return pivots, sign * prev
