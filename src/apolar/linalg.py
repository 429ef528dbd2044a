"""Exact matrices, dense or sparse, and the one row reduction per field that serves them.

Rank, determinant, pivot columns and kernel are all read off a single
row-reduction routine for each field family.  A matrix holds integer rows
over one positive denominator from the moment it is built: over F_p the
residues in [0, p) over 1, over QQ the numerators over the lcm of all the
entries' denominators.  The rows are dense lists, or, from a builder that
knows where its nonzeros are, sparse maps from column to nonzero entry.
Both families pass the rows through one pre-pass, `_peel`, the first step
of structured Gaussian elimination (LaMacchia and Odlyzko, "Solving large
sparse linear systems over finite fields", CRYPTO 1990): a row with a
single nonzero, at column c, makes c a pivot column whose reduced row is
the unit row e_c, so that row and column c are dropped, repeatedly,
together with the zero rows and columns.  It reads each row's support, the
columns of its nonzeros: off a sparse row's keys, or by a scan of a dense
row, made only when some dense row has a single nonzero.  Only the rows and
columns left reach the elimination, as dense rows:

- over F_p, `_eliminate_mod` runs Gaussian elimination on packed rows:
  each row is one Python int with a slot of W bits per column, where
  W >= 2 bits(p) + bits(min(rows, cols)) + 1, rounded up to whole bytes
  (one cached `struct.Struct` call packs a row when p < 2^64).  A row
  update is one big-int multiply-add with no per-entry loop, and no slot
  is ever reduced on its own (delayed modular reduction, after Dumas,
  Giorgi and Pernet, "Dense linear algebra over word-size prime fields:
  the FFLAS and FFPACK packages", ACM TOMS 35(3), 2008).  When a row
  becomes a pivot row, all its slots are folded at once by two rounds of
  Montgomery's reduction without trial division (Math. Comp. 44, 1985),
  to slots in [0, p] congruent to lambda times its entries, lambda =
  2^-W mod p; the factor each row below is updated by absorbs lambda, and
  the reduced echelon form is built from folded rows the same way.  Over
  GF(2) the fold keeps each slot's low bit, and lambda = 1;
- over QQ, `_eliminate_int` runs fraction-free Bareiss elimination (Bareiss
  1968) on a copy of the integer rows; the denominator scales every row
  alike, so it enters only the determinant, as den^rows.  When den > 1,
  `_primitive` first divides each row by its content, the factor that the
  lcm put into a row over a smaller denominator of its own, which Bareiss
  would otherwise carry into every minor; the contents' product enters the
  determinant.  Its reduced variant is fraction-free Gauss-Jordan
  elimination: every pivot ends equal to the last one, D, and the reduced
  row echelon form is the integer matrix over D, which the kernel reads
  without making a Fraction row.

`rank` over QQ first tries a mod-p shadow when the rows left after the peel
hold at least `_SHADOW_CELLS` cells: they are reduced mod `_SHADOW_PRIME`,
the largest prime below 2^28, and ranked by `_eliminate_mod`, whose slots
are then 8 bytes wide for up to 127 rows or columns (17 at 2^61 - 1).  The
rank r mod p bounds the rank over QQ from below, since the r x r minor on
the pivots mod p is a nonzero integer; so a full rank mod p is the rank
over QQ.  A deficient shadow proves nothing, as p may divide every larger
minor, and Bareiss ranks the rows.  The rows are integers by then, so no
denominator can vanish mod p.  Only `rank` reads the shadow: the rank
profile mod p can differ from the one over QQ, as [[p, 1]] pivots at
column 0 over QQ and at column 1 mod p, so `det`, `pivot_columns` and
`kernel_basis` always run Bareiss.

The sparse matrices at play, the catalecticants of forms with few terms
and the inverse-system rows of a quadric web, mostly peel away before the
dense elimination starts, so they are never made dense unless something
reads their entries or stacks them; the rest are desk scale and dense.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import gcd, lcm, prod

from .fields import QQ, PrimeField


class ExactMatrix:
    """Rectangular matrix over one exact field, held as integer rows over one denominator."""

    def __init__(self, entries, field):
        """The matrix of `entries`: ints over F_p, ints or Fractions over QQ.

        Any other entry raises ValueError naming it and its position.  Over
        F_p every cell is checked, zeros too, so a float or Fraction zero is
        refused; the library's own F_p builders write residues and go
        through `_integral` instead.
        """
        rows = [list(row) for row in entries]
        cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
        if isinstance(field, PrimeField):
            den = 1
            cells = list(chain.from_iterable(rows))
            if not set(map(type, cells)) <= {int}:
                _check_entries(rows, int, "an int")
            if min(cells, default=0) < 0 or max(cells, default=0) >= field.p:
                rows = [[x % field.p for x in row] for row in rows]
        else:
            # `QQ.zero`, which every matrix builder here writes for a zero,
            # is passed over by identity, so a sparse row reads few Fractions
            zero = QQ.zero
            try:
                den = lcm(*{x.denominator for row in rows for x in row if x is not zero})
            except AttributeError:
                _check_entries(rows, (int, Fraction), "an int or a Fraction")
                raise
            rows = [[0 if x is zero else x.numerator * (den // x.denominator) for x in row]
                    for row in rows]
        self._hold(rows, den, field)

    @classmethod
    def _integral(cls, ints: list[list[int]], den: int, field) -> ExactMatrix:
        """The matrix ints / den, from rows of one width that are normalised already.

        Over F_p the rows hold residues in [0, p) and `den` is 1; over QQ they
        are integer numerators over the positive `den`.  The rows are kept,
        not copied, and never changed.
        """
        m = object.__new__(cls)
        m._hold(ints, den, field)
        return m

    @classmethod
    def _sparse(cls, maps: list[dict[int, int]], cols: int, den: int, field) -> ExactMatrix:
        """The matrix whose row i holds maps[i][c] / den at each column c of maps[i], else 0.

        The maps are normalised as `_integral`'s rows are, and hold no zero:
        residues in [0, p) over F_p with `den` 1, integer numerators over QQ.
        They are kept, not copied, and never changed; the peel reads its row
        supports off them, and dense rows are built only when read.
        """
        m = object.__new__(cls)
        m._rows, m._maps, m._den, m.field, m._entries = None, maps, den, field, None
        m.rows, m.cols = len(maps), cols
        return m

    def _hold(self, ints: list[list[int]], den: int, field) -> None:
        self._rows, self._maps, self._den, self.field = ints, None, den, field
        self._entries = None  # made when `entries` is first read
        self.rows = len(ints)
        self.cols = len(ints[0]) if ints else 0

    @property
    def _ints(self) -> list[list[int]]:
        """The integer rows; a sparse matrix builds them from its maps on first read."""
        if self._rows is None:
            zeros = [0] * self.cols
            self._rows = []
            for entries in self._maps:
                row = zeros[:]
                for c, x in entries.items():
                    row[c] = x
                self._rows.append(row)
        return self._rows

    @classmethod
    def _stacked(cls, blocks: list[ExactMatrix]) -> ExactMatrix:
        """The rows of `blocks`, of one width and one field, in order.

        The result is over the lcm of their denominators: a block is scaled,
        one multiply per entry, only where its denominator differs.
        """
        den = lcm(*(b._den for b in blocks))
        rows = []
        for b in blocks:
            f = den // b._den
            rows += b._ints if f == 1 else [[f * x for x in row] for row in b._ints]
        return cls._integral(rows, den, blocks[0].field)

    @property
    def entries(self) -> list[list]:
        """The rows as field elements; a QQ matrix makes its Fractions on first read."""
        if self._entries is None:
            den, zero = self._den, QQ.zero
            self._entries = self._ints if isinstance(self.field, PrimeField) else [
                [Fraction(x, den) if x else zero for x in row] for row in self._ints]
        return self._entries

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

    def rank(self) -> int:
        """The rank; over QQ read mod p first, as the module docstring says, when it pays.

        A QQ matrix whose rows left after the peel hold at least
        `_SHADOW_CELLS` cells and have full rank mod `_SHADOW_PRIME` has that
        rank; every other QQ rank is Bareiss's.
        """
        peeled, _, keep, sub = _prepared(self)
        if isinstance(self.field, PrimeField):
            return len(peeled) + len(_eliminate_mod(sub, self.field.p, False)[0])
        if len(sub) * len(keep) >= _SHADOW_CELLS and _full_rank_mod(sub, len(keep)):
            return len(peeled) + min(len(sub), len(keep))
        return len(peeled) + len(_eliminate_int(_primitive(sub, self._den)[0], False)[0])

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        pivots, det, *_ = _echelon(self, False)
        if len(pivots) < self.rows:
            return self.field.zero
        return det if isinstance(self.field, PrimeField) else Fraction(det, self._den ** self.rows)

    def kernel_basis(self) -> list[list]:
        """Basis of the right kernel {v : M v = 0}, read off the reduced echelon form.

        One vector per free column f: 1 there, 0 at the other free columns,
        and at each pivot column minus the entry x at f of its reduced row,
        -x mod p or -x / scale.  A peeled pivot column keeps its 0.
        """
        F, cols = self.field, self.cols
        p = F.p if isinstance(F, PrimeField) else None
        pivots, _, keep, rows, scale = _echelon(self, True)
        position = {c: j for j, c in enumerate(keep)}
        pivot_set = set(pivots)
        basis = []
        for fc in range(cols):
            if fc in pivot_set:
                continue
            v = [F.zero] * cols
            v[fc] = F.one
            j = position.get(fc)
            if j is not None:  # else fc is a zero column
                for pc, row in rows:
                    x = row[j]
                    if x:
                        v[pc] = -x % p if p else Fraction(-x, scale)
            basis.append(v)
        return basis

    def pivot_columns(self) -> list[int]:
        """Column indices of the pivots of the row echelon form."""
        return _echelon(self, False)[0]


#: The prime of the QQ rank's shadow, the largest below 2^28.  A full rank
#: mod any prime is the rank over QQ, so the prime's size sets only the slot
#: width and the chance of an unlucky prime, one that divides every maximal
#: minor of a matrix of full rank over QQ and so sends it to Bareiss.  At 28
#: bits a slot of `_eliminate_mod` is 2 * 28 + bits(min(rows, cols)) + 1
#: bits, 8 bytes (one `struct` Q) for up to 127 rows or columns, and a row
#: update multiplies by one 30-bit digit; at DEFAULT_PRIME = 2^61 - 1 the
#: slot is 17 bytes and the digits three.  The Montgomery fold needs
#: bits(p) < W / 2 = 32.
_SHADOW_PRIME = 268435399

#: Cells left after `_peel` from which `rank` over QQ tries the shadow.
#: Below it a QQ rank is small, and Bareiss on a few integer rows costs less
#: than reducing them mod p first.  Swept on the exactness workload at seed
#: 31, three rounds of 8 s runs on 2 cores, the parent (cutoff 512 at
#: 2^61 - 1) at 510-528 items_per_s, item_p50_ms 0.52-0.54 and item_tail_ms
#: 3.99-4.08; at this prime:
#:   cutoff   items_per_s   item_p50_ms   item_tail_ms
#:        0       633-697     0.69-0.75      2.47-2.59
#:       64       691-716     0.53-0.57      2.47-2.54
#:      128       696-719     0.52-0.56      2.54-2.57
#:      256       669-679     0.54-0.58      2.96-3.02
#:      512       615-624     0.54-0.55      3.99-4.03
#: The cutoff trades the median item's many small ranks, on which Bareiss
#: stays cheaper, against the slowest items' ranks of a few hundred cells,
#: which the 8-byte shadow wins; 128 keeps the median and most of the
#: tail's gain.  The sweep ran with a route, since deleted, that lifted a
#: deficient shadow's kernel to QQ before Bareiss; nearly every shadow of
#: that workload is full, so the sweep was not rerun.
_SHADOW_CELLS = 128


def _prepared(matrix: ExactMatrix):
    """The peel of `matrix`'s integer rows: (peeled, rest, keep, sub).

    `_peel` takes out the singleton rows; `keep` lists the columns left and
    `sub` holds the rows `rest` on them, dense.  A sparse matrix hands its
    maps to `_peel` as the row supports.  A dense one counts each row's
    nonzeros first and builds the supports only when a row has one; else
    just its zero rows and columns drop, and when there are none `sub` is
    the rows themselves over F_p and a copy of them over QQ, which Bareiss
    elimination changes in place.
    """
    maps, cols = matrix._maps, matrix.cols
    if maps is not None:
        peeled, rest, kept = _peel(maps, cols)
        keep = list(compress(range(cols), kept))
        at = dict(zip(keep, range(len(keep))))
        sub = []
        for i in rest:
            row = [0] * len(keep)
            for c, x in maps[i].items():
                if kept[c]:
                    row[at[c]] = x
            sub.append(row)
        return peeled, rest, keep, sub
    m = matrix._rows
    weights = [cols - row.count(0) for row in m]
    if 1 in weights:
        peeled, rest, kept = _peel([list(compress(range(cols), row)) for row in m], cols)
    else:
        peeled, rest = [], list(compress(range(len(m)), weights))
        # a row without zeros already shows that no column is zero
        kept = [True] * cols if cols in weights else [any(c) for c in zip(*m)]
    if len(rest) == len(m) and all(kept):
        sub = m if isinstance(matrix.field, PrimeField) else [row[:] for row in m]
        return peeled, rest, range(cols), sub
    sub = [list(compress(m[i], kept)) for i in rest]
    return peeled, rest, list(compress(range(cols), kept)), sub


def _full_rank_mod(sub, cols: int) -> bool:
    """Whether the integer rows `sub`, `cols` wide, have rank min(rows, cols) mod `_SHADOW_PRIME`.

    The pivots mod p pick an r x r minor that is nonzero mod p, so a nonzero
    integer: a full rank mod p is the rank over QQ.  The rows are reduced
    mod p, the zero ones dropped, and the rest ranked by one `_eliminate_mod`.
    """
    p = _SHADOW_PRIME
    nonzero = [row for row in ([x % p for x in row] for row in sub) if any(row)]
    return len(_eliminate_mod(nonzero, p, False)[0]) == min(len(sub), cols)


def _echelon(matrix: ExactMatrix, reduced: bool):
    """Row-reduce `matrix`: (pivot columns, det, keep, rows, scale).

    `_prepared` peels the integer rows, and the field's elimination reduces
    the rows and the columns `keep` that are left.  `det` is the determinant
    of the integer rows when the pivots fill the rows of a square matrix:
    the sign of the peel order times the peeled entries times the
    determinant of the rest.  With `reduced`, `rows` pairs each pivot column
    the elimination found with its row of the reduced row echelon form on
    the columns `keep`, times `scale`: residues in [0, p) with `scale` 1 over
    F_p, and over QQ integers with Bareiss's last pivot as `scale`.  A
    peeled pivot c has the unit row e_c and no entry in `rows`, and every
    other column outside `keep` is zero.
    """
    field, cols = matrix.field, matrix.cols
    prime = isinstance(field, PrimeField)
    peeled, rest, keep, sub = _prepared(matrix)
    if prime:
        found, det, rows = _eliminate_mod(sub, field.p, reduced)
        scale = 1
    else:
        sub, contents = _primitive(sub, matrix._den)
        found, det = _eliminate_int(sub, reduced)
        det *= contents
        rows = sub[:len(found)] if reduced else []
        scale = rows[-1][found[-1]] if rows else 1
    if len(keep) < cols:
        found = [keep[c] for c in found]
    pivots = found
    if peeled:
        pivots = sorted(found + [c for _, c in peeled])
        if len(pivots) == matrix.rows == cols:
            m = matrix._ints if matrix._maps is None else matrix._maps
            det *= _sign([i for i, _ in peeled] + rest) * _sign([c for _, c in peeled] + keep)
            det *= prod(m[i][c] for i, c in peeled)
            if prime:
                det %= field.p
    return pivots, det, keep, list(zip(found, rows)), scale


def _primitive(sub: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """The nonzero integer rows `sub`, each divided by its content when den > 1, and their product.

    Rows put over the lcm `den` of all denominators carry, each, the factor by
    which its own denominator falls short of it, and Bareiss would carry
    that factor into every minor it forms with the row.  Dividing a row by
    the gcd of its entries drops it and changes no rank, pivot or reduced
    row; the determinant is that of the result times the product of the
    gcds, returned with it.  With den = 1 the rows are returned as they are.
    """
    if den == 1:
        return sub, 1
    contents = [gcd(*row) for row in sub]
    return [[x // c for x in row] if c > 1 else row for row, c in zip(sub, contents)], prod(contents)


def _peel(supports, cols: int):
    """Singleton-row pre-pass of structured Gaussian elimination: (peeled, rest, kept).

    A row whose only nonzero is at column c makes c a pivot column: column
    c is independent of every column left of it, and its reduced echelon
    row is the unit row e_c, so x_c = 0 in every kernel vector.  That row and
    column c are dropped, which may leave other rows with one nonzero, and
    so on until no row is a singleton (LaMacchia and Odlyzko, "Solving large
    sparse linear systems over finite fields", CRYPTO 1990).  Every dropped
    row is zero outside the dropped columns, so the rank profile and the
    reduced rows of the rest are those of the whole matrix.

    `supports` lists, for each row, the columns of its nonzeros, without
    repeats: a list, or the keys of a sparse row.  Returns the (row, column)
    pairs in the order they were peeled, the indices of the rows left, none
    of them zero, and the mask of the columns left, none of them zero in
    those rows.
    """
    weights = list(map(len, supports))
    through = [[] for _ in range(cols)]  # through[c]: the rows with a nonzero at column c
    for i, row in enumerate(supports):
        for c in row:
            through[c].append(i)
    kept = list(map(bool, through))
    peeled = []
    queue = [i for i, w in enumerate(weights) if w == 1]
    for i in queue:
        if weights[i] != 1:
            continue  # its last nonzero went with an earlier peel
        c = next(c for c in supports[i] if kept[c])
        weights[i] = 0
        kept[c] = False
        peeled.append((i, c))
        for r in through[c]:
            if weights[r]:
                weights[r] -= 1
                if weights[r] == 1:
                    queue.append(r)
    return peeled, list(compress(range(len(supports)), weights)), kept


def _check_entries(rows, kinds, what: str) -> None:
    """Raise ValueError naming the first entry of `rows` that is not one of `kinds`."""
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not isinstance(x, kinds):
                raise ValueError(f"matrix entry {x!r} at row {i}, column {j} is not {what}")


def _sign(order) -> int:
    """The sign of a sequence of distinct ints: -1 to the number of its inversions."""
    return (-1) ** sum(a > b for k, a in enumerate(order) for b in order[k + 1:])


def _eliminate_mod(m, p: int, reduced: bool):
    """Gaussian elimination mod p on packed rows: (pivot columns, det, rows).

    The rows hold entries in [0, p), and no row is all zero; a zero column
    leads no row and stays free.  Each row becomes one int with a
    `size`-byte slot of W = 8 size bits per column, column 0 in the highest
    slot, so a row's top nonzero slot is its leading column; the rows wait
    in `leading` under that column.  No slot is ever reduced on its own.
    At column c the pivot row, with slot `lead` there, is folded: all its
    slots at once go to [0, p], each congruent to lambda times its value,
    lambda = 2^-W mod p.  Every other row led by c, with slot t there, is
    updated by one multiply-add,
    row += (t g mod p) * folded with g = -lead^-1 / lambda mod p, which
    absorbs lambda, and its slot at c, now a multiple of p below 2^W, is
    cleared by a mask.  Only the pivot column is read, by shift and `% p`.

    Slots start below p and gain at most (p - 1) p per pivot, so with
    W >= 2 bits(p) + bits(min(rows, cols)) + 1 they stay below 2^(W - 1):
    they never carry into each other, and no slot ever borrows.  The fold
    is two rounds of Montgomery's reduction without trial division
    ("Modular multiplication without trial division", Math. Comp. 44,
    1985), run on every slot at once.  With s = W / 2, LO holding 2^s - 1
    in every slot and P' = -p^-1 mod 2^s, one round is

        x = (x + ((x & LO) * P' & LO) * p) >> s,

    and for every slot v, with lo its low half and q = lo P' mod 2^s:
    - lo P' < 2^W, so no carry crosses a slot;
    - v + q p < 2^(W - 1) + 2^(s + bits(p)) <= 2^W, as bits(p) < s, and
      2^s divides it, so the shift divides every slot exactly;
    - the first round leaves every slot below 2^(s - 1) + p < 2^s and the
      second at most p, so an update by a folded row still adds less than
      p^2 to a slot.
    GF(2) has no inverse of p mod 2^s: there the fold keeps the low bit of
    every slot, and lambda = 1.  Rows are packed and unpacked by `_slots`.

    `det` is the product of the pivots times the sign of the order in which
    the rows became pivot rows: the determinant when the pivots fill the
    rows of a square matrix.  With `reduced`, each folded pivot row is kept
    with a = -g / lambda mod p, and back substitution, last pivot first,
    builds every reduced row packed: a times its folded echelon row, plus
    one multiply-add per later pivot by that pivot's reduced row, folded
    once more to slots in [0, p] congruent to the reduced row itself.  The
    sum has at most min(rows, cols) terms, each below p^2 per slot, so it
    too stays below 2^(W - 1).  `rows` is the reduced row echelon form without its zero rows, each row
    unpacked once at the end; otherwise `rows` is empty.
    """
    n = len(m[0]) if m else 0
    size = (2 * p.bit_length() + min(len(m), n).bit_length() + 8) // 8
    width = 8 * size
    pack, unpack, fold, unit = _slots(p, size, n)
    # leading[c]: (index, packed row) for the rows whose top nonzero slot is column c
    leading = [[] for _ in range(n)]
    for i, row in enumerate(m):
        x = pack(row)
        leading[n - 1 - (x.bit_length() - 1) // width].append((i, x))
    pivots, pivot_rows, echelon = [], [], []
    det = 1
    for c in range(n):
        bucket = leading[c]
        if not bucket:
            continue
        shift = (n - 1 - c) * width
        folded = g = 0
        for k, (i, x) in enumerate(bucket):
            lead = (x >> shift) % p
            if lead:
                del bucket[k]
                det = det * lead % p
                pivots.append(c)
                pivot_rows.append(i)
                if bucket or reduced:
                    folded, g = fold(x), -unit * pow(lead, -1, p) % p
                    if reduced:
                        echelon.append((folded, -g * unit % p))
                break
        mask = (1 << shift) - 1
        for i, x in bucket:
            x = (x + (x >> shift) * g % p * folded) & mask
            if x:
                leading[n - 1 - (x.bit_length() - 1) // width].append((i, x))
    if len(pivots) == len(m) == n:
        det *= _sign(pivot_rows)
    rows = []
    if reduced:
        # back substitution, last pivot first; `later` holds the reduced rows
        # of the pivots after c, packed
        later = []
        for c, (x, a) in zip(reversed(pivots), reversed(echelon)):
            acc = a * x
            coefficients = unpack(x)
            for pc, y in later:
                b = -a * coefficients[pc] % p
                if b:
                    acc += b * y
            later.append((c, fold(acc)))
        rows = [[y % p for y in unpack(x)] for _, x in reversed(later)]
    return pivots, det % p, rows


@lru_cache(maxsize=256)
def _slots(p: int, size: int, n: int):
    """(pack, unpack, fold, unit) for rows of n slots of `size` bytes mod p.

    `pack` turns a row of ints in [0, p) into one int, column 0 in the
    highest slot; `unpack` reads the n slots of a packed int back.  When
    p < 2^64 each is one call of a cached `struct.Struct`: per slot, pad
    bytes and then the widest of B, H, I and Q that fits in the slot, which
    holds every value up to p.  A larger prime packs with one `to_bytes` per entry and unpacks with
    one `int.from_bytes` per slot.  `fold` is the two Montgomery rounds of
    `_eliminate_mod`, or over GF(2) the low bit of every slot, and `unit`
    is lambda^-1: 2^W mod p, or 1 over GF(2).
    """
    width = 8 * size
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)
    if p < 1 << 64:
        k = 1 << min(size.bit_length() - 1, 3)
        codec = struct.Struct(">" + f"{size - k}x{'BHIQ'[k.bit_length() - 1]}" * n)

        def pack(row):
            return int.from_bytes(codec.pack(*row), "big")

        def unpack(x):
            return codec.unpack(x.to_bytes(size * n, "big"))
    else:
        zero = bytes(size)
        slot = struct.Struct(f"{size}s" * n)

        def pack(row):
            return int.from_bytes(b"".join([x.to_bytes(size, "big") if x else zero for x in row]),
                                  "big")

        def unpack(x):
            return [int.from_bytes(y, "big") for y in slot.unpack(x.to_bytes(size * n, "big"))]
    if p == 2:
        return pack, unpack, ones.__and__, 1
    half = width // 2
    lo = ones * ((1 << half) - 1)
    inv = pow(-p, -1, 1 << half)

    def fold(x):
        x = (x + ((x & lo) * inv & lo) * p) >> half
        return (x + ((x & lo) * inv & lo) * p) >> half

    return pack, unpack, fold, pow(2, width, p)


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
