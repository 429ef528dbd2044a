"""Sparse multivariate polynomials over an exact field.

Exponents are tuples of non-negative ints of length ``n``; a polynomial is a
map from exponents to nonzero coefficients.  The same class houses operator
polynomials (which act by differentiation) and dual forms (which are acted
on); the two live in different copies of the polynomial ring and the
differentiation action ties them together.

Monomial order everywhere is graded lex with x1 > x2 > ... > xn; within one
degree that is plain descending lex on exponent tuples.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import factorial, prod

from .fields import QQ, PrimeField


def monomials_of_degree(n: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, descending graded-lex.

    The list has C(n + degree - 1, degree) entries and the order is
    deterministic: (2,0,0) > (1,1,0) > (1,0,1) > (0,2,0) > ...
    Each call returns a fresh list, copied from a cache per (n, degree).
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return list(_monomials(n, degree))


@lru_cache(maxsize=256, typed=True)
def _monomials(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []

    def build(prefix: tuple[int, ...], remaining_vars: int, remaining_deg: int) -> None:
        if remaining_vars == 1:
            out.append(prefix + (remaining_deg,))
            return
        for e in range(remaining_deg, -1, -1):
            build(prefix + (e,), remaining_vars - 1, remaining_deg - e)

    build((), n, degree)
    return tuple(out)


class Poly:
    """Immutable sparse polynomial attached to a field descriptor."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, field, terms: dict | None = None):
        self.n = n
        self.field = field
        clean = {}
        if terms:
            for exp, c in terms.items():
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} has length {len(exp)}, expected {n}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                if not field.is_zero(c):
                    clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, field, terms: dict) -> "Poly":
        """Wrap ``terms`` without the checks of ``__init__``.

        Only for results built from valid operands: every exponent is a
        length-``n`` tuple of non-negative ints and no coefficient is zero.
        """
        p = object.__new__(cls)
        p.n = n
        p.field = field
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, field) -> "Poly":
        return cls(n, field, {})

    @classmethod
    def constant(cls, n: int, field, value) -> "Poly":
        return cls(n, field, {(0,) * n: value})

    @classmethod
    def one(cls, n: int, field) -> "Poly":
        return cls.constant(n, field, field.one)

    @classmethod
    def monomial(cls, n: int, field, exp: tuple[int, ...], coeff=None) -> "Poly":
        return cls(n, field, {tuple(exp): field.one if coeff is None else coeff})

    @classmethod
    def variable(cls, n: int, field, index: int) -> "Poly":
        """The variable x_{index}, 1-indexed."""
        if not 1 <= index <= n:
            raise ValueError(f"variable index {index} out of range 1..{n}")
        exp = tuple(1 if j == index - 1 else 0 for j in range(n))
        return cls(n, field, {exp: field.one})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; undefined (raises) for the zero polynomial."""
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def coefficient(self, exp: tuple[int, ...]):
        return self.terms.get(tuple(exp), self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.n == other.n
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.terms.items())))

    def __repr__(self):
        from .grammar import format_poly

        return f"Poly({format_poly(self)!r})"

    def _check_compatible(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")
        if self.field != other.field:
            raise ValueError(f"fields differ: {self.field!r} vs {other.field!r}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        F = self.field
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = F.add(terms.get(exp, F.zero), c)
            if F.is_zero(s):
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return Poly._trusted(self.n, F, terms)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly._trusted(self.n, F, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        F = self.field
        add, mul = F.add, F.mul
        terms: dict = {}
        get = terms.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple([a + b for a, b in zip(e1, e2)])
                c = mul(c1, c2)
                old = get(e)
                terms[e] = c if old is None else add(old, c)
        # products of nonzero field elements are nonzero; only sums can cancel
        return Poly._trusted(self.n, F, {e: c for e, c in terms.items() if not F.is_zero(c)})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                break
            base = base * base
        return Poly.one(self.n, self.field) if result is None else result

    def evaluate(self, point):
        """Exact evaluation at a point given as a length-n coefficient vector."""
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        F = self.field
        total = F.zero
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(point, exp):
                for _ in range(e):
                    v = F.mul(v, x)
            total = F.add(total, v)
        return total

    def map_to_field(self, field) -> "Poly":
        """Reinterpret rational coefficients in another exact field."""
        if field == self.field:
            return self
        if self.field != QQ:
            raise ValueError("can only move polynomials out of the rational field")
        terms = {
            e: field.from_fraction(c.numerator, c.denominator)
            for e, c in self.terms.items()
        }
        return Poly(self.n, field, terms)


def diff_action(p: Poly, target: Poly) -> Poly:
    """Apply the differential operator ``p`` to the form ``target``.

    Plain differentiation, no factorial normalization: x_j acts as d/dX_j.
    The operator and the form must share the variable count and field; in
    prime-field mode the modulus must exceed the degree of ``target`` so that
    the falling factorials below stay invertible.
    """
    p._check_compatible(target)
    F = p.field
    if isinstance(F, PrimeField) and not target.is_zero():
        if F.p <= target.degree():
            raise ValueError(
                f"prime {F.p} must exceed deg F = {target.degree()} for the "
                "differentiation action to be faithful"
            )
    terms: dict = {}
    for op_exp, op_c in p.terms.items():
        for t_exp, t_c in target.terms.items():
            mult = 1
            for a, b in zip(op_exp, t_exp):
                if a > b:
                    mult = 0
                    break
                # falling factorial b * (b-1) * ... * (b-a+1)
                for r in range(a):
                    mult *= b - r
            if mult == 0:
                continue
            e = tuple(b - a for a, b in zip(op_exp, t_exp))
            c = F.mul(F.mul(op_c, t_c), F.from_int(mult))
            s = F.add(terms.get(e, F.zero), c)
            if F.is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
    return Poly(p.n, F, terms)


class LinearChange:
    """An invertible linear change of coordinates x_i -> sum_j m[i][j] x_j."""

    def __init__(self, matrix, field):
        self.n = len(matrix)
        self.field = field
        self.matrix = [list(row) for row in matrix]
        for row in self.matrix:
            if len(row) != self.n:
                raise ValueError("change-of-coordinates matrix must be square")
        from .linalg import ExactMatrix

        if field.is_zero(ExactMatrix(self.matrix, field).det()):
            raise ValueError("change-of-coordinates matrix is singular")

    def apply(self, p: Poly) -> Poly:
        """Substitute each variable of ``p`` by its image linear form."""
        if p.n != self.n:
            raise ValueError(f"variable counts differ: {p.n} vs {self.n}")
        if p.field != self.field:
            raise ValueError("field mismatch between change and polynomial")
        F = self.field
        n = self.n
        units = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
        images = [
            Poly._trusted(n, F, {
                units[j]: self.matrix[i][j]
                for j in range(n)
                if not F.is_zero(self.matrix[i][j])
            })
            for i in range(n)
        ]
        one = Poly.one(n, F)
        # powers[i][e] == images[i] ** e, grown one multiplication at a time
        powers = [[one, image] for image in images]
        add, mul = F.add, F.mul
        terms: dict = {}
        get = terms.get
        for exp, c in p.terms.items():
            term = one
            for i, e in enumerate(exp):
                if e:
                    cached = powers[i]
                    while len(cached) <= e:
                        cached.append(cached[-1] * images[i])
                    term = cached[e] if term is one else term * cached[e]
            for e, v in term.terms.items():
                v = mul(c, v)
                old = get(e)
                terms[e] = v if old is None else add(old, v)
        return Poly._trusted(n, F, {e: v for e, v in terms.items() if not F.is_zero(v)})


def random_linear_form(n: int, field: PrimeField, rng: random.Random) -> Poly:
    """A uniformly random nonzero linear form over a prime field.

    Deterministic given the RNG state; the all-zero draw is resampled.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("random linear forms require a prime field")
    while True:
        coeffs = [field.rand(rng) for _ in range(n)]
        if any(coeffs):
            break
    terms = {
        tuple(1 if j == i else 0 for j in range(n)): c
        for i, c in enumerate(coeffs)
        if c
    }
    return Poly(n, field, terms)


def multi_factorial(exp: tuple[int, ...]) -> int:
    """Product of the factorials of the entries."""
    return prod(map(factorial, exp))
