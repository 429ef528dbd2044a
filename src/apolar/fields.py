"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

A field object is a descriptor plus arithmetic on raw payloads: rationals are
``fractions.Fraction`` (always reduced, positive denominator), prime-field
elements are plain ints in ``[0, p)``.  Polynomials and matrices carry one
field object and route all coefficient arithmetic through it, so the two
representations never mix inside a computation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

#: Default modulus for "generic over a big prime" computations (Mersenne prime).
DEFAULT_PRIME = 2**61 - 1


#: psi_13, the least strong pseudoprime to every prime base up to 41 (Sorenson
#: and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
#: 2017): below it, Miller-Rabin with those bases decides primality exactly.
_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=64, typed=True)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _PRIMALITY_BOUND.

    The verdicts on the last 64 moduli are cached, so a process that builds
    `GF()` or runs the CLI many times proves each prime once.  A refusal is
    cached too, and refused again on every call.
    """
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of arbitrary-precision rationals; payloads are Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, k: int):
        return Fraction(k)

    def from_fraction(self, num: int, den: int = 1):
        return Fraction(num, den)

    def is_zero(self, a) -> bool:
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def describe(self) -> str:
        return "q"


class PrimeField:
    """The prime field F_p; payloads are ints in [0, p)."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if p >= _PRIMALITY_BOUND:
            raise ValueError(f"modulus {p} is not below {_PRIMALITY_BOUND}, "
                             "the bound under which primality is certified")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def neg(self, a):
        return (self.p - a) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, k: int):
        return k % self.p

    def from_fraction(self, num: int, den: int = 1):
        if den == 1:
            return num % self.p
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator {den} vanishes mod {self.p}")
        return num * pow(den, self.p - 2, self.p) % self.p

    def is_zero(self, a) -> bool:
        return a == 0

    def rand(self, rng: random.Random):
        return rng.randrange(self.p)

    def rand_nonzero(self, rng: random.Random):
        return rng.randrange(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def describe(self) -> str:
        return f"fp:{self.p}"


#: Shared rational-field instance.
QQ = RationalField()


def GF(p: int = DEFAULT_PRIME) -> PrimeField:
    return PrimeField(p)


def field_from_description(text: str):
    """Parse a field descriptor: ``q`` | ``fp`` | ``fp:PRIME``."""
    if text == "q":
        return QQ
    if text == "fp":
        return PrimeField(DEFAULT_PRIME)
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            pass
        else:
            return PrimeField(p)
    raise ValueError(f"unknown field descriptor {text!r} (expected q, fp or fp:PRIME)")
