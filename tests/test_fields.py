import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from apolar import DEFAULT_PRIME, GF, QQ, PrimeField, field_from_description
from apolar.fields import _is_prime


def test_default_prime_is_prime():
    assert DEFAULT_PRIME == 2**61 - 1
    GF(DEFAULT_PRIME)  # constructor runs the primality check


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(2**61 - 3)


# the least strong pseudoprimes to every prime base up to 37 and up to 41
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_strong_pseudoprime_to_bases_up_to_37_rejected():
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(PSI_12)


@pytest.mark.parametrize("modulus", [PSI_13, 2**89 - 1])
def test_moduli_from_the_certified_bound_rejected(modulus):
    with pytest.raises(ValueError, match=str(PSI_13)):
        PrimeField(modulus)


@pytest.mark.parametrize("modulus", [2**61 - 1, 2**64 - 59])
def test_word_size_primes_accepted(modulus):
    assert PrimeField(modulus).p == modulus


def test_prime_field_basics():
    f = GF(101)
    assert f.add(100, 5) == 4
    assert f.sub(3, 10) == 94
    assert f.mul(f.inv(7), 7) == 1
    assert f.from_fraction(1, 2) == 51
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_field_equality_and_description():
    assert GF(101) == GF(101)
    assert GF(101) != GF(103)
    assert QQ == QQ
    assert QQ.describe() == "q"
    assert GF(101).describe() == "fp:101"
    assert field_from_description("fp:101") == GF(101)
    assert field_from_description("q") == QQ
    assert field_from_description("fp") == GF(DEFAULT_PRIME)
    with pytest.raises(ValueError):
        field_from_description("gf2")


@pytest.mark.parametrize("text", ["fp:abc", "fp:", "fp:7.0"])
def test_non_integer_prime_names_the_descriptor(text):
    with pytest.raises(ValueError, match=re.escape(f"unknown field descriptor {text!r} "
                                                   "(expected q, fp or fp:PRIME)")):
        field_from_description(text)


def test_cached_refusal_still_refuses():
    for _ in range(3):
        with pytest.raises(ValueError, match="modulus 4 is not prime"):
            field_from_description("fp:4")


def test_each_prime_is_proved_once():
    _is_prime.cache_clear()
    GF()
    GF()
    info = _is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_negative_prime_is_not_prime():
    with pytest.raises(ValueError, match="not prime"):
        field_from_description("fp:-7")


nonzero_rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
).filter(lambda x: x != 0)


@given(nonzero_rationals)
def test_rational_inverse_exact(a):
    assert QQ.mul(a, QQ.inv(a)) == 1


@given(st.integers(min_value=1, max_value=DEFAULT_PRIME - 1))
def test_prime_inverse_exact(a):
    f = GF(DEFAULT_PRIME)
    assert f.mul(a, f.inv(a)) == 1


@given(st.sampled_from([2, 7, 101, DEFAULT_PRIME]), st.integers(-10**30, 10**30),
       st.integers(1, 10**6))
def test_from_fraction_times_denominator_is_numerator(p, num, den):
    f = GF(p)
    if den % p == 0:
        with pytest.raises(ZeroDivisionError):
            f.from_fraction(num, den)
        return
    x = f.from_fraction(num, den)
    assert 0 <= x < p
    assert f.mul(x, f.from_int(den)) == f.from_int(num)
    assert f.from_fraction(num, 1) == num % p
