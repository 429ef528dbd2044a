from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from apolar import GF, QQ, ParseError, Poly, format_poly, monomials_of_degree, parse_poly
from oracles import parse_poly_by_scanner


def test_two_term_form():
    p = parse_poly("3/2*X1^2*X2 - X3^3", 3)
    assert p.terms == {(2, 1, 0): Fraction(3, 2), (0, 0, 3): Fraction(-1)}


def test_repeated_factor_normalizes():
    assert parse_poly("X1*X1", 2) == parse_poly("X1^2", 2)


def test_repeated_terms_combine_and_cancel():
    assert parse_poly("X1 + 2*X2 - X1 + 1/2*X2", 2).terms == {(0, 1): Fraction(5, 2)}
    assert parse_poly("3*X1^2 + 4*X1*X1", 2, GF(7)).is_zero()


def test_out_of_range_variable():
    with pytest.raises(ParseError) as err:
        parse_poly("X5", 4)
    assert err.value.position == 1


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("X1 + * X2", 2)
    assert err.value.position == 5


def test_malformed_rational():
    with pytest.raises(ParseError):
        parse_poly("3/*X1", 1)


def test_lowercase_and_whitespace():
    assert parse_poly(" x1 * x2 ", 2) == parse_poly("X1*X2", 2)


def test_bare_constant_roundtrip():
    p = Poly.constant(2, QQ, Fraction(5, 3))
    assert parse_poly(format_poly(p), 2) == p


def test_prime_field_coefficients():
    f = GF(101)
    p = parse_poly("1/2*X1 - 3*X2", 2, f)
    assert p.terms == {(1, 0): 51, (0, 1): 98}


def test_zero_rendering():
    assert format_poly(Poly.zero(3, QQ)) == "0"


coeffs = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12)


@st.composite
def random_rational_poly(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    mons = [m for d in range(0, 4) for m in monomials_of_degree(n, d)]
    chosen = draw(st.lists(st.sampled_from(mons), max_size=6, unique=True))
    cs = draw(st.lists(coeffs.filter(lambda c: c != 0),
                       min_size=len(chosen), max_size=len(chosen)))
    return Poly(n, QQ, dict(zip(chosen, cs)))


@settings(max_examples=120)
@given(random_rational_poly())
def test_parse_format_roundtrip(p):
    assert parse_poly(format_poly(p), p.n) == p


@st.composite
def grammar_texts(draw):
    """Text in the grammar with drawn spacing and letter case, as (text, n)."""
    n = draw(st.integers(1, 4))
    space = st.sampled_from(["", " ", "  ", "\t", "\n"])
    number = st.integers(0, 10**20).map(str)

    def term():
        pieces = []
        if draw(st.booleans()):
            coeff = draw(st.sampled_from(["", "-"])) + draw(number)
            if draw(st.booleans()):
                coeff += "/" + draw(st.sampled_from(["", "-"])) + draw(number)
            pieces.append(coeff)
        for _ in range(draw(st.integers(0 if pieces else 1, 3))):
            factor = draw(st.sampled_from("Xx")) + str(draw(st.integers(1, n)))
            if draw(st.booleans()):
                factor += "^" + str(draw(st.integers(1, 12)))
            pieces.append(factor)
        star = [draw(space) + "*" + draw(space) for _ in pieces[1:]]
        return pieces[0] + "".join(s + p for s, p in zip(star, pieces[1:]))

    text = draw(space) + draw(st.sampled_from(["", "+", "-"])) + draw(space) + term()
    for _ in range(draw(st.integers(0, 3))):
        text += draw(space) + draw(st.sampled_from("+-")) + draw(space) + term()
    return text + draw(space), n


#: the grammar's characters, other whitespace (a no-break space), a decimal
#: digit that is not ASCII (Arabic-Indic three), a digit that is not decimal
#: (superscript two), and characters outside the grammar
CORRUPTIONS = "0123456789Xx*^/+- \t\n\u00a0\u0663\u00b2a.,"


@st.composite
def corrupted_texts(draw):
    """A grammar text, then perhaps one character inserted, deleted or replaced."""
    text, n = draw(grammar_texts())
    k = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(CORRUPTIONS))
    text = draw(st.sampled_from([
        text, text[:k] + char + text[k:], text[:k] + text[k + 1:], text[:k] + char + text[k + 1:],
    ]))
    return text, n


def _outcome(parse, text, n, field):
    try:
        return parse(text, n, field)
    except ParseError as exc:
        return str(exc), exc.position
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(corrupted_texts(), st.sampled_from([QQ, GF(7), GF(2**61 - 1)]))
# the parser checks each distinct factor token once per call: a bad index
# met again in another token, a zero exponent on an index already met, and
# one variable written as several tokens
@example(("X1*X9 + 2*X9^2", 4), QQ)
@example(("X2 + X1^2*X2^0 - 3*X2^0", 2), GF(7))
@example(("X1^2*X1 + X1*X1^2", 1), GF(2**61 - 1))
def test_parser_agrees_with_scanner(case, field):
    """The same Poly, or the same ParseError message and position, as the scanner.

    One difference is by design: the scanner reads a digit that is not
    decimal, such as a superscript two, into an integer that int() then
    refuses with a bare ValueError; the regular expression stops before it,
    so the parser raises a ParseError there instead.
    """
    text, n = case
    want = _outcome(parse_poly_by_scanner, text, n, field)
    got = _outcome(parse_poly, text, n, field)
    if want is ValueError:
        assert "\u00b2" in text and isinstance(got, tuple)
    else:
        assert got == want
