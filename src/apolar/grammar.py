"""Text grammar for polynomials.

term     = [sign] [coefficient '*'] factor ('*' factor)*
factor   = variable ['^' positive-int]
variable = ('X' | 'x') positive-int
coefficient = integer | integer '/' positive-integer

Whitespace is insignificant, variables are 1-indexed, and the ambient
variable count is supplied by the caller.  A bare coefficient with no factor
is additionally accepted so constants round-trip.
"""

from __future__ import annotations

from .fields import QQ
from .poly import Poly


class ParseError(ValueError):
    """Syntax or range error, with the 0-based offset where it happened."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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


def parse_poly(text: str, n: int, field=QQ) -> Poly:
    """Parse grammar text into a polynomial with ``n`` ambient variables."""
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
        exp, coeff = _parse_term(sc, n, field, sign)
        terms[exp] = field.add(terms.get(exp, field.zero), coeff)
        first = False
        sc.skip_ws()
        if sc.pos == len(text):
            return Poly(n, field, terms)
        if sc.peek() not in "+-":
            raise ParseError(f"unexpected character {sc.peek()!r}", sc.pos)


def _parse_term(sc: _Scanner, n: int, field, sign: int) -> tuple[tuple[int, ...], object]:
    """One term as (exponent, signed coefficient); the coefficient may be zero."""
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
        # a bare coefficient term ends here if no '*' follows
    if not have_factor and not have_coeff:
        raise ParseError("empty term", sc.pos)
    if sign < 0:
        coeff = field.neg(coeff)
    return tuple(exp), coeff


def _format_coeff(c, field) -> str:
    if field == QQ and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def format_poly(p: Poly, var: str = "X") -> str:
    """Render a polynomial in the grammar; parse(format(p)) == p."""
    if p.is_zero():
        return "0"
    field = p.field
    # descending graded-lex: by total degree, then lex on exponents
    exps = sorted(p.terms, key=lambda e: (sum(e), e), reverse=True)
    pieces: list[str] = []
    for k, exp in enumerate(exps):
        c = p.terms[exp]
        text = _format_coeff(c, field)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        factors = []
        for i, e in enumerate(exp):
            if e == 1:
                factors.append(f"{var}{i + 1}")
            elif e > 1:
                factors.append(f"{var}{i + 1}^{e}")
        if factors:
            body = "*".join(factors)
            term = body if text == "1" else f"{text}*{body}"
        else:
            term = text
        if k == 0:
            pieces.append(f"-{term}" if negative else term)
        else:
            pieces.append(("- " if negative else "+ ") + term)
    return " ".join(pieces)
