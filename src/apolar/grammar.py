"""Text grammar for polynomials.

term     = [sign] [coefficient '*'] factor ('*' factor)*
factor   = variable ['^' positive-int]
variable = ('X' | 'x') positive-int
coefficient = integer | integer '/' positive-integer

Whitespace is insignificant between terms and around '*', but a '/', a
'^' and a variable index follow what they belong to directly.  Variables
are 1-indexed, and the ambient variable count is supplied by the caller.  A
bare coefficient with no factor is additionally accepted so constants
round-trip.

The text is read once, left to right, by one compiled regular expression,
`_TERM`, whose successive matches are the terms: the sign, the coefficient
and denominator, and the factors as one span, which `_FACTOR` splits into
indices and exponents.  Since the content of a term is optional in `_TERM`,
every text matches; a term whose match is empty or stops before the next
sign or the end of the text is a syntax error, which `_syntax_error` names
from the character where the match stopped.  Range checks run term by term
in text order, so an error is reported at the same offset a left-to-right
reader would stop at; each distinct factor token is checked once per parse,
and nothing read is kept after it returns.  Digits are decimal digits, the
ones int() reads: a digit such as a superscript two ends the number before
it and is a syntax error.  `format_poly` writes each term once, with
variable names built once per call.
"""

from __future__ import annotations

import re

from .fields import QQ
from .poly import Poly


class ParseError(ValueError):
    """Syntax or range error, with the 0-based offset where it happened."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# one factor, its index and its exponent; \d is what int() reads
_FACTOR = re.compile(r"[Xx](-?\d+)(?:\^(-?\d+))?")
_F = r"[Xx]-?\d+(?:\^-?\d+)?"
# one term with its sign and the whitespace around it: a coefficient, an
# optional denominator and '*'-led factors (groups 2-4), or factors alone
# (group 5); the content may be missing, so every text matches
_TERM = re.compile(
    rf"\s*([+-]?)\s*(?:(-?\d+)(?:/(-?\d+))?((?:\s*\*\s*{_F})*)|({_F}(?:\s*\*\s*{_F})*))?(\s*)"
)


def parse_poly(text: str, n: int, field=QQ) -> Poly:
    """Parse grammar text into a polynomial with ``n`` ambient variables.

    The text is read in one pass: `_TERM.finditer` yields each term, with
    its sign and the whitespace around it, and `_FACTOR` reads back its
    factors.  Each distinct factor token, an (index, exponent) text pair, is
    range-checked once per call: a memo that lives for this call keeps the
    slot and power of every token that passed.  A bad token raises where it
    first occurs, so the checks still run in text order.  A term that is
    missing or not followed by a sign or the end goes to `_syntax_error`.
    """
    if not text or text.isspace():
        raise ParseError("empty input", 0)
    terms: dict = {}
    checked: dict = {}  # factor token -> (slot, power)
    end = len(text)
    for m in _TERM.finditer(text):
        sign, num, den, tail, lead, _ = m.groups()
        coeff = field.one
        if num is not None:
            num, d = int(num), 1
            if den is not None:
                d = int(den)
                if d <= 0:
                    raise ParseError("denominator must be positive", m.start(3))
            try:
                coeff = field.from_fraction(num, d)
            except ZeroDivisionError:
                raise ParseError("denominator vanishes in this field", m.end(3)) from None
        empty = num is None and lead is None
        span = m.span(5 if num is None else 4)
        factors = [] if empty else _FACTOR.findall(text, *span)
        exp = [0] * n
        for token in factors:
            slot = checked.get(token)
            if slot is None:
                # first met here, so index() finds this place in the term
                slot = checked[token] = _check_factor(text, span, factors.index(token), token, n)
            exp[slot[0]] += slot[1]
        pos = m.end()
        if empty or (pos < end and text[pos] not in "+-"):
            slash = num is not None and den is None and not tail
            _syntax_error(text, pos, m.start(6), empty, slash, bool(factors) and not factors[-1][1])
        if sign == "-":
            coeff = field.neg(coeff)
        key = tuple(exp)
        terms[key] = field.add(terms[key], coeff) if key in terms else coeff
        if pos == end:
            return Poly._trusted(n, field, {e: c for e, c in terms.items() if not field.is_zero(c)})


def _check_factor(text: str, span, k: int, token, n: int) -> tuple[int, int]:
    """The slot and power of the k-th factor in `span`, or its range error."""
    index, power = token
    index = int(index)
    if not 1 <= index <= n:
        raise ParseError(f"variable index {index} out of range 1..{n}",
                         _factor_offset(text, span, k, 1))
    power = int(power) if power else 1
    if power <= 0:
        raise ParseError("exponent must be positive", _factor_offset(text, span, k, 2))
    return index - 1, power


def _factor_offset(text: str, span, k: int, group: int) -> int:
    """Where group `group` (index or exponent) of the k-th factor in `span` starts."""
    return list(_FACTOR.finditer(text, *span))[k].start(group)


def _syntax_error(text: str, pos: int, end: int, empty: bool, slash: bool, caret: bool):
    """Raise the error for a term whose match stopped at `pos`.

    `end` is where its content stopped, before the whitespace; `empty` says
    that there was none, and `slash` and `caret` that a '/' or '^' right
    there would have begun a denominator or an exponent.  A missing integer
    is reported after the '-' that may open it.
    """
    def missing(what, at):
        raise ParseError(f"expected {what}", at + (text[at:at + 1] == "-"))

    c = text[pos:pos + 1]
    if empty:
        if c == "-":
            missing("coefficient", pos)
        if c in ("X", "x"):
            missing("variable index", pos + 1)
        raise ParseError("expected a coefficient or a variable", pos)
    if pos == end and (c == "/" and slash):
        missing("denominator", pos + 1)
    if pos == end and (c == "^" and caret):
        missing("exponent", pos + 1)
    if c == "*":
        at = len(text) - len(text[pos + 1:].lstrip())
        if text[at:at + 1] in ("X", "x"):
            missing("variable index", at + 1)
        raise ParseError("expected a variable after '*'", at)
    raise ParseError(f"unexpected character {c!r}", pos)


def format_poly(p: Poly, var: str = "X") -> str:
    """Render a polynomial in the grammar; parse(format(p)) == p."""
    if p.is_zero():
        return "0"
    rational = p.field == QQ
    names = [f"{var}{i + 1}" for i in range(p.n)]
    # descending graded-lex: by total degree, then lex on exponents
    exps = sorted(p.terms, key=lambda e: (sum(e), e), reverse=True)
    pieces: list[str] = []
    for k, exp in enumerate(exps):
        c = p.terms[exp]
        text = f"{c.numerator}/{c.denominator}" if rational and c.denominator != 1 else str(c)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e]
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
