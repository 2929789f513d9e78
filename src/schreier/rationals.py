"""Strict parsing and rendering of exact rationals.

File formats carry rationals as canonical strings: ``"p"`` or ``"p/q"`` with
q > 0 and gcd(|p|, q) = 1.  Anything non-canonical ("2/4", "-0", "+1",
whitespace, a trailing newline) is rejected so that parse/serialize
round-trips are the identity.  A float is binary, not the rational its
digits spell, so it is never taken as a rational (``exact``).
"""

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

from .errors import VectorFormatError

_RATIONAL_RE = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")
# A positive base-10 index as the file formats, the CLI and SCHREIER_MAX_DIM
# write it: ASCII digits, no sign, no leading zero, no underscore.
_INDEX_RE = re.compile(r"[1-9][0-9]*")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string, rejecting non-lowest-terms forms."""
    if not isinstance(text, str):
        raise VectorFormatError(f"rational must be a string, got {type(text).__name__}")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise VectorFormatError(f"malformed rational literal {text!r}")
    num = int(m.group(1))
    if m.group(1) == "-0":
        raise VectorFormatError("malformed rational literal '-0'")
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if gcd(abs(num), den) != 1:
        raise VectorFormatError(f"rational {text!r} is not in lowest terms")
    return Fraction(num, den)


def exact(q) -> Fraction | int:
    """q as an exact rational: an int or a Fraction as it is, a Decimal as
    its Fraction; anything else, a float or a string included, is a TypeError."""
    if isinstance(q, (int, Fraction)):
        return q
    if isinstance(q, Decimal):
        return Fraction(q)
    raise TypeError(f"{type(q).__name__} {q!r} is not exact; use an int or a Fraction")


def format_rational(q: Fraction | int) -> str:
    q = exact(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def decimal_string(q: Fraction | int) -> str:
    """Render q to six decimal places with exact round-half-even."""
    q = exact(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled, rem = divmod(q.numerator * 10**6, q.denominator)
    twice = 2 * rem
    if twice > q.denominator or (twice == q.denominator and scaled % 2 == 1):
        scaled += 1
    whole, frac = divmod(scaled, 10**6)
    return f"{sign}{whole}.{frac:06d}"
