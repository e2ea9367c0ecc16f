"""Exact rational numbers and their text renderings.

gmpy2's mpq is used when available (roughly an order of magnitude faster
than fractions.Fraction on desk-scale numerators); otherwise the standard
library Fraction steps in.  Everything downstream only relies on the
shared surface: arithmetic mixing with int, total order, and the
numerator/denominator attributes in canonical form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

try:
    from gmpy2 import mpq as _mpq

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpq = Fraction
    BACKEND = "fractions"


def rat(numerator=0, denominator=1):
    """Build an exact rational; strings go through parse_rational."""
    if type(numerator) is _mpq and denominator == 1:
        return numerator  # immutable, so no copy is needed
    if isinstance(numerator, str):
        if denominator != 1:
            raise ValueError("string form takes no denominator")
        return parse_rational(numerator)
    return _mpq(numerator, denominator)

ZERO = rat(0)
ONE = rat(1)


def integer_row(values):
    """(ints, d) with ints[j] / d == values[j]: d is the lcm of the
    entries' denominators, the one positive d with gcd(d, *ints) == 1."""
    nums = [int(v.numerator) for v in values]
    dens = [int(v.denominator) for v in values]
    d = lcm(*dens)
    if d == 1:
        return nums, 1
    return [a * (d // e) for a, e in zip(nums, dens)], d


class RationalParseError(ValueError):
    pass


def parse_rational(text: str):
    """Parse "3/4", "-2", "0.25" into an exact rational.

    Decimals are read exactly (0.1 becomes 1/10); exponents are not
    supported.
    """
    s = text.strip()
    if not s:
        raise RationalParseError("empty number")
    sign = 1
    if s[0] in "+-":
        if s[0] == "-":
            sign = -1
        s = s[1:]
    if "/" in s:
        num, _, den = s.partition("/")
        if not (num.isdigit() and den.isdigit()):
            raise RationalParseError(f"bad rational literal {text!r}")
        if int(den) == 0:
            raise RationalParseError(f"zero denominator in {text!r}")
        return sign * rat(int(num), int(den))
    if "." in s:
        whole, _, frac = s.partition(".")
        if (whole and not whole.isdigit()) or (frac and not frac.isdigit()):
            raise RationalParseError(f"bad decimal literal {text!r}")
        if not whole and not frac:
            raise RationalParseError(f"bad decimal literal {text!r}")
        whole = whole or "0"
        frac = frac or "0"
        return sign * (rat(int(whole)) + rat(int(frac), 10 ** len(frac)))
    if not s.isdigit():
        raise RationalParseError(f"bad number literal {text!r}")
    return sign * rat(int(s))


def format_rational(value) -> str:
    """Canonical exact rendering: "3/4", "-1/2", "2"."""
    value = rat(value)
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def format_decimal(value, digits: int = 12) -> str:
    """Decimal rendering, exact when terminating, else rounded.

    Rounding is half-away-from-zero on the last of ``digits`` fractional
    digits, which keeps the output deterministic across backends.
    """
    value = rat(value)
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    whole, rem = divmod(num, den)
    if rem == 0:
        return f"{sign}{whole}"
    scaled = rem * 10**digits
    frac, tail = divmod(scaled, den)
    if 2 * tail >= den:
        frac += 1
        if frac >= 10**digits:
            whole += 1
            frac = 0
            tail = 0
    if frac == 0 and tail == 0:
        return f"{sign}{whole}"
    text = str(frac).rjust(digits, "0")
    if tail == 0:
        text = text.rstrip("0")
    return f"{sign}{whole}.{text}"

