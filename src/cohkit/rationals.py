"""Exact rational numbers and their text renderings.

Every rational in cohkit is a fractions.Fraction.  The LP and the
coherence engine carry their data as Python ints over one common
denominator (integer_row), so rationals are built only for the values
read in and the results handed back.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

BACKEND = "fractions"  # read by perfbench, through getattr, for its environment line


def rat(numerator=0, denominator=1):
    """Build an exact rational; strings go through parse_rational."""
    if type(numerator) is Fraction and denominator == 1:
        return numerator  # immutable, so no copy is needed
    if isinstance(numerator, str):
        if denominator != 1:
            raise ValueError("string form takes no denominator")
        return parse_rational(numerator)
    return Fraction(numerator, denominator)

ZERO = rat(0)
ONE = rat(1)


def integer_row(values):
    """(ints, d) with ints[j] / d == values[j]: d is the lcm of the
    entries' denominators, the one positive d with gcd(d, *ints) == 1."""
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    d = lcm(*dens)
    if d == 1:
        return nums, 1
    return [a * (d // e) for a, e in zip(nums, dens)], d


class RationalParseError(ValueError):
    pass


def _digits(s: str) -> bool:
    """Nonempty and ASCII 0-9 only.  str.isdigit is also true for
    superscripts, which int() rejects, and for the digits of other
    scripts, which int() reads."""
    return s.isascii() and s.isdigit()


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
        if not (_digits(num) and _digits(den)):
            raise RationalParseError(f"bad rational literal {text!r}")
        if int(den) == 0:
            raise RationalParseError(f"zero denominator in {text!r}")
        return sign * rat(int(num), int(den))
    if "." in s:
        whole, _, frac = s.partition(".")
        if (whole and not _digits(whole)) or (frac and not _digits(frac)):
            raise RationalParseError(f"bad decimal literal {text!r}")
        if not whole and not frac:
            raise RationalParseError(f"bad decimal literal {text!r}")
        whole = whole or "0"
        frac = frac or "0"
        return sign * (rat(int(whole)) + rat(int(frac), 10 ** len(frac)))
    if not _digits(s):
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
    digits.
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

