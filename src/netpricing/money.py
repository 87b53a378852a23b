"""Fixed-point money arithmetic.

Prices are stored as an integer number of minor units (hundredths of a
currency unit) so that equality tests between posted prices, competitor
prices, and grid points are exact. Conversions go through decimal strings,
never through binary floats.
"""

from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation, Overflow
from fractions import Fraction

MONEY_SCALE = 100

Money = int


class MoneyError(ValueError):
    """Unparseable or non-finite money literal, or one finer than the minor unit."""


# The literals money_str and fraction_str write for nonnegative values,
# in ASCII digits only: these are parsed without Decimal.
_CANONICAL_MONEY = re.compile(r"[0-9]+\.[0-9][0-9]")
_CANONICAL_NUMBER = re.compile(r"([0-9]+)(?:\.([0-9]+))?")


def parse_money(value) -> Money:
    """Parse a money literal into minor units.

    Accepts int (whole currency units), decimal strings such as "7.50",
    Decimal, and Fraction with a denominator dividing the money scale.
    Binary floats are rejected; callers that start from floats must decide
    how to round before money enters the system.

    A str of ASCII digits, a point and two more digits (what money_str
    writes for a nonnegative amount) is read as an integer directly;
    every other string goes through Decimal, so the value and any
    MoneyError are the same either way.
    """
    if type(value) is str and _CANONICAL_MONEY.fullmatch(value):
        return int(value.replace(".", ""))
    if isinstance(value, bool):
        raise MoneyError(f"not a money literal: {value!r}")
    if isinstance(value, int):
        return value * MONEY_SCALE
    if isinstance(value, Fraction):
        scaled = value * MONEY_SCALE
        if scaled.denominator != 1:
            raise MoneyError(f"{value} is finer than the minor unit")
        return int(scaled)
    if isinstance(value, float):
        raise MoneyError("money literals must be strings or integers, not floats")
    if isinstance(value, (str, Decimal)):
        try:
            dec = Decimal(str(value).strip())
        except InvalidOperation as exc:
            raise MoneyError(f"not a money literal: {value!r}") from exc
        if not dec.is_finite():
            raise MoneyError(f"{value!r} is not a finite money literal")
        try:
            scaled = dec.scaleb(2)
        except Overflow as exc:
            raise MoneyError(f"{value!r} is out of range") from exc
        if scaled != scaled.to_integral_value():
            raise MoneyError(f"{value!r} is finer than the minor unit")
        return int(scaled)
    raise MoneyError(f"not a money literal: {value!r}")


def money_str(cents: Money) -> str:
    """Canonical decimal rendering, always two decimal places."""
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // MONEY_SCALE}.{cents % MONEY_SCALE:02d}"


def money_unit(cents: Money) -> Fraction:
    """Exact value in currency units."""
    return Fraction(cents, MONEY_SCALE)


def money_float(cents: Money) -> float:
    return cents / MONEY_SCALE


def fraction_str(value: Fraction) -> str:
    """Render a Fraction canonically.

    Values with a terminating decimal expansion (denominator of the form
    2^a * 5^b) become plain decimal strings; anything else falls back to
    "p/q". parse_fraction accepts both.
    """
    if isinstance(value, int):
        return str(value)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    if digits == 0:
        return str(value.numerator)
    scaled = value.numerator * 10**digits // value.denominator
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}".rstrip("0").rstrip(".") or "0"


def parse_fraction(text) -> Fraction:
    """Parse the output of fraction_str (decimal or "p/q").

    A str of ASCII digits with an optional point and more digits (what
    fraction_str writes for a nonnegative terminating value) becomes
    digits / 10^places directly; every other string goes through
    Decimal, or int for "p/q", so the value and any MoneyError are the
    same either way.
    """
    if type(text) is str:
        match = _CANONICAL_NUMBER.fullmatch(text)
        if match:
            whole, places = match.groups()
            if places is None:
                return Fraction(int(whole))
            return Fraction(int(whole + places), 10 ** len(places))
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise MoneyError(f"not a number literal: {text!r}")
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(Decimal(text))
    except (ValueError, ZeroDivisionError, InvalidOperation) as exc:
        raise MoneyError(f"not a number literal: {text!r}") from exc
    except OverflowError as exc:  # Fraction of an infinite Decimal
        raise MoneyError(f"{text!r} is not a finite number literal") from exc


def number_str(value) -> str:
    """Render a revenue or volume for reports: exact when possible."""
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return repr(float(value))
