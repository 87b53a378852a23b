"""Fixed-point money parsing and rendering."""

from decimal import Decimal, InvalidOperation
from fractions import Fraction

import pytest

from netpricing import (
    MONEY_SCALE,
    MoneyError,
    fraction_str,
    money_float,
    money_str,
    money_unit,
    number_str,
    parse_fraction,
    parse_money,
)


def test_scale_is_cents():
    assert MONEY_SCALE == 100


@pytest.mark.parametrize(
    "text,cents",
    [
        ("0", 0),
        ("7", 700),
        ("12.5", 1250),
        ("0.01", 1),
        ("25.00", 2500),
        ("-3.25", -325),
    ],
)
def test_parse_money_strings(text, cents):
    assert parse_money(text) == cents


def test_parse_money_other_types():
    assert parse_money(7) == 700
    assert parse_money(Decimal("9.99")) == 999
    assert parse_money(Fraction(5, 2)) == 250


def test_parse_money_rejects_sub_cent():
    with pytest.raises(MoneyError):
        parse_money("1.001")
    with pytest.raises(MoneyError):
        parse_money(Fraction(1, 3))


def test_parse_money_rejects_floats():
    with pytest.raises(MoneyError):
        parse_money(1.5)


def test_parse_money_rejects_garbage():
    with pytest.raises(MoneyError):
        parse_money("seven")


@pytest.mark.parametrize(
    "value", ["inf", "-inf", "Infinity", "nan", "NaN", "sNaN", Decimal("-Infinity")]
)
def test_parse_money_rejects_non_finite(value):
    with pytest.raises(MoneyError, match="not a finite money literal"):
        parse_money(value)


@pytest.mark.parametrize("value", ["1e999999", "-1e999999", Decimal("9e999998")])
def test_parse_money_rejects_out_of_range(value):
    # Scaling to minor units would overflow Decimal's exponent range.
    with pytest.raises(MoneyError, match="is out of range"):
        parse_money(value)


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", " inf"])
def test_parse_fraction_rejects_infinite(text):
    with pytest.raises(MoneyError, match="is not a finite number literal"):
        parse_fraction(text)


def test_money_str_two_decimals():
    assert money_str(700) == "7.00"
    assert money_str(1250) == "12.50"
    assert money_str(1) == "0.01"
    assert money_str(-325) == "-3.25"


def test_money_round_trip():
    for cents in (0, 1, 99, 100, 12345, -250):
        assert parse_money(money_str(cents)) == cents


def test_money_unit_and_float():
    assert money_unit(1250) == Fraction(25, 2)
    assert money_float(1250) == 12.5


def test_fraction_str_terminating():
    assert fraction_str(Fraction(5, 2)) == "2.5"
    assert fraction_str(Fraction(7)) == "7"
    assert fraction_str(Fraction(1, 8)) == "0.125"


def test_fraction_str_repeating_falls_back_to_ratio():
    assert fraction_str(Fraction(1, 3)) == "1/3"
    assert parse_fraction("1/3") == Fraction(1, 3)


def test_parse_fraction_decimal_forms():
    assert parse_fraction("2.5") == Fraction(5, 2)
    assert parse_fraction("10") == Fraction(10)


def test_number_str_dispatch():
    assert number_str(Fraction(5, 2)) == "2.5"
    assert number_str(3) == "3"
    assert float(number_str(1.25)) == 1.25


def _outcome(parse, text):
    try:
        return ("value", parse(text))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))


def _decimal_money(value):
    """parse_money of a string, all through Decimal, as it was before the
    canonical fast path."""
    try:
        dec = Decimal(str(value).strip())
    except InvalidOperation as exc:
        raise MoneyError(f"not a money literal: {value!r}") from exc
    if not dec.is_finite():
        raise MoneyError(f"{value!r} is not a finite money literal")
    scaled = dec.scaleb(2)
    if scaled != scaled.to_integral_value():
        raise MoneyError(f"{value!r} is finer than the minor unit")
    return int(scaled)


def _decimal_fraction(text):
    """parse_fraction of a string, all through Decimal (or int for "p/q"),
    as it was before the canonical fast path."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(Decimal(text))
    except (ValueError, ZeroDivisionError, InvalidOperation) as exc:
        raise MoneyError(f"not a number literal: {text!r}") from exc


@pytest.mark.parametrize(
    "text",
    ["7.50", "0.00", "007.25", "1.", ".5", "1.5", "1.005", " 2.50", "2.50 ",
     "+2.50", "-2.50", "2.5e1", "1E2", "2_0.00", "٣.00", "３.５０",
     "1/2", "3/0", "", ".", "1.2.3"],
)
def test_canonical_fast_paths_agree_with_decimal(text):
    assert _outcome(parse_money, text) == _outcome(_decimal_money, text)
    assert _outcome(parse_fraction, text) == _outcome(_decimal_fraction, text)


def test_parsers_agree_with_decimal_on_any_literal():
    # Spaces, signs, exponents, any number of decimals, a bare point and
    # non-ASCII digits (which Decimal reads and the fast paths must not).
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    digits = st.text(st.sampled_from("0123456789٣５๒_"), max_size=4)

    @st.composite
    def literals(draw):
        parts = [
            draw(st.sampled_from(["", " ", "\t"])),
            draw(st.sampled_from(["", "-", "+"])),
            draw(digits),
            draw(st.sampled_from(["", "."])),
            draw(digits),
            draw(st.sampled_from(["", "e2", "E-3", "e+0", "/3", "/0"])),
            draw(st.sampled_from(["", " ", "\n"])),
        ]
        return "".join(parts)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(literals() | st.text(max_size=6))
    def check(text):
        assert _outcome(parse_money, text) == _outcome(_decimal_money, text)
        assert _outcome(parse_fraction, text) == _outcome(_decimal_fraction, text)

    check()
