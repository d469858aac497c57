"""Exact half-away-from-zero rounding for report rendering.

All table values are rounded only at render time. Ties go away from zero:
73.05 renders as "73.1" and 72.35 as "72.4". Floats are first converted via
their shortest repr so binary artifacts (72.35 is not exactly representable)
never leak into the rendered digit.
"""

from decimal import Context, Decimal, ROUND_HALF_UP


def round_half_away(value, places: int) -> Decimal:
    """Round to `places` decimal places, ties away from zero, at a precision that holds every digit and a carry."""
    if not isinstance(value, Decimal):
        value = Decimal(str(value))
    context = Context(prec=max(value.adjusted(), 0) + places + 2)
    return value.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP, context=context)


def fmt_fixed(value, places: int) -> str:
    """Render with exactly `places` decimals, half-away-from-zero."""
    return str(round_half_away(value, places))


def fmt_percent(fraction, places: int = 2) -> str:
    """Render a fraction as a percentage string, e.g. 0.0196078 -> '1.96%'."""
    if not isinstance(fraction, Decimal):
        fraction = Decimal(str(fraction))
    return fmt_fixed(fraction.scaleb(2), places) + "%"
