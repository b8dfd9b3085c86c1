"""Parsing and formatting of exact rational scalars and vectors.

Rationals are stdlib ``fractions.Fraction`` values throughout the package;
the wire format is the string "p/q" (or "p" for integers) with q > 0.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or "p" into a Fraction. Floats are rejected."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string or int, got {type(text).__name__}")
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if "/" in den:
            raise ValueError(f"malformed rational {text!r}")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_value(x: Fraction | int | float | None) -> str | None:
    """A result value for output: infinity as "inf", None (no value) as
    None, and any other value as an exact rational."""
    if x is None:
        return None
    return "inf" if x == float("inf") else format_rational(x)


def format_vector(v: Iterable[Fraction]) -> list[str]:
    return [format_rational(x) for x in v]


def as_vec(v: Sequence) -> Vec:
    """Coerce a sequence of ints/Fractions/strings to a rational vector."""
    return tuple(parse_rational(x) for x in v)
