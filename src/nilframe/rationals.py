"""Exact rational parsing, formatting and root helpers.

Symbolic work in the package is exact: ``fractions.Fraction`` here and in
the algebra, and integer numerators over dyadic common denominators in the
certified sup and measure (``spectral``), which build one Fraction per
region.  Floats only steer refinement there, and otherwise appear only in
quadrature and verification layers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import SchemaError


def parse_rational(value, field: str = "value") -> Fraction:
    """Parse an int, a decimal string, or a "p/q" string into an exact Fraction."""
    if isinstance(value, bool):
        raise SchemaError(field, f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        # Fraction also reads exponents, and "1e10000000" would take seconds
        if "e" in value or "E" in value:
            raise SchemaError(field, f"not a rational: {value!r} (no exponents)")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(field, f"not a rational: {value!r} ({exc})") from None
    if isinstance(value, float):
        # Floats are ambiguous carriers for exact data; reject so configs stay exact.
        raise SchemaError(field, f"floats are not accepted for exact fields: {value!r}")
    raise SchemaError(field, f"cannot parse {type(value).__name__} as rational")


def parse_rational_vector(values, length: int | None, field: str) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise SchemaError(field, f"expected a list, got {type(values).__name__}")
    out = tuple(parse_rational(v, f"{field}[{i}]") for i, v in enumerate(values))
    if length is not None and len(out) != length:
        raise SchemaError(field, f"expected length {length}, got {len(out)}")
    return out


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_rational_vector(xs: Iterable[Fraction]) -> list[str]:
    return [format_rational(x) for x in xs]


def _int_nth_root_floor(n: int, d: int) -> int:
    """Largest r with r**d <= n, for n >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2 or d == 1:
        return n
    # integer Newton from above: 2**ceil(bits/d) exceeds the root, and the
    # iterates fall monotonically until they reach floor(n**(1/d))
    r = 1 << -(-n.bit_length() // d)
    while True:
        s = ((d - 1) * r + n // r ** (d - 1)) // d
        if s >= r:
            return r
        r = s


def ceil_nth_root(x: Fraction, d: int, digits: int = 12) -> Fraction:
    """Smallest representable rational r >= x**(1/d).

    Returns the exact root when ``x`` is a perfect d-th power of a rational;
    otherwise rounds x**(1/d) up at ``digits`` decimal digits.  The guarantee
    r**d >= x always holds, so a lattice designed with r keeps the density
    condition satisfied.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if d < 1:
        raise ValueError("root order must be positive")
    num_root = _int_nth_root_floor(x.numerator, d)
    den_root = _int_nth_root_floor(x.denominator, d)
    if num_root**d == x.numerator and den_root**d == x.denominator:
        return Fraction(num_root, den_root)
    scale = 10**digits
    target = x * scale**d
    # ceil of the d-th root of target.numerator/target.denominator
    n = -(-target.numerator // target.denominator)  # ceil to integer radicand
    r = _int_nth_root_floor(n, d)
    if r**d < n:
        r += 1
    root = Fraction(r, scale)
    while root**d < x:  # defensive; ceil above should already cover this
        r += 1
        root = Fraction(r, scale)
    return root

