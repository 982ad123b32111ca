"""Shared plumbing for the configurable-precision numeric layer.

Everything numeric in this package runs on mpmath binary floats whose
significand width is a runtime parameter (at least 53 bits, i.e. at least
IEEE double).  Callers pass ``precision_bits`` explicitly; these helpers
validate it and convert heterogeneous inputs to ``mpf`` at the current
working precision (``as_mpf``) or at a given one (``as_mpf_at``).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import finf, fnan, fninf, from_rational, round_nearest

from .errors import BadParameter

MIN_PRECISION_BITS = 53
_NON_FINITE = (finf, fninf, fnan)


def require_precision(bits: int) -> int:
    """Validate a significand width; the floor is IEEE double (53 bits)."""
    if not isinstance(bits, int) or isinstance(bits, bool) or bits < MIN_PRECISION_BITS:
        raise BadParameter(
            f"precision_bits must be an integer >= {MIN_PRECISION_BITS}, got {bits!r}"
        )
    return bits


def as_mpf(value) -> mpmath.mpf:
    """Convert ``value`` to mpf at the current working precision.

    Accepts mpf, int, float, decimal strings, and Fraction.  Strings are
    parsed at the working precision, so a caller that raises the precision
    before converting keeps all the digits of a decimal literal.  A Fraction
    is rounded once, from its exact value.  An mpf is returned as given,
    not rounded.  Infinities and nan raise
    ``BadParameter`` whatever their type.
    """
    if isinstance(value, mpmath.mpf):
        if value._mpf_ in _NON_FINITE:
            raise BadParameter(f"value {value!r} is not finite")
        return value
    if isinstance(value, Fraction):
        return mp.make_mpf(
            from_rational(value.numerator, value.denominator, mp.prec, round_nearest)
        )
    try:
        result = mp.mpf(value)
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"could not parse {value!r} as a real number") from exc
    if not mp.isfinite(result):
        raise BadParameter(f"value {value!r} is not finite")
    return result


def as_mpf_at(value, precision_bits: int) -> mpmath.mpf:
    """``as_mpf(value)`` under ``mp.workprec(precision_bits)``; an mpf, which
    is not rounded, is checked without entering the context."""
    if isinstance(value, mpmath.mpf):
        return as_mpf(value)
    with mp.workprec(precision_bits):
        return as_mpf(value)
