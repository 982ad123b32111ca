"""Shared plumbing for the configurable-precision numeric layer.

Everything numeric in this package runs on mpmath binary floats whose
significand width is a runtime parameter (at least 53 bits, i.e. at least
IEEE double).  Callers pass ``precision_bits`` explicitly; these helpers
validate it and convert heterogeneous inputs to ``mpf`` at that width
(``as_mpf_at``), whatever the ambient ``mp.prec``.
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


def as_mpf_at(value, precision_bits: int) -> mpmath.mpf:
    """Convert ``value`` to mpf, rounded to nearest at ``precision_bits``.

    Accepts mpf, int, float, decimal strings, and Fraction.  An mpf is
    returned as given, not rounded.  A Fraction is rounded once, from its
    exact value.  Anything else is read by mpf's own constructor at
    ``precision_bits``, so a decimal literal keeps as many digits as that
    width holds.  No mpmath context is read or entered.  Infinities and nan
    raise ``BadParameter`` whatever their type.
    """
    if isinstance(value, mpmath.mpf):
        result = value
    elif isinstance(value, Fraction):
        return mp.make_mpf(
            from_rational(value.numerator, value.denominator, precision_bits, round_nearest)
        )
    else:
        try:
            result = mp.mpf(value, prec=precision_bits, rounding=round_nearest)
        except (TypeError, ValueError) as exc:
            raise BadParameter(f"could not parse {value!r} as a real number") from exc
    if result._mpf_ in _NON_FINITE:
        raise BadParameter(f"value {value!r} is not finite")
    return result
