"""Shared plumbing for the configurable-precision numeric layer.

Everything numeric in this package runs on mpmath binary floats whose
significand width is a runtime parameter (at least 53 bits, i.e. at least
IEEE double).  Callers pass ``precision_bits`` explicitly; these helpers
validate it and convert heterogeneous inputs to ``mpf`` at that width
(``as_mpf_at``), whatever the ambient ``mp.prec``.
"""

from __future__ import annotations

import re
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_int,
    from_man_exp,
    from_rational,
    mpf_shift,
    round_nearest,
)
from mpmath.libmp.libmpf import str_to_man_exp

from .errors import BadParameter

MIN_PRECISION_BITS = 53
_NON_FINITE = (finf, fninf, fnan)
_BARE_POINT = re.compile(r"^([+-]?)\.(?=\d)")
#: An underscore that does not stand between two digits.
_LOOSE_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")


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
    exact value, and so is a decimal literal m * 10^e, read once, by
    ``_decimal_at``; a zero with a bare point, such as ".0", which mpf's
    constructor refuses, is read as 0.  An underscore between two digits is
    dropped, as Python's ``float`` drops it ("1.5_1" is 1.51, where mpmath's
    reader takes 0.151, and "1.5_0" is 1.5, which it refuses); one anywhere
    else is refused.  Anything else is read by mpf's own
    constructor at ``precision_bits``.  No mpmath context is read or
    entered.  Infinities and nan raise ``BadParameter`` whatever their type.
    """
    if isinstance(value, str):
        text = value.strip()
        if "_" in text and not _LOOSE_UNDERSCORE.search(text):
            text = text.replace("_", "")
        if text.startswith((".", "+.", "-.")):
            # "0" before a bare point: mpmath's reader drops a fraction's
            # trailing zeros and then fails on ".0", "-.0e1" and the like
            text = _BARE_POINT.sub(r"\g<1>0.", text)
        try:
            man, exp = str_to_man_exp(text)
        except ValueError:  # "inf", "nan" and "a/b" are read below
            pass
        else:
            return mp.make_mpf(_decimal_at(man, exp, precision_bits))
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


def _decimal_at(man: int, exp: int, precision_bits: int):
    """man * 10^exp rounded to nearest at ``precision_bits``, as a raw mpf.

    Up to |exp| = 400 it is rounded from the exact integer or quotient by
    the two calls mpmath's ``from_str`` makes, so the bits are those of
    ``mpf(literal)``.  Past that, binary powering encloses 5^|exp| between
    two values, each product cut to w bits, down for one and up for the
    other; man * 2^exp times either, or over it for exp < 0, is rounded
    once.  While the two round apart, w doubles (Ziv 1991); once 5^|exp|
    fits in w they are the same."""
    if 0 <= exp <= 400:
        return from_int(man * 10**exp, precision_bits, round_nearest)
    if -400 <= exp < 0:
        return from_rational(man, 10**-exp, precision_bits, round_nearest)
    width = precision_bits + 32
    while True:
        ends = []
        for up in (False, True):
            m, e = 1, 0
            for bit in bin(abs(exp))[2:]:
                m, e = m * m * (5 if bit == "1" else 1), 2 * e
                cut = max(m.bit_length() - width, 0)
                m, e = (-(-m >> cut) if up else m >> cut), e + cut
            ends.append(
                from_man_exp(man * m, e + exp, precision_bits, round_nearest) if exp > 0
                else mpf_shift(from_rational(man, m, precision_bits, round_nearest), exp - e)
            )
        if ends[0] == ends[1]:
            return ends[0]
        width *= 2
