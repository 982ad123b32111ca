"""Exact arithmetic for log-polynomials: finite sums of c * t^m * (log t)^j.

A log-polynomial is stored as a canonical map from the exponent pair
``(t_power, log_power)`` to a nonzero rational coefficient.  ``t_power`` may
be any integer (1/t terms show up constantly in Wronskian work), while
``log_power`` must be nonnegative.  An exponent that is not an integer
(``operator.index``), 2.5 or 2.0 alike, raises ``BadParameter``; it is not
truncated.  Coefficients are exact rationals with one representation per
value: an ``int`` when the value is integral, otherwise a
:class:`fractions.Fraction` with denominator > 1.  The Wronskian work on the
log and power curves is all integral, so it runs on ``int`` arithmetic.  Two
log-polynomials are equal exactly when their canonical term maps coincide --
identity checking is a plain comparison, never a floating tolerance.

The family is closed under differentiation:

    d/dt [t^m (log t)^j] = m t^(m-1) (log t)^j + j t^(m-1) (log t)^(j-1)

which is what keeps every derivative and Wronskian of curves built from
t-powers and log-powers inside exact arithmetic.  The ring has no zero
divisors, and :meth:`LogPoly.exact_div` divides wherever the quotient lies in
it, which is all that fraction-free elimination of Wronskian matrices needs.

Numeric evaluation (`lp_rows`, with `lp_eval` as its one-polynomial,
one-point form) is the single bridge out of the exact world.  It takes one
log of each point for all the polynomials it is given (kept for the other
readers of that input, ``_log_at``), and one power t^m per t-power m.  Each
polynomial's terms are grouped by t-power, and every group is found to be a
rational multiple of a prefix of one series, once per polynomial set and
cached; a group that matches no other is a series of its own.  A group's
value is computed exactly in integers from the mantissas of log t and t^m,
from one pass over its series' prefix sums, and rounded once to the
requested significand width; only a polynomial with several t-powers rounds
again, once per added group.  It rounds on ``numerics``' integer (mantissa,
exponent) pairs and returns them; `lp_eval` wraps its one value in ``mpf``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import mpf_log, mpf_pow_int, round_nearest

from .errors import BadParameter, DomainError, NonPositiveArgument
from .numerics import _ZERO, _add, _div, _raw_value, _round
from .precision import as_mpf_at, require_precision

TermKey = Tuple[int, int]  # (t_power, log_power)
#: A stored coefficient: ``int`` if integral, else a non-integral ``Fraction``.
Coefficient = Union[int, Fraction]
_RND = round_nearest


def _exact(c: Coefficient) -> Coefficient:
    """The canonical representation of the rational ``c``."""
    return c.numerator if c.denominator == 1 else c


class LogPoly:
    """An immutable log-polynomial in canonical form.

    Canonical form means: no zero coefficients are stored, every coefficient
    is an ``int`` when integral and a ``Fraction`` with denominator > 1
    otherwise, and terms are ordered lexicographically by
    ``(t_power, log_power)``.  Instances are hashable and safe to share
    across threads; the hash is computed on first use and kept.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(
        self,
        terms: Union[Mapping[TermKey, Coefficient], Iterable[Tuple[TermKey, Coefficient]]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: Dict[TermKey, Fraction] = {}
        for (t_power, log_power), coeff in items:
            try:
                key = (index(t_power), index(log_power))
            except TypeError as exc:
                raise BadParameter(
                    f"exponents must be integers, got {(t_power, log_power)!r}"
                ) from exc
            if key[1] < 0:
                raise BadParameter(f"negative log power {log_power} is not representable")
            merged[key] = merged.get(key, Fraction(0)) + Fraction(coeff)
        object.__setattr__(
            self, "_terms", tuple(sorted((k, _exact(c)) for k, c in merged.items() if c))
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogPoly":
        return cls()

    @classmethod
    def constant(cls, value: Coefficient) -> "LogPoly":
        return cls({(0, 0): value})

    @classmethod
    def term(cls, coeff: Coefficient, t_power: int = 0, log_power: int = 0) -> "LogPoly":
        """Single term coeff * t^t_power * (log t)^log_power."""
        return cls({(t_power, log_power): coeff})

    @classmethod
    def _canonical(cls, term_map: Mapping[TermKey, Coefficient]) -> "LogPoly":
        """Ring-op fast path: drop zeros, fix the coefficient type and sort,
        validating nothing.

        Only for maps built from canonical operands, whose keys are valid
        exponent pairs and whose coefficients are already ``int`` or
        ``Fraction``.
        """
        out = object.__new__(cls)
        object.__setattr__(
            out, "_terms", tuple(sorted((k, _exact(c)) for k, c in term_map.items() if c))
        )
        return out

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Dict[TermKey, Coefficient]:
        """Canonical term map as a fresh dict (keys in canonical order)."""
        return dict(self._terms)

    def items(self) -> Tuple[Tuple[TermKey, Coefficient], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, t_power: int, log_power: int) -> Coefficient:
        for key, coeff in self._terms:
            if key == (t_power, log_power):
                return coeff
        return 0

    def value_at_one(self) -> Coefficient:
        """Exact value at t = 1 (log t vanishes, every t-power is 1)."""
        return _exact(sum(c for (_, j), c in self._terms if j == 0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(self._terms)
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:
        return f"LogPoly({to_text(self)!r})"

    def __str__(self) -> str:
        return to_text(self)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LogPoly":
        if not isinstance(other, LogPoly):
            return NotImplemented
        merged = dict(self._terms)
        for key, coeff in other._terms:
            prev = merged.get(key)
            merged[key] = coeff if prev is None else prev + coeff
        return LogPoly._canonical(merged)

    def __sub__(self, other) -> "LogPoly":
        if not isinstance(other, LogPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LogPoly":
        return LogPoly._canonical({k: -c for k, c in self._terms})

    def __mul__(self, other) -> "LogPoly":
        if isinstance(other, (int, Fraction)):
            return LogPoly({k: c * other for k, c in self._terms})
        if not isinstance(other, LogPoly):
            return NotImplemented
        out: Dict[TermKey, Coefficient] = {}
        for (m1, j1), c1 in self._terms:
            for (m2, j2), c2 in other._terms:
                key = (m1 + m2, j1 + j2)
                prev = out.get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
        return LogPoly._canonical(out)

    def __rmul__(self, other) -> "LogPoly":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other) -> "LogPoly":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def exact_div(self, other: "LogPoly") -> "LogPoly":
        """The log-polynomial q with ``q * other == self``.

        Long division on leading terms in lex order of ``(t_power,
        log_power)``, which products respect, so each quotient term is the
        remainder's leading term over ``other``'s.  Products respect the
        trailing terms too, so every quotient term must lie at or above
        trailing(self) - trailing(other); a term below that bound, or one
        that needs a negative log power, proves the division is not exact.
        That bound also ends every division in finitely many steps.

        Raises :class:`DomainError` for a zero divisor or a division that
        is not exact.
        """
        if not other._terms:
            raise DomainError("division by the zero log-polynomial")
        if not self._terms:
            return self
        (lead_m, lead_j), lead_c = other._terms[-1]
        (num_m, num_j), _ = self._terms[0]
        floor = (num_m - other._terms[0][0][0], num_j - other._terms[0][0][1])
        rest = other._terms[:-1]
        remainder: Dict[TermKey, Coefficient] = dict(self._terms)
        quotient: Dict[TermKey, Coefficient] = {}
        while remainder:
            (m, j), c = max(remainder.items())
            key = (m - lead_m, j - lead_j)
            if key[1] < 0 or key < floor:
                raise DomainError(f"{to_text(self)} is not a multiple of {to_text(other)}")
            if type(c) is int and type(lead_c) is int and c % lead_c == 0:
                q = c // lead_c
            else:
                q = _exact(Fraction(c) / lead_c)
            quotient[key] = q
            del remainder[(m, j)]
            for (dm, dj), dc in rest:
                pos = (key[0] + dm, key[1] + dj)
                left = remainder.get(pos, 0) - q * dc
                if left:
                    remainder[pos] = left
                else:
                    remainder.pop(pos, None)
        return LogPoly._canonical(quotient)

    def __pow__(self, exponent: int) -> "LogPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise BadParameter(f"log-polynomial powers must be nonnegative integers, got {exponent!r}")
        result = LogPoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def diff(self) -> "LogPoly":
        """Exact derivative; stays inside the ring."""
        out: Dict[TermKey, Coefficient] = {}
        for (m, j), c in self._terms:
            if m:
                key = (m - 1, j)
                out[key] = out.get(key, 0) + c * m
            if j:
                key = (m - 1, j - 1)
                out[key] = out.get(key, 0) + c * j
        return LogPoly._canonical(out)


#: Entries kept by each cache: :func:`lp_rows`' grouped coefficients (one per
#: polynomial set, whatever the precision), the logs of the inputs
#: (:func:`_log_at`, one per input and width) and ``wronskian``'s curves and
#: planes.  ``verify --max-n 7``, both conjecture curves and ``mean`` up to
#: n = 10 fill at most 40 entries of a polynomial cache; the bound stops a
#: process that sees many distinct curves or inputs from growing without
#: limit.
CACHE_MAXSIZE = 128


@lru_cache(maxsize=CACHE_MAXSIZE)
def _log_at(raw, prec: int):
    """log t for the raw value t > 0, rounded to nearest at ``prec``
    (``mpf_log``).  One request takes the log of each input at one width in
    several places (the planes, ``neuman_LN``, ``identric_IZ`` and the
    determinant closed forms); the last ``CACHE_MAXSIZE`` logs are kept, so
    it is computed once."""
    return mpf_log(raw, prec, _RND)


def _is_prefix_multiple(u: Sequence[int], series: Sequence[int]) -> bool:
    """True when ``u`` is a nonzero rational multiple of ``series``' first
    len(u) entries, compared exactly by cross-multiplying at u's top entry."""
    top = len(u) - 1
    if top >= len(series) or not series[top]:
        return False
    return all(a * series[top] == b * u[top] for a, b in zip(u, series))


@lru_cache(maxsize=CACHE_MAXSIZE)
def _grouped_terms(polys: Tuple[LogPoly, ...]) -> Tuple[tuple, tuple]:
    """``(groups, series)``: each polynomial's terms grouped by t-power,
    exactly, each group a rational multiple of a prefix of one series.

    A polynomial's coefficients are put over their least common denominator
    D, and each t-power m gives the integers D * c of (log t)^0 up to
    (log t)^J, zeros included.  Within one t-power, groups whose integers
    are rational multiples of prefixes of one series share it: the series
    is the longest such group's integers over their gcd, found from the
    coefficients as given, and a group that matches no other is a series of
    its own.  ``series`` holds them, low power first.  A group is
    ``(m, num, e, den, f, J)``: its value is num * 2^e / den times series f
    summed up to (log t)^J, times t^m.  The power of two of the ratio's
    denominator is e <= 0, an exact scaling, and ``den`` is its odd part as
    an exact ``numerics`` pair, or None when that is 1.  Nothing here is
    rounded, so one entry serves every precision.
    """
    rows = []
    for p in polys:
        denom = 1
        for _, c in p.items():
            if type(c) is not int:
                denom = lcm(denom, c.denominator)
        by_power: Dict[int, Dict[int, int]] = {}
        for (m, j), c in p.items():
            by_power.setdefault(m, {})[j] = int(c * denom)
        rows.append([
            (m, denom, [row.get(j, 0) for j in range(max(row) + 1)])
            for m, row in sorted(by_power.items())
        ])
    out = [[None] * len(row) for row in rows]
    series_of: List[Tuple[int, List[int]]] = []
    # longest first, so that each series is its longest group's
    for m, _, i, g in sorted((m, -len(u), i, g) for i, row in enumerate(rows)
                             for g, (m, _, u) in enumerate(row)):
        _, denom, u = rows[i][g]
        for f, (power, series) in enumerate(series_of):
            if power == m and _is_prefix_multiple(u, series):
                break
        else:
            f = len(series_of)
            divisor = gcd(*u)
            series = [c // divisor for c in u]
            series_of.append((m, series))
        top = len(u) - 1
        ratio = Fraction(u[top], series[top] * denom)
        den = ratio.denominator
        twos = (den & -den).bit_length() - 1
        den >>= twos
        den = None if den == 1 else _round(den, 0, den.bit_length())
        out[i][g] = (m, ratio.numerator, -twos, den, f, top)
    return tuple(map(tuple, out)), tuple(tuple(series) for _, series in series_of)


def lp_rows(polys: Sequence[LogPoly], points: Sequence, precision_bits: int = 53) -> List[list]:
    """Values of every polynomial in ``polys`` at each point ``t > 0``, one
    row per point, each value ``numerics``' integer pair (m, e) rounded to
    ``precision_bits`` significand bits.

    The precision is validated and the grouped coefficients looked up once
    for all the points; per point, log t is taken once (``_log_at``, which
    keeps it for the other readers of the same input), each t^m is computed
    once and shared by all the polynomials, and each series of groups
    (``_grouped_terms``) is summed in one prefix pass.  An mpf point is used
    as given, not rounded; any other is converted at ``precision_bits``.

    Rounding contract, at ``precision_bits``, to nearest: L = log t
    (``mpf_log``) and P_m = t^m (``mpf_pow_int``; P_0 = 1) are rounded.  A
    polynomial's terms are grouped by t-power m, and each group's value
    P_m * sum_j c_j L^j is computed exactly in integers from L's mantissa,
    then rounded once (``numerics._round``, or one ``numerics._div`` by the
    odd part of a denominator, its power of two taken as exact scaling).
    Each group is an exact rational multiple of one prefix sum
    Q_J = Q_(J-1) 2^s + g_J y^J of a series g, L = y 2^-s, and the groups
    of one series share one pass over its prefix sums.  A
    polynomial with several groups adds the rounded groups in ascending m,
    each addition rounded once (``numerics._add``); the zero polynomial is
    0.  Every other step is exact integer arithmetic, so a value is
    bit-for-bit the same whichever other polynomials and points it is
    evaluated with, on either mpmath backend, and does not depend on the
    ambient ``mp.prec``.  The grouped integer coefficients and the series
    are kept between calls, one LRU entry per polynomial set
    (``_grouped_terms``), and give the same bits cold or warm.
    """
    require_precision(precision_bits)
    grouped = _grouped_terms(tuple(polys))
    return [_eval_point(grouped, t, precision_bits) for t in points]


def _eval_point(grouped, t, prec: int) -> List[tuple]:
    """The kernel of ``lp_rows``: the grouped polynomials at ``t > 0`` as pairs."""
    t_raw = as_mpf_at(t, prec)._mpf_
    if t_raw[0] or not t_raw[1]:  # negative or zero
        raise NonPositiveArgument(f"evaluation point must be positive, got {t!r}")
    # L = y * 2^-shift exactly, with y an integer and shift >= 0
    sign, man, exp, _ = _log_at(t_raw, prec)
    y = -man if sign else man
    shift = 0
    if exp >= 0:
        y <<= exp
    else:
        shift = -exp
    polys, series_of = grouped
    # prefixes[f][J] = sum_{j <= J} g_j L^j * 2^(shift * J) for series g
    prefixes = []
    for series in series_of:
        power = 1
        prefix = series[0]
        sums = [prefix]
        for c in series[1:]:
            power *= y
            prefix = (prefix << shift) + c * power
            sums.append(prefix)
        prefixes.append(sums)
    t_powers: Dict[int, tuple] = {}
    values = []
    for groups in polys:
        total = None
        for m, num, e, den, f, top in groups:
            acc = num * prefixes[f][top]
            scale = e - shift * top
            if m:
                power = t_powers.get(m)
                if power is None:
                    power = t_powers[m] = mpf_pow_int(t_raw, m, prec, _RND)
                _, power_man, power_exp, _ = power  # t^m > 0
                acc *= power_man
                scale += power_exp
            if den is None:
                piece = _round(acc, scale, prec)
            else:
                piece = _div((acc, scale), den, prec)
            total = piece if total is None else _add(total, piece, prec)
        values.append(_ZERO if total is None else total)
    return values


def lp_eval(p: LogPoly, t, precision_bits: int = 53) -> mpmath.mpf:
    """Value of ``p`` at ``t > 0``, rounded to ``precision_bits`` significand
    bits as ``lp_rows`` rounds it."""
    return mp.make_mpf(_raw_value(lp_rows((p,), (t,), precision_bits)[0][0]))


def substitute_power(p: LogPoly, power: int) -> LogPoly:
    """Exact substitution t -> t^power for a positive integer power.

    Uses log(t^power) = power * log t, so the result stays in the ring:
    c * t^m * (log t)^j maps to c * power^j * t^(m*power) * (log t)^j.
    """
    if not isinstance(power, int) or power < 1:
        raise BadParameter(f"substitution power must be a positive integer, got {power!r}")
    return LogPoly({(m * power, j): c * power ** j for (m, j), c in p.items()})


# -- plain-text rendering ---------------------------------------------------
#
# Format: terms in canonical order, each rendered "c*t^m*L^j" with c a
# positive fraction and L standing for log t; terms joined by " + " / " - ".
# The zero polynomial renders as "0".  This is the text ``str`` and
# ``repr`` show.


def to_text(p: LogPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for (m, j), c in p.items():
        body = f"{abs(c)}*t^{m}*L^{j}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)
