"""Exact arithmetic for log-polynomials: finite sums of c * t^m * (log t)^j.

A log-polynomial is stored as a canonical map from the exponent pair
``(t_power, log_power)`` to a nonzero rational coefficient.  ``t_power`` may
be any integer (1/t terms show up constantly in Wronskian work), while
``log_power`` must be nonnegative.  Coefficients are exact rationals with one
representation per value: an ``int`` when the value is integral, otherwise a
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

Numeric evaluation (`lp_eval_many`, with `lp_eval` as its one-polynomial
form) is the single bridge out of the exact world: it takes one log of the
point and one table of its powers for all the polynomials it is given, and
sums each polynomial's terms in canonical order as mpmath binary floats with
a configurable significand width, each coefficient rounded once per width
and cached.  Like ``numerics``, it runs on raw ``mpmath.libmp`` values (the
``_mpf_`` tuples), each operation rounding to nearest at the requested
width, and wraps only the values it returns in ``mpf``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_log, mpf_mul, mpf_pow_int, round_nearest

from .errors import BadParameter, DomainError, NonPositiveArgument
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
    across threads.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Union[Mapping[TermKey, Coefficient], Iterable[Tuple[TermKey, Coefficient]]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: Dict[TermKey, Fraction] = {}
        for (t_power, log_power), coeff in items:
            if log_power < 0:
                raise BadParameter(f"negative log power {log_power} is not representable")
            key = (int(t_power), int(log_power))
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
        return hash(self._terms)

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


#: Entries kept by the coefficient cache of :func:`lp_eval_many`, one per
#: polynomial set and precision: the benchmark's verify batch fills 15 and
#: mean-spread at most 69.  Like ``wronskian.CACHE_MAXSIZE``, the bound stops
#: a process that sees many distinct sets from growing without limit.
COEFF_CACHE_MAXSIZE = 128


@lru_cache(maxsize=COEFF_CACHE_MAXSIZE)
def _rounded_terms(polys: Tuple[LogPoly, ...], prec: int) -> Tuple[Tuple[tuple, ...], ...]:
    """Each polynomial's terms as ``(m, j, c)`` in canonical order, c rounded
    to nearest at ``prec``: an ``int`` by ``from_int``, a ``Fraction`` as its
    rounded numerator over its exact denominator by ``mpf_div``."""
    return tuple(
        tuple((m, j, from_int(c, prec, _RND) if type(c) is int else
               mpf_div(from_int(c.numerator, prec, _RND), from_int(c.denominator), prec, _RND))
              for (m, j), c in p.items())
        for p in polys
    )


def lp_eval_many(polys: Sequence[LogPoly], t, precision_bits: int = 53) -> List[mpmath.mpf]:
    """Values of every polynomial in ``polys`` at ``t > 0``, in order, each
    rounded to ``precision_bits`` significand bits.

    The point and the precision are validated once, log t is taken once, and
    each distinct t^m and (log t)^j is computed once and shared by all the
    polynomials.  An mpf point is used as given, not rounded; any other is
    converted at ``precision_bits``.

    The loop works on raw libmp values and rounds every operation to
    nearest at ``precision_bits``, in this order: a term c * t^m * (log t)^j
    is c rounded (an ``int`` by ``from_int``; a ``Fraction`` as its rounded
    numerator over its exact denominator by ``mpf_div``), times t^m, times
    (log t)^j (the powers by ``mpf_pow_int``, log t by ``mpf_log``), and
    each polynomial's terms are added one by one in canonical order,
    starting from zero.  So a value is bit-for-bit the same whichever other
    polynomials it is evaluated with, and does not depend on the ambient
    ``mp.prec``.  The rounded coefficients are kept between calls, one LRU
    entry per polynomial set and precision (``_rounded_terms``), and give
    the same bits cold or warm.
    """
    require_precision(precision_bits)
    prec = precision_bits
    tv = as_mpf_at(t, prec)
    if tv <= 0:
        raise NonPositiveArgument(f"evaluation point must be positive, got {t!r}")
    t_raw = tv._mpf_
    log_t = mpf_log(t_raw, prec, _RND)
    t_powers: Dict[int, tuple] = {}
    log_powers: Dict[int, tuple] = {}
    values = []
    for terms in _rounded_terms(tuple(polys), prec):
        total = fzero
        for m, j, piece in terms:
            if m:
                power = t_powers.get(m)
                if power is None:
                    power = t_powers[m] = mpf_pow_int(t_raw, m, prec, _RND)
                piece = mpf_mul(piece, power, prec, _RND)
            if j:
                power = log_powers.get(j)
                if power is None:
                    power = log_powers[j] = mpf_pow_int(log_t, j, prec, _RND)
                piece = mpf_mul(piece, power, prec, _RND)
            total = mpf_add(total, piece, prec, _RND)
        values.append(mp.make_mpf(total))
    return values


def lp_eval(p: LogPoly, t, precision_bits: int = 53) -> mpmath.mpf:
    """Value of ``p`` at ``t > 0`` with at least ``precision_bits`` significand bits."""
    return lp_eval_many((p,), t, precision_bits)[0]


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
