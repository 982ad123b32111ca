"""Osculating hyperplanes, their common intersection point, and the means
derived from it, plus the closed-form n-variable logarithmic and identric
means used as references.  ``evaluate_request`` serves the command line's
``mean``: it parses, checks, escalates and evaluates one request in a
single call.

Geometry recap: for a curve with log-polynomial components, the osculating
hyperplane at parameter a has normal vector given by the alternating-sign
Wronskian minors evaluated at a, and passes through the curve point.  For n
strictly increasing positive inputs the n hyperplanes meet in a single
point P; coordinate k of P pulled back through component k is a mean of the
inputs (it always lands strictly between the smallest and largest input),
provided component k is monotone on the inputs' range.  On the log curve
that holds for k >= 2 only when every input is > 1; other inputs are
refused, not rescaled, because M_k is not homogeneous for k >= 2.
For the log curve the first coordinate is exactly Neuman's n-variable
logarithmic mean

    L_N(a_1, ..., a_n) = (n-1)! * sum_j a_j / prod_{i != j} (ln a_j - ln a_i)

which is what makes this construction worth verifying numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial
from typing import Dict, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (
    from_int,
    from_rational,
    mpf_exp,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_pos,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
)

from .errors import (
    BadDimension,
    BadIndex,
    DistinctnessViolation,
    DomainError,
    NonPositiveArgument,
    SingularSystem,
)
from .logpoly import LogPoly, lp_eval, lp_eval_many
from .numerics import (
    _ONE,
    _ZERO,
    SolveReport,
    _add,
    _div,
    _gt,
    _mul,
    _pair,
    _raw_value,
    _sub,
    find_root_bracketed,
    solve_linear,
)
from .precision import as_mpf, require_precision
from .wronskian import CACHE_MAXSIZE, Curve, T, make_log_curve, normal_field

#: Inputs whose logs are closer than this get a conditioning warning and an
#: automatic escalation to at least 113 significand bits.
LN_GAP_FLOOR = 1e-6
ESCALATED_PRECISION_BITS = 113
# ln(b/a) >= (b - a)/b, so positive values a < b with a * 2^_GAP_SHIFT <=
# b * _GAP_KEEP, that is (b - a)/b >= LN_GAP_FLOOR + 2^-30, have a log gap
# at least that large.  When every value lies in [2^(top-1), 2^top) with
# |top| <= _GAP_MAX_TOP, a 53-bit log is within one unit in its last place,
# 2^-52 * (2^21 + 1) * ln 2 < 3.3e-10, so two rounded logs and their
# rounded difference still reach the floor.
_GAP_SHIFT = 40
_GAP_KEEP = (1 << _GAP_SHIFT) - ceil(
    (Fraction(LN_GAP_FLOOR) + Fraction(1, 1 << 30)) * (1 << _GAP_SHIFT)
)
_GAP_MAX_TOP = 1 << 21
#: Internal headroom for intersections and closed-form mean evaluations:
#: the arithmetic carries this many extra bits so that log-gap cancellation
#: does not eat into the digits of the answer delivered at the requested
#: precision.
GUARD_BITS = 30
_RND = round_nearest


@dataclass(frozen=True)
class Hyperplane:
    """One osculating hyperplane: points x with normal . x = offset."""

    normal: Tuple[mpmath.mpf, ...]
    offset: mpmath.mpf

    def __post_init__(self):
        if not any(self.normal):
            raise DomainError("hyperplane normal is the zero vector")


@dataclass(frozen=True)
class IntersectionResult:
    """The common point of the n hyperplanes plus solve diagnostics.

    ``means`` maps a mean index k to its value when it could be read off
    directly (component k equal to t makes coordinate k itself a mean).
    ``planes`` are the hyperplanes the system was built from, at the guard
    precision, in the order of the sorted inputs: the rows of the matrix
    whose determinant ``report.determinant`` is.
    """

    point: Tuple[mpmath.mpf, ...]
    report: SolveReport
    means: Dict[int, mpmath.mpf]
    planes: Tuple[Hyperplane, ...]


# -- input validation --------------------------------------------------------


def _strictly_increasing_positive(values: Sequence) -> bool:
    """True when ``values`` are finite, positive, strictly increasing mpf
    values, checked with n - 1 raw comparisons."""
    raws = []
    for v in values:
        if not isinstance(v, mpmath.mpf):
            return False
        raws.append(v._mpf_)
    first, last = raws[0], raws[-1]
    # zero, inf and nan have a zero mantissa; a value between two finite
    # positive ones is finite and positive, and nan compares false
    if first[0] or not first[1] or not last[1]:
        return False
    return all(map(mpf_lt, raws, raws[1:]))


def sorted_positive_distinct(values: Sequence, precision_bits: int = 53) -> Tuple[mpmath.mpf, ...]:
    """Parse, validate, and sort mean inputs at the given precision.

    An mpf is taken as given, not rounded, so values that are already
    validated (finite, positive, strictly increasing mpf values) come back
    as they are, after n - 1 comparisons.
    """
    require_precision(precision_bits)
    if len(values) < 2:
        raise BadDimension(f"need at least 2 values, got {len(values)}")
    if _strictly_increasing_positive(values):
        return tuple(values)
    with mp.workprec(precision_bits):
        parsed = [as_mpf(v) for v in values]
        for v in parsed:
            if v <= 0:
                raise NonPositiveArgument(f"values must be positive, got {mp.nstr(v, 12)}")
        parsed.sort()
        for left, right in zip(parsed, parsed[1:]):
            if left == right:
                raise DistinctnessViolation(f"duplicate value {mp.nstr(left, 12)}")
    return tuple(parsed)


def _log_gaps_clear_the_floor(values: Sequence) -> bool:
    """True when the 53-bit log gaps of ``values``, increasing positive mpf
    values, provably all reach ``LN_GAP_FLOOR``, with no log taken."""
    pairs = []
    for v in values:
        if not isinstance(v, mpmath.mpf):
            return False
        sign, man, exp, bc = v._mpf_
        if sign or not man or abs(exp + bc) > _GAP_MAX_TOP:
            return False
        pairs.append((man, exp))
    return not any(
        _gt((a, ea + _GAP_SHIFT), (b * _GAP_KEEP, eb))
        for (a, ea), (b, eb) in zip(pairs, pairs[1:])
    )


def ln_gap_warnings(values: Sequence) -> Tuple[str, ...]:
    """Conditioning warnings for sorted positive values with close logs.

    The logs are taken at 53 bits, unless the inputs' relative gaps show
    that every log gap clears ``LN_GAP_FLOOR`` whatever their rounding.
    """
    if len(values) >= 2 and _log_gaps_clear_the_floor(values):
        return ()
    with mp.workprec(53):
        logs = [mp.log(as_mpf(v)) for v in values]
        smallest = min(b - a for a, b in zip(logs, logs[1:]))
        if smallest < LN_GAP_FLOOR:
            return (
                f"min ln-gap {mp.nstr(smallest, 3)} is below {LN_GAP_FLOOR:g}; "
                "results are ill-conditioned, precision escalated",
            )
    return ()


# -- hyperplanes and their intersection ---------------------------------------


@lru_cache(maxsize=CACHE_MAXSIZE)
def _offset_polynomial(curve: Curve) -> LogPoly:
    """sum_k component_k * field_k, exactly: the plane offset as a function
    of the parameter (for the log curve, the full Wronskian)."""
    product = LogPoly.zero()
    for component, coefficient in zip(curve.components, normal_field(curve)):
        product = product + component * coefficient
    return product


def hyperplane_at(curve: Curve, a, precision_bits: int = 53) -> Hyperplane:
    """Osculating hyperplane to ``curve`` at parameter ``a > 0``.

    The normal is the alternating-minor field evaluated at a; the offset is
    the dot product of the curve point with that normal.  That dot product
    is formed once per curve, exactly, as one more log-polynomial
    (``_offset_polynomial``; for the log curve it is the full Wronskian), so
    the offset is rounded once like every coordinate of the normal, not once
    per product and sum.  The n minors and the offset are evaluated together
    by ``lp_eval_many``, on one log of a, which validates and converts a and
    the precision.
    """
    field = normal_field(curve)
    values = lp_eval_many(field + (_offset_polynomial(curve),), a, precision_bits)
    return Hyperplane(normal=tuple(values[:-1]), offset=values[-1])


def intersect(curve: Curve, values: Sequence, precision_bits: int = 53) -> IntersectionResult:
    """Common point of the osculating hyperplanes at the given parameters.

    Values must be positive and pairwise distinct; they are sorted
    internally (the hyperplane set does not depend on input order).

    The planes are built once, with guard bits on top of the requested
    precision, and that one matrix and right-hand side serve both the
    elimination and the reported residual; the result carries them.  Each right-hand side is a
    plane's offset: the exact offset polynomial of ``hyperplane_at``,
    evaluated and rounded once like each entry of the matrix.  The point is
    rounded back to the requested precision; ``report.residual_norm`` is
    that rounded point's residual against the guard-precision planes,
    evaluated at twice the requested precision when it is first read.
    """
    n = curve.dimension
    if len(values) != n:
        raise BadDimension(
            f"curve has {n} components but {len(values)} values were supplied"
        )
    require_precision(precision_bits)
    vals = sorted_positive_distinct(values, precision_bits)
    work_bits = precision_bits + GUARD_BITS
    planes = tuple(hyperplane_at(curve, a, work_bits) for a in vals)
    matrix = [plane.normal for plane in planes]
    rhs = [plane.offset for plane in planes]
    try:
        guarded = solve_linear(matrix, rhs, work_bits)
    except SingularSystem as exc:
        gap_note = ln_gap_warnings(vals)
        detail = f" ({gap_note[0]})" if gap_note else ""
        raise SingularSystem(f"{exc}{detail}") from exc
    with mp.workprec(precision_bits):
        point = tuple(+x for x in guarded.solution)
    report = replace(guarded, solution=point, _residual_bits=precision_bits)
    means: Dict[int, mpmath.mpf] = {}
    if curve.components[0] == T:
        means[1] = point[0]
    return IntersectionResult(point=point, report=report, means=means, planes=planes)


def _is_log_curve(curve: Curve) -> bool:
    return all(
        comp == LogPoly.term(1, 1, i) for i, comp in enumerate(curve.components)
    )


def _require_invertible(curve: Curve, k: int, vals: Sequence) -> None:
    """Refuse a k-th mean whose component is not monotone on the sorted
    inputs ``vals``.

    On the log curve the components with a log factor are strictly
    increasing only for t > 1, so k >= 2 there needs every input > 1.
    """
    lo = vals[0]
    if k >= 2 and _is_log_curve(curve) and lo <= 1:
        raise DomainError(
            f"component {k} of the log curve is strictly increasing only for t > 1; "
            f"smallest input is {mp.nstr(lo, 12)}"
        )


def _pull_back(curve: Curve, k: int, target, vals: Sequence, precision_bits: int):
    """Invert component k at ``target`` on the range of the sorted inputs.

    Component t needs no inversion; any other is inverted by bracketed root
    finding on the inputs' range, which is where the mean is guaranteed to
    live.
    """
    component = curve.components[k - 1]
    if component == T:
        return target
    derivative = component.diff()
    return find_root_bracketed(
        lambda t: lp_eval(component, t, precision_bits) - target,
        vals[0],
        vals[-1],
        precision_bits,
        derivative=lambda t: lp_eval(derivative, t, precision_bits),
    )


def mean_M(curve: Curve, k: int, values: Sequence, precision_bits: int = 53) -> mpmath.mpf:
    """The k-th mean: coordinate k of the intersection point pulled back
    through component k.

    On the log curve k >= 2 needs all inputs > 1 (``DomainError``
    otherwise); the check runs before any hyperplane is built.
    """
    n = curve.dimension
    if not 1 <= k <= n:
        raise BadIndex(f"mean index k must be in 1..{n}, got {k}")
    vals = sorted_positive_distinct(values, precision_bits)
    _require_invertible(curve, k, vals)
    point = intersect(curve, vals, precision_bits).point
    return _pull_back(curve, k, point[k - 1], vals, precision_bits)


# -- closed-form reference means ----------------------------------------------


def _divided_difference(weights: Sequence, xs: Sequence, prec: int):
    """sum_j w_j / prod_{i != j} (x_j - x_i): the divided difference at the
    nodes ``xs`` of any f with f(x_j) = w_j.  Takes and returns raw libmp
    values and computes on ``numerics``' integer (mantissa, exponent) pairs.
    Each gap, each product of a denominator (from 1, i ascending), each
    quotient and each partial sum (j ascending) rounds to nearest at
    ``prec``, exactly as the same steps with libmp's ``mpf_sub``,
    ``mpf_mul``, ``mpf_div`` and ``mpf_add`` would.
    """
    ws = [_pair(w) for w in weights]
    nodes = [_pair(x) for x in xs]
    total = _ZERO
    for j, xj in enumerate(nodes):
        denom = _ONE
        for i, xi in enumerate(nodes):
            if i != j:
                denom = _mul(denom, _sub(xj, xi, prec), prec)
        total = _add(total, _div(ws[j], denom, prec), prec)
    return _raw_value(total)


def neuman_LN(values: Sequence, precision_bits: int = 53) -> mpmath.mpf:
    """Neuman's n-variable logarithmic mean.

        (n-1)! * sum_j a_j / prod_{i != j} (ln a_j - ln a_i)

    that is, (n-1)! times the divided difference of exp at the logs.
    Symmetric in its arguments and positively homogeneous of degree 1.  The
    sum cancels heavily when the logs are close, so it is accumulated with
    guard bits and rounded to the requested precision at the end: the logs,
    the divided difference (``_divided_difference``) and the final product
    with (n-1)! round to nearest at ``precision_bits + GUARD_BITS``.
    """
    vals = [v._mpf_ for v in sorted_positive_distinct(values, precision_bits)]
    n = len(vals)
    prec = precision_bits + GUARD_BITS
    logs = [mpf_log(v, prec, _RND) for v in vals]
    total = _divided_difference(vals, logs, prec)
    result = mpf_mul(from_int(factorial(n - 1), prec, _RND), total, prec, _RND)
    return mp.make_mpf(mpf_pos(result, precision_bits, _RND))


def identric_IZ(values: Sequence, precision_bits: int = 53) -> mpmath.mpf:
    """The n-variable identric mean.

        exp[ sum_j a_j^(n-1) ln a_j / prod_{i != j} (a_j - a_i)  -  m ]

    the exp of the divided difference of t^(n-1) ln t at the inputs, less
    the harmonic number m = 1 + 1/2 + ... + 1/(n-1).  For n = 2 this
    reduces to the classical identric mean exp[(b ln b - a ln a)/(b - a) - 1].
    Every step rounds to nearest at ``precision_bits + GUARD_BITS``, and
    the result once more, to the requested precision.
    """
    vals = [v._mpf_ for v in sorted_positive_distinct(values, precision_bits)]
    n = len(vals)
    prec = precision_bits + GUARD_BITS
    weights = [
        mpf_mul(mpf_pow_int(v, n - 1, prec, _RND), mpf_log(v, prec, _RND), prec, _RND)
        for v in vals
    ]
    m = sum(Fraction(1, k) for k in range(1, n))
    harmonic = from_rational(m.numerator, m.denominator, prec, _RND)
    exponent = mpf_sub(_divided_difference(weights, vals, prec), harmonic, prec, _RND)
    return mp.make_mpf(mpf_pos(mpf_exp(exponent, prec, _RND), precision_bits, _RND))


# -- request evaluation (used by the command-line front end) -------------------


def evaluate_request(values: Sequence, k: int = 1, precision_bits: int = 53) -> dict:
    """Parse, check and evaluate one mean request on the log curve.

    The values are parsed at ``precision_bits``, sorted increasingly, and
    checked for positivity and distinctness.  If the smallest log gap falls
    below ``LN_GAP_FLOOR`` a warning is attached and the values are parsed
    again at the effective precision, at least 113 bits (the identity still
    holds; near-equal inputs just need more headroom).  Then k must lie in
    1..n (``BadIndex``), and a k >= 2 request with an input <= 1 raises
    ``DomainError`` before any hyperplane is built.

    Returns a plain dict (stable key order) with the intersection point, the
    first mean, the closed-form logarithmic mean, their relative gap, the
    requested k-th mean, and any warnings.  One intersection serves every k.
    An M_1 or L_N outside [min, max] of the inputs (lost to cancellation)
    raises ``SingularSystem``.
    """
    vals = sorted_positive_distinct(values, precision_bits)
    warnings = ln_gap_warnings(vals)
    bits = precision_bits
    if warnings:
        bits = max(ESCALATED_PRECISION_BITS, precision_bits)
        vals = sorted_positive_distinct(values, bits)
    n = len(vals)
    if not 1 <= k <= n:
        raise BadIndex(f"mean index k must be in 1..{n}, got {k}")
    curve = make_log_curve(n)
    _require_invertible(curve, k, vals)
    result = intersect(curve, vals, bits)
    m1 = result.means[1]
    reference = neuman_LN(vals, bits)
    lo, hi = vals[0], vals[-1]
    for name, value in (("M_1", m1), ("L_N", reference)):
        if not lo <= value <= hi:
            raise SingularSystem(
                f"{name} = {mp.nstr(value, 12)} lies outside the inputs' range "
                f"[{mp.nstr(lo, 12)}, {mp.nstr(hi, 12)}]; the system is too "
                f"ill-conditioned at {bits} bits"
            )
    with mp.workprec(bits):
        rel_gap = abs(m1 - reference) / abs(reference)
    mk = _pull_back(curve, k, result.point[k - 1], vals, bits)
    return {
        "n": n,
        "k": k,
        "precision_bits": precision_bits,
        "effective_precision_bits": bits,
        "values": list(vals),
        "point": list(result.point),
        "m1": m1,
        "neuman_ln": reference,
        "rel_gap": rel_gap,
        "mk": mk,
        "residual_norm": result.report.residual_norm,
        "condition_estimate": result.report.condition_estimate,
        "warnings": list(warnings),
    }
