"""Osculating hyperplanes, their common intersection point, and the means
derived from it, plus the closed-form n-variable logarithmic and identric
means used as references.  ``evaluate_request`` serves the command line's
``mean``: it parses, checks, escalates and evaluates one request in a
single call.  Whether a request escalates is decided exactly on the parsed
values' integers, with no log (``_gap_below_floor``).

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

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import exp, factorial, log
from typing import Dict, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_rational,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_pos,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
    to_fixed,
    to_float,
)

from .errors import (
    BadDimension,
    BadIndex,
    DistinctnessViolation,
    DomainError,
    NoBracket,
    NonPositiveArgument,
    SingularSystem,
)
from .logpoly import LogPoly, lp_eval, lp_rows
from .numerics import (
    _ONE,
    _ZERO,
    SolveReport,
    _add,
    _div,
    _mul,
    _pair,
    _pairs,
    _raw_value,
    _sub,
    find_root_bracketed,
    solve_linear,
)
from .precision import as_mpf, require_precision
from .wronskian import CACHE_MAXSIZE, LOG_T, Curve, T, make_log_curve, normal_field

#: Inputs whose logs are closer than this get a conditioning warning and an
#: automatic escalation to at least 113 significand bits.
LN_GAP_FLOOR = 1e-6
ESCALATED_PRECISION_BITS = 113
#: Internal headroom for intersections and closed-form mean evaluations:
#: the arithmetic carries this many extra bits so that log-gap cancellation
#: does not eat into the digits of the answer delivered at the requested
#: precision.
GUARD_BITS = 30
_RND = round_nearest
# ln b - ln a < LN_GAP_FLOOR exactly when (b - a)/a < e^LN_GAP_FLOOR - 1, an
# irrational bound: here times 2^96, taken at 128 bits and rounded up.
_GAP_BOUND = 1 + to_fixed(
    mpf_sub(mpf_exp(from_float(LN_GAP_FLOOR), 128, _RND), fone, 128, _RND), 96
)


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
    ``_rows`` are the planes the system was built from (``_plane_rows``), at
    the guard precision, in the order of the sorted inputs; ``planes`` makes
    them ``Hyperplane`` objects when first read.  Their normals are the rows
    of the matrix whose determinant ``report.determinant`` is.
    """

    point: Tuple[mpmath.mpf, ...]
    report: SolveReport
    means: Dict[int, mpmath.mpf]
    _rows: tuple = field(repr=False, compare=False)

    @cached_property
    def planes(self) -> Tuple[Hyperplane, ...]:
        return tuple(map(_hyperplane, self._rows))


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


def _gap_below_floor(a, b) -> bool:
    """True when the pairs 0 < a < b have ln b - ln a < ``LN_GAP_FLOOR``:
    (b - a) * 2^96 < ``_GAP_BOUND`` * a, compared exactly on integers.  A
    pair with b >= 2a returns at once, so no shift exceeds the mantissas."""
    (ma, ea), (mb, eb) = a, b
    if mb.bit_length() + eb - ma.bit_length() - ea >= 2:
        return False
    e = min(ea, eb)
    ma <<= ea - e
    mb <<= eb - e
    return (mb - ma) << 96 < _GAP_BOUND * ma


def _ln_gap_note(values: Sequence) -> str:
    """The note "min ln-gap g is below 1e-06" when adjacent sorted positive
    ``values`` (non-mpf ones parsed at 53 bits) have logs closer than
    ``LN_GAP_FLOOR``, else "".  The decision is ``_gap_below_floor``; logs
    are taken, at 53 bits, only for the printed smallest gap g."""
    pairs = _pairs(values, 53)
    if not any(map(_gap_below_floor, pairs, pairs[1:])):
        return ""
    with mp.workprec(53):
        logs = [mp.log(as_mpf(v)) for v in values]
        smallest = min(b - a for a, b in zip(logs, logs[1:]))
    return f"min ln-gap {mp.nstr(smallest, 3)} is below {LN_GAP_FLOOR:g}"


def ln_gap_warnings(values: Sequence) -> Tuple[str, ...]:
    """``_ln_gap_note`` as the warning of a request ``evaluate_request`` escalates."""
    note = _ln_gap_note(values)
    return (f"{note}; results are ill-conditioned, precision escalated",) if note else ()


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
    """Osculating hyperplane to ``curve`` at parameter ``a > 0``, as
    ``_plane_rows`` builds it."""
    return _hyperplane(_plane_rows(curve, (a,), precision_bits)[0])


def _plane_rows(curve: Curve, points: Sequence, precision_bits: int) -> list:
    """The osculating hyperplane at each point as a row of pairs (m, e): the
    alternating-minor field there, then the offset, the curve point's dot
    product with that normal, formed exactly as one more log-polynomial
    (``_offset_polynomial``; on the log curve the full Wronskian) and so
    rounded once.  One ``lp_rows`` call evaluates them all, on one log per
    point.  A zero normal raises ``DomainError``."""
    rows = lp_rows(normal_field(curve) + (_offset_polynomial(curve),), points, precision_bits)
    if not all(any(m for m, _ in row[:-1]) for row in rows):
        raise DomainError("hyperplane normal is the zero vector")
    return rows


def _hyperplane(row) -> Hyperplane:
    values = [mp.make_mpf(_raw_value(v)) for v in row]
    return Hyperplane(normal=tuple(values[:-1]), offset=values[-1])


def intersect(curve: Curve, values: Sequence, precision_bits: int = 53) -> IntersectionResult:
    """Common point of the osculating hyperplanes at the given parameters.

    Values must be positive and pairwise distinct; they are sorted
    internally (the hyperplane set does not depend on input order).

    The planes are built once, in one pass on integer pairs with guard bits
    on top of the requested precision (``_plane_rows``: each offset rounded
    once, like each normal entry), and that one matrix and right-hand side
    serve both the elimination and the reported residual; the result
    carries them.  The point is rounded back to the requested precision;
    ``report.residual_norm`` is that rounded point's residual against the
    guard-precision planes, at twice the requested precision, when read.
    """
    n = curve.dimension
    if len(values) != n:
        raise BadDimension(
            f"curve has {n} components but {len(values)} values were supplied"
        )
    require_precision(precision_bits)
    vals = sorted_positive_distinct(values, precision_bits)
    work_bits = precision_bits + GUARD_BITS
    rows = _plane_rows(curve, vals, work_bits)
    try:
        guarded = solve_linear([row[:-1] for row in rows], [row[-1] for row in rows], work_bits)
    except SingularSystem as exc:
        note = _ln_gap_note(vals)
        detail = f" ({note})" if note else ""
        raise SingularSystem(f"{exc}{detail}") from exc
    with mp.workprec(precision_bits):
        point = tuple(+x for x in guarded.solution)
    report = replace(guarded, solution=point, _residual_bits=precision_bits)
    means: Dict[int, mpmath.mpf] = {}
    if curve.components[0] == T:
        means[1] = point[0]
    return IntersectionResult(point=point, report=report, means=means, _rows=tuple(rows))


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
    if k >= 2 and lo <= 1 and _is_log_curve(curve):
        raise DomainError(
            f"component {k} of the log curve is strictly increasing only for t > 1; "
            f"smallest input is {mp.nstr(lo, 12)}"
        )


def _newton_widths(bits: int) -> list:
    """The widths of the Newton steps from a float64 seed to ``bits`` bits:
    ``bits`` halved, rounding up, while above 53, ascending."""
    return [bits] if bits <= 106 else _newton_widths((bits + 1) // 2) + [bits]


def _invert_t_log_power(target, m: int, precision_bits: int):
    """The t > 1 with t * (log t)^m = c = ``target`` (m >= 1), rounded to
    nearest at p + 10 bits, p = ``precision_bits``; c <= 0 raises ``NoBracket``.
    u = log t solves u + m log u = log c, so u = m W0(c^(1/m) / m) (Lambert
    W; Corless et al. 1996).  Newton's method on v = log u, where e^v + m v
    = log c is convex and increasing, takes a float64 seed to w = p + 18
    plus the bits of |log c|, one step per ``_newton_widths(w)``.  Rounding
    log c and u = e^v at w then moves t by under 2^-(p+18) relative.
    """
    c = target._mpf_
    if c[0] or not c[1]:
        raise NoBracket(f"t * (log t)^{m} = {target} has no solution t > 1")
    w = precision_bits + 18 + abs(c[2] + c[3]).bit_length()
    log_c = mpf_log(c, w, _RND)
    x = to_float(log_c)
    v = log(x) if x > 1 else (x - 1) / m  # right of the root, or left
    for _ in range(64):
        step = (exp(v) + m * v - x) / (exp(v) + m)
        v -= step
        if abs(step) <= 1e-15 * max(1.0, abs(v)):
            break
    v = from_float(v)
    m_raw = from_int(m)
    for q in _newton_widths(w):
        e = mpf_exp(v, q, _RND)
        f = mpf_sub(mpf_add(e, mpf_mul(m_raw, v, q, _RND), q, _RND), log_c, q, _RND)
        v = mpf_sub(v, mpf_div(f, mpf_add(e, m_raw, q, _RND), q, _RND), q, _RND)
    return mp.make_mpf(mpf_exp(mpf_exp(v, w, _RND), precision_bits + 10, _RND))


def _pull_back(curve: Curve, k: int, target, vals: Sequence, precision_bits: int):
    """Invert component k at ``target`` on the range of the sorted inputs.

    Component t needs no inversion.  log t (exp of the target) and, when
    every input is > 1, t * (log t)^m with m >= 1 (``_invert_t_log_power``)
    are inverted in closed form, rounded to nearest at ``precision_bits +
    10``, the width the root finder works at.  Any other component is
    inverted by bracketed root finding on the inputs' range, where the mean
    is guaranteed to live.  A value off that range raises ``NoBracket``.
    """
    component = curve.components[k - 1]
    if component == T:
        return target
    m = component.items()[0][0][1] if len(component) == 1 else 0
    if component == LOG_T:
        value = mp.make_mpf(mpf_exp(target._mpf_, precision_bits + 10, _RND))
    elif m and vals[0] > 1 and component == LogPoly.term(1, 1, m):
        value = _invert_t_log_power(target, m, precision_bits)
    else:
        derivative = component.diff()
        return find_root_bracketed(
            lambda t: lp_eval(component, t, precision_bits) - target,
            vals[0],
            vals[-1],
            precision_bits,
            derivative=lambda t: lp_eval(derivative, t, precision_bits),
        )
    if not vals[0] <= value <= vals[-1]:
        raise NoBracket(f"component {k} takes {target} outside the inputs' range")
    return value


def mean_M(curve: Curve, k: int, values: Sequence, precision_bits: int = 53) -> mpmath.mpf:
    """The k-th mean: coordinate k of the intersection point pulled back
    through component k (``_pull_back``: in closed form through t, log t or
    t * (log t)^m, else by bracketed root finding).

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
