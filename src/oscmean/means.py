"""Osculating hyperplanes, their common intersection point, and the means
derived from it, plus the closed-form n-variable logarithmic and identric
means used as references.  ``evaluate_request`` serves the command line's
``mean``: it parses, checks, escalates and evaluates one request, with the
solve's bound on the error of i_1, in one call.  Whether a request
escalates is decided exactly on the parsed values' integers (no log).

Geometry recap: for a curve with log-polynomial components, the osculating
hyperplane at parameter a has normal vector given by the alternating-sign
Wronskian minors evaluated at a, and passes through the curve point.  For n
strictly increasing positive inputs the n hyperplanes meet in a single
point P; coordinate k of P pulled back through component k is a mean of the
inputs (it always lands strictly between the smallest and largest input),
provided component k is monotone on the inputs' range.  Only t, t^e,
log t and t * (log t)^m are pulled back, in closed form; the log curve's
t * (log t)^m (k >= 2) needs every input > 1.  Other inputs are refused,
not rescaled, because M_k is not homogeneous for k >= 2.
For the log curve the first coordinate is exactly Neuman's n-variable
logarithmic mean

    L_N(a_1, ..., a_n) = (n-1)! * sum_j a_j / prod_{i != j} (ln a_j - ln a_i)

which is what makes this construction worth verifying numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import exp, factorial, log, log1p
from typing import Sequence, Tuple

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
# oscbench/spans.py wraps find_root_bracketed, lp_eval and normal_field here
# by name, so they stay imported; nothing in this module calls them.
from .logpoly import _log_at, lp_eval, lp_rows
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
    _rel_error,
    _sub,
    find_root_bracketed,
    solve_linear,
)
from .precision import as_mpf_at, require_precision
from .wronskian import LOG_T, Curve, T, _plane_polynomials, make_log_curve, normal_field

#: Inputs whose logs are closer than this get a conditioning warning, and a
#: request below 113 significand bits escalates to 113.
LN_GAP_FLOOR = 1e-6
ESCALATED_PRECISION_BITS = 113
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

    ``point[0]`` is the paper's i_1; on the log curve it is M_1.
    ``work_bits`` is the precision the planes were built and solved at,
    ``working_bits`` of the requested precision, and ``report`` that solve's.
    ``_rows`` are those planes
    (``_plane_rows``), in the order of the sorted inputs; their normals are
    the rows of the matrix whose determinant ``report.determinant`` is.
    """

    point: Tuple[mpmath.mpf, ...]
    report: SolveReport
    work_bits: int
    _rows: tuple = field(repr=False, compare=False)


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
    parsed = [as_mpf_at(v, precision_bits) for v in values]
    for v in parsed:
        if v <= 0:
            raise NonPositiveArgument(f"values must be positive, got {mp.nstr(v, 12)}")
    parsed.sort()
    for left, right in zip(parsed, parsed[1:]):
        if left == right:
            raise DistinctnessViolation(f"duplicate value {mp.nstr(left, 12)}")
    return tuple(parsed)


def _gap_below_floor(a, b):
    """For pairs 0 < a < b with ln b - ln a < ``LN_GAP_FLOOR``, the integers
    b - a and a at a common exponent, else None: (b - a) * 2^96 <
    ``_GAP_BOUND`` * a, compared exactly on integers.  A pair with b >= 2a
    returns at once, so no shift exceeds the mantissas."""
    (ma, ea), (mb, eb) = a, b
    if mb.bit_length() + eb - ma.bit_length() - ea >= 2:
        return None
    e = min(ea, eb)
    ma <<= ea - e
    mb <<= eb - e
    return (mb - ma, ma) if (mb - ma) << 96 < _GAP_BOUND * ma else None


def _ln_gap_note(values: Sequence) -> str:
    """The note "min ln-gap g is below 1e-06" when adjacent sorted positive
    ``values`` (non-mpf ones parsed at 53 bits) have logs closer than
    ``LN_GAP_FLOOR``, else "".  The decision is ``_gap_below_floor``; g is
    the smallest, over the pairs it flags, of the float64 log1p of the
    exact relative gap (b - a)/a, so no log is taken.  A relative gap below
    2^-1022, which a float64 holds to fewer digits or as 0.0, is rounded to
    53 bits in its place; log1p would move it by a relative 2^-1023 at most."""
    pairs = _pairs(values, 53)
    gaps = [gap for gap in map(_gap_below_floor, pairs, pairs[1:]) if gap]
    if not gaps:
        return ""
    smallest = min(
        mp.make_mpf(from_float(log1p(d / a)) if d << 1022 >= a else from_rational(d, a, 53, _RND))
        for d, a in gaps
    )
    return f"min ln-gap {mp.nstr(smallest, 3)} is below {LN_GAP_FLOOR:g}"


# -- hyperplanes and their intersection ---------------------------------------


def working_bits(precision_bits: int) -> int:
    """w = p + 30, the width of ``intersect``, ``neuman_LN`` and
    ``identric_IZ`` at a requested precision p: the 30 extra bits keep
    log-gap cancellation from eating into the digits of the answer, which
    each rounds back to p."""
    return precision_bits + 30


def hyperplane_at(curve: Curve, a, precision_bits: int = 53) -> Hyperplane:
    """Osculating hyperplane to ``curve`` at parameter ``a > 0``, as
    ``_plane_rows`` builds it."""
    [row] = _plane_rows(curve, (a,), precision_bits)
    *normal, offset = (mp.make_mpf(_raw_value(v)) for v in row)
    return Hyperplane(normal=tuple(normal), offset=offset)


def _plane_rows(curve: Curve, points: Sequence, precision_bits: int) -> list:
    """The osculating hyperplane at each point as a row of pairs (m, e): the
    alternating-minor field there, then the offset, the full Wronskian, each
    an exact log-polynomial (``_plane_polynomials``) and so rounded once.
    One ``lp_rows`` call evaluates them all, on one log per point.  A zero
    normal raises ``DomainError``."""
    rows = lp_rows(_plane_polynomials(curve), points, precision_bits)
    if not all(any(m for m, _ in row[:-1]) for row in rows):
        raise DomainError("hyperplane normal is the zero vector")
    return rows


def intersect(curve: Curve, values: Sequence, precision_bits: int = 53) -> IntersectionResult:
    """Common point of the osculating hyperplanes at the given parameters.

    Values must be positive and pairwise distinct; they are sorted
    internally (the hyperplane set does not depend on input order).

    The planes are built once, in one pass on integer pairs at the width
    ``working_bits`` gives for the requested precision (``_plane_rows``:
    each offset rounded once, like each normal entry), and that one matrix
    and right-hand side serve the elimination; the result carries them,
    their precision ``work_bits`` and the solve's own report, whose
    ``error_bound`` is what the planes' rounding can do to i_1.  ``point``
    is the solution rounded back to the requested precision.
    """
    n = curve.dimension
    if len(values) != n:
        raise BadDimension(
            f"curve has {n} components but {len(values)} values were supplied"
        )
    require_precision(precision_bits)
    vals = sorted_positive_distinct(values, precision_bits)
    work_bits = working_bits(precision_bits)
    rows = _plane_rows(curve, vals, work_bits)
    try:
        guarded = solve_linear([row[:-1] for row in rows], [row[-1] for row in rows], work_bits)
    except SingularSystem as exc:
        note = _ln_gap_note(vals)
        detail = f" ({note})" if note else ""
        raise SingularSystem(f"{exc}{detail}") from exc
    point = tuple(mp.make_mpf(mpf_pos(x._mpf_, precision_bits, _RND)) for x in guarded.solution)
    return IntersectionResult(point=point, report=guarded, work_bits=work_bits, _rows=tuple(rows))


def _pull_back(curve: Curve, k: int, vals: Sequence, precision_bits: int):
    """The inverse of component k on the sorted inputs ``vals``, chosen from
    the component's shape before any plane is built: a function taking a
    target c to the t in the inputs' range where component k is c.

    t needs no inversion.  For log t, t^e (e != 0) and t * (log t)^m
    (m >= 1), u = log t is c, log(c) / e or ``_log_t_log_power``, taken at
    w = p + 18 plus the bits of |log c|, and t = exp(u) is rounded to
    nearest once at p + 10 bits.  t * (log t)^m is increasing only for
    t > 1, so it needs every input > 1; that, and any other component,
    raises ``DomainError``.  A k outside 1..n raises ``BadIndex``, and a
    target off the image of the inputs' range ``NoBracket``.
    """
    n = curve.dimension
    if not 1 <= k <= n:
        raise BadIndex(f"mean index k must be in 1..{n}, got {k}")
    component = curve.components[k - 1]
    (e, m), coeff = component.items()[0] if len(component) == 1 else ((0, 0), 0)
    if component == T:
        log_t = None
    elif component == LOG_T:
        log_t = lambda c, w: c
    elif coeff == 1 and e and not m:
        log_t = lambda c, w: mpf_div(mpf_log(c, w, _RND), from_int(e), w, _RND)
    elif coeff == 1 and e == 1 and m:
        if vals[0] <= 1:
            raise DomainError(
                f"component {k} of the log curve is strictly increasing only for t > 1; "
                f"smallest input is {mp.nstr(vals[0], 12)}"
            )
        log_t = lambda c, w: _log_t_log_power(c, m, w)
    else:
        raise DomainError(f"component {k} has no closed-form inverse")
    lo, hi, bits = vals[0], vals[-1], precision_bits + 10

    def pull_back(target):
        c = target._mpf_
        # every image but log t's is positive
        if component == LOG_T or (c[1] and not c[0]):
            value = target
            if log_t is not None:
                u = log_t(c, bits + 8 + abs(c[2] + c[3]).bit_length())
                value = mp.make_mpf(mpf_exp(u, bits, _RND))
            if lo <= value <= hi:
                return value
        raise NoBracket(f"component {k} takes {target} outside the inputs' range")

    return pull_back


def _newton_widths(bits: int) -> list:
    """The widths of the Newton steps from a float64 seed to ``bits`` bits:
    ``bits`` halved, rounding up, while above 53, ascending."""
    return [bits] if bits <= 106 else _newton_widths((bits + 1) // 2) + [bits]


def _log_t_log_power(c, m: int, w: int):
    """u = log t, rounded to nearest at ``w`` bits, for the t > 1 with
    t * (log t)^m = c (raw, > 0; m >= 1).  u solves u + m log u = log c, so
    u = m W0(c^(1/m) / m) (Lambert W; Corless et al. 1996).  Newton's method
    on v = log u, where e^v + m v = log c is convex and increasing, takes a
    float64 seed to w bits, one step per ``_newton_widths(w)``, each g bits
    wider (|v| < 2^g) so that v's own rounding stays below 2^-q at width q.
    """
    log_c = mpf_log(c, w, _RND)
    x = to_float(log_c)
    v = log(x) if x > 1 else (x - 1) / m  # right of the root, or left
    for _ in range(64):
        step = (exp(v) + m * v - x) / (exp(v) + m)
        v -= step
        if abs(step) <= 1e-15 * max(1.0, abs(v)):
            break
    g = int(abs(v)).bit_length()
    v = from_float(v)
    m_raw = from_int(m)
    for q in _newton_widths(w):
        q += g
        e = mpf_exp(v, q, _RND)
        f = mpf_sub(mpf_add(e, mpf_mul(m_raw, v, q, _RND), q, _RND), log_c, q, _RND)
        v = mpf_sub(v, mpf_div(f, mpf_add(e, m_raw, q, _RND), q, _RND), q, _RND)
    return mpf_exp(v, w, _RND)


def mean_M(curve: Curve, k: int, values: Sequence, precision_bits: int = 53) -> mpmath.mpf:
    """The k-th mean: coordinate k of the intersection point pulled back
    through component k, in closed form (``_pull_back``: t, t^e, log t or
    t * (log t)^m).

    A k outside 1..n raises ``BadIndex``, and a component with no such
    inverse, or t * (log t)^m with an input <= 1 (the log curve's k >= 2),
    ``DomainError``, before any hyperplane is built.
    """
    vals = sorted_positive_distinct(values, precision_bits)
    pull_back = _pull_back(curve, k, vals, precision_bits)
    point = intersect(curve, vals, precision_bits).point
    return pull_back(point[k - 1])


# -- closed-form reference means ----------------------------------------------


def _divided_difference(weights: Sequence, xs: Sequence, prec: int):
    """sum_j w_j / prod_{i != j} (x_j - x_i): the divided difference at the
    nodes ``xs`` of any f with f(x_j) = w_j.  Takes and returns raw libmp
    values and computes on ``numerics``' integer (mantissa, exponent) pairs.
    Each gap, each product of a denominator (from 1, i ascending), each
    quotient and each partial sum (j ascending) is rounded once to nearest
    at ``prec``.  Each gap is computed once: x_i - x_j for i < j is the
    negation of x_j - x_i rounded, because the rounding is sign-symmetric.
    """
    ws = [_pair(w) for w in weights]
    nodes = [_pair(x) for x in xs]
    gaps = {}
    total = _ZERO
    for j, xj in enumerate(nodes):
        denom = _ONE
        for i, xi in enumerate(nodes):
            if i < j:
                m, e = gaps[i, j]
                denom = _mul(denom, (-m, e), prec)
            elif i > j:
                gaps[j, i] = gap = _sub(xj, xi, prec)
                denom = _mul(denom, gap, prec)
        total = _add(total, _div(ws[j], denom, prec), prec)
    return _raw_value(total)


def neuman_LN(values: Sequence, precision_bits: int = 53) -> mpmath.mpf:
    """Neuman's n-variable logarithmic mean.

        (n-1)! * sum_j a_j / prod_{i != j} (ln a_j - ln a_i)

    that is, (n-1)! times the divided difference of exp at the logs.
    Symmetric in its arguments and positively homogeneous of degree 1.  The
    sum cancels heavily when the logs are close, so it is accumulated wider
    and rounded to the requested precision at the end: the logs, the
    divided difference (``_divided_difference``) and the final product with
    (n-1)! round to nearest at ``working_bits(precision_bits)``.
    """
    vals = [v._mpf_ for v in sorted_positive_distinct(values, precision_bits)]
    n = len(vals)
    prec = working_bits(precision_bits)
    logs = [_log_at(v, prec) for v in vals]
    total = _divided_difference(vals, logs, prec)
    result = mpf_mul(from_int(factorial(n - 1), prec, _RND), total, prec, _RND)
    return mp.make_mpf(mpf_pos(result, precision_bits, _RND))


def identric_IZ(values: Sequence, precision_bits: int = 53) -> mpmath.mpf:
    """The n-variable identric mean.

        exp[ sum_j a_j^(n-1) ln a_j / prod_{i != j} (a_j - a_i)  -  m ]

    the exp of the divided difference of t^(n-1) ln t at the inputs, less
    the harmonic number m = 1 + 1/2 + ... + 1/(n-1).  For n = 2 this
    reduces to the classical identric mean exp[(b ln b - a ln a)/(b - a) - 1].
    Every step rounds to nearest at ``working_bits(precision_bits)``, and
    the result once more, to the requested precision.
    """
    vals = [v._mpf_ for v in sorted_positive_distinct(values, precision_bits)]
    n = len(vals)
    prec = working_bits(precision_bits)
    weights = [
        mpf_mul(mpf_pow_int(v, n - 1, prec, _RND), _log_at(v, prec), prec, _RND)
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
    below ``LN_GAP_FLOOR`` a warning is attached, and a request below 113
    bits is escalated to 113: its values are parsed again there, and the
    warning says so (the identity still holds; near-equal inputs just need
    more headroom).  Then ``_pull_back`` checks that k lies in 1..n
    (``BadIndex``), and a k >= 2 request with an input <= 1 raises
    ``DomainError``, before any hyperplane is built.

    Returns a plain dict (stable key order) with the intersection point, the
    first mean, the closed-form logarithmic mean, their relative gap, the
    requested k-th mean, the solve's ``error_bound`` on i_1 before the
    rounding to the requested precision, and any warnings.  One
    intersection serves every k.
    An M_1 or L_N outside [min, max] of the inputs (lost to cancellation)
    raises ``SingularSystem``.
    """
    vals = sorted_positive_distinct(values, precision_bits)
    note = _ln_gap_note(vals)
    bits = precision_bits
    if note and bits < ESCALATED_PRECISION_BITS:
        bits = ESCALATED_PRECISION_BITS
        vals = sorted_positive_distinct(values, bits)
    escalated = ", precision escalated" if bits > precision_bits else ""
    warnings = [f"{note}; results are ill-conditioned{escalated}"] if note else []
    n = len(vals)
    curve = make_log_curve(n)
    pull_back = _pull_back(curve, k, vals, bits)
    result = intersect(curve, vals, bits)
    m1 = result.point[0]
    reference = neuman_LN(vals, bits)
    lo, hi = vals[0], vals[-1]
    for name, value in (("M_1", m1), ("L_N", reference)):
        if not lo <= value <= hi:
            raise SingularSystem(
                f"{name} = {mp.nstr(value, 12)} lies outside the inputs' range "
                f"[{mp.nstr(lo, 12)}, {mp.nstr(hi, 12)}]; the system is too "
                f"ill-conditioned at {bits} bits"
            )
    mk = pull_back(result.point[k - 1])
    return {
        "n": n,
        "k": k,
        "precision_bits": precision_bits,
        "effective_precision_bits": bits,
        "values": list(vals),
        "point": list(result.point),
        "m1": m1,
        "neuman_ln": reference,
        "rel_gap": _rel_error(m1, reference, bits),
        "mk": mk,
        "error_bound": result.report.error_bound,
        "warnings": warnings,
    }
