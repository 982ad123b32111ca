"""Osculating hyperplanes, their common intersection point, and the means
derived from it, plus the closed-form n-variable logarithmic and identric
means used as references.

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

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Dict, Sequence, Tuple

import mpmath
from mpmath import mp

from .errors import (
    BadDimension,
    BadIndex,
    DistinctnessViolation,
    DomainError,
    NonPositiveArgument,
    SingularSystem,
)
from .logpoly import LogPoly, lp_eval
from .numerics import SolveReport, find_root_bracketed, residual_norm, solve_linear
from .precision import as_mpf, require_precision
from .wronskian import Curve, T, make_log_curve, normal_field

#: Inputs whose logs are closer than this get a conditioning warning and an
#: automatic escalation to at least 113 significand bits.
LN_GAP_FLOOR = 1e-6
ESCALATED_PRECISION_BITS = 113
#: Internal headroom for intersections and closed-form mean evaluations:
#: the arithmetic carries this many extra bits so that log-gap cancellation
#: does not eat into the digits of the answer delivered at the requested
#: precision.
GUARD_BITS = 30


@dataclass(frozen=True)
class Hyperplane:
    """One osculating hyperplane: points x with normal . x = offset."""

    normal: Tuple[mpmath.mpf, ...]
    offset: mpmath.mpf

    def __post_init__(self):
        if not any(abs(c) > 0 for c in self.normal):
            raise DomainError("hyperplane normal is the zero vector")


@dataclass(frozen=True)
class IntersectionResult:
    """The common point of the n hyperplanes plus solve diagnostics.

    ``means`` maps a mean index k to its value when it could be read off
    directly (component k equal to t makes coordinate k itself a mean).
    """

    point: Tuple[mpmath.mpf, ...]
    report: SolveReport
    means: Dict[int, mpmath.mpf]


@dataclass(frozen=True)
class MeanRequest:
    """Validated inputs for one mean computation.

    Values are parsed at the configured precision, sorted increasingly, and
    checked for positivity and distinctness.  If the smallest log-gap falls
    below ``LN_GAP_FLOOR`` a warning is attached and the effective precision is
    escalated to at least 113 bits (the identity still holds; near-equal
    inputs just need more headroom).
    """

    values: Tuple
    k: int = 1
    precision_bits: int = 53
    warnings: Tuple[str, ...] = field(init=False)
    effective_precision_bits: int = field(init=False)

    def __post_init__(self):
        require_precision(self.precision_bits)
        raw = tuple(self.values)
        parsed = sorted_positive_distinct(raw, self.precision_bits)
        warnings = ln_gap_warnings(parsed)
        effective = self.precision_bits
        if warnings:
            effective = max(ESCALATED_PRECISION_BITS, effective)
            parsed = sorted_positive_distinct(raw, effective)
        if not 1 <= self.k <= len(parsed):
            raise BadIndex(f"mean index k must be in 1..{len(parsed)}, got {self.k}")
        object.__setattr__(self, "values", parsed)
        object.__setattr__(self, "warnings", warnings)
        object.__setattr__(self, "effective_precision_bits", effective)


# -- input validation --------------------------------------------------------


def sorted_positive_distinct(values: Sequence, precision_bits: int = 53) -> Tuple[mpmath.mpf, ...]:
    """Parse, validate, and sort mean inputs at the given precision."""
    require_precision(precision_bits)
    if len(values) < 2:
        raise BadDimension(f"need at least 2 values, got {len(values)}")
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


def ln_gap_warnings(values: Sequence) -> Tuple[str, ...]:
    """Conditioning warnings for sorted positive values with close logs."""
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


def hyperplane_at(curve: Curve, a, precision_bits: int = 53) -> Hyperplane:
    """Osculating hyperplane to ``curve`` at parameter ``a > 0``.

    The normal is the alternating-minor field evaluated at a; the offset is
    the dot product of the curve point with that normal (for the log curve
    this equals the full Wronskian at a).
    """
    require_precision(precision_bits)
    with mp.workprec(precision_bits):
        av = as_mpf(a)
    if av <= 0:
        raise NonPositiveArgument(f"hyperplane parameter must be positive, got {a!r}")
    field_polys = normal_field(curve)
    normal = tuple(lp_eval(p, av, precision_bits) for p in field_polys)
    with mp.workprec(precision_bits):
        offset = mp.mpf(0)
        for component, coeff in zip(curve.components, normal):
            offset = offset + lp_eval(component, av, precision_bits) * coeff
    return Hyperplane(normal=normal, offset=offset)


def intersect(curve: Curve, values: Sequence, precision_bits: int = 53) -> IntersectionResult:
    """Common point of the osculating hyperplanes at the given parameters.

    Values must be positive and pairwise distinct; they are sorted
    internally (the hyperplane set does not depend on input order).

    The planes are built once, with guard bits on top of the requested
    precision, and that one matrix and right-hand side serve both the
    elimination and the reported residual.  The point is rounded back to the
    requested precision; ``report.residual_norm`` is that rounded point's
    residual against the guard-precision planes, evaluated at twice the
    requested precision.
    """
    n = curve.dimension
    if len(values) != n:
        raise BadDimension(
            f"curve has {n} components but {len(values)} values were supplied"
        )
    require_precision(precision_bits)
    vals = sorted_positive_distinct(values, precision_bits)
    work_bits = precision_bits + GUARD_BITS
    planes = [hyperplane_at(curve, a, work_bits) for a in vals]
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
    residual = residual_norm(matrix, point, rhs, precision_bits)
    report = SolveReport(point, residual, guarded.condition_estimate)
    means: Dict[int, mpmath.mpf] = {}
    if curve.components[0] == T:
        means[1] = point[0]
    return IntersectionResult(point=point, report=report, means=means)


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


def vandermonde(xs: Sequence):
    """prod_{i<j} (x_j - x_i) at the working precision (exact for rationals).

    With the logs of the inputs as ``xs`` this is the log-gap product of the
    determinant closed forms.
    """
    out = 1
    for i, xi in enumerate(xs):
        for xj in xs[i + 1 :]:
            out = out * (xj - xi)
    return out


def alternating_cofactor_sum(weights: Sequence, xs: Sequence):
    """sum_i (-1)^(i+1) w_i V(xs without x_i), with i counted from 1.

    The cofactor expansion, along a column of weights, of the matrix whose
    other columns are those of the Vandermonde matrix of ``xs``.
    """
    xs = list(xs)
    total = 0
    for i, w in enumerate(weights):
        piece = w * vandermonde(xs[:i] + xs[i + 1 :])
        total = total + piece if i % 2 == 0 else total - piece
    return total


def neuman_LN(values: Sequence, precision_bits: int = 53) -> mpmath.mpf:
    """Neuman's n-variable logarithmic mean.

        (n-1)! * sum_j a_j / prod_{i != j} (ln a_j - ln a_i)

    Symmetric in its arguments and positively homogeneous of degree 1.  The
    sum cancels heavily when the logs are close, so it is accumulated with
    guard bits and rounded to the requested precision at the end.
    """
    vals = sorted_positive_distinct(values, precision_bits)
    n = len(vals)
    with mp.workprec(precision_bits + GUARD_BITS):
        logs = [mp.log(v) for v in vals]
        total = mp.mpf(0)
        for j in range(n):
            denom = mp.mpf(1)
            for i in range(n):
                if i != j:
                    denom = denom * (logs[j] - logs[i])
            total = total + vals[j] / denom
        result = mp.mpf(factorial(n - 1)) * total
    with mp.workprec(precision_bits):
        return +result


def identric_IZ(values: Sequence, precision_bits: int = 53) -> mpmath.mpf:
    """The n-variable identric mean built from Vandermonde minors.

        exp[ (1/V) * sum_i (-1)^(n+i) a_i^(n-1) V_i ln a_i  -  m ]

    where V is the Vandermonde product of the inputs, V_i the Vandermonde
    determinant of the inputs with a_i removed, and m the harmonic number
    1 + 1/2 + ... + 1/(n-1).  For n = 2 this reduces to the classical
    identric mean exp[(b ln b - a ln a)/(b - a) - 1].
    """
    vals = sorted_positive_distinct(values, precision_bits)
    n = len(vals)
    harmonic = sum(Fraction(1, k) for k in range(1, n))
    with mp.workprec(precision_bits + GUARD_BITS):
        weights = [v ** (n - 1) * mp.log(v) for v in vals]
        total = (-1) ** (n - 1) * alternating_cofactor_sum(weights, vals)
        result = mp.exp(total / vandermonde(vals) - as_mpf(harmonic))
    with mp.workprec(precision_bits):
        return +result


# -- request evaluation (used by the command-line front end) -------------------


def evaluate_request(request: MeanRequest) -> dict:
    """Evaluate one validated mean request on the log curve.

    Returns a plain dict (stable key order) with the intersection point, the
    first mean, the closed-form logarithmic mean, their relative gap, the
    requested k-th mean, and any warnings.  One intersection serves every k.
    A k >= 2 request with an input <= 1 raises ``DomainError`` before any
    hyperplane is built, and an M_1 or L_N outside [min, max] of the inputs
    (lost to cancellation) raises ``SingularSystem``.
    """
    bits = request.effective_precision_bits
    vals = request.values
    curve = make_log_curve(len(vals))
    _require_invertible(curve, request.k, vals)
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
    mk = _pull_back(curve, request.k, result.point[request.k - 1], vals, bits)
    return {
        "n": len(vals),
        "k": request.k,
        "precision_bits": request.precision_bits,
        "effective_precision_bits": bits,
        "values": list(vals),
        "point": list(result.point),
        "m1": m1,
        "neuman_ln": reference,
        "rel_gap": rel_gap,
        "mk": mk,
        "residual_norm": result.report.residual_norm,
        "condition_estimate": result.report.condition_estimate,
        "warnings": list(request.warnings),
    }
