"""One checker per combinatorial / determinant identity, plus suite runners
that turn the checkers into uniform report rows for the command line.

Exact checkers return both sides (rationals or log-polynomials) so callers
can assert equality with zero tolerance.  Numeric checkers return a relative
error measured at a configurable precision; the default gate of 1e-8 at 113
bits has enormous headroom over the cancellation actually observed in the
log-gap products at these sizes.

The randomized scans share one loop: each draws seeded tuples whose adjacent
log gaps are at least ``MIN_LN_GAP``, runs its checks on every tuple, and
keeps the largest relative error of each check.  The tuples are well
separated, so report rows carry no conditioning warnings.

Every numeric identity at one n comes from one scan, ``numeric_scan``: it
draws each tuple once (from [1.1, 50] for n >= 3) and intersects the
tuple's osculating hyperplanes once, at the intersection's working
precision w (``IntersectionResult.work_bits``).  The main-theorem row
compares that intersection's first coordinate with ``neuman_LN``, both
rounded to p.  The prop3, prop4 and Cramer-quotient rows are computed at w
on the planes the intersection built, the minor determinant read from the
solve's LU, so one elimination serves the solve and that determinant.  The
n = 2 tangent row is the same check on pairs from [0.2, 50].

The Vandermonde product and its alternating cofactor sum have one home,
``vandermonde`` and ``alternating_cofactor_sum``, exact, on integers.  The
cofactor identity scales its rationals to integers; the two determinant
closed forms write the inputs and their logs (each log rounded at w) as
integers times one power of two, so each closed form is exact and rounded
once at w.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Callable, List, Optional, Sequence, Tuple

import mpmath

from .errors import BadDimension, BadParameter, DistinctnessViolation
# oscbench/spans.py wraps lp_eval here by name, so it stays imported; nothing
# in this module calls it.
from .logpoly import LogPoly, _log_at, lp_eval, substitute_power
from .means import (
    identric_IZ,
    intersect,
    mean_M,
    neuman_LN,
    sorted_positive_distinct,
)
from .numerics import _div, _pair, _pairs, _rel_error, det
from .precision import require_precision
from .wronskian import (
    closed_form_v,
    deriv_table,
    det_symbolic,
    factorial_product,
    full_wronskian_closed_form,
    make_conjecture_curve,
    make_log_curve,
    make_monomial_curve,
    normal_field,
    orthogonality_residuals,
    recursion_deriv,
    wronskian_full,
    wronskian_minor,
)

#: Relative-error gate for the numeric determinant identities at >= 113 bits.
NUMERIC_TOLERANCE = 1e-8
#: Gate for the n = 3 mean-vs-identric experiment.
CONJECTURE_TOLERANCE = 1e-6
#: Every scan rejection-samples its tuples until adjacent log gaps are at
#: least this wide.
MIN_LN_GAP = 0.05
#: Largest n a scan accepts (``numeric_scan`` and ``conjecture_scan``).  Their
#: tuples are rejection-sampled with log gaps >= ``MIN_LN_GAP``, and the share
#: of draws accepted collapses as n grows: one n = 20 tuple from [1.5, 20]
#: takes 0.5 s, and none can succeed at n >= 53 there, or at n >= 78 on
#: ``numeric_scan``'s [1.1, 50].
SCAN_MAX_N = 16
#: Gate for the first-coordinate vs closed-form comparison.
MAIN_THEOREM_TOLERANCE = 1e-9
MAIN_THEOREM_TOLERANCE_113 = 1e-20
TANGENT_TOLERANCE = 1e-12
#: Cancellation amplification observed in the log-gap determinants at
#: n <= 6 with gaps >= 0.05; scales the determinant gates below 113 bits.
_DET_AMPLIFICATION = 1e8


def _det_tolerance(precision_bits: int, floor: float) -> float:
    """Precision-scaled gate for the determinant identities.

    The documented gates hold at 113 bits; at lower precision the achievable
    relative error follows the unit roundoff times the cancellation
    amplification of the log-gap products.
    """
    return max(floor, _DET_AMPLIFICATION * 2.0 ** (1 - precision_bits))


@dataclass(frozen=True)
class IdentityReport:
    """Uniform result row: either an exact verdict or a max relative error."""

    name: str
    n: Optional[int]
    exact: bool
    max_rel_error: Optional[float]
    instances_checked: int
    tolerance: Optional[float] = None

    @property
    def passed(self) -> bool:
        if self.tolerance is not None:
            return self.max_rel_error is not None and self.max_rel_error <= self.tolerance
        if self.max_rel_error is not None:
            return True  # informational numeric row, not gated
        return self.exact


# -- exact combinatorial identities -------------------------------------------


def vandermonde(xs: Sequence[int]) -> int:
    """prod_{i<j} (x_j - x_i), exact, on integers.

    With the logs of the inputs, scaled to integers by one power of two, as
    ``xs`` this is the log-gap product of the determinant closed forms
    (``numeric_checks``); ``lemma7_check`` scales its rationals to integers.
    """
    out = 1
    for i, xi in enumerate(xs):
        for xj in xs[i + 1 :]:
            out *= xj - xi
    return out


def alternating_cofactor_sum(weights: Sequence[int], xs: Sequence[int]) -> int:
    """sum_i (-1)^(i+1) w_i V(xs without x_i), with i counted from 1, exact,
    on integers.

    The cofactor expansion, along a column of weights, of the matrix whose
    other columns are those of the Vandermonde matrix of ``xs``.  Each
    V(xs without x_i) is V(xs) divided exactly by the n - 1 gaps at x_i; only
    a repeated node, one of whose gaps is zero, is multiplied out afresh.
    """
    full = vandermonde(xs)
    total = 0
    for i, (w, xi) in enumerate(zip(weights, xs)):
        gaps = 1
        for j, xj in enumerate(xs):
            if j < i:
                gaps *= xi - xj
            elif j > i:
                gaps *= xj - xi
        cofactor = full // gaps if gaps else vandermonde(xs[:i] + xs[i + 1 :])
        total += w * cofactor if i % 2 == 0 else -w * cofactor
    return total


def lemma3_check(n: int) -> Tuple[Fraction, Fraction]:
    """Alternating binomial-reciprocal sum versus its closed form.

    lhs = sum_{k=1}^{n} (-1)^(k-1) / ((n+1-k)! (k-1)!),  rhs = (-1)^(n+1)/n!.
    """
    if n < 1:
        raise BadParameter(f"n must be >= 1, got {n}")
    lhs = sum(
        (
            Fraction((-1) ** (k - 1), factorial(n + 1 - k) * factorial(k - 1))
            for k in range(1, n + 1)
        ),
        Fraction(0),
    )
    rhs = Fraction((-1) ** (n + 1), factorial(n))
    return lhs, rhs


def lemma4_check(n: int) -> Tuple[LogPoly, Optional[LogPoly]]:
    """Two alternating double sums, built as polynomials in x = log t.

    The first collapses to the constant 1 for n >= 1; the second to the
    constant -1 for n >= 2 (it is an empty sum for n = 1, so ``None`` is
    returned in that slot).
    """
    if n < 1:
        raise BadParameter(f"n must be >= 1, got {n}")
    return _lemma4_sum(n, 0), (_lemma4_sum(n, 1) if n >= 2 else None)


def _lemma4_sum(n: int, shift: int) -> LogPoly:
    """sum_{k=1+shift}^{n} (-1)^(k-1) / (k-1-shift)! *
    sum_{j=0}^{n-k} x^(n-1-shift-j) / (n-k-j)!: lemma 4's first double sum
    at shift 0 and its second at shift 1."""
    return LogPoly(
        (
            (0, n - 1 - shift - j),
            Fraction((-1) ** (k - 1), factorial(k - 1 - shift) * factorial(n - k - j)),
        )
        for k in range(1 + shift, n + 1)
        for j in range(n - k + 1)
    )


def lemma7_check(b: Sequence) -> Tuple[Fraction, Fraction]:
    """Vandermonde cofactor identity over exact rationals.

    lhs = sum_k (-1)^(k+1) b_k^(n-1) prod_{i<j; i,j != k} (b_j - b_i)
    rhs = (-1)^(n-1) prod_{i<j} (b_j - b_i)

    Both sides are homogeneous of degree n(n-1)/2, so they are computed on
    the integers D * b_k, D the lcm of the denominators, and divided by
    D^(n(n-1)/2) once.
    """
    vals = [Fraction(x) for x in b]
    n = len(vals)
    if n < 3:
        raise BadDimension(f"need at least 3 values, got {n}")
    seen = set()
    for v in vals:
        if v in seen:
            raise DistinctnessViolation(f"duplicate value {v}")
        seen.add(v)
    scale = math.lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (scale // v.denominator) for v in vals]
    denominator = scale ** (n * (n - 1) // 2)
    lhs = alternating_cofactor_sum([x ** (n - 1) for x in ints], ints)
    rhs = (-1) ** (n - 1) * vandermonde(ints)
    return Fraction(lhs, denominator), Fraction(rhs, denominator)


# -- numeric identities --------------------------------------------------------


def _scaled(raws) -> Tuple[List[int], int]:
    """Integers X_j and one exponent E with raw value j equal to X_j * 2^E."""
    pairs = [_pair(v) for v in raws]
    shift = min(e for _, e in pairs)
    return [m << (e - shift) for m, e in pairs], shift


def _determinant_closed_forms(vals: Sequence[mpmath.mpf], work_bits: int):
    """The prop3 and prop4 closed forms at the increasing inputs ``vals``,
    as (mantissa, exponent) pairs, each exact on integers and rounded once
    to nearest at ``work_bits``.

    The inputs a_j and their logs y_j, each log rounded once at
    ``work_bits``, are written as integers times one power of two per list.
    The log-gap product V(y), the alternating cofactor sum, prod a_j^k with
    k = (n-1)(n-2)/2 and (prod r!)^(n-2) are then integers times known
    powers of two, and each closed form is one quotient of integers.
    """
    n = len(vals)
    raws = [v._mpf_ for v in vals]
    inputs, e_in = _scaled(raws)
    logs, e_log = _scaled([_log_at(v, work_bits) for v in raws])
    k = (n - 1) * (n - 2) // 2
    scale = factorial_product(n) ** (n - 2)
    denominator = (prod(inputs) ** k, 0)
    e_den = e_in * n * k
    # V(y) carries n(n-1)/2 = k + n - 1 log factors; each cofactor carries k
    prop3 = (scale * vandermonde(logs), e_log * (k + n - 1) - e_den)
    prop4 = (
        (-1) ** (n - 1) * factorial(n - 1) * scale * alternating_cofactor_sum(inputs, logs),
        e_in + e_log * k - e_den,
    )
    return _div(prop3, denominator, work_bits), _div(prop4, denominator, work_bits)


def numeric_checks(a, precision_bits: int = 53) -> Tuple[mpmath.mpf, ...]:
    """Relative errors of every numeric identity at one tuple, all read off
    one intersection of the tuple's osculating hyperplanes on the log curve.

    The last error is the main theorem's: the intersection's first
    coordinate M_1 against ``neuman_LN``, both rounded to ``precision_bits``.
    At n = 2 (the tangent case) it is the only one.  For n >= 3 the errors
    of prop3, prop4 and the Cramer quotient come first, taken on the planes
    the intersection built, at the precision w it built and solved them at
    (``IntersectionResult.work_bits``).  The minor matrix has row j equal
    to the plane normal at a_j, and its determinant is the solve's
    (``SolveReport.determinant``).
    prop3: that determinant is (prod r!)^(n-2) times the product of log
    gaps over prod a_j^((n-1)(n-2)/2).  prop4: with column 1 replaced by
    the planes' offsets (the full Wronskian), the determinant is (-1)^(n-1)
    (n-1)! (prod r!)^(n-2) times sum_i (-1)^(i+1) a_i prod_{j<k; j,k != i}
    (ln a_k - ln a_j), over the same power of the a_j.  The closed forms
    take the logs rounded at w and are otherwise exact, on integers
    (``_determinant_closed_forms``), each rounded once at w.  The quotient
    of the two determinants is the first intersection coordinate by
    Cramer's rule and must agree with ``neuman_LN``.  A numerically
    singular minor matrix raises ``SingularSystem`` from the solve.
    """
    vals = sorted_positive_distinct(a, precision_bits)
    n = len(vals)
    result = intersect(make_log_curve(n), vals, precision_bits)
    reference = neuman_LN(vals, precision_bits)
    m1_error = _rel_error(result.point[0], reference, precision_bits)
    if n == 2:
        return (m1_error,)
    work_bits = result.work_bits
    # the planes' rows as pairs, each offset moved into column 1
    replaced = [row[-1:] + row[1:-1] for row in result._rows]
    det_minors = result.report.determinant
    det_replaced = det(replaced, work_bits)
    prop3, prop4 = _determinant_closed_forms(vals, work_bits)
    quotient = _div(*_pairs((det_replaced, det_minors), work_bits), work_bits)
    return (
        _rel_error(det_minors, prop3, work_bits),
        _rel_error(det_replaced, prop4, work_bits),
        _rel_error(quotient, reference, work_bits),
        m1_error,
    )


# -- randomized scans ----------------------------------------------------------


def draw_tuple(rng: random.Random, n: int, low: float, high: float) -> Tuple[float, ...]:
    """Sorted tuple of n draws from [low, high] with adjacent log gaps >= ``MIN_LN_GAP``.
    When n - 1 such gaps do not fit in [low, high], ``BadDimension`` is
    raised before any draw."""
    if (n - 1) * MIN_LN_GAP >= math.log(high) - math.log(low):
        raise BadDimension(f"{n} values with log gaps >= {MIN_LN_GAP} do not fit in [{low}, {high}]")
    while True:
        vals = sorted(rng.uniform(low, high) for _ in range(n))
        gaps = [math.log(b) - math.log(a) for a, b in zip(vals, vals[1:])]
        if all(g >= MIN_LN_GAP for g in gaps):
            return tuple(vals)


def _worst_errors(
    check: Callable[[Tuple[float, ...]], Sequence[mpmath.mpf]],
    n: int,
    low: float,
    high: float,
    trials: int,
    seed: int,
    precision_bits: int,
) -> List[float]:
    """Per position, the largest relative error ``check`` returns over
    ``trials`` tuples of n values from [low, high], drawn by one generator
    seeded with ``seed``.  Every scan runs through here.
    """
    if trials < 1:
        raise BadParameter(f"trials must be >= 1, got {trials}")
    require_precision(precision_bits)
    rng = random.Random(seed)
    worst: Sequence = ()
    for _ in range(trials):
        errors = check(draw_tuple(rng, n, low, high))
        worst = [max(w, e) for w, e in zip(worst or [0] * len(errors), errors)]
    return [float(w) for w in worst]


def numeric_scan(
    n: int, trials: int = 100, seed: int = 0, precision_bits: int = 113
) -> Tuple[IdentityReport, ...]:
    """Every numeric identity row at n, with every check run on each drawn
    tuple (``numeric_checks``).

    n = 2 gives the tangent row: the tangent-line intersection against
    ``neuman_LN``, here the two-variable mean (b-a)/(ln b - ln a), on pairs
    drawn from [0.2, 50] with ``seed``.  n >= 3 gives the prop3, prop4,
    Cramer-quotient and main-theorem rows, on tuples drawn from [1.1, 50]
    with ``seed + n``.  The main-theorem gate is 1e-9 at double precision
    and 1e-20 from 113 bits up.  An n above ``SCAN_MAX_N`` raises
    ``BadDimension`` before any tuple is drawn.
    """
    if n < 2:
        raise BadDimension(f"need n >= 2, got {n}")
    if n > SCAN_MAX_N:
        raise BadDimension(f"the numeric scan is bounded at n = {SCAN_MAX_N}, got {n}")

    def check(vals):
        return numeric_checks(vals, precision_bits)

    if n == 2:
        [worst] = _worst_errors(check, 2, 0.2, 50.0, trials, seed, precision_bits)
        return (
            IdentityReport(
                "tangent_n2_vs_two_variable_mean", 2, False, worst, trials, TANGENT_TOLERANCE
            ),
        )
    prop3, prop4, quotient, m1 = _worst_errors(
        check, n, 1.1, 50.0, trials, seed + n, precision_bits
    )
    det_gate = _det_tolerance(precision_bits, NUMERIC_TOLERANCE)
    main_gate = (
        MAIN_THEOREM_TOLERANCE_113 if precision_bits >= 113 else MAIN_THEOREM_TOLERANCE
    )
    return (
        IdentityReport("prop3_determinant", n, False, prop3, trials, det_gate),
        IdentityReport("prop4_determinant", n, False, prop4, trials, det_gate),
        IdentityReport(
            "cramer_quotient_vs_neuman", n, False, quotient, trials,
            _det_tolerance(precision_bits, MAIN_THEOREM_TOLERANCE),
        ),
        IdentityReport("main_theorem_m1_vs_neuman", n, False, m1, trials, main_gate),
    )


# oscbench/spans.py wraps these five names as benchmark entry points, so they
# stay as selectors over numeric_scan; run_numeric_suite calls tangent_scan.
def tangent_scan(trials: int = 100, seed: int = 0, precision_bits: int = 53) -> IdentityReport:
    return numeric_scan(2, trials, seed, precision_bits)[0]


def _row_of_scan(
    index: int, n: int, trials: int, seed: int, precision_bits: int
) -> IdentityReport:
    if n < 3:
        raise BadDimension(f"need n >= 3, got {n}")
    return numeric_scan(n, trials, seed, precision_bits)[index]


def prop3_scan(
    n: int, trials: int = 100, seed: int = 0, precision_bits: int = 113
) -> IdentityReport:
    return _row_of_scan(0, n, trials, seed, precision_bits)


def prop4_scan(
    n: int, trials: int = 100, seed: int = 0, precision_bits: int = 113
) -> IdentityReport:
    return _row_of_scan(1, n, trials, seed, precision_bits)


def closure_scan(
    n: int, trials: int = 100, seed: int = 0, precision_bits: int = 113
) -> IdentityReport:
    return _row_of_scan(2, n, trials, seed, precision_bits)


def main_theorem_scan(
    n: int, trials: int = 100, seed: int = 0, precision_bits: int = 53
) -> IdentityReport:
    return _row_of_scan(3, n, trials, seed, precision_bits)


def conjecture_scan(
    n: int, trials: int = 100, seed: int = 0, precision_bits: int = 53
) -> IdentityReport:
    """Compare the n-th mean of the power-log curve with the identric mean.

    Tuples are drawn from [1.5, 20].  The n-th component is log t, so the
    mean is exp of the intersection's last coordinate (``means.mean_M``).
    Agreement is gated at n = 3 and reported (not gated) for
    4 <= n <= ``SCAN_MAX_N``.
    """
    if n < 3:
        raise BadDimension(f"the power-log curve needs n >= 3, got {n}")
    if n > SCAN_MAX_N:
        raise BadDimension(f"the conjecture scan is bounded at n = {SCAN_MAX_N}, got {n}")
    curve = make_conjecture_curve(n)

    def check(vals):
        vals = sorted_positive_distinct(vals, precision_bits)
        mean_value = mean_M(curve, n, vals, precision_bits)
        return (_rel_error(mean_value, identric_IZ(vals, precision_bits), precision_bits),)

    [worst] = _worst_errors(check, n, 1.5, 20.0, trials, seed + n, precision_bits)
    return IdentityReport(
        "conjecture_mn_vs_identric", n, False, worst, trials,
        CONJECTURE_TOLERANCE if n == 3 else None,
    )


# -- exact suite ---------------------------------------------------------------


def _exact_report(name: str, n: Optional[int], ok: bool, instances: int) -> IdentityReport:
    return IdentityReport(name, n, ok, None, instances)


def _check_order_reduction() -> IdentityReport:
    table = deriv_table(make_log_curve(7), 6)
    ok = True
    count = 0
    for k in range(1, 7):
        for r in range(2, 7):
            ok = ok and recursion_deriv(k, r) == table.entry(r, k + 1)
            count += 1
    return _exact_report("derivative_order_reduction", None, ok, count)


def _check_derivatives_at_one() -> IdentityReport:
    table = deriv_table(make_log_curve(7), 6)
    ok = True
    count = 0
    for k in range(2, 8):
        for r in range(0, k - 1):  # orders r <= k - 2 all vanish at t = 1
            ok = ok and table.entry(r, k).value_at_one() == 0
            count += 1
    for r in range(2, 8):  # the first surviving order is factorial
        ok = ok and table.entry(r - 1, r).value_at_one() == factorial(r - 1)
        count += 1
    return _exact_report("derivative_values_at_one", None, ok, count)


def _check_alternating_sum() -> IdentityReport:
    ok = all(lhs == rhs for lhs, rhs in map(lemma3_check, range(1, 21)))
    return _exact_report("alternating_binomial_sum", None, ok, 20)


def _check_polynomial_sums() -> IdentityReport:
    one = LogPoly.constant(1)
    minus_one = LogPoly.constant(-1)
    ok = True
    count = 0
    for n in range(1, 13):
        first, second = lemma4_check(n)
        ok = ok and first == one
        count += 1
        if n >= 2:
            ok = ok and second == minus_one
            count += 1
    return _exact_report("alternating_polynomial_sums", None, ok, count)


def _check_full_wronskian(max_n: int) -> List[IdentityReport]:
    rows = []
    for n in range(3, max_n + 1):
        ok = wronskian_full(make_log_curve(n)) == full_wronskian_closed_form(n)
        rows.append(_exact_report("full_wronskian_closed_form", n, ok, 1))
    return rows


def _check_minor_closed_forms(max_n: int) -> List[IdentityReport]:
    rows = []
    for n in range(2, max_n + 1):
        curve = make_log_curve(n)
        ok = all(wronskian_minor(curve, k) == closed_form_v(k, n) for k in range(1, n + 1))
        rows.append(_exact_report("minor_equals_closed_form", n, ok, n))
    return rows


def _check_minor_recursions(max_n: int) -> List[IdentityReport]:
    rows = []
    for n in range(2, min(max_n, 6) + 1):
        shift_ok = True
        for k in range(1, n + 1):
            lhs = closed_form_v(k + 1, n + 1)
            rhs = LogPoly.term(Fraction(factorial(n), k), -(n - 1), 0) * closed_form_v(k, n)
            shift_ok = shift_ok and lhs == rhs
        lead_lhs = closed_form_v(1, n + 1)
        lead_rhs = LogPoly.term(factorial_product(n), -(n * (n - 1)) // 2, n) + LogPoly.term(
            factorial(n), -(n - 1), 0
        ) * closed_form_v(1, n)
        rows.append(_exact_report("minor_recursion_shift", n, shift_ok, n))
        rows.append(_exact_report("minor_recursion_leading", n, lead_lhs == lead_rhs, 1))
    return rows


def _check_orthogonality(max_n: int) -> List[IdentityReport]:
    rows = []
    for n in range(3, min(max_n, 6) + 1):
        residuals = orthogonality_residuals(n)
        ok = all(r.is_zero() for r in residuals)
        rows.append(_exact_report("orthogonality_residuals", n, ok, len(residuals)))
    return rows


def _check_vandermonde_cofactor(max_n: int, trials: int, seed: int) -> List[IdentityReport]:
    rng = random.Random(seed)
    rows = []
    for n in range(3, min(max_n, 7) + 1):
        ok = True
        for _ in range(trials):
            vec = []
            while len(vec) < n:
                candidate = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                if candidate not in vec:
                    vec.append(candidate)
            lhs, rhs = lemma7_check(vec)
            ok = ok and lhs == rhs
        rows.append(_exact_report("vandermonde_cofactor", n, ok, trials))
    return rows


def _check_worked_example() -> IdentityReport:
    curve = make_monomial_curve([1, 2, 3, 4])
    expected = (
        LogPoly.term(48, 3, 0),
        LogPoly.term(-72, 2, 0),
        LogPoly.term(48, 1, 0),
        LogPoly.term(-12, 0, 0),
    )
    ok = normal_field(curve) == expected
    # plane at parameter 1: normal evaluates to (48, -72, 48, -12), passes
    # through (1, 1, 1, 1), so after dividing by 12: 4x1 - 6x2 + 4x3 - x4 = 1
    normal_at_one = [p.value_at_one() for p in expected]
    offset = sum(c.value_at_one() * nv for c, nv in zip(curve.components, normal_at_one))
    ok = ok and normal_at_one == [48, -72, 48, -12] and offset == 12
    reduced = [Fraction(v, 12) for v in normal_at_one]
    ok = ok and reduced == [4, -6, 4, -1] and Fraction(offset, 12) == 1
    return _exact_report("osculating_plane_worked_example", 4, ok, 1)


def _check_symbolic_determinants_n3() -> List[IdentityReport]:
    # substitute a_j = t^j: logs become integer multiples of log t, so both
    # determinant identities at n = 3 turn into exact ring identities
    curve = make_log_curve(3)
    field = normal_field(curve)
    powers = (1, 2, 3)
    minor_matrix = [[substitute_power(p, c) for p in field] for c in powers]
    det3 = det_symbolic(minor_matrix)
    expected3 = LogPoly.term(2 * vandermonde(powers), -sum(powers), 3)
    row3 = _exact_report("prop3_symbolic_power_points", 3, det3 == expected3, 1)

    k_full = full_wronskian_closed_form(3)
    replaced = [row[:] for row in minor_matrix]
    for j, c in enumerate(powers):
        replaced[j][0] = substitute_power(k_full, c)
    det4 = det_symbolic(replaced)
    expected4 = LogPoly(
        {
            (powers[0] - sum(powers), 1): 4 * (powers[2] - powers[1]),
            (powers[1] - sum(powers), 1): -4 * (powers[2] - powers[0]),
            (powers[2] - sum(powers), 1): 4 * (powers[1] - powers[0]),
        }
    )
    row4 = _exact_report("prop4_symbolic_power_points", 3, det4 == expected4, 1)
    return [row3, row4]


def run_exact_suite(max_n: int = 7, trials: int = 50, seed: int = 0) -> List[IdentityReport]:
    """Every exact identity row, bounded by ``max_n`` where a family is n-indexed."""
    if max_n < 2:
        raise BadParameter(f"max_n must be >= 2, got {max_n}")
    rows: List[IdentityReport] = []
    rows.append(_check_order_reduction())
    rows.append(_check_derivatives_at_one())
    rows.append(_check_alternating_sum())
    rows.append(_check_polynomial_sums())
    rows.extend(_check_minor_closed_forms(max_n))
    rows.extend(_check_full_wronskian(max_n))
    rows.extend(_check_minor_recursions(max_n))
    rows.extend(_check_orthogonality(max_n))
    rows.extend(_check_vandermonde_cofactor(max_n, trials, seed))
    rows.append(_check_worked_example())
    rows.extend(_check_symbolic_determinants_n3())
    return rows


def run_numeric_suite(
    max_n: int = 6,
    trials: int = 100,
    seed: int = 0,
    precision_bits: int = 113,
) -> List[IdentityReport]:
    """Every numeric identity row at the requested precision: the tangent
    row, then the four rows of ``numeric_scan`` for each n from 3 to
    ``max_n``, at most ``SCAN_MAX_N``."""
    if not 2 <= max_n <= SCAN_MAX_N:
        raise BadParameter(f"max_n must be in 2..{SCAN_MAX_N}, got {max_n}")
    require_precision(precision_bits)
    rows: List[IdentityReport] = [tangent_scan(trials, seed, precision_bits)]
    for n in range(3, max_n + 1):
        rows.extend(numeric_scan(n, trials, seed, precision_bits))
    return rows


def run_identity_suite(
    max_n: int = 5,
    trials: int = 100,
    seed: int = 0,
    precision_bits: int = 113,
) -> List[IdentityReport]:
    """Combinatorial and determinant identity rows: the exact alternating
    sums and Vandermonde cofactor rows, then the prop3, prop4 and
    Cramer-quotient rows of ``numeric_scan`` for each n from 3 to ``max_n``.
    Those rows are computed on intersected osculating hyperplanes of the
    log curve; the main-theorem row of the same scan is left out.  ``max_n``
    is at most ``SCAN_MAX_N``."""
    if not 2 <= max_n <= SCAN_MAX_N:
        raise BadParameter(f"max_n must be in 2..{SCAN_MAX_N}, got {max_n}")
    require_precision(precision_bits)
    rows: List[IdentityReport] = [
        _check_alternating_sum(),
        _check_polynomial_sums(),
    ]
    rows.extend(_check_vandermonde_cofactor(max_n, min(trials, 50), seed))
    for n in range(3, max_n + 1):
        rows.extend(numeric_scan(n, trials, seed, precision_bits)[:3])
    return rows
