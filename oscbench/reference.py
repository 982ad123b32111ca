"""Independent high-precision reference for the oscmean benchmark.

Uses only mpmath and never imports ``oscmean``.  Every quantity is computed
from the decimal literals themselves, at a working precision of at least
400 bits, raised further when the inputs are close together so that the
cancellation in the log-gap products cannot reach the digits compared.

The intersection point solves the hyperplane system written with the
closed-form Wronskian minors of the curve <t, t log t, ..., t (log t)^(n-1)>:

    minor_k(t) = C_n / (k-1)! * t^(-(n-2)(n-1)/2) * e_{n-k}(log t)

where e_m is the degree-m truncated exponential series and C_n a constant.
Each hyperplane passes through its curve point; the common factor
C_n * t^(-(n-2)(n-1)/2) of a row is divided out, which leaves the solution
unchanged.  L_N comes from Neuman's closed form and must agree with the first
coordinate, which checks the reference against itself.  M_k for k >= 2 is
found by bracketed root finding on t (log t)^(k-1) = x_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import mpmath
from mpmath import mp

BASE_BITS = 400
#: Extra bits on top of the cancellation estimate.
MARGIN_BITS = 64
#: The two routes to L_N must agree to this many bits, or the reference
#: refuses to answer.
SELF_CHECK_BITS = 200
#: Working bits of the input sensitivity, beyond the conditioning estimate.
SENSITIVITY_BITS = 64


class ReferenceError(Exception):
    """The reference could not certify its own answer."""


@dataclass(frozen=True)
class Reference:
    """Reference values for one request, as mpmath floats."""

    values: Tuple[mpmath.mpf, ...]  # sorted increasingly
    point: Tuple[mpmath.mpf, ...]
    ln_mean: mpmath.mpf
    mk: Optional[mpmath.mpf]  # None when k >= 2 and some input is <= 1
    work_bits: int
    #: per coordinate, its change per unit relative change of the inputs
    sensitivity: Tuple[mpmath.mpf, ...]

    @property
    def lo(self) -> mpmath.mpf:
        return self.values[0]

    @property
    def hi(self) -> mpmath.mpf:
        return self.values[-1]


def min_relative_gap(literals: Sequence[str]) -> Fraction:
    """Smallest (b - a) / a over adjacent sorted values, exactly."""
    exact = sorted(Fraction(s) for s in literals)
    if exact[0] <= 0:
        raise ValueError("inputs must be positive")
    gaps = [(b - a) / a for a, b in zip(exact, exact[1:])]
    if min(gaps) == 0:
        raise ValueError("inputs must be pairwise distinct")
    return min(gaps)


def working_bits(literals: Sequence[str]) -> int:
    """At least 400 bits plus (n-1) times the bits a log gap cancels."""
    gap = float(min_relative_gap(literals))
    lost = max(0, math.ceil(-math.log2(gap))) if gap > 0 else 0
    return BASE_BITS + (len(literals) - 1) * lost + MARGIN_BITS


def truncated_exps(y, n: int) -> list:
    """[e_0(y), ..., e_{n-1}(y)] where e_m(y) = sum_{p=0}^{m} y^p / p!"""
    out = []
    total = mp.mpf(0)
    term = mp.mpf(1)
    for p in range(n):
        if p:
            term = term * y / p
        total += term
        out.append(total)
    return out


def curve_component(k: int, t, log_t=None):
    """Component k (1-based) of the log curve: t (log t)^(k-1)."""
    if log_t is None:
        log_t = mp.log(t)
    return t * log_t ** (k - 1)


def neuman_ln(values: Sequence) -> mpmath.mpf:
    """(n-1)! * sum_j a_j / prod_{i != j} (ln a_j - ln a_i) at working precision."""
    n = len(values)
    logs = [mp.log(v) for v in values]
    total = mp.mpf(0)
    for j in range(n):
        denom = mp.mpf(1)
        for i in range(n):
            if i != j:
                denom *= logs[j] - logs[i]
        total += values[j] / denom
    return mp.factorial(n - 1) * total


def intersection_point(values: Sequence):
    """Common point of the n osculating hyperplanes, and per coordinate how
    far it moves per unit relative change of the inputs.

    Row j is g_j(x) = normal(a_j) . (curve(a_j) - x) = 0, so
    dx/da_j = A^-1 e_j * dg_j/da_j with x held fixed, and coordinate k moves
    by at most sum_j |A^-1_kj| |dg_j/da_j| a_j under a unit relative change.
    That is the error a program pays just for reading the literals at its
    own precision.
    """
    n = len(values)
    rows, rhs, slopes = [], [], []
    for a in values:
        y = mp.log(a)
        e = truncated_exps(y, n) + [mp.mpf(0)]
        sign = [(-1) ** (k + 1) / mp.mpf(math.factorial(k - 1)) for k in range(1, n + 1)]
        normal = [sign[k - 1] * e[n - k] for k in range(1, n + 1)]
        d_normal = [sign[k - 1] * e[n - k - 1] / a for k in range(1, n + 1)]
        curve = [curve_component(k, a, y) for k in range(1, n + 1)]
        d_curve = [y ** (k - 1) + (k - 1) * y ** (k - 2) if k > 1 else mp.mpf(1)
                   for k in range(1, n + 1)]
        rows.append(normal)
        rhs.append(mp.fsum(c * v for c, v in zip(curve, normal)))
        slopes.append((a, normal, d_normal, curve, d_curve))
    point = gauss_solve(rows, rhs)
    # a few correct digits suffice here, past what the conditioning costs
    with mp.workprec(mp.prec - BASE_BITS + SENSITIVITY_BITS):
        weights = [
            a * abs(mp.fsum(dc * v + (c - x) * dv
                            for dc, v, c, dv, x in zip(d_curve, normal, curve, d_normal, point)))
            for a, normal, d_normal, curve, d_curve in slopes
        ]
        inverse = gauss_inverse(rows)
        sensitivity = tuple(mp.fsum(abs(z) * w for z, w in zip(row, weights))
                            for row in inverse)
    return point, sensitivity


def gauss_solve(rows, rhs) -> Tuple[mpmath.mpf, ...]:
    """Gaussian elimination with partial pivoting at working precision."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(m[i][col]))
        if m[pivot][col] == 0:
            raise ReferenceError("hyperplane system is singular")
        m[col], m[pivot] = m[pivot], m[col]
        for i in range(col + 1, n):
            factor = m[i][col] / m[col][col]
            for j in range(col, n + 1):
                m[i][j] -= factor * m[col][j]
    x = [mp.mpf(0)] * n
    for i in range(n - 1, -1, -1):
        s = m[i][n] - mp.fsum(m[i][j] * x[j] for j in range(i + 1, n))
        x[i] = s / m[i][i]
    return tuple(x)


def gauss_inverse(rows):
    """Gauss-Jordan inverse with partial pivoting at working precision."""
    n = len(rows)
    m = [list(r) + [mp.mpf(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(m[i][col]))
        if m[pivot][col] == 0:
            raise ReferenceError("hyperplane system is singular")
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                factor = m[i][col]
                m[i] = [u - factor * v for u, v in zip(m[i], m[col])]
    return [row[n:] for row in m]


def invert_component(k: int, target, lo, hi) -> mpmath.mpf:
    """t in [lo, hi] with t (log t)^(k-1) = target, for 1 < lo < hi."""
    def f(t):
        return curve_component(k, t) - target

    if f(lo) > 0 or f(hi) < 0:
        raise ReferenceError(f"M_{k} target is not bracketed by the inputs")
    # Newton on an increasing function, falling back to bisection whenever
    # a step would leave the bracket
    tol = mp.ldexp(hi, -mp.prec + 8)
    x = (lo + hi) / 2
    for _ in range(4 * mp.prec):
        y = mp.log(x)
        fx = x * y ** (k - 1) - target
        if fx == 0:
            return x
        if fx < 0:
            lo = x
        else:
            hi = x
        slope = y ** (k - 1) + (k - 1) * y ** (k - 2)
        step = fx / slope
        if abs(step) < tol:
            return x - step
        x = x - step
        if not lo < x < hi:
            x = (lo + hi) / 2
    raise ReferenceError(f"M_{k} root finder did not converge")


def _power_log_derivative(n: int, k: int, r: int, t):
    """r-th derivative of component k of <t, t^2, ..., t^(n-1), log t>."""
    if k == n:
        return (-1) ** (r - 1) * math.factorial(r - 1) / t ** r
    if r > k:
        return mp.mpf(0)
    return math.factorial(k) // math.factorial(k - r) * t ** (k - r)


def power_log_mean(literals: Sequence[str]) -> mpmath.mpf:
    """M_n of the curve <t, t^2, ..., t^(n-1), log t>, whose last component
    inverts by exp.  The hyperplane normals are the signed Wronskian minors,
    evaluated as numeric determinants of the exact derivatives; for n = 2
    this is the identric mean exp((b ln b - a ln a) / (b - a) - 1)."""
    n = len(literals)
    with mp.workprec(working_bits(literals)):
        values = sorted(mp.mpf(s) for s in literals)
        rows, rhs = [], []
        for a in values:
            normal = []
            for k in range(1, n + 1):
                kept = [c for c in range(1, n + 1) if c != k]
                minor = mp.det(mp.matrix([[_power_log_derivative(n, c, r, a) for c in kept]
                                          for r in range(1, n)]))
                normal.append((-1) ** (k + 1) * minor)
            curve = [a ** c for c in range(1, n)] + [mp.log(a)]
            rows.append(normal)
            rhs.append(mp.fsum(x * c for x, c in zip(curve, normal)))
        return mp.exp(gauss_solve(rows, rhs)[-1])


def reference_for(literals: Sequence[str], k: int = 1) -> Reference:
    """Point, L_N and M_k for the decimal literals, certified by a self-check."""
    bits = working_bits(literals)
    with mp.workprec(bits):
        values = tuple(sorted(mp.mpf(s) for s in literals))
        point, sensitivity = intersection_point(values)
        ln_mean = neuman_ln(values)
        if abs(point[0] - ln_mean) > abs(ln_mean) * mp.ldexp(1, -SELF_CHECK_BITS):
            raise ReferenceError("intersection and closed form disagree")
        mk: Optional[mpmath.mpf]
        if k == 1:
            mk = ln_mean
        elif values[0] > 1:
            mk = invert_component(k, point[k - 1], values[0], values[-1])
            check = curve_component(k, mk) - point[k - 1]
            if abs(check) > abs(point[k - 1]) * mp.ldexp(1, -SELF_CHECK_BITS):
                raise ReferenceError(f"M_{k} root did not converge")
        else:
            mk = None
    return Reference(values, point, ln_mean, mk, bits, sensitivity)
