"""Configurable-precision dense linear algebra and bracketed root finding.

Everything here works on mpmath floats so the significand width can be
raised at runtime; 53 bits reproduces IEEE double behaviour.  Systems in
this package are tiny (n <= 10), so one scaled-pivot LU factorization
serves both the solver (which also extracts the inverse for an
infinity-norm condition estimate) and the determinant.  One routine,
``residual_norm``, measures ||Ax - b||_inf / ||b||_inf for both
``solve_linear`` and ``means.intersect``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import mpmath
from mpmath import mp

from .errors import BadDimension, NoBracket, SingularSystem
from .precision import as_mpf, require_precision

# Pivots smaller than 2^(-precision+8) times the row scale are treated as zero.
_PIVOT_GUARD_BITS = 8


@dataclass(frozen=True)
class SolveReport:
    """Solution of a square system plus honesty metadata.

    residual_norm is ||Ax - b||_inf / ||b||_inf from ``residual_norm``, at
    twice the working precision.  ``means.intersect`` reports the point
    rounded to the requested precision against the guard-precision planes
    it solved, at twice the requested precision.  condition_estimate is the
    infinity-norm condition number computed from the explicit inverse (cheap
    at these sizes); it is reported only, and nothing reads it.
    """

    solution: Tuple[mpmath.mpf, ...]
    residual_norm: mpmath.mpf
    condition_estimate: mpmath.mpf


def _lu_factor(matrix, precision_bits: int):
    """Doolittle LU with scaled partial pivoting; multipliers stored in place.

    Returns (lu, perm).  Raises SingularSystem when the best available pivot
    falls below 2^(-precision_bits + 8) times the scale of its original row.
    """
    n = len(matrix)
    lu = [row[:] for row in matrix]
    scales = [max(abs(x) for x in row) for row in lu]
    if any(s == 0 for s in scales):
        raise SingularSystem("matrix has an all-zero row")
    tiny = mp.ldexp(1, -precision_bits + _PIVOT_GUARD_BITS)
    perm = list(range(n))
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: abs(lu[i][col]) / scales[i])
        if abs(lu[pivot_row][col]) <= tiny * scales[pivot_row]:
            raise SingularSystem(
                f"pivot {col} fell below the relative threshold; "
                "the system is numerically singular"
            )
        if pivot_row != col:
            lu[col], lu[pivot_row] = lu[pivot_row], lu[col]
            scales[col], scales[pivot_row] = scales[pivot_row], scales[col]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
        for i in range(col + 1, n):
            factor = lu[i][col] / lu[col][col]
            lu[i][col] = factor
            if factor:
                for j in range(col + 1, n):
                    lu[i][j] = lu[i][j] - factor * lu[col][j]
    return lu, perm


def _lu_solve(lu, perm, rhs):
    n = len(lu)
    x = [rhs[p] for p in perm]
    for i in range(1, n):
        s = x[i]
        for j in range(i):
            s = s - lu[i][j] * x[j]
        x[i] = s
    for i in range(n - 1, -1, -1):
        s = x[i]
        for j in range(i + 1, n):
            s = s - lu[i][j] * x[j]
        x[i] = s / lu[i][i]
    return x


def _residual_vector(A, x, b, precision_bits: int):
    """Ax - b, accumulated at twice the working precision so that the
    residual measures the solve, not its own rounding."""
    n = len(A)
    with mp.workprec(2 * precision_bits):
        out = []
        for i in range(n):
            r = -b[i]
            for j in range(n):
                r = r + A[i][j] * x[j]
            out.append(r)
        return out


def residual_norm(
    A: Sequence[Sequence], x: Sequence, b: Sequence, precision_bits: int
) -> mpmath.mpf:
    """||Ax - b||_inf / ||b||_inf at twice ``precision_bits`` (the absolute
    residual when b is zero).  Entries are used as given, not rounded."""
    with mp.workprec(2 * precision_bits):
        worst = max(abs(r) for r in _residual_vector(A, x, b, precision_bits))
        b_norm = max(abs(v) for v in b)
        return worst / b_norm if b_norm > 0 else worst


_REFINEMENT_STEPS = 2


def solve_linear(A: Sequence[Sequence], b: Sequence, precision_bits: int = 53) -> SolveReport:
    """Solve Ax = b by row-pivoted elimination at the requested precision.

    After the factorization the solution is polished with iterative
    refinement (residuals accumulated at twice the working precision), which
    recovers near-working-precision accuracy even when log-gap cancellation
    makes the system ill-conditioned.
    """
    require_precision(precision_bits)
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise BadDimension("coefficient matrix must be square and nonempty")
    if len(b) != n:
        raise BadDimension(f"right-hand side has length {len(b)}, expected {n}")

    with mp.workprec(precision_bits):
        original = [[as_mpf(x) for x in row] for row in A]
        rhs = [as_mpf(x) for x in b]
        lu, perm = _lu_factor(original, precision_bits)
        solution = _lu_solve(lu, perm, rhs)

    for _ in range(_REFINEMENT_STEPS):
        res = _residual_vector(original, solution, rhs, precision_bits)
        if all(r == 0 for r in res):
            break
        with mp.workprec(precision_bits):
            correction = _lu_solve(lu, perm, [+(-r) for r in res])
            solution = [x + d for x, d in zip(solution, correction)]

    with mp.workprec(precision_bits):
        unit = [mp.mpf(0)] * n
        inverse_cols = []
        for j in range(n):
            unit[j] = mp.mpf(1)
            inverse_cols.append(_lu_solve(lu, perm, unit[:]))
            unit[j] = mp.mpf(0)
        a_norm = max(sum(abs(x) for x in row) for row in original)
        inv_norm = max(sum(abs(col[i]) for col in inverse_cols) for i in range(n))
        condition = a_norm * inv_norm

    residual = residual_norm(original, solution, rhs, precision_bits)

    with mp.workprec(precision_bits):
        solution = tuple(+x for x in solution)
    return SolveReport(solution, residual, condition)


def det(A: Sequence[Sequence], precision_bits: int = 53) -> mpmath.mpf:
    """Numeric determinant: the sign of the LU permutation times the pivots.

    A pivot below the factorization's relative threshold makes the matrix
    numerically singular, and its determinant is returned as 0.
    """
    require_precision(precision_bits)
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise BadDimension("determinant requires a square, nonempty matrix")
    with mp.workprec(precision_bits):
        try:
            lu, perm = _lu_factor([[as_mpf(x) for x in row] for row in A], precision_bits)
        except SingularSystem:
            return mp.mpf(0)
        # sort the permutation by swaps; each swap flips the sign
        sign = 1
        for i in range(n):
            while perm[i] != i:
                j = perm[i]
                perm[i], perm[j] = perm[j], perm[i]
                sign = -sign
        result = mp.mpf(sign)
        for i in range(n):
            result = result * lu[i][i]
        return result


def find_root_bracketed(
    f: Callable,
    lo,
    hi,
    precision_bits: int = 53,
    derivative: Optional[Callable] = None,
) -> mpmath.mpf:
    """Root of a continuous, strictly monotone f on [lo, hi] with f(lo)f(hi) <= 0.

    Hybrid scheme: Newton steps are taken when a derivative is supplied and
    the step stays inside the current bracket and converges fast enough;
    otherwise the bracket is bisected.  The returned point always lies in
    [lo, hi], and iteration stops once the step size drops below
    2^(-precision_bits + 4) * max(|lo|, |hi|), or after
    4 * precision_bits + 64 steps.
    """
    require_precision(precision_bits)
    with mp.workprec(precision_bits + 10):
        a = as_mpf(lo)
        b = as_mpf(hi)
        if a > b:
            a, b = b, a
        fa = as_mpf(f(a))
        if fa == 0:
            return a
        fb = as_mpf(f(b))
        if fb == 0:
            return b
        if fa * fb > 0:
            raise NoBracket(
                f"f({lo}) and f({hi}) have the same sign; no root is bracketed"
            )
        tol = mp.ldexp(max(abs(a), abs(b)), -precision_bits + 4)
        # orient so that f(xl) < 0 < f(xh)
        if fa < 0:
            xl, xh = a, b
        else:
            xl, xh = b, a
        x = (a + b) / 2
        step_old = abs(b - a)
        step = step_old
        fx = as_mpf(f(x))
        dfx = as_mpf(derivative(x)) if derivative is not None else None
        for _ in range(4 * precision_bits + 64):
            newton_ok = (
                dfx is not None
                and dfx != 0
                and ((x - xh) * dfx - fx) * ((x - xl) * dfx - fx) < 0
                and abs(2 * fx) <= abs(step_old * dfx)
            )
            if newton_ok:
                step_old = step
                step = fx / dfx
                nxt = x - step
                if nxt == x:
                    break
                x = nxt
            else:
                step_old = step
                step = (xh - xl) / 2
                nxt = xl + step
                if nxt == xl:
                    break
                x = nxt
            if abs(step) < tol:
                break
            fx = as_mpf(f(x))
            if fx == 0:
                return x
            dfx = as_mpf(derivative(x)) if derivative is not None else None
            if fx < 0:
                xl = x
            else:
                xh = x
        return x
