"""Configurable-precision dense linear algebra and bracketed root finding.

Everything here works on mpmath floats so the significand width can be
raised at runtime; 53 bits reproduces IEEE double behaviour.  One
scaled-pivot LU factorization serves both the solver and det.  The solver's
report computes two numbers only when they are read: the residual
||Ax - b||_inf / ||b||_inf of its solution (``means.intersect`` swaps in
the rounded point and the requested precision), and the infinity-norm
condition number of the system equilibrated by powers of two, from the
same LU converted once to float64.  It is dense Gaussian elimination,
O(n^3) for any n: ``mean`` accepts any number of values, and the
intersection systems reach n = 16 in the tests.

The elimination, the substitutions, the residuals and their norms run on
raw ``mpmath.libmp`` values (the ``_mpf_`` tuples) rather than on ``mpf``
objects, which saves an object, an argument conversion and a context lookup
per operation.  Each operation rounds to nearest at an explicit precision,
in the order the same code written with ``mpf`` arithmetic under
``mp.workprec`` would use, so the results are bit-for-bit those of that
code.  ``solve_linear`` and ``det`` take and return ``mpf`` values; the
conversion happens there and nowhere else.  The same convention serves the
other hot loops: ``logpoly.lp_eval_many`` (which also evaluates the plane
offsets of ``means.hyperplane_at``, as one more log-polynomial) and the
divided-difference kernel of ``means.neuman_LN`` and ``means.identric_IZ``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Callable, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_nearest,
)

from .errors import BadDimension, NoBracket, SingularSystem
from .precision import as_mpf, as_mpf_at, require_precision

# Pivots at or below 2^(-precision+8) times the row scale are treated as zero.
_PIVOT_GUARD_BITS = 8
_RND = round_nearest


@dataclass(frozen=True)
class SolveReport:
    """Solution of a square system plus honesty metadata.

    residual_norm is ||Ax - b||_inf / ||b||_inf of ``solution`` against the
    system solved, at twice ``_residual_bits``: the working precision for
    ``solve_linear``; ``means.intersect`` reports the point rounded to the
    requested precision, at twice the requested precision.

    condition_estimate is kappa_inf(R A C) = ||RAC||_inf ||(RAC)^-1||_inf,
    a float.  R and C are powers of two that scale the rows, and then the
    columns, to a largest entry in [1/2, 1), so the equilibration is exact
    and kappa says how near the system is to singular whatever the scales
    of its rows and columns.  The inverse comes from the LU the solve kept,
    scaled and converted once to float64 from the top 53 bits of each
    mantissa: P RAC = (R_p L R_p^-1)(R_p U C).  A pivot that underflows to
    0.0, or any overflow, gives +inf.

    Both are computed on first read from the raw system, right-hand side,
    LU and permutation kept in ``_factors``, and cached; only ``mean``
    reads them.
    """

    solution: Tuple[mpmath.mpf, ...]
    _residual_bits: int
    _factors: tuple = field(repr=False, compare=False)

    @cached_property
    def residual_norm(self) -> mpmath.mpf:
        original, rhs, _, _ = self._factors
        x = [v._mpf_ for v in self.solution]
        return mp.make_mpf(_residual_norm(original, x, rhs, self._residual_bits))

    @cached_property
    def condition_estimate(self) -> float:
        original, _, lu, perm = self._factors
        # R = diag(2^-row_exp), C = diag(2^-col_exp); a nonzero raw value
        # (sign, man, exp, bc) has 2^(exp+bc-1) <= |v| < 2^(exp+bc)
        row_exp = [max(v[2] + v[3] for v in row if v[1]) for row in original]
        col_exp = [
            max(v[2] + v[3] - r for v, r in zip(column, row_exp) if v[1])
            for column in zip(*original)
        ]
        a_norm = max(
            sum(abs(_to_float(v, -r - c)) for v, c in zip(row, col_exp))
            for row, r in zip(original, row_exp)
        )
        # row i of lu is row perm[i] of the system
        lu_exp = [row_exp[p] for p in perm]
        factors = [
            [
                _to_float(v, lu_exp[j] - r if j < i else -r - col_exp[j])
                for j, v in enumerate(row)
            ]
            for i, (row, r) in enumerate(zip(lu, lu_exp))
        ]
        return a_norm * _inverse_norm(factors)


def _to_float(v, shift: int) -> float:
    """A raw value times 2^shift as a float64, from the top 53 bits of its
    mantissa; +-inf past the float range."""
    sign, man, exp, bc = v
    if bc > 53:
        man >>= bc - 53
        exp += bc - 53
    try:
        x = math.ldexp(man, exp + shift)
    except OverflowError:
        x = math.inf
    return -x if sign else x


def _inverse_norm(lu) -> float:
    """||(LU)^-1||_inf in float64, for a unit lower L and an upper U stored
    together; +inf if a pivot is 0.0 or the inverse overflows."""
    n = len(lu)
    if any(lu[i][i] == 0.0 for i in range(n)):
        return math.inf
    columns = []
    for k in range(n):
        x = [0.0] * n
        x[k] = 1.0
        for i in range(k + 1, n):
            x[i] = -sum(map(mul, lu[i][k:i], x[k:i]))
        for i in range(n - 1, -1, -1):
            row = lu[i]
            x[i] = (x[i] - sum(map(mul, row[i + 1 :], x[i + 1 :]))) / row[i]
        columns.append(x)
    sums = [sum(map(abs, row)) for row in zip(*columns)]
    return max(sums) if all(map(math.isfinite, sums)) else math.inf


def _raw(values: Sequence, precision_bits: int):
    """Raw values of a sequence: an mpf is taken as given, not rounded;
    anything else is converted at ``precision_bits``."""
    return [as_mpf_at(x, precision_bits)._mpf_ for x in values]


def _max(values):
    """The largest of some raw values, as the builtin ``max`` finds it."""
    best = None
    for v in values:
        if best is None or mpf_cmp(v, best) > 0:
            best = v
    return best


def _max_abs(values, prec: int):
    """max(abs(v) for v in values), each abs rounded to ``prec``."""
    return _max(mpf_abs(v, prec, _RND) for v in values)


def _lu_factor(matrix, prec: int):
    """Doolittle LU with scaled partial pivoting; multipliers stored in place.

    Takes and returns raw values.  Returns (lu, perm).  Raises
    SingularSystem when the best available pivot is at or below
    2^(-prec + 8) times the scale of its original row.
    """
    n = len(matrix)
    lu = [row[:] for row in matrix]
    scales = [_max_abs(row, prec) for row in lu]
    if any(s == fzero for s in scales):
        raise SingularSystem("matrix has an all-zero row")
    perm = list(range(n))
    for col in range(n):
        # the first row of largest |a| / scale pivots
        pivot_row, best = col, None
        for i in range(col, n):
            ratio = mpf_div(mpf_abs(lu[i][col], prec, _RND), scales[i], prec, _RND)
            if best is None or mpf_cmp(ratio, best) > 0:
                pivot_row, best = i, ratio
        guard = mpf_shift(scales[pivot_row], -prec + _PIVOT_GUARD_BITS)
        if mpf_cmp(mpf_abs(lu[pivot_row][col], prec, _RND), guard) <= 0:
            raise SingularSystem(
                f"pivot {col} fell below the relative threshold; "
                "the system is numerically singular"
            )
        if pivot_row != col:
            lu[col], lu[pivot_row] = lu[pivot_row], lu[col]
            scales[col], scales[pivot_row] = scales[pivot_row], scales[col]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
        upper = lu[col]
        pivot = upper[col]
        for i in range(col + 1, n):
            row = lu[i]
            factor = mpf_div(row[col], pivot, prec, _RND)
            row[col] = factor
            if factor != fzero:
                for j in range(col + 1, n):
                    row[j] = mpf_sub(row[j], mpf_mul(factor, upper[j], prec, _RND), prec, _RND)
    return lu, perm


def _lu_solve(lu, perm, rhs, prec: int):
    n = len(lu)
    x = [rhs[p] for p in perm]
    for i in range(1, n):
        row = lu[i]
        s = x[i]
        for j in range(i):
            s = mpf_sub(s, mpf_mul(row[j], x[j], prec, _RND), prec, _RND)
        x[i] = s
    for i in range(n - 1, -1, -1):
        row = lu[i]
        s = x[i]
        for j in range(i + 1, n):
            s = mpf_sub(s, mpf_mul(row[j], x[j], prec, _RND), prec, _RND)
        x[i] = mpf_div(s, row[i], prec, _RND)
    return x


def _residual_vector(A, x, b, precision_bits: int):
    """Ax - b, accumulated at twice the working precision so that the
    residual measures the solve, not its own rounding."""
    prec = 2 * precision_bits
    out = []
    for row, bi in zip(A, b):
        r = mpf_neg(bi, prec, _RND)
        for a, xj in zip(row, x):
            r = mpf_add(r, mpf_mul(a, xj, prec, _RND), prec, _RND)
        out.append(r)
    return out


def _residual_norm(A, x, b, precision_bits: int):
    prec = 2 * precision_bits
    worst = _max_abs(_residual_vector(A, x, b, precision_bits), prec)
    b_norm = _max_abs(b, prec)
    return mpf_div(worst, b_norm, prec, _RND) if mpf_cmp(b_norm, fzero) > 0 else worst


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

    prec = precision_bits
    original = [_raw(row, prec) for row in A]
    rhs = _raw(b, prec)
    lu, perm = _lu_factor(original, prec)
    solution = _lu_solve(lu, perm, rhs, prec)

    for _ in range(_REFINEMENT_STEPS):
        res = _residual_vector(original, solution, rhs, prec)
        if all(r == fzero for r in res):
            break
        correction = _lu_solve(lu, perm, [mpf_neg(r, prec, _RND) for r in res], prec)
        solution = [mpf_add(x, d, prec, _RND) for x, d in zip(solution, correction)]

    return SolveReport(
        tuple(mp.make_mpf(mpf_pos(x, prec, _RND)) for x in solution),
        prec,
        (original, rhs, lu, perm),
    )


def det(A: Sequence[Sequence], precision_bits: int = 53) -> mpmath.mpf:
    """Numeric determinant: the sign of the LU permutation times the pivots.

    A pivot at or below the factorization's relative threshold makes the
    matrix numerically singular, and its determinant is returned as 0.
    """
    require_precision(precision_bits)
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise BadDimension("determinant requires a square, nonempty matrix")
    try:
        lu, perm = _lu_factor([_raw(row, precision_bits) for row in A], precision_bits)
    except SingularSystem:
        return mp.mpf(0)
    # sort the permutation by swaps; each swap flips the sign
    sign = 1
    for i in range(n):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    result = from_int(sign)
    for i in range(n):
        result = mpf_mul(result, lu[i][i], precision_bits, _RND)
    return mp.make_mpf(result)


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
