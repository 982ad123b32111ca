"""Configurable-precision dense linear algebra and bracketed root finding.

Everything here works on mpmath floats so the significand width can be
raised at runtime; 53 bits reproduces IEEE double behaviour.  One
scaled-pivot LU factorization serves both the solver and det.  The solver
takes one step of iterative refinement, which leaves a relative error of
about 2^-w + (kappa * 2^-w)^2 at working precision w against the exact
solution of the system as given (``solve_linear``).  The solver's report
computes two numbers only when they are read: the residual
||Ax - b||_inf / ||b||_inf of its solution (``means.intersect`` swaps in
the rounded point and the requested precision), and the infinity-norm
condition number of the system equilibrated by powers of two, from the
same LU converted once to float64.  It is dense Gaussian elimination,
O(n^3) for any n: ``mean`` accepts any number of values, and the
intersection systems reach n = 16 in the tests.  The report also gives the
determinant of the system's matrix from the same LU, bit for bit what
``det`` returns, so the identity scans factor each minor matrix once.

The elimination, the substitutions, the residuals, their norms and the
determinant's pivot product run on integer pairs (m, e), the value m * 2^e:
a few private primitives round to nearest-even, multiply, add, subtract and
divide on the integers directly.  Each returns exactly the value the libmp
call it replaces (``mpf_mul``, ``mpf_add``, ``mpf_sub``, ``mpf_div``)
returns at the same precision, including ``mpf_add``'s stand-in for an
operand far below the other, which is not correctly rounded when the larger
operand is wider than the precision.  The operations run in the order the
same code written with ``mpf`` arithmetic under ``mp.workprec`` would use,
so the results are bit-for-bit those of that code, except that the pivot
ratios are compared exactly, with no division.  ``solve_linear`` and
``det`` take ``mpf`` values or pairs and return ``mpf`` values; the
conversion happens there, in ``SolveReport``'s three properties, and
nowhere else.  ``means``' divided-difference kernel and ``logpoly``'s
evaluator, which builds ``means.intersect``'s planes as pairs, use the same
primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Callable, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import MPZ, fzero

from .errors import BadDimension, NoBracket, SingularSystem
from .precision import as_mpf, as_mpf_at, require_precision

# Pivots at or below 2^(-precision+8) times the row scale are treated as zero.
_PIVOT_GUARD_BITS = 8


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

    determinant is det A from the kept LU at the working precision, the
    sign of the permutation times the pivots: bit for bit what ``det``
    returns for the same matrix and precision, without a second
    factorization.  ``identities`` reads it for the minor matrix.

    All three are computed on first read from the system, right-hand side,
    LU, permutation and working precision kept in ``_factors``, and cached;
    ``mean`` reads the first two.  ``_factors`` holds (system, rhs, lu,
    perm, bits): the first three as lists (of lists) of integer pairs
    (m, e), the value m * 2^e with m odd or the pair (0, 0), perm a list of
    row indices, and bits the precision of the factorization.
    """

    solution: Tuple[mpmath.mpf, ...]
    _residual_bits: int
    _factors: tuple = field(repr=False, compare=False)

    @cached_property
    def residual_norm(self) -> mpmath.mpf:
        original, rhs, _, _, _ = self._factors
        x = [_pair(v._mpf_) for v in self.solution]
        return mp.make_mpf(_raw_value(_residual_norm(original, x, rhs, self._residual_bits)))

    @cached_property
    def condition_estimate(self) -> float:
        original, _, lu, perm, _ = self._factors
        # R = diag(2^-row_exp), C = diag(2^-col_exp); a nonzero pair (m, e)
        # has 2^(e+b-1) <= |v| < 2^(e+b) for b = m.bit_length()
        row_exp = [max(e + m.bit_length() for m, e in row if m) for row in original]
        col_exp = [
            max(e + m.bit_length() - r for (m, e), r in zip(column, row_exp) if m)
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

    @cached_property
    def determinant(self) -> mpmath.mpf:
        _, _, lu, perm, bits = self._factors
        return mp.make_mpf(_raw_value(_lu_determinant(lu, perm, bits)))


def _to_float(v, shift: int) -> float:
    """A pair times 2^shift as a float64, from the top 53 bits of its
    mantissa; +-inf past the float range."""
    m, exp = v
    man = abs(m)
    bc = man.bit_length()
    if bc > 53:
        man >>= bc - 53
        exp += bc - 53
    try:
        x = math.ldexp(man, exp + shift)
    except OverflowError:
        x = math.inf
    return -x if m < 0 else x


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


# -- exact integer arithmetic on (mantissa, exponent) pairs --------------------
#
# A pair (m, e) is the value m * 2^e, with m a signed integer that is odd
# unless the value is zero, which is (0, 0).  That is libmp's canonical raw
# value (sign, |m|, e, bitcount) without the sign and the bitcount, so every
# primitive below returns exactly the value the libmp call it names returns
# at the same precision, rounding to nearest with ties to even.

_ZERO = (0, 0)
_ONE = (1, 0)


def _pair(v):
    """The pair of a finite raw value."""
    sign, man, exp, _ = v
    return (-man if sign else man), exp


def _raw_value(x):
    """The raw value of a pair."""
    m, e = x
    if not m:
        return fzero
    if m < 0:
        return (1, MPZ(-m), e, m.bit_length())
    return (0, MPZ(m), e, m.bit_length())


def _pairs(values: Sequence, precision_bits: int):
    """Pairs of a sequence: a finite mpf is read as given, not rounded; a
    pair (m, e) is m * 2^e rounded at ``precision_bits``, as mpf((m, e)) reads
    it; anything else is converted at ``precision_bits`` (``as_mpf_at``,
    which refuses inf and nan)."""
    out = []
    for x in values:
        if type(x) is tuple and len(x) == 2:
            out.append(_round(x[0], x[1], precision_bits))
        # inf and nan are the raw values with a zero mantissa other than 0
        elif isinstance(x, mpmath.mpf) and (x._mpf_[1] or x._mpf_ == fzero):
            out.append(_pair(x._mpf_))
        else:
            out.append(_pair(as_mpf_at(x, precision_bits)._mpf_))
    return out


def _round(m: int, e: int, prec: int):
    """m * 2^e rounded to ``prec`` bits, as a canonical pair (libmp's
    ``normalize``).  The tie test works on the two's complement of m, so a
    negative m rounds by the same rule as its magnitude."""
    n = m.bit_length() - prec
    if n > 0:
        t = m >> (n - 1)
        if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
            m = (t >> 1) + 1
        else:
            m = t >> 1
        e += n
    if m & 1:
        return m, e
    if not m:
        return _ZERO
    zeros = (m & -m).bit_length() - 1
    return m >> zeros, e + zeros


def _mul(x, y, prec: int):
    """x * y (``mpf_mul``)."""
    return _round(x[0] * y[0], x[1] + y[1], prec)


def _sum(a: int, ea: int, b: int, eb: int, prec: int):
    """a * 2^ea + b * 2^eb, as ``mpf_add``.  When the exponents are more than
    100 apart and the smaller operand lies over prec + 4 bits below the
    larger's top bit, libmp does not add it: it appends prec + 4 zero bits
    to the larger mantissa and adds or subtracts one unit there.  That is
    correctly rounded unless the larger operand is wider than ``prec``."""
    if not a:
        return _round(b, eb, prec) if b else _ZERO
    if not b:
        return _round(a, ea, prec)
    offset = ea - eb
    if offset > 100 and a.bit_length() + offset - b.bit_length() > prec + 4:
        return _round((a << (prec + 4)) + (1 if b > 0 else -1), ea - prec - 4, prec)
    if offset < -100 and b.bit_length() - offset - a.bit_length() > prec + 4:
        return _round((b << (prec + 4)) + (1 if a > 0 else -1), eb - prec - 4, prec)
    if offset >= 0:
        return _round((a << offset) + b, eb, prec)
    return _round(a + (b << -offset), ea, prec)


def _add(x, y, prec: int):
    """x + y (``mpf_add``)."""
    return _sum(x[0], x[1], y[0], y[1], prec)


def _sub(x, y, prec: int):
    """x - y (``mpf_sub``)."""
    return _sum(x[0], x[1], -y[0], y[1], prec)


def _div(x, y, prec: int):
    """x / y (``mpf_div``): at least prec + 5 quotient bits, the last one
    set when the division leaves a remainder, then rounded once."""
    a, ea = x
    b, eb = y
    if not b:
        raise ZeroDivisionError
    if not a:
        return _ZERO
    if b == 1 or b == -1:
        return _round(a * b, ea - eb, prec)
    extra = max(prec - a.bit_length() + b.bit_length() + 5, 5)
    quotient, remainder = divmod(abs(a) << extra, abs(b))
    if remainder:
        quotient = (quotient << 1) | 1
        extra += 1
    return _round(-quotient if (a < 0) != (b < 0) else quotient, ea - eb - extra, prec)


def _abs(x, prec: int):
    """|x| rounded to ``prec`` (``mpf_abs``)."""
    return _round(abs(x[0]), x[1], prec)


def _gt(x, y) -> bool:
    """x > y for non-negative pairs, exactly."""
    a, ea = x
    b, eb = y
    if not a or not b:
        return a > b
    top_a = a.bit_length() + ea
    top_b = b.bit_length() + eb
    if top_a != top_b:
        return top_a > top_b
    if ea >= eb:
        return a << (ea - eb) > b
    return a > b << (eb - ea)


def _max_abs(values, prec: int):
    """max(abs(v) for v in values), each abs rounded to ``prec``; the first
    of equal values, as the builtin ``max`` finds it."""
    best = None
    for v in values:
        v = _abs(v, prec)
        if best is None or _gt(v, best):
            best = v
    return best


def _lu_factor(matrix, prec: int):
    """Doolittle LU with scaled partial pivoting; multipliers stored in place.

    Takes and returns pairs.  Returns (lu, perm).  The pivot is the first
    row of largest |a_i| / s_i, compared exactly by cross-multiplying.
    Raises SingularSystem when the best available pivot is at or below
    2^(-prec + 8) times the scale of its original row.
    """
    n = len(matrix)
    lu = [row[:] for row in matrix]
    scales = [_max_abs(row, prec) for row in lu]
    if not all(s[0] for s in scales):
        raise SingularSystem("matrix has an all-zero row")
    perm = list(range(n))
    for col in range(n):
        # the first row of largest |a| / scale: |a_i| * s_p > |a_p| * s_i
        pivot_row, best = col, _abs(lu[col][col], prec)
        for i in range(col + 1, n):
            a = _abs(lu[i][col], prec)
            (sp, ep), (si, ei) = scales[pivot_row], scales[i]
            if _gt((a[0] * sp, a[1] + ep), (best[0] * si, best[1] + ei)):
                pivot_row, best = i, a
        scale, scale_exp = scales[pivot_row]
        guard = (scale, scale_exp - prec + _PIVOT_GUARD_BITS)
        if not _gt(best, guard):
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
            factor = _div(row[col], pivot, prec)
            row[col] = factor
            if factor[0]:
                for j in range(col + 1, n):
                    row[j] = _sub(row[j], _mul(factor, upper[j], prec), prec)
    return lu, perm


def _lu_determinant(lu, perm, prec: int):
    """det of the factored matrix as a pair: the sign of the permutation
    times the pivots, multiplied in order and rounded at ``prec``."""
    # sort a copy of the permutation by swaps; each swap flips the sign
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    result = (sign, 0)
    for i, row in enumerate(lu):
        result = _mul(result, row[i], prec)
    return result


def _lu_solve(lu, perm, rhs, prec: int):
    n = len(lu)
    x = [rhs[p] for p in perm]
    for i in range(1, n):
        row = lu[i]
        s = x[i]
        for j in range(i):
            s = _sub(s, _mul(row[j], x[j], prec), prec)
        x[i] = s
    for i in range(n - 1, -1, -1):
        row = lu[i]
        s = x[i]
        for j in range(i + 1, n):
            s = _sub(s, _mul(row[j], x[j], prec), prec)
        x[i] = _div(s, row[i], prec)
    return x


def _residual_vector(A, x, b, precision_bits: int):
    """Ax - b, accumulated at twice the working precision so that the
    residual measures the solve, not its own rounding."""
    prec = 2 * precision_bits
    out = []
    for row, (bm, be) in zip(A, b):
        r = _round(-bm, be, prec)
        for a, xj in zip(row, x):
            r = _add(r, _mul(a, xj, prec), prec)
        out.append(r)
    return out


def _residual_norm(A, x, b, precision_bits: int):
    prec = 2 * precision_bits
    worst = _max_abs(_residual_vector(A, x, b, precision_bits), prec)
    b_norm = _max_abs(b, prec)
    return _div(worst, b_norm, prec) if b_norm[0] else worst


def solve_linear(A: Sequence[Sequence], b: Sequence, precision_bits: int = 53) -> SolveReport:
    """Solve Ax = b by row-pivoted elimination at the requested precision.

    After the factorization the solution takes one step of iterative
    refinement: the residual b - Ax accumulated at twice the working
    precision w and rounded to w, one more solve with the kept LU, and the
    correction added at w.  An exactly zero residual skips the step.

    An entry is read as ``_pairs`` reads it: an mpf as given, a pair (m, e)
    as m * 2^e rounded at the working precision.

    Guarantee: the relative error against the exact solution of the system
    as given (its entries taken exactly) is about 2^-w + (kappa * 2^-w)^2,
    with kappa as in ``SolveReport.condition_estimate``; a second step would
    bring it to about 2^-w (Skeel 1980; Higham 2002, ch. 12).  On seeded
    log-curve intersection systems at w = 83, one step left at most 13
    units of 2^-83 at n = 10 and 3.2e6 units, about 2^-61, at n = 12, where
    two steps left under one unit; up to n = 7, at 83, 143 and 286 bits,
    one step stays within one unit.  That is enough for ``means.intersect``:
    its planes already carry about kappa * 3.4 * 2^-w of rounding from their
    evaluation, and it rounds the point to 30 bits below w.
    """
    require_precision(precision_bits)
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise BadDimension("coefficient matrix must be square and nonempty")
    if len(b) != n:
        raise BadDimension(f"right-hand side has length {len(b)}, expected {n}")

    prec = precision_bits
    original = [_pairs(row, prec) for row in A]
    rhs = _pairs(b, prec)
    lu, perm = _lu_factor(original, prec)
    solution = _lu_solve(lu, perm, rhs, prec)

    res = _residual_vector(original, solution, rhs, prec)
    if any(m for m, _ in res):
        correction = _lu_solve(lu, perm, [_round(-m, e, prec) for m, e in res], prec)
        solution = [_add(x, d, prec) for x, d in zip(solution, correction)]

    # every component was rounded to prec by its last division or addition
    return SolveReport(
        tuple(mp.make_mpf(_raw_value(x)) for x in solution),
        prec,
        (original, rhs, lu, perm, prec),
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
        lu, perm = _lu_factor([_pairs(row, precision_bits) for row in A], precision_bits)
    except SingularSystem:
        return mp.mpf(0)
    return mp.make_mpf(_raw_value(_lu_determinant(lu, perm, precision_bits)))


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
