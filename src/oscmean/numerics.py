"""Configurable-precision dense linear algebra and bracketed root finding.

Everything here works on mpmath floats so the significand width can be
raised at runtime; 53 bits reproduces IEEE double behaviour.  One
scaled-pivot LU factorization serves both the solver and det.  The solver
takes one step of iterative refinement, which leaves a relative error of
about 2^-w + (kappa * 2^-w)^2 at working precision w against the exact
solution of the system as given (``solve_linear``).  From the same LU the
solver's report gives, when read, a bound on the error of the first
component and the determinant (``SolveReport``).  It is dense Gaussian
elimination, O(n^3) for any n: ``mean`` accepts any number of values, and
the intersection systems reach n = 16 in the tests.

The elimination, the substitutions, the refinement's residual and the
determinant's pivot product run on integer pairs (m, e), the value m * 2^e,
through a few private primitives, each of which returns its exact result
rounded once to nearest-even.  All but the last are chains
s - x_1 y_1 - x_2 y_2 - ... through one fused multiply-subtract kernel,
``_dot_sub``, which writes the primitives' rounding out in one loop and
matches the chain of ``_sub`` and ``_mul`` bit for bit, the unit stand-in
of ``_sum`` included.  The elimination runs in left-looking order, one
chain per entry of L and U, with the roundings of right-looking
elimination.  ``solve_linear``, ``det`` and the relative
error ``_rel_error`` take ``mpf`` values or pairs and return ``mpf`` values;
the conversion happens there, in ``SolveReport``'s properties, and
nowhere else.  ``means``' divided-difference kernel and ``logpoly``'s
evaluator, which builds ``means.intersect``'s planes as pairs, use the same
primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add, mul, sub
from typing import Callable, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import MPZ, fzero

from .errors import BadDimension, NoBracket, SingularSystem
from .precision import as_mpf_at, require_precision

# Pivots at or below 2^(-precision+8) times the row scale are treated as zero.
_PIVOT_GUARD_BITS = 8


@dataclass(frozen=True)
class SolveReport:
    """Solution of a square system plus honesty metadata.

    error_bound is B = 2^-w (|A^-1| (|A| |x| + |b|))_1 / |x_1|, a float, for
    the w-bit solution x: to first order, the relative error in x_1 that a
    relative perturbation of at most 2^-w in each entry of A and b can
    cause (Oettli & Prager 1964; Skeel 1979; Higham 2002, sec. 7.2).  It is
    taken on R A C, where R and C are powers of two that scale the rows,
    and then the columns, to a largest entry in [1/2, 1): the scaling is
    exact and B does not depend on it.  Row 1 of (RAC)^-1 comes from one
    transposed solve on the LU the solve kept, converted once to float64
    from the top 53 bits of each mantissa: P RAC = (R_p L R_p^-1)(R_p U C).
    A pivot that underflows to 0.0, or any overflow, gives +inf; a positive
    bound below the float range gives 5e-324, never 0.0.

    determinant is det A from the kept LU at the working precision, the
    sign of the permutation times the pivots: bit for bit what ``det``
    returns for the same matrix and precision, without a second
    factorization.  ``identities`` reads it for the minor matrix.

    Both are computed on first read and cached; ``mean`` reads the first.
    ``_factors`` holds (system, rhs, lu, perm, sign, bits): the first three
    as lists (of lists) of integer pairs (m, e), the value m * 2^e with m
    odd or the pair (0, 0), perm a list of row indices, sign +-1 its parity
    as ``_lu_factor`` returns it, and bits the precision of the LU.
    """

    solution: Tuple[mpmath.mpf, ...]
    _factors: tuple = field(repr=False, compare=False)

    @cached_property
    def error_bound(self) -> float:
        original, rhs, lu, perm, _, bits = self._factors
        # R = diag(2^-row_exp), C = diag(2^-col_exp); a nonzero pair (m, e)
        # has 2^(top-1) <= |v| < 2^top for top = e + m.bit_length(), read once
        tops = [[e + m.bit_length() if m else -math.inf for m, e in row] for row in original]
        row_exp = [max(row) for row in tops]
        col_exp = [max(map(sub, column, row_exp)) for column in zip(*tops)]
        # y = C^-1 x solves (RAC) y = Rb; t = |RAC| |y| + |Rb|, row by row
        y = list(map(abs, _floats([_pair(v._mpf_) for v in self.solution], col_exp)))
        t = [
            reduce(add, map(mul, map(abs, _floats(row, [-r - c for c in col_exp])), y), 0) + abs(bi)
            for row, r, bi in zip(original, row_exp, _floats(rhs, [-r for r in row_exp]))
        ]
        # row i of lu is row perm[i] of the system
        lu_exp = [row_exp[p] for p in perm]
        factors = [
            _floats(row, [c - r for c in lu_exp[:i]] + [-r - c for c in col_exp[i:]])
            for i, (row, r) in enumerate(zip(lu, lu_exp))
        ]
        # row 1 of (RAC)^-1 is z with z[perm[i]] = u[i], u = (LU)^-T e_1
        u = _first_row_of_inverse(factors)
        q = reduce(add, (abs(ui) * t[p] for ui, p in zip(u, perm)), 0) / y[0] if u and y[0] else 0
        return max(math.ldexp(q, -bits), math.ulp(0.0)) if q and math.isfinite(q) else math.inf

    @cached_property
    def determinant(self) -> mpmath.mpf:
        _, _, lu, _, sign, bits = self._factors
        return mp.make_mpf(_raw_value(_lu_determinant(lu, sign, bits)))


def _floats(pairs, shifts):
    """Each pair (m, e) times 2^shift as a float64, from the top 53 bits of
    m, truncated; +-inf past the float range."""
    out = []
    for (m, e), shift in zip(pairs, shifts):
        cut = m.bit_length() - 53
        if cut > 0:
            m = m >> cut if m > 0 else -(-m >> cut)
            e += cut
        try:
            out.append(math.ldexp(m, e + shift))
        except OverflowError:
            out.append(math.inf if m > 0 else -math.inf)
    return out


def _first_row_of_inverse(lu):
    """Row 1 of (LU)^-1 in float64, for a unit lower L and an upper U stored
    together: u with U^T L^T u = e_1, by one forward substitution with U^T
    and one back substitution with L^T; None if a pivot is 0.0.  Floats are
    added left to right by ``reduce``: ``sum`` compensates from Python 3.12."""
    n = len(lu)
    columns = list(zip(*lu))
    if 0.0 in (columns[i][i] for i in range(n)):
        return None
    u = [1.0 / columns[0][0]] + [0.0] * (n - 1)
    for i in range(1, n):
        u[i] = -reduce(add, map(mul, columns[i][:i], u[:i]), 0) / columns[i][i]
    for i in range(n - 2, -1, -1):
        u[i] -= reduce(add, map(mul, columns[i][i + 1 :], u[i + 1 :]), 0)
    return u


# -- exact integer arithmetic on (mantissa, exponent) pairs --------------------
#
# A pair (m, e) is the value m * 2^e, with m a signed integer that is odd
# unless the value is zero, which is (0, 0): libmp's canonical raw value
# (sign, |m|, e, bitcount) without the sign and the bitcount.  Every
# primitive below returns the exact result rounded once to nearest-even.

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
    """x * y."""
    return _round(x[0] * y[0], x[1] + y[1], prec)


def _sum(a: int, ea: int, b: int, eb: int, prec: int):
    """a * 2^ea + b * 2^eb, rounded once.  Take ea >= eb.  When b lies
    wholly below 2^q, q = min(ea, top - prec - 1) - 2 with top a's top
    exponent, no rounding boundary falls between a + b and a plus one
    signed unit at 2^q, so that unit stands in for b and no shift grows
    with the gap between the exponents.  Within prec exponents the exact
    sum is as cheap, and the test is skipped."""
    if not a:
        return _round(b, eb, prec) if b else _ZERO
    if not b:
        return _round(a, ea, prec)
    if ea < eb:
        a, ea, b, eb = b, eb, a, ea
    offset = ea - eb
    if offset > prec:
        q = min(ea, a.bit_length() + ea - prec - 1) - 2
        if b.bit_length() + eb <= q:
            return _round((a << (ea - q)) + (1 if b > 0 else -1), q, prec)
    return _round((a << offset) + b, eb, prec)


def _add(x, y, prec: int):
    """x + y."""
    return _sum(x[0], x[1], y[0], y[1], prec)


def _sub(x, y, prec: int):
    """x - y."""
    return _sum(x[0], x[1], -y[0], y[1], prec)


def _div(x, y, prec: int):
    """x / y: at least prec + 5 quotient bits, the last one set when the
    division leaves a remainder, then rounded once."""
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


def _abs(x):
    """|x|, exactly."""
    return abs(x[0]), x[1]


def _rel_error(value, reference, prec: int) -> mpmath.mpf:
    """|value - reference| / |reference|, each read as ``_pairs`` reads it,
    the difference and the quotient each rounded once at ``prec``."""
    value, reference = _pairs((value, reference), prec)
    error = _div(_abs(_sub(value, reference, prec)), _abs(reference), prec)
    return mp.make_mpf(_raw_value(error))


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


def _max_abs(values):
    """max(abs(v) for v in values), exactly; the first of equal values, as
    the builtin ``max`` finds it."""
    best = None
    for v in values:
        v = _abs(v)
        if best is None or _gt(v, best):
            best = v
    return best


# -- the fused multiply-subtract kernel ---------------------------------------
#
# s - x_1 y_1 - x_2 y_2 - ..., bit for bit the loop
# s = _sub(s, _mul(x, y, prec), prec), with the bodies of _mul, _sum and
# _round written out: one call per chain, not five per term.  Each product
# and each difference is rounded once to nearest-even, and an operand of a
# difference wholly below the other's rounding position is replaced by
# _sum's signed unit at 2^q.  Two things differ from the primitives and
# move no bit.  The product is negated before it is rounded: the rounding
# is sign-symmetric.  Within a chain a value may keep trailing zero bits,
# which changes neither its value nor any rounding, and it is made
# canonical once, at the end.


def _dot_sub(s, xs, ys, prec: int):
    """s - sum_j x_j y_j over pairs, left to right, each product and each
    difference rounded once to nearest-even at ``prec``."""
    m, e = s
    for (a, ea), (b, eb) in zip(xs, ys):
        p = -a * b
        if p:
            ep = ea + eb
            n = p.bit_length() - prec
            if n > 0:
                t = p >> (n - 1)
                if t & 1 and (t & 2 or p & ((1 << (n - 1)) - 1)):
                    p = (t >> 1) + 1
                else:
                    p = t >> 1
                ep += n
            if not m:
                m, e = p, ep
                continue
            if e < ep:
                m, e, p, ep = p, ep, m, e
            offset = e - ep
            if offset > prec:
                q = min(e, m.bit_length() + e - prec - 1) - 2
                if p.bit_length() + ep <= q:
                    m = (m << (e - q)) + (1 if p > 0 else -1)
                    e = q
                else:
                    m = (m << offset) + p
                    e = ep
            else:
                m = (m << offset) + p
                e = ep
        elif not m:
            continue
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


def _lu_factor(matrix, prec: int):
    """Doolittle LU with scaled partial pivoting, in left-looking order;
    multipliers stored in place.

    Takes and returns pairs.  Returns (lu, perm, sign), sign the parity of
    perm: -1 after an odd number of row swaps.  Step col finishes column
    col, then the pivot's row of U, each entry by one ``_dot_sub`` chain
    a_ij - l_i0 u_0j - l_i1 u_1j - ..., k ascending: the roundings that
    right-looking elimination applies one step at a time (Higham 2002,
    sec. 9.2).  As that elimination skips a zero multiplier, a chain starts
    at its row's first nonzero one, which leaves a wide entry unrounded.
    The pivot is the first row of largest |a_i| / s_i, compared exactly by
    cross-multiplying.  Raises SingularSystem when the best available pivot
    is at or below 2^(-prec + 8) times the scale of its original row.
    """
    n = len(matrix)
    lu = [row[:] for row in matrix]
    scales = [_max_abs(row) for row in lu]
    if not all(s[0] for s in scales):
        raise SingularSystem("matrix has an all-zero row")
    perm = list(range(n))
    sign = 1
    # lead[i]: the number of leading zero multipliers of row i
    lead = [0] * n
    for col in range(n):
        # the columns of the finished rows 0..col-1 of U
        columns = list(zip(*lu[:col]))
        for i in range(col, n):
            row, first = lu[i], lead[i]
            if first < col:
                row[col] = _dot_sub(row[col], row[first:col], columns[col][first:], prec)
        # the first row of largest |a| / scale: |a_i| * s_p > |a_p| * s_i
        pivot_row, best = col, _abs(lu[col][col])
        for i in range(col + 1, n):
            a = _abs(lu[i][col])
            (sp, ep), (si, ei) = scales[pivot_row], scales[i]
            if _gt((a[0] * sp, a[1] + ep), (best[0] * si, best[1] + ei)):
                pivot_row, best = i, a
        scale, scale_exp = scales[pivot_row]
        if not _gt(best, (scale, scale_exp - prec + _PIVOT_GUARD_BITS)):
            raise SingularSystem(
                f"pivot {col} fell below the relative threshold; "
                "the system is numerically singular"
            )
        if pivot_row != col:
            for seq in (lu, scales, perm, lead):
                seq[col], seq[pivot_row] = seq[pivot_row], seq[col]
            sign = -sign
        upper, first = lu[col], lead[col]
        if first < col:
            factors = upper[first:col]
            for j in range(col + 1, n):
                upper[j] = _dot_sub(upper[j], factors, columns[j][first:], prec)
        for i, row in enumerate(lu[col + 1 :], col + 1):
            row[col] = factor = _div(row[col], upper[col], prec)
            if lead[i] == col and not factor[0]:
                lead[i] += 1
    return lu, perm, sign


def _lu_determinant(lu, sign: int, prec: int):
    """det of the factored matrix as a pair: the sign of the permutation
    times the pivots, multiplied in order and rounded at ``prec``."""
    result = (sign, 0)
    for i, row in enumerate(lu):
        result = _mul(result, row[i], prec)
    return result


def _lu_solve(lu, perm, rhs, prec: int):
    n = len(lu)
    x = [rhs[p] for p in perm]
    for i in range(1, n):
        x[i] = _dot_sub(x[i], lu[i][:i], x[:i], prec)
    for i in range(n - 1, -1, -1):
        row = lu[i]
        x[i] = _div(_dot_sub(x[i], row[i + 1 :], x[i + 1 :], prec), row[i], prec)
    return x


def solve_linear(A: Sequence[Sequence], b: Sequence, precision_bits: int = 53) -> SolveReport:
    """Solve Ax = b by row-pivoted elimination at the requested precision.

    After the factorization the solution takes one step of iterative
    refinement: the residual b - Ax accumulated at twice the working
    precision w and rounded to w, one more solve with the kept LU, and the
    correction added at w.  An exactly zero residual skips the step.

    The elimination, left-looking with the roundings of right-looking
    elimination (``_lu_factor``), both substitutions and the residual run
    through the one fused multiply-subtract kernel ``_dot_sub``: each
    product and each difference rounded once to nearest-even, bit for bit
    what ``_sub(s, _mul(x, y))`` gives term by term.

    An entry is read as ``_pairs`` reads it: an mpf as given, a pair (m, e)
    as m * 2^e rounded at the working precision.

    Guarantee: the relative error against the exact solution of the system
    as given (its entries taken exactly) is about 2^-w + (kappa * 2^-w)^2,
    with kappa the condition number of the system after power-of-two row
    and column scaling; a second step would bring it to about 2^-w (Skeel
    1980; Higham 2002, ch. 12).  On seeded log-curve intersection systems at
    w = 83, one step left at most 13 units of 2^-83 at n = 10 and 3.2e6
    units, about 2^-61, at n = 12, where two steps left under one unit; up
    to n = 7, at 83, 143 and 286 bits, one step stays within one unit.  That
    is enough for ``means.intersect``: its planes already carry a rounding
    of 2^-w per entry (``SolveReport.error_bound``), and it rounds the point
    to 30 bits below w.
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
    lu, perm, sign = _lu_factor(original, prec)
    solution = _lu_solve(lu, perm, rhs, prec)

    # b - Ax at 2w, so that the residual measures the solve, not its own rounding
    res = [
        _dot_sub(_round(bm, be, 2 * prec), row, solution, 2 * prec)
        for row, (bm, be) in zip(original, rhs)
    ]
    if any(m for m, _ in res):
        correction = _lu_solve(lu, perm, [_round(m, e, prec) for m, e in res], prec)
        solution = [_add(x, d, prec) for x, d in zip(solution, correction)]

    # every component was rounded to prec by its last division or addition
    return SolveReport(
        tuple(mp.make_mpf(_raw_value(x)) for x in solution),
        (original, rhs, lu, perm, sign, prec),
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
        lu, _, sign = _lu_factor([_pairs(row, precision_bits) for row in A], precision_bits)
    except SingularSystem:
        return mp.mpf(0)
    return mp.make_mpf(_raw_value(_lu_determinant(lu, sign, precision_bits)))


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
    work = precision_bits + 10
    with mp.workprec(work):
        a = as_mpf_at(lo, work)
        b = as_mpf_at(hi, work)
        if a > b:
            a, b = b, a
        fa = as_mpf_at(f(a), work)
        if fa == 0:
            return a
        fb = as_mpf_at(f(b), work)
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
        fx = as_mpf_at(f(x), work)
        dfx = as_mpf_at(derivative(x), work) if derivative is not None else None
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
            fx = as_mpf_at(f(x), work)
            if fx == 0:
                return x
            dfx = as_mpf_at(derivative(x), work) if derivative is not None else None
            if fx < 0:
                xl = x
            else:
                xh = x
        return x
