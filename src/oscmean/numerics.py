"""Configurable-precision dense linear algebra and bracketed root finding.

Each routine takes its width as an argument; 53 bits reproduces IEEE double
behaviour.  The root finder computes on mpmath floats, the rest on integers.
One LU factorization serves both the solver and det (``_lu_factor``): it
scales the rows and then the columns of the matrix by powers of two, so
that the largest entry of each lies in [1/2, 1), reads every entry as an
integer at 2^-F with F = w + 96 for the working precision w, and
eliminates on those integers with partial pivoting.  Every entry of L and
U is one exact integer dot product rounded once, so each step errs by at
most 2^-F on entries of magnitude at most about 1 (Higham 2002, sec. 9.3);
the substitutions work the same way, and the solution is rounded once to
w bits at the end.  The solve's error is bounded normwise, on the scaled
system (``solve_linear``).  From the same integers the solver's report gives, when
read, a bound on the error of the first component and the determinant
(``SolveReport``).  It is dense Gaussian elimination, O(n^3) for any n:
``mean`` accepts any number of values, and the intersection systems reach
n = 16 in the tests.

The values around the solver are integer pairs (m, e), the value m * 2^e,
handled by a few private primitives, each of which returns its exact
result rounded once to nearest-even.  ``solve_linear``, ``det`` and the
relative error ``_rel_error`` take ``mpf`` values or pairs and return
``mpf`` values; the conversion happens there, in ``SolveReport``'s
properties, and nowhere else.  ``means``' divided-difference kernel and
``logpoly``'s evaluator, which builds ``means.intersect``'s planes as
pairs, use the same primitives.
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

# Pivots at or below 2^(-precision+8) times their row's top power of two are
# treated as zero.
_PIVOT_MARGIN_BITS = 8

# The elimination carries F = w + _EXTRA_BITS fraction bits.
_EXTRA_BITS = 96


@dataclass(frozen=True)
class SolveReport:
    """Solution of a square system plus honesty metadata.

    error_bound is B = 2^-w (|A^-1| (|A| |x| + |b|))_1 / |x_1|, a float, for
    the solution x before its rounding to w bits: to first order, the
    relative error in x_1 that a relative perturbation of at most 2^-w in
    each entry of A and b can cause (Oettli & Prager 1964; Skeel 1979;
    Higham 2002, sec. 7.2).  It is taken on the scaled system the
    elimination solved, R A C y = R b 2^-s, where R and C are the powers of
    two of ``_lu_factor`` and 2^-s brings the largest entry of R b into
    [1/2, 1): the scaling is exact and B does not depend on it.  Every
    entry there, y's included, is an integer at 2^-F, converted once to
    float64, and row 1 of (RAC)^-1 comes from one transposed solve on the
    kept L and U.  A pivot that underflows to 0.0, or any overflow, gives
    +inf; a positive bound below the float range gives 5e-324, never 0.0.

    determinant is det A from the kept LU at the working precision, the
    sign of the permutation times the exact product of the pivots, rounded
    once: bit for bit what ``det`` returns for the same matrix and
    precision, without a second factorization.  ``identities`` reads it for
    the minor matrix.

    Both are computed on first read and cached; ``mean`` reads the first.
    ``_factors`` holds (factors, rhs, y, bits): what ``_lu_factor``
    returned, the integers of R b 2^-s and of y at 2^-F, and the working
    precision w.
    """

    solution: Tuple[mpmath.mpf, ...]
    _factors: tuple = field(repr=False, compare=False)

    @cached_property
    def error_bound(self) -> float:
        (lu, perm, _, scaled, _, _, frac), rhs, y, bits = self._factors
        # t = |RAC| |y| + |Rb 2^-s|, row by row
        y = list(map(abs, _floats(y, frac)))
        t = [
            reduce(add, map(mul, map(abs, _floats(row, frac)), y), 0) + abs(bi)
            for row, bi in zip(scaled, _floats(rhs, frac))
        ]
        # row 1 of (RAC)^-1 is z with z[perm[i]] = u[i], u = (LU)^-T e_1
        u = _first_row_of_inverse([_floats(row, frac) for row in lu])
        q = reduce(add, (abs(ui) * t[p] for ui, p in zip(u, perm)), 0) / y[0] if u and y[0] else 0
        return max(math.ldexp(q, -bits), math.ulp(0.0)) if q and math.isfinite(q) else math.inf

    @cached_property
    def determinant(self) -> mpmath.mpf:
        factors, _, _, bits = self._factors
        return mp.make_mpf(_raw_value(_lu_determinant(factors, bits)))


def _floats(ints, frac: int):
    """Each integer times 2^-frac as a float64, correctly rounded; +-inf
    past the float range."""
    unit = 1 << frac
    out = []
    for m in ints:
        try:
            out.append(m / unit)
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


# -- fixed-point elimination ----------------------------------------------------
#
# The system is scaled by powers of two and read as integers at 2^-F.  An
# entry of U, or of the forward substitution, is an exact integer dot
# product at 2^-2F, shifted back to 2^-F with one rounding; a multiplier of
# L, or a component of the back substitution, is such an exact value
# divided by the pivot with one rounding.  Ties round up, to +infinity.


def _fixed(m: int, e: int) -> int:
    """m * 2^e rounded to the nearest integer; 0 at once when it lies below
    1/2, so no integer grows with -e."""
    if e >= 0:
        return m << e
    return (m + (1 << (-e - 1))) >> -e if m.bit_length() >= -e else 0


def _quotient(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b != 0."""
    return (2 * a + b) // (2 * b)


def _lu_factor(matrix, prec: int):
    """Doolittle LU with partial pivoting on the scaled system, in
    left-looking order, on integers at 2^-F with F = prec + 96.

    Takes pairs.  The rows are scaled by 2^-r_i and then the columns by
    2^-c_j, with r_i and c_j the least exponents that bring every entry of
    the row, and then of the column, below 1; each entry of R A C is then
    rounded to an integer at 2^-F (``_fixed``), so an entry far below its
    row reads as 0 without a wide integer.  Step col finishes column col
    below the finished rows, each entry a_ic - l_i0 u_0c - ... exact at
    2^-2F, and takes the first row of largest magnitude as the pivot; the
    pivot is that value rounded once to 2^-F, and its row of U is finished
    the same way, then the column's multipliers, each one rounded integer
    quotient of the exact value by the pivot (Higham 2002, sec. 9.2).
    Raises SingularSystem when |u_kk| 2^(c_k) is at or below 2^(F - prec +
    8): the pivot is at or below 2^(-prec + 8) of its row's top power of
    two, at the original column scale.

    Returns (lu, perm, sign, scaled, row_exp, col_exp, F): the multipliers
    of L and the entries of U in one list of integer rows, perm a list of
    row indices (row i of lu is row perm[i] of the system), sign +-1 its
    parity, the integers of R A C, the exponents r and c, and F.
    """
    n = len(matrix)
    frac = prec + _EXTRA_BITS
    # a nonzero pair (m, e) has 2^(top-1) <= |v| < 2^top for top = e + m.bit_length()
    tops = [[e + m.bit_length() if m else -math.inf for m, e in row] for row in matrix]
    row_exp = [max(row) for row in tops]
    if -math.inf in row_exp:
        raise SingularSystem("matrix has an all-zero row")
    col_exp = [max(map(sub, column, row_exp)) for column in zip(*tops)]
    lu = [
        [_fixed(m, e + frac - r - c) if m else 0 for (m, e), c in zip(row, col_exp)]
        for row, r in zip(matrix, row_exp)
    ]
    scaled = [row[:] for row in lu]
    perm = list(range(n))
    sign = 1
    for col in range(n):
        # the columns of the finished rows 0..col-1 of U (empty at col 0)
        columns = list(zip(*lu[:col])) or [()] * n
        exact = [(row[col] << frac) - sum(map(mul, row[:col], columns[col])) for row in lu[col:]]
        best = max(range(n - col), key=lambda i: abs(exact[i]))
        pivot = _fixed(exact[best], -frac)
        if (abs(pivot) - 1).bit_length() <= frac - prec + _PIVOT_MARGIN_BITS - col_exp[col]:
            raise SingularSystem(
                f"pivot {col} fell below the relative threshold; "
                "the system is numerically singular"
            )
        if best:
            pivot_row = col + best
            for seq in (lu, perm):
                seq[col], seq[pivot_row] = seq[pivot_row], seq[col]
            exact[0], exact[best] = exact[best], exact[0]
            sign = -sign
        upper = lu[col]
        upper[col] = pivot
        if col:
            factors = upper[:col]
            for j in range(col + 1, n):
                upper[j] = _fixed((upper[j] << frac) - sum(map(mul, factors, columns[j])), -frac)
        for row, value in zip(lu[col + 1 :], exact[1:]):
            row[col] = _quotient(value, pivot)
    return lu, perm, sign, scaled, row_exp, col_exp, frac


def _lu_determinant(factors, prec: int):
    """det of the factored matrix as a pair: the sign of the permutation
    times the exact product of the pivots, rounded once at ``prec``."""
    lu, _, sign, _, row_exp, col_exp, frac = factors
    pivots = reduce(mul, (row[i] for i, row in enumerate(lu)), sign)
    return _round(pivots, sum(row_exp) + sum(col_exp) - len(lu) * frac, prec)


def _lu_solve(lu, perm, rhs, frac: int):
    """The solution of L U y = P rhs, integers at 2^-frac: each component
    of the forward substitution one exact dot product rounded once, each of
    the back substitution one rounded quotient."""
    n = len(lu)
    y = [rhs[p] for p in perm]
    for i in range(1, n):
        y[i] = _fixed((y[i] << frac) - sum(map(mul, lu[i][:i], y[:i])), -frac)
    for i in range(n - 1, -1, -1):
        row = lu[i]
        y[i] = _quotient((y[i] << frac) - sum(map(mul, row[i + 1 :], y[i + 1 :])), row[i])
    return y


def solve_linear(A: Sequence[Sequence], b: Sequence, precision_bits: int = 53) -> SolveReport:
    """Solve Ax = b by row-pivoted elimination at the requested precision.

    The elimination (``_lu_factor``) and both substitutions run on the
    system scaled by powers of two, R A C y = R b 2^-s, with 2^-s the power
    of two that brings the largest entry of R b below 1, in integers at
    2^-F with F = w + 96 for the working precision w.  Each component x_j
    = y_j 2^(s - c_j) is then rounded once to w bits.  An entry is read as
    ``_pairs`` reads it: an mpf as given, a pair (m, e) as m * 2^e rounded
    at w; then its scaled value is rounded to 2^-F.

    Guarantee, normwise on the scaled system: every step errs by at most
    2^-F there (Higham 2002, sec. 9.3), so against the exact solution of
    the system as given (its entries taken exactly) each x_j errs by at
    most 2^-w |x_j| from its final rounding plus about n kappa 2^-F
    max_k |y_k| 2^(s - c_j), with kappa the condition number of R A C.  A
    component far below the largest scaled one keeps fewer than w bits, and
    one more than F bits below it reads as 0: the identity with b = (1,
    2^-200) solves to (1, 0) at 53 bits.  On seeded systems with zero
    entries and exponents about 10^4 apart the error stayed within a
    quarter of that bound.  On four seeded log-curve intersection systems
    per n, inputs from 1.1 to 50, each component stayed within one unit of
    2^-w, for n = 2 to 16 at w = 83, 143 and 286 (at most 0.96 units; at
    83 bits the pivot guard refused four of the eight systems at n = 15
    and 16); with F = w + 32 it did not (751 units at n = 10, w = 83), nor
    with F = w + 64 at n = 16 (1.4 units at 143 bits, 64 at 286).  That is
    enough for ``means.intersect``: its planes already carry a rounding of
    2^-w per entry (``SolveReport.error_bound``), which outweighs the
    solve's error even where the inputs cluster near 1 and the later
    components are small, and it rounds the point to the requested
    precision p, below w = ``means.working_bits(p)``.
    """
    require_precision(precision_bits)
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise BadDimension("coefficient matrix must be square and nonempty")
    if len(b) != n:
        raise BadDimension(f"right-hand side has length {len(b)}, expected {n}")

    prec = precision_bits
    factors = _lu_factor([_pairs(row, prec) for row in A], prec)
    lu, perm, _, _, row_exp, col_exp, frac = factors
    rhs = _pairs(b, prec)
    # s: R b's own power of two, as a column's
    s = max((e + m.bit_length() - r for (m, e), r in zip(rhs, row_exp) if m), default=0)
    rhs = [_fixed(m, e + frac - r - s) if m else 0 for (m, e), r in zip(rhs, row_exp)]
    y = _lu_solve(lu, perm, rhs, frac)
    solution = tuple(
        mp.make_mpf(_raw_value(_round(yj, s - c - frac, prec))) for yj, c in zip(y, col_exp)
    )
    return SolveReport(solution, (factors, rhs, y, prec))


def det(A: Sequence[Sequence], precision_bits: int = 53) -> mpmath.mpf:
    """Numeric determinant: the sign of the LU permutation times the exact
    product of the pivots, rounded once.

    A pivot at or below the factorization's relative threshold makes the
    matrix numerically singular, and its determinant is returned as 0.
    """
    require_precision(precision_bits)
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise BadDimension("determinant requires a square, nonempty matrix")
    try:
        factors = _lu_factor([_pairs(row, precision_bits) for row in A], precision_bits)
    except SingularSystem:
        return mp.mpf(0)
    return mp.make_mpf(_raw_value(_lu_determinant(factors, precision_bits)))


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
