"""Curves with log-polynomial components, derivative tables, and exact
Wronskian determinants together with their classical closed forms.

All determinants here are symbolic: entries are :class:`LogPoly` values and
the result is again a ``LogPoly``, so identities such as "minor k of the
log curve equals its closed form" are checked by structural equality with
zero tolerance.  One fraction-free elimination (Bareiss 1968) computes them,
a full Wronskian and all n minors of a normal field alike, in O(n^3) ring
operations; its divisions are exact (:meth:`LogPoly.exact_div`), so no
fraction of log-polynomials ever arises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import List, Sequence, Tuple

from .errors import BadDimension, BadIndex, BadOrder
from .logpoly import LogPoly

#: The identity component t (t-power 1, log-power 0).
T = LogPoly.term(1, 1, 0)
#: The component log t.
LOG_T = LogPoly.term(1, 0, 1)
#: Entries kept by the :func:`normal_field` cache, the one cache here: every
#: ``mean`` request and every intersection in the scans asks for its curve's
#: field again.  ``verify --max-n 7``, both conjecture curves and ``mean`` up
#: to n = 10 fill at most 40 entries; the bound stops a process that sees many
#: distinct curves from growing without limit.
CACHE_MAXSIZE = 128


@dataclass(frozen=True)
class Curve:
    """A parametric curve whose components live in the log-polynomial ring."""

    components: Tuple[LogPoly, ...]
    label: str = ""

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) < 2:
            raise BadDimension(f"a curve needs at least 2 components, got {len(comps)}")
        if any(c.is_zero() for c in comps):
            raise BadDimension("curve components must be nonzero")

    @property
    def dimension(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class DerivTable:
    """Rows of exact derivatives: ``rows[r][k-1]`` is the r-th derivative of
    component k.  Row 0 is the curve itself."""

    curve: Curve
    rows: Tuple[Tuple[LogPoly, ...], ...]

    @property
    def max_order(self) -> int:
        return len(self.rows) - 1

    def entry(self, order: int, component: int) -> LogPoly:
        """Derivative of the given order of component ``component`` (1-based)."""
        if not 0 <= order <= self.max_order:
            raise BadOrder(f"order must be in 0..{self.max_order}, got {order}")
        if not 1 <= component <= self.curve.dimension:
            raise BadIndex(
                f"component must be in 1..{self.curve.dimension}, got {component}"
            )
        return self.rows[order][component - 1]


# -- curve constructors ------------------------------------------------------


def make_log_curve(n: int) -> Curve:
    """The curve <t, t*log t, ..., t*(log t)^(n-1)>."""
    if n < 2:
        raise BadDimension(f"log curve needs n >= 2, got {n}")
    return Curve(tuple(LogPoly.term(1, 1, k) for k in range(n)), label="log")


def make_conjecture_curve(n: int) -> Curve:
    """The curve <t, t^2, ..., t^(n-1), log t>."""
    if n < 3:
        raise BadDimension(f"power-log curve needs n >= 3, got {n}")
    comps = tuple(LogPoly.term(1, e, 0) for e in range(1, n)) + (LOG_T,)
    return Curve(comps, label="conjecture")


def make_monomial_curve(exponents: Sequence[int]) -> Curve:
    """The curve <t^e1, ..., t^en> for distinct nonzero integer exponents."""
    exps = [int(e) for e in exponents]
    if len(set(exps)) != len(exps):
        raise BadDimension(f"monomial exponents must be distinct, got {exps}")
    if any(e == 0 for e in exps):
        raise BadDimension(f"monomial exponents must be nonzero, got {exps}")
    return Curve(tuple(LogPoly.term(1, e, 0) for e in exps), label="monomial")


# -- derivative tables -------------------------------------------------------


def deriv_table(curve: Curve, max_order: int) -> DerivTable:
    """Exact derivatives of every component up to ``max_order``."""
    if max_order < 0:
        raise BadOrder(f"max_order must be >= 0, got {max_order}")
    rows: List[Tuple[LogPoly, ...]] = [curve.components]
    for _ in range(max_order):
        rows.append(tuple(p.diff() for p in rows[-1]))
    return DerivTable(curve=curve, rows=tuple(rows))


def _shift_coeff(r: int, j: int) -> int:
    # weights of the order-reduction recursion: (-1)^(j+1) (j-1)! C(r-2, j-1)
    return (-1) ** (j + 1) * factorial(j - 1) * comb(r - 2, j - 1)


def _log_deriv_by_recursion(k: int, r: int) -> LogPoly:
    """r-th derivative of t*(log t)^(k-1) via the index-shift recursion.

    Orders 0 and 1 are closed forms; for r >= 2 the derivative of component
    k+1 is a weighted sum of lower-order derivatives of component k divided
    by powers of t.  This route is independent of generic term-by-term
    differentiation, which is exactly why it is useful as a cross-check.
    """
    if r == 0:
        return LogPoly.term(1, 1, k - 1)
    if r == 1:
        if k == 1:
            return LogPoly.constant(1)
        # (log t)^(k-2) * (k - 1 + log t)
        return LogPoly({(0, k - 2): k - 1, (0, k - 1): 1})
    if k == 1:
        return LogPoly.zero()
    acc = LogPoly.zero()
    for j in range(1, r):
        weight = LogPoly.term(_shift_coeff(r, j) * (k - 1), -j, 0)
        acc = acc + weight * _log_deriv_by_recursion(k - 1, r - j)
    return acc


def recursion_deriv(k: int, r: int) -> LogPoly:
    """r-th derivative of t*(log t)^k computed by the order-reduction recursion.

    Requires r >= 2 (lower orders are the recursion's base data) and k >= 1.
    """
    if r < 2:
        raise BadOrder(f"the recursion starts at order 2, got r={r}")
    if k < 1:
        raise BadIndex(f"component shift k must be >= 1, got {k}")
    return _log_deriv_by_recursion(k + 1, r)


# -- symbolic determinants ---------------------------------------------------


def _eliminate(
    matrix: Sequence[Sequence[LogPoly]], free_columns: int
) -> Tuple[int, int, LogPoly, List[LogPoly]]:
    """Fraction-free elimination of a matrix with ``free_columns`` (0 or 1)
    more columns than rows.

    Columns are taken left to right.  Each takes as pivot its first nonzero
    entry in a row not yet used, swapped into place; then every row below
    it, and every row above it when there is a free column to solve for
    (Gauss-Jordan), becomes (pivot * row - entry * pivot row) / previous
    pivot.  By Sylvester's identity every division is exact (Bareiss 1968):
    each entry is a minor of the matrix.  A column with no nonzero candidate
    is a free column; one more than ``free_columns`` means the rank is short
    and every maximal minor is 0.

    Returns ``(sign, free, d, v)``.  ``sign`` is the sign of the row
    permutation.  ``free`` is the free column (the last one if every other
    column took a pivot).  ``d`` is the last pivot, which is the minor on
    the pivot columns in the permuted row order, or 0 when the rank is
    short.  ``v[p]`` is pivot row p's final entry in the free column (none
    without a free column): the minor with the free column in the place of
    pivot column p, so that ``-v / d`` is Cramer's solution.  The pivot
    columns end as d * I and are not returned.
    """
    rows = [list(row) for row in matrix]
    n_rows = len(rows)
    n_cols = n_rows + free_columns
    sign, free = 1, None
    pivot = prev = LogPoly.constant(1)
    k = 0
    for c in range(n_cols):
        r = next((i for i in range(k, n_rows) if rows[i][c]), None)
        if r is None:
            if free is not None or not free_columns:
                return sign, c, LogPoly.zero(), []
            free = c
            continue
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        pivot, pivot_row = rows[k][c], rows[k]
        # rows above the pivot matter only for the free column's entries;
        # columns left of c are pivot columns, zero off the diagonal
        above = rows[:k] if free_columns else []
        cols = ([] if free is None else [free]) + list(range(c + 1, n_cols))
        for row in above + rows[k + 1 :]:
            factor = row[c]
            for j in cols:
                value = pivot * row[j] if row[j] else row[j]
                if factor and pivot_row[j]:
                    value = value - factor * pivot_row[j]
                row[j] = value.exact_div(prev)
        prev = pivot
        k += 1
    if free is None:
        free = n_rows
    return sign, free, pivot, [row[free] for row in rows] if free < n_cols else []


def det_symbolic(matrix: Sequence[Sequence[LogPoly]]) -> LogPoly:
    """Determinant of a square matrix of log-polynomials.

    Fraction-free elimination with row pivoting (:func:`_eliminate`):
    O(n^3) ring operations, each division exact.  When no nonzero pivot is
    left in a column the determinant is 0.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise BadDimension("determinant requires a square matrix")
    sign, _, d, _ = _eliminate(matrix, 0)
    return d if sign == 1 else -d


# -- Wronskians and closed forms ---------------------------------------------


def wronskian_minor(curve: Curve, k: int) -> LogPoly:
    """Wronskian of the first derivatives of all components except the k-th.

    For an n-component curve this is an (n-1) x (n-1) symbolic determinant:
    row r holds the (r+1)-th derivatives of the retained components.  It is
    entry k of :func:`normal_field` with the alternating sign undone.
    """
    n = curve.dimension
    if not 1 <= k <= n:
        raise BadIndex(f"minor index must be in 1..{n}, got {k}")
    signed = normal_field(curve)[k - 1]
    return signed if k % 2 == 1 else -signed


def wronskian_full(curve: Curve) -> LogPoly:
    """Full n x n Wronskian of the curve components (row r = r-th derivatives)."""
    n = curve.dimension
    table = deriv_table(curve, n - 1)
    matrix = [[table.entry(r, c) for c in range(1, n + 1)] for r in range(n)]
    return det_symbolic(matrix)


def factorial_product(n: int) -> int:
    """0! * 1! * ... * (n-1)!."""
    return prod(factorial(r) for r in range(n))


def full_wronskian_closed_form(n: int) -> LogPoly:
    """Closed form of the log curve's full Wronskian: prod r! / t^(n(n-3)/2)."""
    if n < 2:
        raise BadDimension(f"closed form needs n >= 2, got {n}")
    return LogPoly.term(factorial_product(n), -(n * (n - 3)) // 2, 0)


def closed_form_v(k: int, n: int) -> LogPoly:
    """Explicit closed form of the k-th first-derivative Wronskian minor of the
    log curve:

        (prod_{r<n} r!) / (k-1)! * t^(-(n-2)(n-1)/2)
            * sum_{p=0}^{n-k} (log t)^p / p!

    Stated for n >= 3; the n = 2 case degenerates correctly to the two first
    derivatives (log t + 1 and 1) and is accepted here.
    """
    if n < 2:
        raise BadDimension(f"closed form needs n >= 2, got {n}")
    if not 1 <= k <= n:
        raise BadIndex(f"minor index must be in 1..{n}, got {k}")
    lead = Fraction(factorial_product(n), factorial(k - 1))
    t_power = -((n - 2) * (n - 1)) // 2
    return LogPoly({(t_power, p): lead / factorial(p) for p in range(n - k + 1)})


@lru_cache(maxsize=CACHE_MAXSIZE)
def normal_field(curve: Curve) -> Tuple[LogPoly, ...]:
    """Alternating-sign vector of Wronskian minors: <W_1, -W_2, ..., +/-W_n>.

    This is the normal direction of the osculating hyperplane as a function
    of the curve parameter.  The minors are the n maximal minors of the
    (n-1) x n matrix of first to (n-1)-th derivatives.  One fraction-free
    Gauss-Jordan elimination of that matrix (:func:`_eliminate`) yields all
    of them in O(n^3) ring operations: the minor that omits the free column
    is the last pivot, and the others are the free column's entries, which
    Cramer's rule relates to the signed field.  The vector spans the
    matrix's null space, so the signs follow from the free column's index
    and the row swaps.
    """
    n = curve.dimension
    sign, free, d, v = _eliminate(deriv_table(curve, n - 1).rows[1:], 1)
    if not d:
        return (LogPoly.zero(),) * n
    if free % 2:
        sign = -sign
    d, v = (d, [-w for w in v]) if sign == 1 else (-d, v)
    return tuple(v[:free]) + (d,) + tuple(v[free:])


def orthogonality_residuals(n: int) -> List[LogPoly]:
    """Residuals of the orthogonality relations for the log curve.

    Entry 0 is (curve . signed-minor-vector) minus the full-Wronskian closed
    form; entry j >= 1 is (j-th derivative of the curve) . signed vector.
    Every entry must be the zero log-polynomial.
    """
    if n < 2:
        raise BadDimension(f"orthogonality residuals need n >= 2, got {n}")
    curve = make_log_curve(n)
    table = deriv_table(curve, n - 1)
    signed = [
        closed_form_v(k, n) if k % 2 == 1 else -closed_form_v(k, n)
        for k in range(1, n + 1)
    ]
    residuals: List[LogPoly] = []
    for j in range(n):
        dot = LogPoly.zero()
        for k in range(1, n + 1):
            dot = dot + table.entry(j, k) * signed[k - 1]
        if j == 0:
            dot = dot - full_wronskian_closed_form(n)
        residuals.append(dot)
    return residuals
