"""Curves, derivative tables, symbolic Wronskians, and their closed forms."""

import random
from fractions import Fraction
from math import factorial

import pytest

from oscmean import wronskian
from oscmean.errors import BadDimension, BadIndex, BadOrder
from oscmean.logpoly import LogPoly
from oscmean.wronskian import (
    CACHE_MAXSIZE,
    LOG_T,
    Curve,
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

T = LogPoly.term(1, 1, 0)


# -- constructors -------------------------------------------------------------


def test_log_curve_components():
    assert make_log_curve(2).components == (T, LogPoly.term(1, 1, 1))
    assert make_log_curve(3).components == (
        T,
        LogPoly.term(1, 1, 1),
        LogPoly.term(1, 1, 2),
    )


def test_log_curve_needs_two_components():
    with pytest.raises(BadDimension):
        make_log_curve(1)


def test_conjecture_curve_components():
    assert make_conjecture_curve(3).components == (
        T,
        LogPoly.term(1, 2, 0),
        LogPoly.term(1, 0, 1),
    )
    assert make_conjecture_curve(4).components[2] == LogPoly.term(1, 3, 0)
    with pytest.raises(BadDimension):
        make_conjecture_curve(2)


def test_monomial_curve():
    curve = make_monomial_curve([1, 2, 3, 4])
    assert curve.components[3] == LogPoly.term(1, 4, 0)
    inverse = make_monomial_curve([1, -1])
    assert inverse.components[1] == LogPoly.term(1, -1, 0)
    with pytest.raises(BadDimension):
        make_monomial_curve([1, 1])
    with pytest.raises(BadDimension):
        make_monomial_curve([0, 1])


def test_curve_rejects_zero_component():
    with pytest.raises(BadDimension):
        Curve((T, LogPoly.zero()))


# -- derivative tables ---------------------------------------------------------


def test_deriv_table_rows():
    curve = make_log_curve(3)
    table = deriv_table(curve, 2)
    assert table.rows[0] == curve.components
    for r in range(2):
        assert table.rows[r + 1] == tuple(p.diff() for p in table.rows[r])
    # x_2'(t) = log t + 1 and x_1'(t) = 1
    assert table.entry(1, 2) == LogPoly({(0, 1): 1, (0, 0): 1})
    assert table.entry(1, 1) == LogPoly.constant(1)


def test_deriv_table_second_order_shift():
    # x_{k+1}''(t) = (k/t) x_k'(t) on the log curve
    table = deriv_table(make_log_curve(6), 2)
    for k in range(1, 6):
        lhs = table.entry(2, k + 1)
        rhs = LogPoly.term(k, -1, 0) * table.entry(1, k)
        assert lhs == rhs


def test_deriv_table_bad_ranges():
    table = deriv_table(make_log_curve(3), 2)
    with pytest.raises(BadOrder):
        table.entry(3, 1)
    with pytest.raises(BadIndex):
        table.entry(0, 4)
    with pytest.raises(BadOrder):
        deriv_table(make_log_curve(3), -1)


# -- order-reduction recursion ---------------------------------------------------


def test_recursion_base_case():
    # x_2''(t) = 1/t
    assert recursion_deriv(1, 2) == LogPoly.term(1, -1, 0)


def test_recursion_matches_direct_differentiation():
    # independent route: recursion on one side, repeated .diff() on the other
    table = deriv_table(make_log_curve(7), 6)
    for k in range(1, 7):
        for r in range(2, 7):
            assert recursion_deriv(k, r) == table.entry(r, k + 1)


def test_recursion_third_derivative_cross_check():
    p = LogPoly.term(1, 1, 2)  # t (log t)^2
    expected = p.diff().diff().diff()
    assert recursion_deriv(2, 3) == expected


def test_recursion_rejects_low_order():
    with pytest.raises(BadOrder):
        recursion_deriv(3, 1)
    with pytest.raises(BadIndex):
        recursion_deriv(0, 2)


# -- symbolic determinants -------------------------------------------------------


def random_matrix(rng, n):
    def poly():
        return LogPoly(
            {
                (rng.randint(-2, 2), rng.randint(0, 2)): Fraction(
                    rng.randint(-5, 5), rng.randint(1, 3)
                )
                for _ in range(rng.randint(1, 3))
            }
        )

    return [[poly() for _ in range(n)] for _ in range(n)]


def cofactor_det(matrix):
    """Plain recursive expansion along the first column: the reference that
    the eliminating det_symbolic is checked against."""
    if len(matrix) == 1:
        return matrix[0][0]
    acc = LogPoly.zero()
    for r, row in enumerate(matrix):
        if row[0].is_zero():
            continue
        minor = [other[1:] for i, other in enumerate(matrix) if i != r]
        piece = row[0] * cofactor_det(minor)
        acc = acc + piece if r % 2 == 0 else acc - piece
    return acc


def test_expansion_order_independence():
    rng = random.Random(404)
    for n in (2, 3, 4):
        for _ in range(8):
            m = random_matrix(rng, n)
            assert det_symbolic(m) == cofactor_det(m)
            # the transpose expands along the first row instead
            assert det_symbolic(m) == cofactor_det([list(col) for col in zip(*m)])


def test_det_matches_cofactor_expansion_with_zero_entries():
    rng = random.Random(1968)
    zero = LogPoly.zero()
    for n in range(2, 7):
        for _ in range(6):
            m = random_matrix(rng, n)
            # zero entries force row swaps, and whole zero columns a zero det
            m = [[zero if rng.random() < 0.4 else p for p in row] for row in m]
            assert det_symbolic(m) == cofactor_det(m), n


def test_det_of_equal_rows_is_zero():
    rng = random.Random(22)
    for n in range(2, 7):
        m = random_matrix(rng, n)
        m[-1] = list(m[0])
        assert det_symbolic(m).is_zero()


def test_det_rejects_ragged_matrix():
    with pytest.raises(BadDimension):
        det_symbolic([[T], [T, T]])


# -- Wronskian minors --------------------------------------------------------------


def test_monomial_minors_worked_example():
    curve = make_monomial_curve([1, 2, 3, 4])
    assert wronskian_minor(curve, 1) == LogPoly.term(48, 3, 0)
    assert wronskian_minor(curve, 2) == LogPoly.term(72, 2, 0)
    assert wronskian_minor(curve, 3) == LogPoly.term(48, 1, 0)
    assert wronskian_minor(curve, 4) == LogPoly.term(12, 0, 0)


def test_log_curve_minors_n3():
    curve = make_log_curve(3)
    assert wronskian_minor(curve, 1) == LogPoly({(-1, 2): 1, (-1, 1): 2, (-1, 0): 2})
    assert wronskian_minor(curve, 2) == LogPoly({(-1, 1): 2, (-1, 0): 2})
    assert wronskian_minor(curve, 3) == LogPoly.term(1, -1, 0)


def test_minor_index_out_of_range():
    curve = make_log_curve(3)
    with pytest.raises(BadIndex):
        wronskian_minor(curve, 0)
    with pytest.raises(BadIndex):
        wronskian_minor(curve, 4)


def test_minor_expansion_cross_check():
    # the production path (elimination) against plain column expansion
    curve = make_log_curve(4)
    table = deriv_table(curve, 3)
    kept = [1, 2, 4]
    matrix = [[table.entry(r, c) for c in kept] for r in range(1, 4)]
    assert wronskian_minor(curve, 3) == cofactor_det(matrix)


def test_normal_field_matches_cofactor_expansion():
    # one elimination for all n minors against a plain expansion of
    # each minor on its own
    curves = [make_log_curve(n) for n in range(2, 9)]
    curves += [make_conjecture_curve(n) for n in range(3, 9)]
    curves += [make_monomial_curve([1, 2, 3, 4]), make_monomial_curve([-1, 2, 5])]
    # singular leading blocks: the elimination must swap rows, move the free
    # column off the end, or find the rank short and return a zero field
    one, two_t = LogPoly.constant(1), LogPoly.term(2, 1, 0)
    curves += [
        Curve((one, T, LOG_T)),
        Curve((T, two_t, LOG_T)),
        Curve((T, two_t, LOG_T, LogPoly.term(1, 1, 2))),
        Curve((LOG_T, T, one)),
        Curve((T, two_t, LogPoly.term(3, 1, 0))),
    ]
    assert all(p.is_zero() for p in normal_field(curves[-1]))
    for curve in curves:
        n = curve.dimension
        rows = deriv_table(curve, n - 1).rows[1:]
        field = normal_field(curve)
        for k in range(1, n + 1):
            minor = field[k - 1] if k % 2 == 1 else -field[k - 1]
            kept = [row[: k - 1] + row[k:] for row in rows]
            assert minor == cofactor_det(kept), (curve.components, k)


def test_normal_field_work_count(monkeypatch):
    # a cold field takes at most n * 2^(n-1) ring products
    n = 8
    calls = 0
    mul = LogPoly.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    normal_field.cache_clear()
    monkeypatch.setattr(LogPoly, "__mul__", counting_mul)
    field = normal_field(make_log_curve(n))
    monkeypatch.undo()
    assert 0 < calls <= n * 2 ** (n - 1)
    assert field[0] == closed_form_v(1, n)


def test_normal_field_work_is_cubic(monkeypatch):
    # fraction-free elimination: O(n^3) products and exact divisions, where
    # an expansion on column subsets makes n * 2^(n-1) products
    n = 12
    calls = 0

    def counting(op):
        def counted(self, other):
            nonlocal calls
            calls += 1
            return op(self, other)

        return counted

    normal_field.cache_clear()
    monkeypatch.setattr(LogPoly, "__mul__", counting(LogPoly.__mul__))
    monkeypatch.setattr(LogPoly, "exact_div", counting(LogPoly.exact_div), raising=False)
    field = normal_field(make_log_curve(n))
    monkeypatch.undo()
    assert 0 < calls <= 2 * n**3
    assert field[-1] == closed_form_v(n, n) * (-1) ** (n + 1)


# -- closed forms -------------------------------------------------------------------


def test_closed_form_small_cases():
    assert closed_form_v(1, 3) == LogPoly({(-1, 2): 1, (-1, 1): 2, (-1, 0): 2})
    assert closed_form_v(3, 3) == LogPoly.term(1, -1, 0)
    assert closed_form_v(2, 2) == LogPoly.constant(1)
    assert closed_form_v(1, 2) == LogPoly({(0, 1): 1, (0, 0): 1})
    with pytest.raises(BadIndex):
        closed_form_v(0, 3)
    with pytest.raises(BadIndex):
        closed_form_v(4, 3)


def test_minors_equal_closed_forms():
    for n in (2, 3, 4, 5, 10):
        curve = make_log_curve(n)
        for k in range(1, n + 1):
            assert wronskian_minor(curve, k) == closed_form_v(k, n)


def test_minors_equal_closed_forms_at_large_n():
    for n in range(11, 17):
        field = normal_field(make_log_curve(n))
        for k in range(1, n + 1):
            expected = closed_form_v(k, n)
            assert field[k - 1] == (expected if k % 2 == 1 else -expected), (n, k)


def test_plane_polynomials_are_the_elimination_and_the_full_wronskian():
    # the log curve's closed-form planes are, exactly, the elimination's
    # signed minors and the full Wronskian, beyond verify's --max-n 7; any
    # other curve gets those two themselves
    curves = [make_log_curve(n) for n in range(2, 17)]
    curves += [make_conjecture_curve(n) for n in range(3, 9)]
    curves += [make_monomial_curve([1, 2, 3, 4]), make_monomial_curve([-1, 2, 5])]
    for curve in curves:
        expected = normal_field(curve) + (wronskian_full(curve),)
        assert wronskian._plane_polynomials(curve) == expected, curve.components


def test_full_wronskian_log_curve():
    assert wronskian_full(make_log_curve(3)) == LogPoly.constant(2)
    # 0!1!2!3! = 12 over t^2
    assert wronskian_full(make_log_curve(4)) == LogPoly.term(12, -2, 0)
    for n in range(3, 7):
        assert wronskian_full(make_log_curve(n)) == full_wronskian_closed_form(n)
        assert wronskian_full(make_log_curve(n)).value_at_one() == factorial_product(n)


def test_minor_recursions():
    for n in range(2, 5):
        for k in range(1, n + 1):
            lhs = closed_form_v(k + 1, n + 1)
            rhs = LogPoly.term(Fraction(factorial(n), k), -(n - 1), 0) * closed_form_v(k, n)
            assert lhs == rhs
        lead = LogPoly.term(factorial_product(n), -(n * (n - 1)) // 2, n) + LogPoly.term(
            factorial(n), -(n - 1), 0
        ) * closed_form_v(1, n)
        assert closed_form_v(1, n + 1) == lead


# -- normal field and orthogonality ---------------------------------------------------


def test_normal_field_monomial_worked_example():
    field = normal_field(make_monomial_curve([1, 2, 3, 4]))
    assert field == (
        LogPoly.term(48, 3, 0),
        LogPoly.term(-72, 2, 0),
        LogPoly.term(48, 1, 0),
        LogPoly.term(-12, 0, 0),
    )


def test_normal_field_log_curves():
    assert normal_field(make_log_curve(2)) == (
        LogPoly({(0, 1): 1, (0, 0): 1}),
        LogPoly.constant(-1),
    )
    n3 = normal_field(make_log_curve(3))
    assert n3[1] == -closed_form_v(2, 3)


def test_log_and_conjecture_fields_have_int_coefficients():
    # every coefficient of these fields is an integer, and the ring keeps
    # integral coefficients as int, so their expansion never builds a Fraction
    def coefficient_types(polys):
        return {type(c) for p in polys for _, c in p.items()}

    table = deriv_table(make_log_curve(10), 9)
    assert coefficient_types(p for row in table.rows for p in row) == {int}
    curves = [make_log_curve(n) for n in range(2, 11)]
    curves += [make_conjecture_curve(n) for n in range(3, 9)]
    for curve in curves:
        assert coefficient_types(normal_field(curve)) == {int}, curve.components
    recursed = [recursion_deriv(k, r) for k in range(1, 7) for r in range(2, 7)]
    assert coefficient_types(recursed) == {int}


def test_caches_stay_bounded():
    for e in range(3, 203):
        normal_field(make_monomial_curve([1, 2, e]))
    assert normal_field.cache_info().currsize == CACHE_MAXSIZE
    # an evicted curve is rebuilt with the same value
    assert normal_field(make_monomial_curve([1, 2, 3, 4]))[0] == LogPoly.term(48, 3, 0)


def test_derivatives_at_one():
    table = deriv_table(make_log_curve(7), 6)
    for k in range(2, 8):
        for r in range(0, k - 1):
            assert table.entry(r, k).value_at_one() == 0
    for r in range(2, 8):
        assert table.entry(r - 1, r).value_at_one() == factorial(r - 1)


def test_orthogonality_residuals_vanish():
    for n in (2, 3, 4):
        assert all(r.is_zero() for r in orthogonality_residuals(n))
    with pytest.raises(BadDimension):
        orthogonality_residuals(1)
