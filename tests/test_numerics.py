"""Linear solver and bracketed root finder at configurable precision."""

import random

import pytest
from mpmath import mp

from oscmean.errors import BadDimension, BadParameter, NoBracket, SingularSystem
from oscmean.logpoly import lp_eval
from oscmean.numerics import det, find_root_bracketed, solve_linear
from oscmean.wronskian import make_log_curve, normal_field


# -- solve_linear ---------------------------------------------------------------


def test_identity_system():
    report = solve_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3])
    assert report.solution == (1, 2, 3)
    assert report.residual_norm == 0


def test_one_by_one():
    report = solve_linear([[2]], [4])
    assert report.solution == (2,)


def test_small_exact_system():
    # 2x + y = 3, x + 3y = 4  ->  x = 1, y = 1
    report = solve_linear([[2, 1], [1, 3]], [3, 4])
    assert abs(report.solution[0] - 1) < 1e-14
    assert abs(report.solution[1] - 1) < 1e-14


def test_duplicate_rows_are_singular():
    with pytest.raises(SingularSystem):
        solve_linear([[1, 2], [1, 2]], [1, 1])


def test_zero_row_is_singular():
    with pytest.raises(SingularSystem):
        solve_linear([[0, 0], [1, 2]], [0, 1])


def test_shape_validation():
    with pytest.raises(BadDimension):
        solve_linear([[1, 2], [3, 4]], [1, 2, 3])
    with pytest.raises(BadDimension):
        solve_linear([[1, 2], [3]], [1, 2])
    with pytest.raises(BadParameter):
        solve_linear([[1]], [1], precision_bits=10)


def test_random_well_conditioned_residuals():
    rng = random.Random(7)
    for bits in (53, 113):
        bound = mp.ldexp(1, -bits + 12)
        for n in (2, 3, 5):
            for _ in range(10):
                # diagonal dominance keeps the condition estimate small
                a = [
                    [rng.uniform(-1, 1) + (n + 2 if i == j else 0) for j in range(n)]
                    for i in range(n)
                ]
                b = [rng.uniform(-5, 5) for _ in range(n)]
                report = solve_linear(a, b, bits)
                assert report.condition_estimate < 1e6
                assert report.residual_norm < bound


def test_precision_scaling_on_intersection_systems():
    # same plane matrix solved at 53 and 113 bits: residual drops >= 2^40
    curve = make_log_curve(5)
    values = (1.5, 2.25, 5.0, 11.0, 31.0)
    field = normal_field(curve)
    matrix = [[float(lp_eval(p, a, 53)) for p in field] for a in values]
    rhs = [float(sum(lp_eval(c, a, 53) * lp_eval(p, a, 53)
                     for c, p in zip(curve.components, field))) for a in values]
    low = solve_linear(matrix, rhs, 53)
    high = solve_linear(matrix, rhs, 113)
    if high.residual_norm > 0:
        assert low.residual_norm / high.residual_norm >= 2 ** 40


def test_condition_estimate_orders_of_magnitude():
    # cond_inf([[1, 0], [0, eps]]) = 1/eps
    report = solve_linear([[1, 0], [0, 1e-6]], [1, 1])
    assert 1e5 < report.condition_estimate < 1e7


# -- det ---------------------------------------------------------------------------


def test_det_known_values():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0
    # a 3-cycle is two swaps (+1), though every row is out of place
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    # second pivot 2^-50 is below the 53-bit threshold 2^-45 but not the 113-bit one
    near = [[1, 1], [1, 1 + mp.ldexp(1, -50)]]
    assert det(near) == 0
    assert det(near, 113) == mp.ldexp(1, -50)


# -- find_root_bracketed --------------------------------------------------------------


def test_root_t_log_t():
    # t ln t = e has the root t = e
    root = find_root_bracketed(lambda t: t * mp.log(t) - mp.e, 1, 10)
    tol = mp.ldexp(10, -53 + 4)
    assert abs(root - mp.e) <= tol


def test_root_linear():
    root = find_root_bracketed(lambda t: t - 5, 0, 10)
    assert abs(root - 5) < 1e-13


def test_no_bracket():
    with pytest.raises(NoBracket):
        find_root_bracketed(lambda t: t - 5, 6, 10)


def test_endpoint_roots_returned_exactly():
    assert find_root_bracketed(lambda t: t - 1, 1, 5) == 1
    assert find_root_bracketed(lambda t: t - 5, 1, 5) == 5


def test_newton_acceleration_and_bracket_preservation():
    calls = []

    def f(t):
        calls.append(t)
        return t ** 3 - 2

    root = find_root_bracketed(f, 1, 2, derivative=lambda t: 3 * t ** 2)
    assert 1 <= root <= 2
    assert abs(root - mp.cbrt(2)) < 1e-14
    assert all(1 <= t <= 2 for t in calls)


def test_root_high_precision():
    root = find_root_bracketed(
        lambda t: t * mp.log(t) - mp.e,
        1,
        10,
        precision_bits=113,
        derivative=lambda t: mp.log(t) + 1,
    )
    with mp.workprec(150):
        assert abs(root - mp.e) < mp.mpf(2) ** (-105)
