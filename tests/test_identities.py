"""Combinatorial and determinant identity checkers."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from oscmean.errors import BadDimension, BadParameter, DistinctnessViolation
from oscmean.identities import (
    MAIN_THEOREM_TOLERANCE,
    NUMERIC_TOLERANCE,
    closure_scan,
    conjecture_scan,
    determinant_checks,
    determinant_scan,
    draw_tuple,
    lemma3_check,
    lemma4_check,
    lemma7_check,
    main_theorem_scan,
    prop3_scan,
    prop4_scan,
    run_exact_suite,
    run_identity_suite,
    tangent_scan,
)
from oscmean.logpoly import LogPoly, substitute_power
from oscmean.means import ln_gap_warnings
from oscmean.wronskian import (
    det_symbolic,
    full_wronskian_closed_form,
    make_log_curve,
    normal_field,
)


# -- alternating binomial sum ---------------------------------------------------


def test_alternating_sum_hand_values():
    lhs, rhs = lemma3_check(1)
    assert lhs == rhs == 1
    lhs, rhs = lemma3_check(2)
    assert lhs == rhs == Fraction(-1, 2)


def test_alternating_sum_range():
    for n in range(1, 21):
        lhs, rhs = lemma3_check(n)
        assert lhs == rhs
    with pytest.raises(BadParameter):
        lemma3_check(0)


# -- polynomial double sums -------------------------------------------------------


def test_polynomial_sums_collapse():
    first, second = lemma4_check(1)
    assert first == LogPoly.constant(1)
    assert second is None
    for n in range(2, 13):
        first, second = lemma4_check(n)
        assert first == LogPoly.constant(1)
        assert second == LogPoly.constant(-1)


# -- Vandermonde cofactor identity ---------------------------------------------------


def test_vandermonde_cofactor_hand_value():
    lhs, rhs = lemma7_check((0, 1, 2))
    assert lhs == rhs == 2


def test_vandermonde_cofactor_integers():
    lhs, rhs = lemma7_check((0, 1, 2, 3))
    assert lhs == rhs


def test_vandermonde_cofactor_random_rationals():
    rng = random.Random(1234)
    for n in range(3, 8):
        for _ in range(25):
            vec = []
            while len(vec) < n:
                candidate = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                if candidate not in vec:
                    vec.append(candidate)
            lhs, rhs = lemma7_check(vec)
            assert lhs == rhs


def test_vandermonde_cofactor_validations():
    with pytest.raises(DistinctnessViolation):
        lemma7_check((1, 2, 1))
    with pytest.raises(BadDimension):
        lemma7_check((1, 2))


# -- numeric determinant identities -----------------------------------------------------


# determinant_checks returns (prop3, prop4, Cramer quotient) relative errors
PROP3, PROP4, QUOTIENT = 0, 1, 2


def test_prop3_exponential_points():
    # a = (e, e^2, e^3): the log gaps are the integers (1, 2, 1)
    values = (float(mp.e), float(mp.e ** 2), float(mp.e ** 3))
    assert determinant_checks(values, 113)[PROP3] < 1e-10
    assert determinant_checks(values, 53)[PROP3] < 1e-10


def test_prop_checks_random_tuples():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for _ in range(10):
            values = sorted(rng.uniform(1.5, 20) for _ in range(n))
            while any(b / a < 1.06 for a, b in zip(values, values[1:])):
                values = sorted(rng.uniform(1.5, 20) for _ in range(n))
            errors = determinant_checks(values, 113)
            assert errors[PROP3] < 1e-8
            assert errors[PROP4] < 1e-8
            assert errors[QUOTIENT] < 1e-9


def test_prop4_degenerate_pair_grows_and_warns():
    separated = (2.0, 5.0, 12.0)
    degenerate = (2.0, 2.0 * (1 + 1e-7), 12.0)
    assert determinant_checks(degenerate, 53)[PROP4] > determinant_checks(separated, 53)[PROP4]
    assert ln_gap_warnings(degenerate)
    assert not ln_gap_warnings(separated)


def test_quotient_check_singular_minor_matrix():
    # the minor determinant of this tuple evaluates to 0 at 53 bits: the
    # quotient error is infinite, and prop3 and prop4 still report their own
    values = (2.0, 2.000000000000002, 3.0, 12.0)
    prop3, prop4, quotient = determinant_checks(values, 53)
    assert quotient == mp.inf
    assert prop3 == 1 and prop4 == 1


def test_prop_checks_validate_inputs():
    with pytest.raises(BadDimension):
        determinant_checks((2.0, 3.0), 53)
    with pytest.raises(DistinctnessViolation):
        determinant_checks((2.0, 2.0, 3.0), 53)


def test_prop_error_decreases_with_precision():
    values = (1.7, 3.1, 4.9, 11.3)
    low = determinant_checks(values, 53)
    high = determinant_checks(values, 113)
    for index in (PROP3, PROP4):
        assert high[index] <= low[index] or high[index] < mp.mpf(1e-25)


# -- symbolic n = 3 closed forms ----------------------------------------------------------


def test_prop3_symbolic_power_substitution():
    # points a_j = t^j turn the determinant identity into a ring identity
    field = normal_field(make_log_curve(3))
    matrix = [[substitute_power(p, c) for p in field] for c in (1, 2, 3)]
    determinant = det_symbolic(matrix)
    # 2 (ln a2 - ln a1)(ln a3 - ln a1)(ln a3 - ln a2) / (a1 a2 a3)
    assert determinant == LogPoly.term(2 * 1 * 2 * 1, -6, 3)


def test_prop4_symbolic_power_substitution():
    field = normal_field(make_log_curve(3))
    matrix = [[substitute_power(p, c) for p in field] for c in (1, 2, 3)]
    k_full = full_wronskian_closed_form(3)
    for j, c in enumerate((1, 2, 3)):
        matrix[j][0] = substitute_power(k_full, c)
    determinant = det_symbolic(matrix)
    # 4 [a1 (ln a3 - ln a2) - a2 (ln a3 - ln a1) + a3 (ln a2 - ln a1)] / (a1 a2 a3)
    expected = LogPoly({(-5, 1): 4, (-4, 1): -8, (-3, 1): 4})
    assert determinant == expected


# -- scans -----------------------------------------------------------------------------------


def test_scan_reports_pass():
    for scan in (prop3_scan, prop4_scan, closure_scan):
        report = scan(3, trials=10, seed=2, precision_bits=113)
        assert report.passed
        assert report.instances_checked == 10


def test_determinant_scan_is_the_max_over_one_draw():
    rows = determinant_scan(4, trials=10, seed=2, precision_bits=113)
    rng = random.Random(2 + 4)  # the scan seeds its draws with seed + n
    errors = [determinant_checks(draw_tuple(rng, 4, 1.5, 20.0, 0.05), 113) for _ in range(10)]
    names = ("prop3_determinant", "prop4_determinant", "cramer_quotient_vs_neuman")
    gates = (NUMERIC_TOLERANCE, NUMERIC_TOLERANCE, MAIN_THEOREM_TOLERANCE)
    for index, (row, name, gate) in enumerate(zip(rows, names, gates)):
        assert row.name == name and row.n == 4 and not row.exact
        assert row.max_rel_error == float(max(e[index] for e in errors))
        assert row.tolerance == gate
        assert row.instances_checked == 10
        assert row.passed


def test_determinant_scan_validations():
    with pytest.raises(BadDimension):
        determinant_scan(2, trials=5, seed=0)
    with pytest.raises(BadParameter):
        determinant_scan(3, trials=0, seed=0)


def test_main_theorem_scan_gates():
    report = main_theorem_scan(3, trials=10, seed=2, precision_bits=53)
    assert report.tolerance == 1e-9
    assert report.passed
    report = main_theorem_scan(3, trials=10, seed=2, precision_bits=113)
    assert report.tolerance == 1e-20
    assert report.passed


def test_tangent_scan_passes():
    report = tangent_scan(trials=25, seed=3)
    assert report.passed
    assert report.max_rel_error < 1e-12


def test_conjecture_scan_n3_agrees():
    report = conjecture_scan(3, trials=20, seed=1)
    assert report.tolerance == 1e-6
    assert report.max_rel_error < 1e-8
    assert report.passed


def test_conjecture_scan_large_n_reports_only():
    report = conjecture_scan(4, trials=5, seed=1)
    assert report.tolerance is None
    assert report.passed  # informational rows never gate


def test_conjecture_scan_validations():
    with pytest.raises(BadDimension):
        conjecture_scan(2, trials=5, seed=0)
    with pytest.raises(BadParameter):
        conjecture_scan(3, trials=0, seed=0)


# -- suite runners -----------------------------------------------------------------------------


def test_exact_suite_all_pass():
    rows = run_exact_suite(4, trials=10, seed=0)
    assert rows and all(r.passed for r in rows)
    names = {r.name for r in rows}
    assert "minor_equals_closed_form" in names
    assert "osculating_plane_worked_example" in names


def test_identity_suite_all_pass():
    rows = run_identity_suite(3, trials=5, seed=0, precision_bits=113)
    assert rows and all(r.passed for r in rows)
