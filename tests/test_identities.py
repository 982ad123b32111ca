"""Combinatorial and determinant identity checkers."""

import random
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp
from mpmath.libmp import from_rational, mpf_log, round_nearest, to_rational

from oscmean import identities, means
from oscmean.errors import BadDimension, BadParameter, DistinctnessViolation, SingularSystem
from oscmean.identities import (
    MAIN_THEOREM_TOLERANCE,
    MAIN_THEOREM_TOLERANCE_113,
    NUMERIC_TOLERANCE,
    alternating_cofactor_sum,
    closure_scan,
    conjecture_scan,
    draw_tuple,
    lemma3_check,
    lemma4_check,
    lemma7_check,
    main_theorem_scan,
    numeric_checks,
    numeric_scan,
    prop3_scan,
    prop4_scan,
    run_exact_suite,
    run_identity_suite,
    run_numeric_suite,
    tangent_scan,
    vandermonde,
)
from oscmean.logpoly import LogPoly, substitute_power
from oscmean.means import _ln_gap_note
from oscmean.numerics import _pair
from oscmean.wronskian import (
    det_symbolic,
    factorial_product,
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


def _fraction_vandermonde(xs):
    # prod_{i<j} (x_j - x_i) on Fractions, the loop the identities ran before
    # they moved to integers
    out = Fraction(1)
    for i, xi in enumerate(xs):
        for xj in xs[i + 1:]:
            out *= xj - xi
    return out


def _fraction_cofactor_sum(weights, xs):
    return sum((-1) ** i * w * _fraction_vandermonde(xs[:i] + xs[i + 1:])
               for i, w in enumerate(weights))


def _fraction_lemma7(b):
    vals = [Fraction(x) for x in b]
    n = len(vals)
    return (_fraction_cofactor_sum([v ** (n - 1) for v in vals], vals),
            (-1) ** (n - 1) * _fraction_vandermonde(vals))


def test_vandermonde_cofactor_matches_the_fraction_loop():
    rng = random.Random(1234)  # the draws of test_vandermonde_cofactor_random_rationals
    cases = [(0, 1, 2), (0, 1, 2, 3), (-5, 2, 7, 11, 3), (0.5, 1.25, -3.75, 2.1),
             (1e-3, 7, Fraction(2, 3), -0.1)]
    for n in range(3, 8):
        for _ in range(25):
            vec = []
            while len(vec) < n:
                candidate = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                if candidate not in vec:
                    vec.append(candidate)
            cases.append(vec)
    for vec in cases:
        got = lemma7_check(vec)
        assert got == _fraction_lemma7(vec)
        assert all(type(side) is Fraction for side in got)


def test_vandermonde_cofactor_validates_before_scaling(monkeypatch):
    def unreachable(*args):
        raise AssertionError("scaled before validating")

    monkeypatch.setattr(identities.math, "lcm", unreachable)
    monkeypatch.setattr(identities, "vandermonde", unreachable)
    monkeypatch.setattr(identities, "alternating_cofactor_sum", unreachable)
    for duplicated in ((1, 2, 1), (Fraction(1, 2), 3, 0.5)):
        with pytest.raises(DistinctnessViolation):
            lemma7_check(duplicated)
    with pytest.raises(BadDimension):
        lemma7_check((Fraction(1, 3), 2))


def test_cofactor_sum_of_a_repeated_node():
    # a zero gap leaves V = 0; the repeated nodes' cofactors are multiplied out
    assert vandermonde([1, 2, 2]) == 0
    # 4 V(2, 2) - 5 V(1, 2) + 6 V(1, 2) = 0 - 5 + 6
    assert alternating_cofactor_sum([4, 5, 6], [1, 2, 2]) == 1


# -- numeric determinant identities -----------------------------------------------------


# numeric_checks returns (prop3, prop4, Cramer quotient, M_1) relative errors
PROP3, PROP4, QUOTIENT = 0, 1, 2


def test_prop3_exponential_points():
    # a = (e, e^2, e^3): the log gaps are the integers (1, 2, 1)
    values = (float(mp.e), float(mp.e ** 2), float(mp.e ** 3))
    assert numeric_checks(values, 113)[PROP3] < 1e-10
    assert numeric_checks(values, 53)[PROP3] < 1e-10


def test_prop_checks_random_tuples():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for _ in range(10):
            values = sorted(rng.uniform(1.5, 20) for _ in range(n))
            while any(b / a < 1.06 for a, b in zip(values, values[1:])):
                values = sorted(rng.uniform(1.5, 20) for _ in range(n))
            errors = numeric_checks(values, 113)
            assert errors[PROP3] < 1e-8
            assert errors[PROP4] < 1e-8
            assert errors[QUOTIENT] < 1e-9


def test_prop4_degenerate_pair_grows_and_warns():
    separated = (2.0, 5.0, 12.0)
    degenerate = (2.0, 2.0 * (1 + 1e-7), 12.0)
    assert numeric_checks(degenerate, 53)[PROP4] > numeric_checks(separated, 53)[PROP4]
    assert _ln_gap_note(degenerate)
    assert not _ln_gap_note(separated)


def test_quotient_check_singular_minor_matrix():
    # at 53 bits the determinants are taken at 83, where the minor matrix of
    # this tuple (a log gap of 1e-15) is still regular: every error is
    # measured, and within the 53-bit determinant gate of 2.2e-8
    errors = numeric_checks((2.0, 2.000000000000002, 3.0, 12.0), 53)
    assert all(e < 2.2e-8 for e in errors)
    # three values one float64 ulp apart leave it singular at 83 bits, and
    # the solve refuses it
    with pytest.raises(SingularSystem):
        numeric_checks((2.0, 2.0000000000000004, 2.000000000000001, 12.0), 53)


def test_determinant_checks_values_are_pinned():
    # every bit of the four errors, so a change in evaluation or summation
    # order shows here
    errors = numeric_checks((1.7, 2.9, 4.4, 8.1, 13.6), 113)
    with mp.workprec(113):
        assert [repr(e) for e in errors] == [
            "mpf('8.40801286644721035269403110796521085e-41')",
            "mpf('9.2218165103516323238035771710784448e-42')",
            "mpf('2.18956788377534386773338028250687137e-35')",
            "mpf('0.0')",
        ]


def _exact_closed_forms(vals, work_bits):
    # prop3 and prop4 as Fractions of the inputs and of their logs rounded
    # at work_bits
    a = [Fraction(*to_rational(v._mpf_)) for v in vals]
    y = [Fraction(*to_rational(mpf_log(v._mpf_, work_bits, round_nearest))) for v in vals]
    n = len(a)
    common = Fraction(factorial_product(n) ** (n - 2))
    for v in a:
        common /= v ** ((n - 1) * (n - 2) // 2)
    return (common * _fraction_vandermonde(y),
            (-1) ** (n - 1) * factorial(n - 1) * common * _fraction_cofactor_sum(a, y))


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_closed_forms_are_exact_rounded_once(bits):
    work_bits = means.working_bits(bits)
    rng = random.Random(bits)
    # a log of exactly 0 among them (a_j = 1)
    tuples = [(0.5, 1.0, 3.0), (1.0, 1.5, 2.25, 40.0)]
    tuples += [draw_tuple(rng, n, 0.2, 50.0) for n in range(3, 8) for _ in range(4)]
    for values in tuples:
        vals = means.sorted_positive_distinct(values, bits)
        got = identities._determinant_closed_forms(vals, work_bits)
        for pair, exact in zip(got, _exact_closed_forms(vals, work_bits)):
            rounded = from_rational(exact.numerator, exact.denominator, work_bits, round_nearest)
            assert pair == _pair(rounded)


def test_prop_checks_validate_inputs():
    with pytest.raises(BadDimension):
        numeric_checks((2.0,), 53)
    with pytest.raises(DistinctnessViolation):
        numeric_checks((2.0, 2.0, 3.0), 53)


def test_prop_error_decreases_with_precision():
    values = (1.7, 3.1, 4.9, 11.3)
    low = numeric_checks(values, 53)
    high = numeric_checks(values, 113)
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
    rows = numeric_scan(4, trials=10, seed=2, precision_bits=113)
    rng = random.Random(2 + 4)  # the scan seeds its draws with seed + n
    errors = [numeric_checks(draw_tuple(rng, 4, 1.1, 50.0), 113) for _ in range(10)]
    names = ("prop3_determinant", "prop4_determinant", "cramer_quotient_vs_neuman",
             "main_theorem_m1_vs_neuman")
    gates = (NUMERIC_TOLERANCE, NUMERIC_TOLERANCE, MAIN_THEOREM_TOLERANCE,
             MAIN_THEOREM_TOLERANCE_113)
    assert len(rows) == len(names)
    for index, (row, name, gate) in enumerate(zip(rows, names, gates)):
        assert row.name == name and row.n == 4 and not row.exact
        assert row.max_rel_error == float(max(e[index] for e in errors))
        assert row.tolerance == gate
        assert row.instances_checked == 10
        assert row.passed


def test_determinant_scan_validations():
    with pytest.raises(BadDimension):
        numeric_scan(1, trials=5, seed=0)
    for scan in (prop3_scan, prop4_scan, closure_scan, main_theorem_scan):
        with pytest.raises(BadDimension):
            scan(2, trials=5, seed=0)
    with pytest.raises(BadParameter):
        numeric_scan(3, trials=0, seed=0)


@pytest.mark.parametrize("n", [17, 78])
def test_scans_refuse_n_above_the_cap_before_drawing(monkeypatch, n):
    # 77 log gaps of MIN_LN_GAP exceed ln(50 / 1.1), so an n = 78 draw from
    # [1.1, 50] would never end; the cap refuses it before any draw
    def refuse(*args):
        raise AssertionError("a tuple was drawn")

    monkeypatch.setattr(identities, "draw_tuple", refuse)
    assert identities.SCAN_MAX_N == 16
    with pytest.raises(BadDimension, match="bounded at n = 16"):
        numeric_scan(n, trials=1)
    with pytest.raises(BadDimension, match="bounded at n = 16"):
        conjecture_scan(n, trials=1)
    for suite in (run_numeric_suite, run_identity_suite):
        with pytest.raises(BadParameter, match="2..16"):
            suite(n, trials=1)


class _BoundedRandom(random.Random):
    """A generator that refuses to draw more than ``limit`` values, so a
    sampler that would spin fails instead."""

    def __init__(self, seed, limit):
        super().__init__(seed)
        self.draws, self.limit = 0, limit

    def uniform(self, a, b):
        self.draws += 1
        if self.draws > self.limit:
            raise AssertionError(f"more than {self.limit} draws")
        return super().uniform(a, b)


def test_draw_tuple_refuses_what_cannot_fit_before_drawing():
    # 77 gaps of MIN_LN_GAP exceed ln(50 / 1.1), as do 2 on [1, 1.1]
    for n, low, high in ((78, 1.1, 50.0), (3, 1.0, 1.1), (2, 3.0, 3.0)):
        rng = _BoundedRandom(0, 100_000)
        with pytest.raises(BadDimension, match="do not fit"):
            draw_tuple(rng, n, low, high)
        assert rng.draws == 0
    # n = 16 fits, and draws what an unbounded generator draws
    rng = _BoundedRandom(0, 100_000)
    assert draw_tuple(rng, 16, 1.1, 50.0) == draw_tuple(random.Random(0), 16, 1.1, 50.0)
    assert 16 <= rng.draws <= 100_000


def test_numeric_scan_at_the_cap():
    rows = numeric_scan(16, trials=2, precision_bits=113)
    assert all(row.passed for row in rows)
    # at 53 bits the n = 16 minor matrix is numerically singular
    with pytest.raises(SingularSystem):
        numeric_scan(16, trials=2, precision_bits=53)


def test_numeric_checks_follow_the_intersection_width(monkeypatch):
    # the determinant rows run at the width the intersection built and
    # solved its planes at, whatever width working_bits gives
    monkeypatch.setattr(means, "working_bits", lambda p: p + 40)
    calls = []

    def spy(name):
        real = getattr(identities, name)

        def wrapper(*args):
            result = real(*args)
            calls.append((name, args[-1], result))
            return result

        monkeypatch.setattr(identities, name, wrapper)

    for name in ("intersect", "det", "_determinant_closed_forms"):
        spy(name)
    errors = numeric_checks((1.7, 3.1, 4.9, 11.3), 113)
    [(_, _, result)] = [call for call in calls if call[0] == "intersect"]
    assert result.work_bits == 113 + 40
    assert [(name, bits) for name, bits, _ in calls if name != "intersect"] == [
        ("det", result.work_bits), ("_determinant_closed_forms", result.work_bits)
    ]
    assert max(errors[:3]) < 2.0 ** -100


def test_tangent_row_is_the_n2_scan(monkeypatch):
    checked = []
    real = identities.numeric_checks

    def recording(vals, bits):
        checked.append(vals)
        return real(vals, bits)

    monkeypatch.setattr(identities, "numeric_checks", recording)
    [row] = numeric_scan(2, trials=25, seed=3, precision_bits=53)
    # the pairs come from [0.2, 50], seeded with seed itself
    rng = random.Random(3)
    assert checked == [draw_tuple(rng, 2, 0.2, 50.0) for _ in range(25)]
    assert row == tangent_scan(trials=25, seed=3)
    assert row.name == "tangent_n2_vs_two_variable_mean"
    assert row.max_rel_error == float(max(real(t, 53)[0] for t in checked))


def test_numeric_suite_takes_every_row_from_one_scan_per_n():
    rows = run_numeric_suite(4, trials=3, seed=5, precision_bits=113)
    assert rows == [tangent_scan(3, 5, 113), *numeric_scan(3, 3, 5, 113),
                    *numeric_scan(4, 3, 5, 113)]
    assert run_identity_suite(4, trials=3, seed=5)[-6:] == [*rows[1:4], *rows[5:8]]


def test_flipped_minor_sign_fails_prop3_and_the_main_theorem(monkeypatch):
    # negate the first coordinate of every plane normal: the minor
    # determinant and M_1 change sign.  The offsets are left as they are.
    assert all(row.passed for row in numeric_scan(5, trials=3, seed=0))
    real = means._plane_polynomials
    monkeypatch.setattr(means, "_plane_polynomials", lambda c: (-real(c)[0],) + real(c)[1:])
    for bits in (53, 113):
        prop3, _, _, main = numeric_scan(5, trials=3, seed=0, precision_bits=bits)
        assert not prop3.passed and not main.passed


def test_perturbed_offset_fails_prop4_and_the_quotient(monkeypatch):
    # one plane's offset (the first of each intersection) off by 1e-6 relative
    real = means._plane_rows

    def perturbed(curve, vals, bits):
        rows = real(curve, vals, bits)
        with mp.workprec(bits):
            offset = mp.mpf(rows[0][-1]) * (1 + mp.mpf("1e-6"))
        rows[0] = rows[0][:-1] + [_pair(offset._mpf_)]
        return rows

    monkeypatch.setattr(means, "_plane_rows", perturbed)
    for bits in (53, 113):
        _, prop4, quotient, _ = numeric_scan(5, trials=3, seed=0, precision_bits=bits)
        assert not prop4.passed and not quotient.passed


def test_cofactor_sum_without_signs_fails_the_cofactor_rows_and_prop4(monkeypatch):
    def unsigned(weights, xs):
        return sum(w * vandermonde(xs[:i] + xs[i + 1:]) for i, w in enumerate(weights))

    monkeypatch.setattr(identities, "alternating_cofactor_sum", unsigned)
    rows = [r for r in run_exact_suite(7, trials=10) if r.name == "vandermonde_cofactor"]
    assert [r.n for r in rows] == [3, 4, 5, 6, 7]
    assert not any(r.passed for r in rows)
    for bits in (53, 113):
        prop3, prop4, _, _ = numeric_scan(5, trials=3, seed=0, precision_bits=bits)
        assert prop3.passed and not prop4.passed


def test_vandermonde_missing_a_gap_fails_prop3(monkeypatch):
    real = identities.vandermonde
    # the gap between the last two nodes left out
    monkeypatch.setattr(identities, "vandermonde", lambda xs: real(xs) // (xs[-1] - xs[-2]))
    for bits in (53, 113):
        prop3, _, _, main = numeric_scan(5, trials=3, seed=0, precision_bits=bits)
        assert not prop3.passed and main.passed


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


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_tangent_scan_measures_the_construction(bits):
    # both sides carry guard bits and round once, so the worst error is at
    # most one rounding of each; a reference rounded at every step, with no
    # guard bits, reads 8.5e-15 (about 38 units of 2^-53) at 53 bits
    report = tangent_scan(1000, 0, bits)
    assert report.max_rel_error <= 2.0 ** (1 - bits)


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
