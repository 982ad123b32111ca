"""Hyperplanes, intersections, the derived means, and the closed forms."""

import random

import pytest
from mpmath import mp
from mpmath.libmp import mpf_exp, mpf_pos, round_nearest

from oscmean import identities, logpoly, means, numerics
from oscmean.errors import (
    BadDimension,
    BadParameter,
    BadIndex,
    DistinctnessViolation,
    DomainError,
    NoBracket,
    NonPositiveArgument,
    SingularSystem,
)
from oscmean.identities import draw_tuple
from oscmean.means import (
    LN_GAP_FLOOR,
    evaluate_request,
    hyperplane_at,
    identric_IZ,
    intersect,
    ln_gap_warnings,
    mean_M,
    neuman_LN,
)
from oscmean.wronskian import LOG_T, make_conjecture_curve, make_log_curve, make_monomial_curve


# -- hyperplanes ---------------------------------------------------------------


def test_monomial_hyperplane_worked_example():
    # at parameter 1 the plane is 48x1 - 72x2 + 48x3 - 12x4 = 12,
    # i.e. 4x1 - 6x2 + 4x3 - x4 = 1 after dividing by 12
    plane = hyperplane_at(make_monomial_curve([1, 2, 3, 4]), 1)
    assert plane.normal == (48, -72, 48, -12)
    assert plane.offset == 12
    assert [c / 12 for c in plane.normal] == [4, -6, 4, -1]
    assert plane.offset / 12 == 1


def test_log_hyperplane_at_one():
    plane = hyperplane_at(make_log_curve(3), 1)
    assert plane.normal == (2, -2, 1)
    assert plane.offset == 2  # equals the full Wronskian at t = 1


def test_hyperplane_rejects_nonpositive_parameter():
    with pytest.raises(NonPositiveArgument):
        hyperplane_at(make_log_curve(3), 0)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_hyperplane_refuses_a_zero_normal():
    with pytest.raises(DomainError):
        means.Hyperplane(normal=(mp.mpf(0), mp.mpf(0)), offset=mp.mpf(1))
    plane = means.Hyperplane(normal=(mp.mpf(0), mp.mpf(-2)), offset=mp.mpf(1))
    assert plane.normal[1] == -2


def test_hyperplane_takes_one_log_per_point(monkeypatch):
    # the evaluator takes log t on the raw value; a log through the mpf
    # interface would count too
    through_mpf = _counting(monkeypatch, mp, "log")
    raw = _counting(monkeypatch, logpoly, "mpf_log")
    logpoly._grouped_terms.cache_clear()
    hyperplane_at(make_log_curve(5), 3.7, 113)
    assert len(through_mpf) + len(raw) == 1


def test_log_hyperplane_n10_values_are_pinned():
    # every bit of an n = 10 plane at guard precision; the field's
    # coefficients exceed 2^53, so a change in their exact conversion or in
    # summation order shows here
    plane = hyperplane_at(make_log_curve(10), "3.7", 83)
    with mp.workprec(83):
        assert [repr(c) for c in plane.normal] == [
            "mpf('23.7990401637774586081971047')",
            "mpf('-23.7988410692391535282493291')",
            "mpf('11.8987357505883908677380987')",
            "mpf('-3.96484951149539409883741622')",
            "mpf('0.989345465502926408106796604')",
            "mpf('-0.196156765158138994439950368')",
            "mpf('0.0316021390243940496452853971')",
            "mpf('-0.00403823579649083223574761478')",
            "mpf('0.000368244407120806287847317011')",
            "mpf('-0.0000177253665014587683144129')",
        ]
        assert repr(plane.offset) == "mpf('23.7990696853826240299563642')"


# -- intersection ---------------------------------------------------------------


def test_tangent_lines_give_two_variable_mean():
    curve = make_log_curve(2)
    rng = random.Random(12)
    for _ in range(30):
        a = rng.uniform(0.2, 40)
        b = a * rng.uniform(1.2, 4.0)
        result = intersect(curve, (a, b))
        expected = (mp.mpf(b) - a) / (mp.log(b) - mp.log(a))
        assert abs(result.means[1] - expected) / expected < 1e-12


def test_intersection_golden_one_e_e_squared():
    # hand evaluation: 2!(1/2 - e + e^2/2) = (e - 1)^2
    curve = make_log_curve(3)
    values = (1.0, float(mp.e), float(mp.e ** 2))
    result = intersect(curve, values)
    target = (mp.e - 1) ** 2
    assert abs(result.means[1] - target) / target < 1e-11


# every bit of the report for points 1.3, 3.4, 5.5, ... at the default 53
# bits: the point at 53, the residual at 106 and the condition estimate of
# the system solved at the 83 guard bits, a float64
_PINNED_INTERSECTIONS = {
    7: (
        [
            "mpf('6.2570645736625723')",
            "mpf('11.183662398489082')",
            "mpf('19.356932210032486')",
            "mpf('32.159524433645736')",
            "mpf('50.562443210892951')",
            "mpf('73.310469978690364')",
            "mpf('92.61863540310118')",
        ],
        "mpf('1.646653219503843720986258797060725e-16')",
        "19157941.060562134",
    ),
    10: (
        [
            "mpf('8.6313379334179903')",
            "mpf('18.30071675311045')",
            "mpf('38.153093626036565')",
            "mpf('77.999783834154385')",
            "mpf('155.80879171155959')",
            "mpf('302.57754318702735')",
            "mpf('567.02289301203382')",
            "mpf('1013.3652958431151')",
            "mpf('1691.7287118404161')",
            "mpf('2527.608194631051')",
        ],
        "mpf('3.621516180234216438508803248837381e-16')",
        "567645398684.9105",
    ),
}



@pytest.mark.parametrize("n", sorted(_PINNED_INTERSECTIONS))
def test_intersection_report_bits_are_pinned(n):
    result = intersect(make_log_curve(n), [f"{1.3 + 2.1 * i:.1f}" for i in range(n)])
    point, residual, condition = _PINNED_INTERSECTIONS[n]
    with mp.workprec(53):
        assert [repr(x) for x in result.point] == point
    with mp.workprec(106):
        assert repr(result.report.residual_norm) == residual
    assert repr(result.report.condition_estimate) == condition


def _equilibrated_kappa_at_1500_bits(matrix):
    """kappa_inf(R A C) with an inverse taken at 1500 bits: R scales each row
    and then C each column by a power of two to a largest entry in [1/2, 1)."""
    with mp.workprec(1500):
        rows = [mp.frexp(max(abs(a) for a in row))[1] for row in matrix]
        scaled = [[mp.ldexp(a, -r) for a in row] for row, r in zip(matrix, rows)]
        cols = [mp.frexp(max(abs(a) for a in col))[1] for col in zip(*scaled)]
        rac = mp.matrix([[mp.ldexp(a, -c) for a, c in zip(row, cols)] for row in scaled])
        return mp.mnorm(rac, "inf") * mp.mnorm(rac ** -1, "inf")


@pytest.mark.parametrize(
    "literals, bits",
    [
        (("1.5", "4.25"), 53),
        (("0.35", "1.2", "2.5", "9.1", "41"), 53),
        (tuple(f"{1.3 + 2.1 * i:.1f}" for i in range(10)), 53),
        # the clustered reproducer of tests/test_cli.py, kappa about 7e32
        (("5.3181779619479737183", "5.3181777314889760834", "5.3181780846020593170",
          "5.3181782456291209025", "5.3181775014407985935"), 113),
        # the n = 16 reproducer of tests/test_cli.py, kappa about 7e16
        (("1.1", "1.3", "1.6", "2", "2.5", "3.1", "3.9", "4.9",
          "6.1", "7.6", "9.5", "11.9", "14.9", "18.6", "23.3", "29.1"), 53),
    ],
)
def test_condition_estimate_matches_a_1500_bit_inverse(literals, bits):
    curve = make_log_curve(len(literals))
    report = intersect(curve, literals, bits).report
    vals = means.sorted_positive_distinct(literals, bits)
    matrix = [hyperplane_at(curve, a, bits + means.GUARD_BITS).normal for a in vals]
    reference = _equilibrated_kappa_at_1500_bits(matrix)
    assert abs(report.condition_estimate - reference) <= 1e-10 * reference


def test_inverse_is_built_only_when_the_condition_estimate_is_read(monkeypatch):
    solves = _counting(monkeypatch, numerics, "_lu_solve")
    inverses = _counting(monkeypatch, numerics, "_inverse_norm")
    report = intersect(make_log_curve(7), [1.5, 2, 3, 4.5, 6, 8, 11], 113).report
    assert len(solves) <= 2  # the solve and one refinement step
    assert not inverses
    before = len(solves)
    first = report.condition_estimate
    # the float64 inverse comes from the kept LU: no multiprecision solve
    assert len(solves) == before
    assert len(inverses) == 1
    assert report.condition_estimate is first
    assert len(inverses) == 1


def test_residual_is_computed_only_when_read(monkeypatch):
    residuals = _counting(monkeypatch, numerics, "_residual_norm")
    report = intersect(make_log_curve(5), [1.5, 2, 3, 4.5, 6], 53).report
    assert not residuals
    first = report.residual_norm
    assert len(residuals) == 1
    assert report.residual_norm is first
    assert len(residuals) == 1


def test_scans_build_no_inverse(monkeypatch):
    solves = _counting(monkeypatch, numerics, "_lu_solve")
    factors = _counting(monkeypatch, numerics, "_lu_factor")
    inverses = _counting(monkeypatch, numerics, "_inverse_norm")
    residuals = _counting(monkeypatch, numerics, "_residual_norm")
    identities.main_theorem_scan(5, trials=3)
    # per tuple, the solve's LU and the Wronskian-replaced matrix's det
    assert len(factors) == 2 * 3
    # the solve and one refinement step per factorization
    assert len(solves) <= 2 * len(factors)
    assert not inverses
    # the refinement step measures its residual vector; no norm is read
    assert not residuals


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_scan_factors_two_matrices_per_tuple(monkeypatch, n):
    # one elimination serves the solve and the minor determinant; the
    # Wronskian-replaced matrix is the only other factorization (none at n = 2)
    factors = _counting(monkeypatch, numerics, "_lu_factor")
    identities.numeric_scan(n, trials=4, seed=1, precision_bits=53)
    assert len(factors) == (4 if n == 2 else 2 * 4)


@pytest.mark.parametrize("bits", [53, 113])
def test_solve_determinant_is_det_bit_for_bit(monkeypatch, bits):
    factors = _counting(monkeypatch, numerics, "_lu_factor")
    rng = random.Random(bits)
    for n in (3, 5, 7):
        result = intersect(make_log_curve(n), draw_tuple(rng, n, 1.1, 50.0), bits)
        determinant = result.report.determinant
        assert len(factors) == 1  # read from the solve's LU
        minors = [plane.normal for plane in result.planes]
        assert determinant._mpf_ == numerics.det(minors, bits + means.GUARD_BITS)._mpf_
        assert result.report.determinant is determinant
        factors.clear()


def test_intersect_validations():
    curve = make_log_curve(3)
    with pytest.raises(DistinctnessViolation) as err:
        intersect(curve, (2.0, 2.0, 3.0))
    assert "duplicate value 2" in str(err.value)
    with pytest.raises(NonPositiveArgument):
        intersect(curve, (-1.0, 2.0, 3.0))
    with pytest.raises(BadDimension):
        intersect(curve, (1.0, 2.0))


def _worst_plane_misfit(planes, point, residual_norm):
    """max over planes of |normal . point - offset| over its bound.

    The point solves the guard-precision planes, so against 53-bit planes
    its misfit is its residual against the solved planes (residual_norm
    times the offsets' scale) plus the 53-bit planes' own rounding.
    lp_eval_many rounds each normal coordinate and the offset of a log-curve
    plane once (each is one t-power group), so that rounding is charged as
    c = 1 unit of 2^-53 on each term of the sum.
    """
    with mp.workprec(160):
        base = residual_norm * max(abs(p.offset) for p in planes)
        worst = 0
        for plane in planes:
            terms = [c * x for c, x in zip(plane.normal, point)]
            misfit = abs(sum(terms) - plane.offset)
            rounding = mp.ldexp(sum(abs(v) for v in terms) + abs(plane.offset), -53)
            worst = max(worst, misfit / (base + rounding))
        return worst


def test_point_satisfies_every_plane():
    rng = random.Random(1717)
    tuples = [(1.3, 2.9, 7.7, 15.0)]
    for _ in range(300):
        tuples.append(sorted(rng.uniform(1.1, 20) for _ in range(rng.randint(3, 5))))
    for values in tuples:
        curve = make_log_curve(len(values))
        result = intersect(curve, values)
        planes = [hyperplane_at(curve, a) for a in values]
        residual = result.report.residual_norm
        assert _worst_plane_misfit(planes, result.point, residual) <= 1
        # negative control: the point moved by 1e-12 relative breaks the bound
        moved = [x * (1 + mp.mpf(1e-12)) for x in result.point]
        assert _worst_plane_misfit(planes, moved, residual) > 1


def test_intersect_builds_each_plane_once(monkeypatch):
    # one evaluation of the field and the offset per point
    calls = _counting(monkeypatch, logpoly, "_eval_point")
    for n in (2, 4, 7):
        calls.clear()
        intersect(make_log_curve(n), [1.5 + j for j in range(n)], 113)
        assert len(calls) == n


with mp.workprec(400):
    _MPF_400_BITS = mp.sqrt(2) + 1
_ROW_POINTS = (0.3, 1, "1e300", _MPF_400_BITS)


@pytest.mark.parametrize("bits", [53, 113, 256, 1500])
def test_plane_rows_are_hyperplane_at_bit_for_bit(bits):
    for n in range(2, 17):
        curves = [make_log_curve(n), make_monomial_curve([-2] + list(range(1, n)))]
        if n >= 3:
            curves.append(make_conjecture_curve(n))
        for curve in curves:
            points = means.sorted_positive_distinct(_ROW_POINTS, bits)
            rows = means._plane_rows(curve, points, bits)
            for row, t in zip(rows, points):
                plane = hyperplane_at(curve, t, bits)
                expected = [v._mpf_ for v in plane.normal + (plane.offset,)]
                assert [numerics._raw_value(v) for v in row] == expected, (n, curve, t)


def test_intersect_planes_are_its_rows():
    result = intersect(make_log_curve(5), (1.5, 2.5, 4.0, 7.0, 11.0), 113)
    assert [
        [v._mpf_ for v in plane.normal + (plane.offset,)] for plane in result.planes
    ] == [[numerics._raw_value(v) for v in row] for row in result._rows]
    assert result.planes is result.planes


def test_intersect_refuses_a_zero_normal(monkeypatch):
    curve = make_log_curve(3)
    means._offset_polynomial(curve)
    monkeypatch.setattr(means, "normal_field", lambda c: (logpoly.LogPoly.zero(),) * 3)
    with pytest.raises(DomainError, match="zero vector"):
        intersect(curve, (1.5, 2.5, 4.0))


# On each of these cases a residual measured against planes re-evaluated at
# the requested precision differs from the one against the solved planes by
# a factor of 9 to 88, so the test tells the two apart.
RESIDUAL_CASES = [
    ((1.94, 39.03), 53),
    ((2.94, 7.34), 113),
    ((1.08, 10.31, 16.84, 24.04, 36.23), 53),
    ((12.47, 19.54, 24.57, 24.73, 26.17), 113),
    ((2.3, 10.21, 15.42, 19.42, 19.83, 27.3, 27.84, 37.06, 37.58, 37.87), 53),
    ((4.89, 8.83, 12.19, 13.28, 15.61, 17.43, 22.71, 26.53, 30.35, 35.95), 113),
]


@pytest.mark.parametrize("values, bits", RESIDUAL_CASES)
def test_residual_is_measured_against_the_solved_planes(values, bits):
    curve = make_log_curve(len(values))
    result = intersect(curve, values, bits)
    planes = [hyperplane_at(curve, a, bits + means.GUARD_BITS) for a in values]
    with mp.workprec(4 * bits + 64):
        scale = max(abs(p.offset) for p in planes)
        misfit = max(
            abs(sum(c * x for c, x in zip(p.normal, result.point)) - p.offset)
            for p in planes
        ) / scale
    assert misfit > 0
    assert misfit / 2 <= result.report.residual_norm <= 2 * misfit


def test_intersection_order_invariance():
    curve = make_log_curve(3)
    a = intersect(curve, (9.0, 2.0, 4.5)).point
    b = intersect(curve, (2.0, 4.5, 9.0)).point
    assert a == b


# -- mean_M -----------------------------------------------------------------------


def test_first_mean_reads_off_coordinate():
    curve = make_log_curve(3)
    values = (1.5, 3.0, 8.0)
    assert mean_M(curve, 1, values) == intersect(curve, values).means[1]


def test_second_mean_betweenness_and_equation():
    curve = make_log_curve(2)
    values = (float(mp.e), float(mp.e ** 2))
    m2 = mean_M(curve, 2, values)
    assert values[0] < m2 < values[1]
    # m2 solves t log t = i_2
    i2 = intersect(curve, values).point[1]
    assert abs(m2 * mp.log(m2) - i2) < 1e-12 * abs(i2)


def test_log_k2_requires_inputs_above_one():
    with pytest.raises(DomainError):
        mean_M(make_log_curve(2), 2, (0.5, 2.0))


def test_mean_index_validation():
    curve = make_log_curve(2)
    with pytest.raises(BadIndex):
        mean_M(curve, 0, (2.0, 3.0))
    with pytest.raises(BadIndex):
        mean_M(curve, 3, (2.0, 3.0))


def test_conjecture_curve_log_inversion_matches_exp():
    # component n is log t, so the bracketed inversion must agree with exp(i_n)
    curve = make_conjecture_curve(3)
    values = (2.0, 5.0, 11.0)
    m3 = mean_M(curve, 3, values)
    i3 = intersect(curve, values).point[2]
    assert abs(m3 - mp.exp(i3)) < 1e-12 * m3
    assert values[0] < m3 < values[2]


def _conjecture_cases(bits):
    # three seeded tuples per n from the conjecture scan's range, with the
    # intersection's last coordinate i_n
    for n in (3, 5, 8, 12, 16):
        curve = make_conjecture_curve(n)
        rng = random.Random(n * bits)
        for _ in range(3):
            vals = means.sorted_positive_distinct(draw_tuple(rng, n, 1.5, 20.0), bits)
            yield curve, vals, intersect(curve, vals, bits).point[n - 1]


def _agrees_with_the_root_finder(value, target, vals, bits, component=LOG_T):
    # within 2^(-bits + 4) relative of the bracketed inversion of the component
    root = numerics.find_root_bracketed(
        lambda t: logpoly.lp_eval(component, t, bits) - target,
        vals[0],
        vals[-1],
        bits,
        derivative=lambda t: logpoly.lp_eval(component.diff(), t, bits),
    )
    with mp.workprec(bits + 20):
        return abs(value - root) <= mp.ldexp(abs(root), -bits + 4)


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_conjecture_mean_is_exp_of_the_last_coordinate(bits):
    for curve, vals, i_n in _conjecture_cases(bits):
        m_n = mean_M(curve, curve.dimension, vals, bits)
        assert m_n._mpf_ == mpf_exp(i_n._mpf_, bits + 10, round_nearest)
        assert _agrees_with_the_root_finder(m_n, i_n, vals, bits)


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_exp_twenty_bits_short_fails_the_root_finder_agreement(bits):
    # negative control: exp rounded 30 bits narrower than mean_M's fails the agreement
    for curve, vals, i_n in _conjecture_cases(bits):
        short = mp.make_mpf(mpf_exp(i_n._mpf_, bits - 20, round_nearest))
        assert not _agrees_with_the_root_finder(short, i_n, vals, bits)


def test_log_pull_back_refuses_a_target_below_the_inputs():
    curve = make_conjecture_curve(3)
    vals = means.sorted_positive_distinct((2.0, 5.0, 11.0))
    with pytest.raises(NoBracket):
        means._pull_back(curve, 3, mp.log(vals[0]) - 1, vals, 53)


def _log_curve_targets(bits):
    # every k >= 2 mean of seeded log-curve tuples: from [1.05, 50], near 1
    # (1 + i * 1e-7) and up to 1e9, pulled back from one intersection per
    # tuple, with k = n through mean_M too; a tuple the intersection
    # refuses, or a coordinate cancellation has moved off the inputs'
    # image, is skipped
    rng = random.Random(bits)
    for n in (3, 5, 7, 10, 16):
        curve = make_log_curve(n)
        tuples = (
            draw_tuple(rng, n, 1.05, 50.0),
            [1 + i * 1e-7 for i in range(1, n + 1)],
            [10 ** rng.uniform(0.05, 9) for _ in range(n)],
        )
        for values in tuples:
            vals = means.sorted_positive_distinct(values, bits)
            try:
                point = intersect(curve, vals, bits).point
            except SingularSystem:
                continue
            for k in range(2, n + 1):
                try:
                    mk = means._pull_back(curve, k, point[k - 1], vals, bits)
                except NoBracket:
                    continue
                if k == n:
                    assert mean_M(curve, k, vals, bits) == mk
                yield vals, k, point[k - 1], mk


def _sixteenths_off(mk, target, m, bits):
    # |mk - t| / t in units of 2^-bits, where t * (log t)^m = target, with t
    # from mpmath's Lambert W at 2 * bits + 200 bits
    with mp.workprec(2 * bits + 200):
        t = mp.exp(m * mp.lambertw(mp.root(target, m) / m).real)
        return abs(mk - t) / t * mp.mpf(2) ** bits * 16


@pytest.mark.parametrize("bits", [53, 113, 256, 1500])
def test_log_curve_mean_is_within_a_sixteenth_ulp(bits):
    checked = []
    for vals, k, target, mk in _log_curve_targets(bits):
        assert _sixteenths_off(mk, target, k - 1, bits) <= 1, (vals, k)
        component = make_log_curve(k).components[k - 1]
        assert _agrees_with_the_root_finder(mk, target, vals, bits, component)
        checked.append(vals[-1])
    # 59, 78, 93 and 108 targets, each of the three kinds of tuple among them
    assert len(checked) >= 59
    assert min(checked) < 1.01 and max(checked) > 1e6


@pytest.mark.parametrize("bits", [53, 113, 256, 1500])
def test_a_newton_step_fewer_or_rounding_at_p_misses_a_sixteenth_ulp(monkeypatch, bits):
    # negative controls: rounding t at p instead of p + 10, and dropping the
    # last Newton step, each leave some target more than 1/16 unit off
    cases = list(_log_curve_targets(bits))
    rounded = [
        _sixteenths_off(mp.make_mpf(mpf_pos(mk._mpf_, bits, round_nearest)), target, k - 1, bits)
        for _, k, target, mk in cases
    ]
    assert max(rounded) > 1
    widths = means._newton_widths
    monkeypatch.setattr(means, "_newton_widths", lambda w: widths(w)[:-1])
    short = [
        _sixteenths_off(
            means._pull_back(make_log_curve(len(vals)), k, target, vals, bits), target, k - 1, bits
        )
        for vals, k, target, _ in cases
    ]
    assert max(short) > 1


def test_log_curve_means_take_no_root_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("find_root_bracketed was called")

    monkeypatch.setattr(means, "find_root_bracketed", refuse)
    values = (1.5, 2, 3, 4.5, 6, 8, 11, 15, 20, 27)
    curve = make_log_curve(len(values))
    for k in range(2, len(values) + 1):
        assert values[0] < mean_M(curve, k, values, 113) < values[-1]
        assert evaluate_request(values, k, 113)["mk"] == mean_M(curve, k, values, 113)


def test_t_log_power_pull_back_refuses_a_target_off_the_image():
    curve = make_log_curve(4)
    vals = means.sorted_positive_distinct((2.0, 5.0, 11.0, 13.0))
    for k in (2, 3, 4):
        component = curve.components[k - 1]
        low = logpoly.lp_eval(component, vals[0]) / 2
        high = logpoly.lp_eval(component, vals[-1]) * 2
        for target in (low, high, mp.mpf(0), mp.mpf(-1)):
            with pytest.raises(NoBracket):
                means._pull_back(curve, k, target, vals, 53)


def test_betweenness_all_means():
    rng = random.Random(210)
    for n in (2, 3, 4, 5):
        curve = make_log_curve(n)
        values = sorted(rng.uniform(1.5, 30.0) for _ in range(n))
        while min(b / a for a, b in zip(values, values[1:])) < 1.1:
            values = sorted(rng.uniform(1.5, 30.0) for _ in range(n))
        for k in range(1, n + 1):
            mk = mean_M(curve, k, values)
            assert values[0] < mk < values[-1]


def test_rescale_homogeneity():
    # L_N is positively homogeneous of degree 1: L_N(lam * a) = lam * L_N(a)
    values = (0.5, 2.0, 6.5)
    lam = mp.e / min(values)
    scaled = tuple(lam * v for v in values)
    direct = neuman_LN(values)
    rescaled = neuman_LN(scaled) / lam
    eps = mp.ldexp(1, -52)
    assert abs(direct - rescaled) <= 4 * eps * abs(direct)


# -- closed-form means ----------------------------------------------------------------


def test_neuman_small_goldens():
    values = (1.0, float(mp.e), float(mp.e ** 2))
    target = (mp.e - 1) ** 2
    assert abs(neuman_LN(values) - target) / target < 1e-14
    # n = 2 reduction
    a, b = 1.0, 4.0
    two = neuman_LN((a, b))
    assert abs(two - 3 / mp.log(4)) < 1e-15


def test_neuman_validations():
    with pytest.raises(DistinctnessViolation):
        neuman_LN((2.0, 2.0))
    with pytest.raises(NonPositiveArgument):
        neuman_LN((-1.0, 2.0))
    with pytest.raises(BadDimension):
        neuman_LN((2.0,))


@pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan])
def test_non_finite_mpf_inputs_are_refused(bad):
    curve = make_log_curve(3)
    with pytest.raises(BadParameter):
        neuman_LN([1, 2, bad])
    with pytest.raises(BadParameter):
        intersect(curve, [1, 2, bad])
    with pytest.raises(BadParameter):
        mean_M(curve, 1, [1, 2, bad])


# -- pinned bits of the closed form and the plane offsets ---------------------------


_NEUMAN_INPUTS = (
    ["1.5", "4"],
    ["0.3", "1.7", "2", "9.25", "40"],
    ["1.5", "1.8", "2.16", "2.592", "3.11", "3.732", "4.479", "5.375", "6.45", "7.74"],
)
# neuman: L_N of the three inputs above (the n = 10 logs are 0.18 apart, so
# the sum cancels about 22 bits, and multiplying a denominator's gaps in
# another order shows at all three precisions); offset: the planes of
# make_log_curve(7) and make_conjecture_curve(5) at 2.5
_PINNED_SUMS = {
    ('neuman', 53): [
        "mpf('2.5488636195581651')",
        "mpf('4.129647083807729')",
        "mpf('3.449959521058231')",
    ],
    ('offset', 53): [
        "mpf('66.795331387391997')",
        "mpf('-336.1082692202433')",
    ],
    ('neuman', 113): [
        "mpf('2.54886361955816525945547998225195411')",
        "mpf('4.12964708380772889606495080615679496')",
        "mpf('3.44995952105823060291605300801112741')",
    ],
    ('offset', 113): [
        "mpf('66.7953313873920000000000000000000019')",
        "mpf('-336.108269220243341227144163010812812')",
    ],
    ('neuman', 256): [
        "mpf('2.548863619558165259455479982251954083286524996733230939300620490748515008489275')",
        "mpf('4.129647083807728896064950806156794874751427514348833599265503944392392608128943')",
        "mpf('3.449959521058230602916053008011127349972278539678151887454806506077739293962522')",
    ],
    ('offset', 256): [
        "mpf('66.79533138739199999999999999999999999999999999999999999999999999999999999999911')",
        "mpf('-336.1082692202433412271441630108128114223708486664204092759132499895338146674641')",
    ],
}


def _pinned_sums(name, bits):
    if name == "neuman":
        return [neuman_LN(values, bits) for values in _NEUMAN_INPUTS]
    curves = (make_log_curve(7), make_conjecture_curve(5))
    return [hyperplane_at(curve, "2.5", bits).offset for curve in curves]


@pytest.mark.parametrize("name, bits", sorted(_PINNED_SUMS))
def test_neuman_and_offset_bits_are_pinned(name, bits):
    values = _pinned_sums(name, bits)
    with mp.workprec(bits):
        assert [repr(v) for v in values] == _PINNED_SUMS[name, bits]


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_neuman_and_planes_ignore_the_ambient_precision(bits):
    curve = make_log_curve(5)
    results = []
    for ambient in (20, 500):
        with mp.workprec(ambient):
            plane = hyperplane_at(curve, "2.5", bits)
            results.append((
                neuman_LN(_NEUMAN_INPUTS[1], bits)._mpf_,
                identric_IZ(_NEUMAN_INPUTS[1], bits)._mpf_,
                [c._mpf_ for c in plane.normal],
                plane.offset._mpf_,
            ))
            assert mp.prec == ambient
            with pytest.raises(NonPositiveArgument):
                neuman_LN(["-0.3", "1.7"], bits)
            with pytest.raises(NonPositiveArgument):
                identric_IZ(["-0.3", "1.7"], bits)
            with pytest.raises(NonPositiveArgument):
                hyperplane_at(curve, "-2.5", bits)
            assert mp.prec == ambient
    assert results[0] == results[1]


def test_neuman_permutation_symmetry():
    rng = random.Random(77)
    values = [rng.uniform(0.5, 20) for _ in range(5)]
    reference = neuman_LN(values)
    eps = mp.ldexp(1, -52)
    for _ in range(5):
        rng.shuffle(values)
        assert abs(neuman_LN(values) - reference) <= 4 * eps * abs(reference)


def test_neuman_homogeneity():
    rng = random.Random(78)
    eps = mp.ldexp(1, -52)
    for lam in (0.25, 3.7, 11.0):
        values = [rng.uniform(1.0, 9.0) for _ in range(4)]
        scaled = [lam * v for v in values]
        lhs = neuman_LN(scaled)
        rhs = lam * neuman_LN(values)
        assert abs(lhs - rhs) <= 4 * eps * abs(lhs)


def test_identric_two_variable_reduction():
    # I(a, b) = exp[(b ln b - a ln a)/(b - a) - 1]
    rng = random.Random(5)
    for _ in range(20):
        a = rng.uniform(0.3, 10)
        b = a * rng.uniform(1.3, 3.0)
        expected = mp.exp((b * mp.log(b) - a * mp.log(a)) / (mp.mpf(b) - a) - 1)
        assert abs(identric_IZ((a, b)) - expected) / expected < 1e-14


def test_identric_golden_one_e():
    value = identric_IZ((1.0, float(mp.e)))
    assert abs(value - mp.exp(1 / (mp.e - 1))) < 1e-14


def test_identric_betweenness_and_symmetry():
    rng = random.Random(6)
    eps = mp.ldexp(1, -52)
    for _ in range(25):
        triple = sorted(rng.uniform(0.5, 25) for _ in range(3))
        while triple[0] == triple[1] or triple[1] == triple[2]:
            triple = sorted(rng.uniform(0.5, 25) for _ in range(3))
        value = identric_IZ(triple)
        assert triple[0] < value < triple[2]
        shuffled = [triple[2], triple[0], triple[1]]
        assert abs(identric_IZ(shuffled) - value) <= 4 * eps * value


def _identric_at_600_bits(values):
    # the defining formula: exp of the divided difference of t^(n-1) ln t
    # at the values, less the harmonic number H_(n-1)
    with mp.workprec(600):
        a = [mp.mpf(v) for v in values]
        n = len(a)
        total = mp.mpf(0)
        for j in range(n):
            denom = mp.mpf(1)
            for i in range(n):
                if i != j:
                    denom *= a[j] - a[i]
            total += a[j] ** (n - 1) * mp.log(a[j]) / denom
        return mp.exp(total - sum(mp.mpf(1) / k for k in range(1, n)))


def test_identric_is_within_four_units_of_a_600_bit_reference():
    # the bound, 4 * 2^-p relative, was set before measuring.  On these
    # tuples the worst error is about 1.1 units at 53 bits and 2.3 at 113,
    # both at n = 16, where the divided difference cancels the most
    for n in (2, 3, 5, 7, 10, 16):
        rng = random.Random(102)
        for _ in range(40):
            values = draw_tuple(rng, n, 1.5, 20.0)
            reference = _identric_at_600_bits(values)
            for bits in (53, 113):
                value = identric_IZ(values, bits)
                with mp.workprec(600):
                    assert abs(value - reference) <= 4 * mp.ldexp(reference, -bits), (n, bits)


# identric_IZ of the three inputs of _NEUMAN_INPUTS and of one n = 16 tuple,
# whose divided difference cancels enough that evaluating it in another
# order shows at 256 bits
_PINNED_IDENTRIC = {
    53: [
        "mpf('2.6506155947515384')",
        "mpf('8.9633651123814921')",
        "mpf('3.8481618420195987')",
        "mpf('10.012296799148778')",
    ],
    113: [
        "mpf('2.65061559475153842612295888493708885')",
        "mpf('8.96336511238149149042308064634536668')",
        "mpf('3.84816184201959872703217216452247727')",
        "mpf('10.0122967991487781613197062071248817')",
    ],
    256: [
        "mpf('2.650615594751538426122958884937088784388578768066686353808249575220934334401899')",
        "mpf('8.963365112381491490423080646345366017542914660015192299539169154138419109576335')",
        "mpf('3.848161842019598727032172164522477212501373248133208780350332066588953465950373')",
        "mpf('10.01229679914877816131970620712488138694809576061582618996242559070393107812476')",
    ],
}


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_identric_bits_are_pinned(bits):
    inputs = list(_NEUMAN_INPUTS) + [draw_tuple(random.Random(102), 16, 1.5, 20.0)]
    values = [identric_IZ(v, bits) for v in inputs]
    with mp.workprec(bits):
        assert [repr(v) for v in values] == _PINNED_IDENTRIC[bits]


# -- requests -------------------------------------------------------------------------


def test_mean_request_sorts_and_validates():
    outcome = evaluate_request(("4", "1.5", "2.25"), k=1, precision_bits=53)
    assert [float(v) for v in outcome["values"]] == [1.5, 2.25, 4.0]
    assert outcome["warnings"] == []
    assert outcome["effective_precision_bits"] == 53
    with pytest.raises(BadIndex):
        evaluate_request((1.0, 2.0), k=3)
    with pytest.raises(DistinctnessViolation):
        evaluate_request((1.0, 1.0), k=1)
    # distinctness is checked before the range of k
    with pytest.raises(DistinctnessViolation):
        evaluate_request((1.0, 1.0), k=3)


def test_mean_request_escalates_on_tiny_ln_gap():
    outcome = evaluate_request((2.0, 2.0 * (1 + 1e-8)), k=1, precision_bits=53)
    assert outcome["warnings"]
    assert outcome["effective_precision_bits"] >= 113


def test_ln_gap_warning_helper():
    assert ln_gap_warnings((2.0, 7.0)) == ()
    assert ln_gap_warnings((2.0, 2.0 + 2e-7))


def test_validated_values_come_back_as_given(monkeypatch):
    parsed = _counting(monkeypatch, means, "as_mpf")
    with mp.workprec(400):
        values = [mp.mpf(1) / 3, mp.mpf(2), mp.mpf(10) ** 90]
    out = means.sorted_positive_distinct(values, 53)
    assert type(out) is tuple
    assert len(out) == 3
    assert all(a is b for a, b in zip(out, values))
    # already increasing, positive and finite mpf values are not parsed again
    assert not parsed
    assert means.sorted_positive_distinct(out, 113) == out


@pytest.mark.parametrize(
    "values, error, message",
    [
        ((3, 2), None, None),
        ((2, 2, 3), DistinctnessViolation, "duplicate value 2.0"),
        ((1, 2, 2), DistinctnessViolation, "duplicate value 2.0"),
        ((0, 2), NonPositiveArgument, "values must be positive, got 0.0"),
        ((-1, 2), NonPositiveArgument, "values must be positive, got -1.0"),
        ((1, -2), NonPositiveArgument, "values must be positive, got -2.0"),
        ((1, mp.inf), BadParameter, "value mpf('+inf') is not finite"),
        ((-mp.inf, 1), BadParameter, "value mpf('-inf') is not finite"),
        ((1, mp.nan), BadParameter, "value mpf('nan') is not finite"),
        ((mp.nan, 1), BadParameter, "value mpf('nan') is not finite"),
    ],
)
def test_other_mpf_inputs_take_the_full_check(values, error, message):
    values = [mp.mpf(v) for v in values]
    if error is None:
        assert means.sorted_positive_distinct(values) == tuple(sorted(values))
        return
    with pytest.raises(error) as err:
        means.sorted_positive_distinct(values)
    assert str(err.value) == message


def _gap_below_floor_by_logs(values):
    with mp.workprec(600):
        logs = [mp.log(v) for v in values]
        return min(b - a for a, b in zip(logs, logs[1:])) < LN_GAP_FLOOR


_GAP_BASES = ("1.5", "7", "1e-300", "1e300", "1e-100000", "1e100000")


@pytest.mark.parametrize(
    "x",
    [mp.mpf(base) for base in _GAP_BASES]
    + [mp.ldexp(1.3, 3 - (1 << 21)), mp.ldexp(1.3, (1 << 21) - 3)],
    ids=list(_GAP_BASES) + ["1.3*2^-2097149", "1.3*2^2097149"],
)
def test_ln_gap_shortcut_agrees_with_the_logs(x):
    # the exact rule against 600-bit logs
    with mp.workprec(113):
        # relative gaps (b - a)/b from 5e-7 to 4e-6
        gaps = [mp.mpf("5e-7") * mp.mpf(8) ** (mp.mpf(i) / 40) for i in range(41)]
        cases = [(x, x / (1 - g)) for g in gaps] + [(x, x / (1 - g), 3 * x) for g in gaps]
        # a relative gap just above the floor, at points whose logs sit at
        # different offsets in their last 53-bit place: at large exponents
        # some of the rounded log gaps fall below the floor
        near = mp.mpf(1e-6) + mp.ldexp(1, -39)
        points = [x * (1 + mp.ldexp(i * 0.3719, -32)) for i in range(200)]
        cases += [(y, y / (1 - near)) for y in points]
        # log gaps 2^-40 relative above and below the floor
        for side in (1, -1):
            ratio = mp.exp(mp.mpf(LN_GAP_FLOOR) * (1 + side * mp.ldexp(1, -40)))
            cases += [(y, y * ratio) for y in points[:20]]
    fired = set()
    for values in cases:
        expected = _gap_below_floor_by_logs(values)
        warnings = ln_gap_warnings(values)
        assert bool(warnings) == expected
        assert all(w.startswith("min ln-gap ") for w in warnings)
        fired.add(expected)
    assert fired == {True, False}


def test_ln_gap_shortcut_takes_no_log_when_the_gaps_are_clear(monkeypatch):
    logs = _counting(monkeypatch, mp, "log")
    # gaps just above the floor, exponents past 2^21, a ratio of 2^(2^23),
    # values given as floats and as strings: none takes a log
    for values in [
        (mp.mpf(2), mp.mpf("2.00001"), mp.mpf(9)),
        (mp.mpf(2), mp.mpf(2) * (1 + mp.mpf("1e-6") + mp.ldexp(1, -31))),
        (mp.ldexp(1, 1 << 22), mp.ldexp(3, 1 << 22)),
        (mp.ldexp(1, -(1 << 22)), mp.ldexp(1, 1 << 22)),
        (2.0, 9.0),
        ("2", "2.0000021", "3"),
    ]:
        assert ln_gap_warnings(values) == ()
    assert not logs
    # a gap below the floor takes the 53-bit logs, only to print it
    assert ln_gap_warnings((2.0, 2.000001, 3.0)) == (
        "min ln-gap 5.0e-7 is below 1e-06; results are ill-conditioned, precision escalated",
    )
    assert len(logs) == 3
    # and so does a pair across a power of two, a log gap of 2^-31
    assert ln_gap_warnings((mp.mpf(2) - mp.ldexp(1, -30), mp.mpf(2)))


def test_gap_bound_is_the_floor_rounded_up():
    with mp.workprec(600):
        bound = int(mp.ceil(mp.expm1(mp.mpf(LN_GAP_FLOOR)) * mp.ldexp(1, 96)))
    assert means._GAP_BOUND == bound


def test_singular_intersection_notes_only_the_gap():
    values = (2.0, 2.0000000000000004, 2.000000000000001, 12.0)
    with pytest.raises(SingularSystem) as err:
        intersect(make_log_curve(4), values, 53)
    # intersect escalates nothing, so its note states only the gap
    assert str(err.value) == (
        "pivot 3 fell below the relative threshold; the system is numerically "
        "singular (min ln-gap 2.22e-16 is below 1e-06)"
    )


def test_evaluate_request_agreement():
    outcome = evaluate_request((1.0, 2.718281828459045, 7.389056098930650), k=1)
    assert float(outcome["rel_gap"]) < 1e-9
    assert abs(outcome["m1"] - (mp.e - 1) ** 2) < 1e-10


def _count_intersections(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return intersect(*args, **kwargs)

    monkeypatch.setattr(means, "intersect", counting)
    return calls


def test_evaluate_request_refuses_k2_below_one(monkeypatch):
    calls = _count_intersections(monkeypatch)
    with pytest.raises(DomainError):
        evaluate_request((0.5, 2.0, 5.0), k=2)
    assert calls == []


def test_evaluate_request_intersects_once_for_every_k(monkeypatch):
    values = (1.5, 3.0, 8.0, 20.0)
    curve = make_log_curve(len(values))
    expected = [mean_M(curve, k, values) for k in range(1, len(values) + 1)]
    calls = _count_intersections(monkeypatch)
    for k, mk in enumerate(expected, start=1):
        calls.clear()
        assert evaluate_request(values, k=k)["mk"] == mk
        assert len(calls) == 1, k


def test_evaluate_request_refuses_means_outside_the_inputs():
    # L_N cancels to exactly 0 at 113 bits, so rel_gap would divide by zero
    values = (
        "0.85130589466121994531", "0.85130395283985196331", "0.85130190403602532340",
        "0.85130704213332120071", "0.85130856335521258247", "0.85129970980198632624",
        "0.85130856335521258248",
    )
    with pytest.raises(SingularSystem):
        evaluate_request(values, precision_bits=113)
    # M_1 and L_N both fall below the smallest input at 113 bits
    values = (
        "0.54896602621678882421", "0.54896602609182398869", "0.54896602652808839490",
        "0.54896602665847601854", "0.54896602640281305315",
    )
    with pytest.raises(SingularSystem):
        evaluate_request(values, precision_bits=113)
