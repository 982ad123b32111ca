"""Hyperplanes, intersections, the derived means, and the closed forms."""

import hashlib
import inspect
import random

import pytest
from mpmath import mp
from mpmath.libmp import mpf_exp, mpf_pos, round_nearest

from oscmean import identities, logpoly, means, numerics, wronskian
from oscmean.cli import main
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
    mean_M,
    neuman_LN,
)
from oscmean.logpoly import LogPoly
from oscmean.wronskian import (
    LOG_T,
    T,
    Curve,
    make_conjecture_curve,
    make_log_curve,
    make_monomial_curve,
)


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
    logpoly._log_at.cache_clear()  # a log kept from an earlier test is not taken
    hyperplane_at(make_log_curve(5), 3.7, 113)
    assert len(through_mpf) + len(raw) == 1


def test_each_input_log_is_taken_once_per_width(monkeypatch):
    # the planes, neuman_LN, identric_IZ and the determinant closed forms
    # share one log of each input at the working width: n logs per request,
    # per numeric_checks tuple and per conjecture tuple, where each took its
    # own (2n, 3n from n = 3, and 2n)
    logs = _counting(monkeypatch, logpoly, "mpf_log")
    pull_back_logs = _counting(monkeypatch, means, "mpf_log")

    def count(run):
        logpoly._log_at.cache_clear()
        logs.clear()
        run()
        return len(logs)

    rng = random.Random(36)
    for n in (2, 3, 5, 7, 10):
        values = draw_tuple(rng, n, 1.1, 50.0)
        for bits in (53, 113, 256):
            assert count(lambda: evaluate_request([repr(v) for v in values], 1, bits)) == n
            assert count(lambda: identities.numeric_checks(values, bits)) == n
    for n in (3, 5, 7):
        assert count(lambda: identities.conjecture_scan(n, 1, 36)) == n
    assert not pull_back_logs


def test_log_memo_stays_within_its_bound():
    logpoly._log_at.cache_clear()
    for j in range(logpoly.CACHE_MAXSIZE + 40):
        neuman_LN((1 + j, 2000 + j), 53)
        assert logpoly._log_at.cache_info().currsize <= logpoly.CACHE_MAXSIZE
    assert logpoly._log_at.cache_info().currsize == logpoly.CACHE_MAXSIZE


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
        assert abs(result.point[0] - expected) / expected < 1e-12


def test_intersection_golden_one_e_e_squared():
    # hand evaluation: 2!(1/2 - e + e^2/2) = (e - 1)^2
    curve = make_log_curve(3)
    values = (1.0, float(mp.e), float(mp.e ** 2))
    result = intersect(curve, values)
    target = (mp.e - 1) ** 2
    assert abs(result.point[0] - target) / target < 1e-11


# every bit of the report for points 1.3, 3.4, 5.5, ... at the default 53
# bits: the point at 53, and the error bound, a float64, of the system
# solved at the 83 guard bits
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
        "5.122495378633105e-19",
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
        "9.162641291546527e-15",
    ),
}



@pytest.mark.parametrize("n", sorted(_PINNED_INTERSECTIONS))
def test_intersection_report_bits_are_pinned(n):
    result = intersect(make_log_curve(n), [f"{1.3 + 2.1 * i:.1f}" for i in range(n)])
    point, bound = _PINNED_INTERSECTIONS[n]
    with mp.workprec(53):
        assert [repr(x) for x in result.point] == point
    assert repr(result.report.error_bound) == bound


def _error_bound_at_1500_bits(rows, solution, bits):
    """2^-bits (|A^-1| (|A| |x| + |b|))_1 / |x_1| for the planes ``rows``
    (pairs, normal then offset) and the solution x, with the inverse taken
    at 1500 bits and every entry read exactly."""
    with mp.workprec(1500):
        A = [[mp.make_mpf(numerics._raw_value(v)) for v in row[:-1]] for row in rows]
        b = [mp.make_mpf(numerics._raw_value(row[-1])) for row in rows]
        first = (mp.matrix(A) ** -1)[0, :]
        scale = [sum(abs(a * x) for a, x in zip(row, solution)) + abs(bi) for row, bi in zip(A, b)]
        total = sum(abs(first[i]) * scale[i] for i in range(len(A)))
        return mp.ldexp(total / abs(solution[0]), -bits)


@pytest.mark.parametrize(
    "literals, bits",
    [
        (("1.5", "4.25"), 53),
        (("0.35", "1.2", "2.5", "9.1", "41"), 53),
        (tuple(f"{1.3 + 2.1 * i:.1f}" for i in range(10)), 53),
        # the clustered reproducer of tests/test_cli.py, at the 113 bits
        # it escalates to
        (("5.3181779619479737183", "5.3181777314889760834", "5.3181780846020593170",
          "5.3181782456291209025", "5.3181775014407985935"), 113),
        # the n = 16 reproducer of tests/test_cli.py
        (("1.1", "1.3", "1.6", "2", "2.5", "3.1", "3.9", "4.9",
          "6.1", "7.6", "9.5", "11.9", "14.9", "18.6", "23.3", "29.1"), 53),
    ],
)
def test_error_bound_matches_a_1500_bit_inverse(literals, bits):
    curve = make_log_curve(len(literals))
    result = intersect(curve, literals, bits)
    reference = _error_bound_at_1500_bits(result._rows, result.report.solution, result.work_bits)
    assert abs(result.report.error_bound - reference) <= 1e-10 * reference


def test_inverse_is_built_only_when_the_condition_estimate_is_read(monkeypatch):
    # the report's condition estimate is error_bound, Skeel's condition
    # number times 2^-w; its inverse row is built on first read, not by the solve
    solves = _counting(monkeypatch, numerics, "_lu_solve")
    inverses = _counting(monkeypatch, numerics, "_first_row_of_inverse")
    report = intersect(make_log_curve(7), [1.5, 2, 3, 4.5, 6, 8, 11], 113).report
    assert len(solves) <= 2  # the solve and one refinement step
    assert not inverses
    before = len(solves)
    first = report.error_bound
    # one float64 transposed solve on the kept LU: no multiprecision solve
    assert len(solves) == before
    assert len(inverses) == 1
    assert report.error_bound is first
    assert len(inverses) == 1


def test_error_bound_is_computed_only_when_read(monkeypatch):
    conversions = _counting(monkeypatch, numerics, "_floats")
    report = intersect(make_log_curve(5), [1.5, 2, 3, 4.5, 6], 53).report
    assert not conversions
    first = report.error_bound
    # x, then A and b, then the LU: each entry converted to float64 once
    assert sum(len(pairs) for pairs, _ in conversions) == 5 + (5 * 5 + 5) + 5 * 5
    assert report.error_bound is first
    assert sum(len(pairs) for pairs, _ in conversions) == 5 + (5 * 5 + 5) + 5 * 5


# The smallest gap, as a power of ten, that working_bits(bits) holds at n = 4 and 5.
_LAST_DECADE = {(53, 4): 6, (53, 5): 4, (113, 5): 9}


def _bound_cases(bits):
    """Seeded log-curve inputs for the error bound, every one answered at
    ``bits``: spread tuples reaching below 1, clustered tuples with
    relative gaps 1e-3 to 1e-10 (n = 3 at every gap, n = 4 and 5 where
    ``working_bits(bits)`` holds them), and geometric tuples with n = 8 to 16."""
    rng = random.Random(bits)
    for n in range(2, 8):
        for _ in range(3):
            yield draw_tuple(rng, n, 0.05, 20.0)
    for decade in range(3, 11):
        for n in (3, 4, 5):
            centre = rng.uniform(0.3, 30.0)
            if decade > _LAST_DECADE.get((bits, n), 10):
                continue
            yield tuple(centre * (1 + 10.0 ** -decade * (j + rng.random() / 2)) for j in range(n))
    for n in range(8, 17):
        ratio = rng.uniform(1.2, 1.5)
        yield tuple(rng.uniform(0.5, 2) * ratio ** (j + rng.uniform(-0.2, 0.2)) for j in range(n))


def _error_of_i1(values, bits):
    """The intersection's report at ``bits`` and the relative error of its
    unrounded i_1 against ``neuman_LN`` at 400 bits."""
    vals = means.sorted_positive_distinct(values, bits)
    report = intersect(make_log_curve(len(vals)), vals, bits).report
    truth = neuman_LN(vals, 400)
    with mp.workprec(500):
        return report, abs(report.solution[0] - truth) / truth


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_error_bound_covers_the_error_of_i1(bits):
    # B bounds, to first order, what the planes' rounding at w does to i_1,
    # and the solve adds little more: on every seeded case the unrounded
    # i_1 is within B of L_N
    checked = 0
    for values in _bound_cases(bits):
        report, error = _error_of_i1(values, bits)
        assert error <= report.error_bound, (values, bits)
        checked += 1
    assert checked >= 40


# The named case of the negative control: n = 2 at 256 bits, where the
# error of i_1 is 0.64 B, and the |b| term is half of B.
_TIGHT_CASE = (("0.394084", "3.3559"), 256)


def test_error_bound_with_less_margin_fails_on_a_named_case():
    # a quarter of B, or B without the |b| term, is below the error
    report, error = _error_of_i1(*_TIGHT_CASE)
    assert error <= report.error_bound
    assert error > report.error_bound / 4
    source = inspect.getsource(numerics.SolveReport)
    mutated = source.replace(" + abs(bi)\n", "\n")
    assert mutated != source
    namespace = dict(vars(numerics))
    exec("from __future__ import annotations\n" + mutated, namespace)
    without_b = namespace["SolveReport"](report.solution, report._factors)
    assert error > without_b.error_bound


def test_scans_build_no_inverse(monkeypatch):
    solves = _counting(monkeypatch, numerics, "_lu_solve")
    factors = _counting(monkeypatch, numerics, "_lu_factor")
    inverses = _counting(monkeypatch, numerics, "_first_row_of_inverse")
    identities.main_theorem_scan(5, trials=3)
    # per tuple, the solve's LU and the Wronskian-replaced matrix's det
    assert len(factors) == 2 * 3
    # the solve and one refinement step per factorization
    assert len(solves) <= 2 * len(factors)
    assert not inverses


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
        minors = [row[:-1] for row in result._rows]
        assert determinant._mpf_ == numerics.det(minors, means.working_bits(bits))._mpf_
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


def _rows_mpf(rows):
    """The planes ``rows`` (pairs, normal then offset) as mpf values."""
    return [[mp.make_mpf(numerics._raw_value(v)) for v in row] for row in rows]


def _residual_norm(rows, point):
    """||Ax - b||_inf / ||b||_inf of ``point`` against the planes ``rows``,
    at 400 bits."""
    with mp.workprec(400):
        planes = _rows_mpf(rows)
        worst = max(abs(sum(c * x for c, x in zip(row, point)) - row[-1]) for row in planes)
        return worst / max(abs(row[-1]) for row in planes)


def _worst_plane_misfit(planes, point, residual_norm):
    """max over planes of |normal . point - offset| over its bound.

    The point solves the guard-precision planes, so against 53-bit planes
    its misfit is its residual against the solved planes (``_residual_norm``
    times the offsets' scale) plus the 53-bit planes' own rounding.
    lp_rows rounds each normal coordinate and the offset of a log-curve
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
        residual = _residual_norm(result._rows, result.point)
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
    curve, values = make_log_curve(5), (1.5, 2.5, 4.0, 7.0, 11.0)
    result = intersect(curve, values, 113)
    planes = [hyperplane_at(curve, a, result.work_bits) for a in values]
    assert [
        [v._mpf_ for v in plane.normal + (plane.offset,)] for plane in planes
    ] == [[numerics._raw_value(v) for v in row] for row in result._rows]


def test_intersect_refuses_a_zero_normal(monkeypatch):
    curve = make_log_curve(3)
    real = means._plane_polynomials
    monkeypatch.setattr(
        means, "_plane_polynomials", lambda c: (logpoly.LogPoly.zero(),) * 3 + real(c)[-1:]
    )
    with pytest.raises(DomainError, match="zero vector"):
        intersect(curve, (1.5, 2.5, 4.0))


def test_log_curve_planes_run_no_elimination(monkeypatch, capsys):
    # a cold n = 24 mean at 160 bits builds its planes from the closed
    # forms, with the bytes it printed when they came from the elimination;
    # a conjecture-curve intersection still eliminates
    def refuse(*args):
        raise AssertionError("symbolic elimination ran")

    wronskian._plane_polynomials.cache_clear()
    wronskian.normal_field.cache_clear()
    monkeypatch.setattr(wronskian, "_eliminate", refuse)
    values = ("1.1,1.3,1.6,2,2.5,3.1,3.9,4.9,6.1,7.6,9.5,11.9,14.9,18.6,23.3,29.1,36.4,"
              "45.5,56.9,71.1,88.9,111,139,174")
    assert main(["mean", "--values", values, "--precision", "160", "--json"]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256((out + err).encode()).hexdigest() == (
        "409f8c68c6f6944381f86011f755d12bcef75036ca36aa175e7e81e3ab59ff88"
    )
    with pytest.raises(AssertionError, match="symbolic elimination ran"):
        intersect(make_conjecture_curve(4), (1.5, 2.5, 4.0, 7.0))


def _backward_error(planes, x):
    """max_i |b - Ax|_i / (|A| |x| + |b|)_i of x against ``planes`` (mpf
    rows, normal then offset), at 600 bits: the componentwise relative
    perturbation of the planes that x solves exactly (Oettli & Prager 1964)."""
    with mp.workprec(600):
        worst = 0
        for *normal, offset in planes:
            terms = [c * v for c, v in zip(normal, x)]
            worst = max(worst, abs(offset - sum(terms)) / (sum(map(abs, terms)) + abs(offset)))
        return worst


# On each of these cases the solution's residual measured against planes
# re-evaluated at the requested precision is 2^20 or more times the one
# against the solved planes, so the test tells the two apart.
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
    # error_bound takes the solution to solve the planes as built, each
    # entry within 2^-w of its exact value, to within a relative 2^-w per
    # entry: the solution's componentwise residual against the solved planes
    # is within that, and against planes rounded at the requested
    # precision, coarser than working_bits' w, it is not
    curve = make_log_curve(len(values))
    result = intersect(curve, values, bits)
    x = result.report.solution
    w = result.work_bits
    assert _backward_error(_rows_mpf(result._rows), x) <= mp.ldexp(1, -w)
    coarse = [hyperplane_at(curve, a, bits) for a in values]
    coarse = [plane.normal + (plane.offset,) for plane in coarse]
    assert _backward_error(coarse, x) > mp.ldexp(1, 20 - w)


def test_intersection_order_invariance():
    curve = make_log_curve(3)
    a = intersect(curve, (9.0, 2.0, 4.5)).point
    b = intersect(curve, (2.0, 4.5, 9.0)).point
    assert a == b


# -- mean_M -----------------------------------------------------------------------


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


def test_first_mean_reads_off_coordinate():
    curve = make_log_curve(3)
    values = (1.5, 3.0, 8.0)
    assert mean_M(curve, 1, values) == intersect(curve, values).point[0]


def test_second_mean_betweenness_and_equation():
    curve = make_log_curve(2)
    values = (float(mp.e), float(mp.e ** 2))
    m2 = mean_M(curve, 2, values)
    assert values[0] < m2 < values[1]
    # m2 solves t log t = i_2
    i2 = intersect(curve, values).point[1]
    assert abs(m2 * mp.log(m2) - i2) < 1e-12 * abs(i2)


def test_log_k2_requires_inputs_above_one(monkeypatch):
    with pytest.raises(DomainError):
        mean_M(make_log_curve(2), 2, (0.5, 2.0))
    # mean-spread's k2-low requests are refused with exactly this text,
    # before any plane is built
    monkeypatch.setattr(means, "intersect", _refuse("intersect"))
    for k in (2, 3):
        message = (
            f"component {k} of the log curve is strictly increasing only for t > 1; "
            "smallest input is 0.5"
        )
        for refused in (
            lambda: mean_M(make_log_curve(3), k, (5.0, 0.5, 2.0)),
            lambda: evaluate_request((5.0, 0.5, 2.0), k=k),
        ):
            with pytest.raises(DomainError) as err:
                refused()
            assert str(err.value) == message


def test_mean_index_validation():
    curve = make_log_curve(2)
    with pytest.raises(BadIndex):
        mean_M(curve, 0, (2.0, 3.0))
    with pytest.raises(BadIndex):
        mean_M(curve, 3, (2.0, 3.0))


def test_conjecture_curve_log_inversion_matches_exp():
    # component n is log t, so the pull-back must agree with exp(i_n)
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
        means._pull_back(curve, 3, vals, 53)(mp.log(vals[0]) - 1)


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
                    mk = means._pull_back(curve, k, vals, bits)(point[k - 1])
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
            means._pull_back(make_log_curve(len(vals)), k, vals, bits)(target), target, k - 1, bits
        )
        for vals, k, target, _ in cases
    ]
    assert max(short) > 1


def test_log_curve_means_take_no_root_search(monkeypatch):
    monkeypatch.setattr(means, "find_root_bracketed", _refuse("find_root_bracketed"))
    monkeypatch.setattr(means, "lp_eval", _refuse("lp_eval"))
    values = (1.5, 2, 3, 4.5, 6, 8, 11, 15, 20, 27)
    n = len(values)
    curve = make_log_curve(n)
    for k in range(2, n + 1):
        assert values[0] < mean_M(curve, k, values, 113) < values[-1]
        assert evaluate_request(values, k, 113)["mk"] == mean_M(curve, k, values, 113)
    # every mean of the conjecture and monomial curves too
    for curve in (make_conjecture_curve(n), make_monomial_curve([-2, *range(1, n)])):
        for k in range(1, n + 1):
            assert values[0] < mean_M(curve, k, values, 113) < values[-1]


def test_a_component_with_no_closed_form_inverse_is_refused_before_any_plane(monkeypatch):
    monkeypatch.setattr(means, "intersect", _refuse("intersect"))
    curve = Curve((T, T + LogPoly.term(1, 1, 1)))
    vals = means.sorted_positive_distinct((2.0, 3.0))
    with pytest.raises(DomainError) as err:
        mean_M(curve, 2, vals)
    assert str(err.value) == "component 2 has no closed-form inverse"
    with pytest.raises(DomainError):
        means._pull_back(curve, 2, vals, 53)


def _power_targets(bits):
    # every t^e mean (e other than 0 and 1) of seeded tuples on the
    # conjecture curve (k = 2..n-1) and the monomial curve [-2, 1, ..., n-1],
    # through mean_M, with its target, coordinate k of the intersection; the
    # tuples come from [1.5, 20], [0.1, 10] and up to 1e9, and one the
    # intersection refuses is skipped
    rng = random.Random(bits)
    for n in (3, 5, 7, 10):
        for curve in (make_conjecture_curve(n), make_monomial_curve([-2, *range(1, n)])):
            for values in (
                draw_tuple(rng, n, 1.5, 20.0),
                draw_tuple(rng, n, 0.1, 10.0),
                [10 ** rng.uniform(0.05, 9) for _ in range(n)],
            ):
                vals = means.sorted_positive_distinct(values, bits)
                try:
                    point = intersect(curve, vals, bits).point
                except SingularSystem:
                    continue
                for k, component in enumerate(curve.components, start=1):
                    ((e, m), _), = component.items()
                    if e not in (0, 1):
                        yield e, point[k - 1], mean_M(curve, k, vals, bits)


def _root_sixteenths_off(mk, target, e, bits):
    # |mk - t| / t in units of 2^-bits, times 16, where t^e = target, with t
    # from mp.root at 2 * bits + 200 bits
    with mp.workprec(2 * bits + 200):
        t = mp.root(target, e)
        return abs(mk - t) / t * mp.mpf(2) ** bits * 16


@pytest.mark.parametrize("bits", [53, 113, 256, 1500])
def test_power_mean_is_within_a_sixteenth_ulp(bits):
    cases = list(_power_targets(bits))
    for e, target, mk in cases:
        assert _root_sixteenths_off(mk, target, e, bits) <= 1, (e, target)
    # 86, 105, 114 and 114 targets; the intersection refuses a few tuples
    # drawn up to 1e9 at 53 and 113 bits
    assert len(cases) >= 86
    assert {-2, 2, 9} <= {e for e, _, _ in cases}
    # negative control: the root rounded at p instead of p + 10
    rounded = [
        _root_sixteenths_off(mp.make_mpf(mpf_pos(mk._mpf_, bits, round_nearest)), target, e, bits)
        for e, target, mk in cases
    ]
    assert max(rounded) > 1


@pytest.mark.parametrize("bits", [53, 113, 256, 1500])
def test_pull_backs_keep_a_sixteenth_ulp_far_from_one(bits):
    # where |log c| is large, so the width of u = log t must grow with it
    for t in (mp.mpf("1e-300"), mp.mpf("3e300"), mp.ldexp(1.7, -100000), mp.ldexp(1.3, 100000)):
        vals = (t / 2, t * 2)
        for e in (-2, 2, 3, 9):
            with mp.workprec(bits):
                target = t ** e
            root = means._pull_back(make_monomial_curve([1, e]), 2, vals, bits)(target)
            assert _root_sixteenths_off(root, target, e, bits) <= 1, (t, e)
        if t > 2:
            for m in (1, 2, 5):
                with mp.workprec(bits):
                    target = t * mp.log(t) ** m
                mk = means._pull_back(make_log_curve(m + 1), m + 1, vals, bits)(target)
                assert _sixteenths_off(mk, target, m, bits) <= 1, (t, m)


def test_t_log_power_pull_back_refuses_a_target_off_the_image():
    curve = make_log_curve(4)
    vals = means.sorted_positive_distinct((2.0, 5.0, 11.0, 13.0))
    for k in (2, 3, 4):
        component = curve.components[k - 1]
        low = logpoly.lp_eval(component, vals[0]) / 2
        high = logpoly.lp_eval(component, vals[-1]) * 2
        for target in (low, high, mp.mpf(0), mp.mpf(-1)):
            with pytest.raises(NoBracket):
                means._pull_back(curve, k, vals, 53)(target)


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


_CLUSTERED = ("2", "2.0000000001", "3", "2.00000000015", "3.5")


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_warning_says_escalated_only_when_the_precision_rose(bits):
    outcome = evaluate_request(_CLUSTERED, k=1, precision_bits=bits)
    note = "min ln-gap 2.5e-11 is below 1e-06; results are ill-conditioned"
    if bits < 113:
        assert outcome["effective_precision_bits"] == 113
        assert outcome["warnings"] == [note + ", precision escalated"]
    else:
        assert outcome["effective_precision_bits"] == bits
        assert outcome["warnings"] == [note]


@pytest.mark.parametrize("bits, reads", [(53, 2), (113, 1), (256, 1)])
def test_literals_are_read_again_only_when_the_precision_rises(monkeypatch, bits, reads):
    # the 53-bit request parses its literals again at 113; at 113 and 256
    # bits the escalation keeps the precision, and the first parse serves
    parsed = [_counting(monkeypatch, module, "as_mpf_at") for module in (means, numerics)]
    evaluate_request(_CLUSTERED, k=1, precision_bits=bits)
    literals = [args[0] for calls in parsed for args in calls if isinstance(args[0], str)]
    assert sorted(literals) == sorted(_CLUSTERED * reads)


def test_every_width_on_the_mean_path_comes_from_working_bits(monkeypatch):
    # with the rule moved to p + 40, every plane build, solve, divided
    # difference, determinant and closed form runs at p' + 40, p' the
    # effective precision of the request
    monkeypatch.setattr(means, "working_bits", lambda p: p + 40)
    widths = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            widths.append((name, args[-1]))
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("_plane_rows", "solve_linear", "_divided_difference"):
        spy(means, name)
    for name in ("det", "_determinant_closed_forms"):
        spy(identities, name)

    def seen(bits, names, run, *args):
        widths.clear()
        result = run(*args)
        assert {name for name, _ in widths} == set(names)
        assert {w for _, w in widths} == {bits + 40}
        return result

    request = ("_plane_rows", "solve_linear", "_divided_difference")
    for values, k, bits, effective in (
        (_CLUSTERED, 1, 53, 113),
        (_CLUSTERED, 1, 113, 113),
        (("1.5", "2", "3", "4.5"), 3, 256, 256),
    ):
        outcome = seen(effective, request, evaluate_request, values, k, bits)
        assert outcome["effective_precision_bits"] == effective
    seen(113, request[:2], mean_M, make_log_curve(4), 2, (1.5, 2.0, 3.0, 4.5), 113)
    seen(53, request + ("det", "_determinant_closed_forms"),
         identities.numeric_checks, (1.7, 3.1, 4.9, 11.3), 53)
    seen(113, request, identities.conjecture_scan, 3, 2, 5, 113)


def test_mean_M_refuses_an_i1_outside_the_inputs():
    # evaluate_request refuses this 113-bit request for its M_1 below the
    # smallest input; mean_M, which pulls i_1 back through t, refuses it too
    values = ("0.54896602621678882421", "0.54896602609182398869", "0.54896602652808839490",
              "0.54896602665847601854", "0.54896602640281305315")
    with pytest.raises(NoBracket):
        mean_M(make_log_curve(5), 1, values, 113)
    with pytest.raises(SingularSystem):
        evaluate_request(values, 1, 113)


def _raw_fields(outcome):
    return {key: [getattr(v, "_mpf_", v) for v in value] if isinstance(value, list)
            else getattr(value, "_mpf_", value) for key, value in outcome.items()}


@pytest.mark.parametrize("ambient", [20, 400])
def test_request_and_parsing_ignore_the_ambient_precision(ambient):
    def raw():
        outcome = evaluate_request(("0.1", "0.3", "0.7"), 1, 113)
        parsed = means.sorted_positive_distinct(("0.7", "1/3", "0.1"), 113)
        return _raw_fields(outcome), [v._mpf_ for v in parsed]

    default = raw()
    with mp.workprec(ambient):
        assert raw() == default
        assert mp.prec == ambient


def test_request_path_enters_no_mpmath_context(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an mpmath precision context was entered")

    monkeypatch.setattr(mp, "workprec", refuse)
    for values, k in ((("0.1", "0.3", "0.7"), 1), (("1.5", "2", "3", "4.5"), 3),
                      (("2", "2.0000000001", "3"), 1)):
        assert main(["mean", "--values", ",".join(values), "--k", str(k), "--json"]) == 0
    capsys.readouterr()


def test_ln_gap_warning_helper():
    assert means._ln_gap_note((2.0, 7.0)) == ""
    assert means._ln_gap_note((2.0, 2.0 + 2e-7))


def test_validated_values_come_back_as_given(monkeypatch):
    parsed = _counting(monkeypatch, means, "as_mpf_at")
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
        note = means._ln_gap_note(values)
        assert bool(note) == expected
        assert not note or note.startswith("min ln-gap ")
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
        assert means._ln_gap_note(values) == ""
    assert not logs
    # a gap below the floor prints log1p of its exact relative gap, no log
    assert means._ln_gap_note((2.0, 2.000001, 3.0)) == "min ln-gap 5.0e-7 is below 1e-06"
    assert not logs
    # and so does a pair across a power of two, a log gap of 2^-31
    assert means._ln_gap_note((mp.mpf(2) - mp.ldexp(1, -30), mp.mpf(2)))


def test_ln_gap_note_prints_the_smallest_flagged_gap():
    # two pairs below the floor, the second the closer: log gaps 1e-6 and
    # 1e-13, each log1p of the exact relative gap
    values = [mp.mpf(2), mp.mpf("2.000002"), mp.mpf("2.0000020000002"), mp.mpf(3)]
    assert means._ln_gap_note(values) == "min ln-gap 1.0e-13 is below 1e-06"
    assert means._ln_gap_note(values[:2] + values[3:]) == "min ln-gap 1.0e-6 is below 1e-06"


@pytest.mark.parametrize(
    "zeros, bits, gap",
    [(399, 1500, "1.0e-400"), (321, 1200, "1.0e-322"), (299, 1100, "1.0e-300")],
)
def test_ln_gap_note_prints_gaps_below_the_float_range(zeros, bits, gap):
    # a relative gap below 2^-1022 is printed from its exact value, not from
    # a float64 that reads 0.0 or a subnormal; a normal one keeps log1p
    values = means.sorted_positive_distinct(("1", "1." + "0" * zeros + "1", "2"), bits)
    assert means._ln_gap_note(values) == f"min ln-gap {gap} is below 1e-06"


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
