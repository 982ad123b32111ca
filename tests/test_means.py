"""Hyperplanes, intersections, the derived means, and the closed forms."""

import random

import pytest
from mpmath import mp

from oscmean import means
from oscmean.errors import (
    BadDimension,
    BadIndex,
    DistinctnessViolation,
    DomainError,
    NonPositiveArgument,
    SingularSystem,
)
from oscmean.means import (
    MeanRequest,
    evaluate_request,
    hyperplane_at,
    identric_IZ,
    intersect,
    ln_gap_warnings,
    mean_M,
    neuman_LN,
)
from oscmean.wronskian import make_conjecture_curve, make_log_curve, make_monomial_curve


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


def test_hyperplane_takes_one_log_per_point(monkeypatch):
    calls = []
    real_log = mp.log

    def counting_log(*args, **kwargs):
        calls.append(args)
        return real_log(*args, **kwargs)

    monkeypatch.setattr(mp, "log", counting_log)
    hyperplane_at(make_log_curve(5), 3.7, 113)
    assert len(calls) == 1


def test_log_hyperplane_n10_values_are_pinned():
    # every bit of an n = 10 plane at guard precision; the field's
    # coefficients exceed 2^53, so a change in their exact conversion or in
    # summation order shows here
    plane = hyperplane_at(make_log_curve(10), "3.7", 83)
    with mp.workprec(83):
        assert [repr(c) for c in plane.normal] == [
            "mpf('23.7990401637774586081971014')",
            "mpf('-23.7988410692391535282493291')",
            "mpf('11.8987357505883908677380987')",
            "mpf('-3.96484951149539409883741622')",
            "mpf('0.989345465502926408106796604')",
            "mpf('-0.196156765158138994439950393')",
            "mpf('0.0316021390243940496452853907')",
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


def test_intersect_validations():
    curve = make_log_curve(3)
    with pytest.raises(DistinctnessViolation) as err:
        intersect(curve, (2.0, 2.0, 3.0))
    assert "duplicate value 2" in str(err.value)
    with pytest.raises(NonPositiveArgument):
        intersect(curve, (-1.0, 2.0, 3.0))
    with pytest.raises(BadDimension):
        intersect(curve, (1.0, 2.0))


def test_point_satisfies_every_plane():
    curve = make_log_curve(4)
    values = (1.3, 2.9, 7.7, 15.0)
    result = intersect(curve, values)
    planes = [hyperplane_at(curve, a) for a in values]
    # measure at extended precision so the check sees the true residual,
    # not the rounding of its own dot products
    with mp.workprec(160):
        scale = max(abs(p.offset) for p in planes)
        bound = result.report.residual_norm * scale
        for plane in planes:
            lhs = sum(c * x for c, x in zip(plane.normal, result.point))
            assert abs(lhs - plane.offset) <= 2 * bound + mp.mpf(1e-25)


def test_intersect_builds_each_plane_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return hyperplane_at(*args, **kwargs)

    monkeypatch.setattr(means, "hyperplane_at", counting)
    for n in (2, 4, 7):
        calls.clear()
        intersect(make_log_curve(n), [1.5 + j for j in range(n)], 113)
        assert len(calls) == n


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


# -- requests -------------------------------------------------------------------------


def test_mean_request_sorts_and_validates():
    request = MeanRequest(values=("4", "1.5", "2.25"), k=1, precision_bits=53)
    assert [float(v) for v in request.values] == [1.5, 2.25, 4.0]
    assert request.warnings == ()
    assert request.effective_precision_bits == 53
    with pytest.raises(BadIndex):
        MeanRequest(values=(1.0, 2.0), k=3)
    with pytest.raises(DistinctnessViolation):
        MeanRequest(values=(1.0, 1.0), k=1)


def test_mean_request_escalates_on_tiny_ln_gap():
    request = MeanRequest(values=(2.0, 2.0 * (1 + 1e-8)), k=1, precision_bits=53)
    assert request.warnings
    assert request.effective_precision_bits >= 113


def test_ln_gap_warning_helper():
    assert ln_gap_warnings((2.0, 7.0)) == ()
    assert ln_gap_warnings((2.0, 2.0 + 2e-7))


def test_evaluate_request_agreement():
    request = MeanRequest(values=(1.0, 2.718281828459045, 7.389056098930650), k=1)
    outcome = evaluate_request(request)
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
    request = MeanRequest(values=(0.5, 2.0, 5.0), k=2)
    with pytest.raises(DomainError):
        evaluate_request(request)
    assert calls == []


def test_evaluate_request_intersects_once_for_every_k(monkeypatch):
    values = (1.5, 3.0, 8.0, 20.0)
    curve = make_log_curve(len(values))
    expected = [mean_M(curve, k, values) for k in range(1, len(values) + 1)]
    calls = _count_intersections(monkeypatch)
    for k, mk in enumerate(expected, start=1):
        calls.clear()
        assert evaluate_request(MeanRequest(values=values, k=k))["mk"] == mk
        assert len(calls) == 1, k


def test_evaluate_request_refuses_means_outside_the_inputs():
    # L_N cancels to exactly 0 at 113 bits, so rel_gap would divide by zero
    values = (
        "0.85130589466121994531", "0.85130395283985196331", "0.85130190403602532340",
        "0.85130704213332120071", "0.85130856335521258247", "0.85129970980198632624",
        "0.85130856335521258248",
    )
    with pytest.raises(SingularSystem):
        evaluate_request(MeanRequest(values=values, precision_bits=113))
    # M_1 and L_N both fall below the smallest input at 113 bits
    values = (
        "0.54896602621678882421", "0.54896602609182398869", "0.54896602652808839490",
        "0.54896602665847601854", "0.54896602640281305315",
    )
    with pytest.raises(SingularSystem):
        evaluate_request(MeanRequest(values=values, precision_bits=113))
