"""Exact ring behaviour, differentiation, evaluation, and text rendering."""

import random
from fractions import Fraction
from math import lcm

import pytest
from mpmath import mp
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_pow_int,
    round_nearest,
)

from oscmean.errors import BadParameter, DomainError, NonPositiveArgument
from oscmean.logpoly import (
    CACHE_MAXSIZE,
    LogPoly,
    _grouped_terms,
    lp_eval,
    lp_rows,
    substitute_power,
    to_text,
)
from oscmean.numerics import _raw_value
from oscmean.precision import as_mpf_at
from oscmean.wronskian import (
    make_conjecture_curve,
    make_log_curve,
    _plane_polynomials,
    make_monomial_curve,
    normal_field,
)


def _eval_many(polys, t, bits=53):
    """``lp_rows`` at the one point ``t``, as ``mpf`` values."""
    return [mp.make_mpf(_raw_value(v)) for v in lp_rows(polys, (t,), bits)[0]]


T = LogPoly.term(1, 1, 0)
LOG_T = LogPoly.term(1, 0, 1)


def random_logpoly(rng, max_terms=6, positive=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(-4, 4), rng.randint(0, 3))
        num = rng.randint(1, 9) if positive else rng.randint(-9, 9)
        terms[key] = Fraction(num, rng.randint(1, 5))
    return LogPoly(terms)


# -- construction and canonical form ----------------------------------------


def test_zero_coefficients_dropped():
    p = LogPoly({(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): Fraction(2)}


def test_duplicate_keys_merge():
    p = LogPoly([((1, 0), Fraction(1, 2)), ((1, 0), Fraction(1, 2))])
    assert p == T


def test_negative_log_power_rejected():
    with pytest.raises(BadParameter):
        LogPoly({(0, -1): 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: LogPoly.term(1, 2.5, 0),
        lambda: LogPoly.term(1, 2.0, 0),
        lambda: LogPoly.term(1, 0, 1.5),
        lambda: LogPoly({(0, 0.5): 1}),
        lambda: LogPoly({("2", 0): 1}),
        lambda: make_monomial_curve([1, 2.9]),
    ],
    ids=["t-2.5", "t-2.0", "log-1.5", "log-0.5", "t-str", "monomial-2.9"],
)
def test_non_integer_exponents_are_refused(build):
    # they used to be truncated: t^2.5 was t^2, and <t, t^2.9> was <t, t^2>
    with pytest.raises(BadParameter, match="exponents must be integers"):
        build()


def test_integer_exponents_are_kept():
    assert LogPoly({(-3, 2): 5, (2, 0): 1}).items() == (((-3, 2), 5), ((2, 0), 1))
    assert all(type(m) is int and type(j) is int for (m, j), _ in LogPoly.term(1, True, 0).items())
    assert make_monomial_curve([1, -2]).components == (T, LogPoly.term(1, -2, 0))


def test_negative_t_power_allowed():
    p = LogPoly.term(1, -3, 2)
    assert p.coefficient(-3, 2) == 1


def test_equality_is_structural():
    assert LogPoly({(1, 0): 1, (0, 1): 2}) == LogPoly({(0, 1): 2, (1, 0): 1})
    assert LogPoly.zero() != LogPoly.constant(1)
    assert hash(LogPoly.constant(3)) == hash(LogPoly.constant(3))


# -- arithmetic ---------------------------------------------------------------


def test_add_additive_inverse():
    assert T + -T == LogPoly.zero()


def test_add_disjoint_terms():
    p = LogPoly.term(1, 1, 1) + T
    assert p == LogPoly({(1, 1): 1, (1, 0): 1})


def test_add_merges_coefficients():
    half_t = LogPoly.term(Fraction(1, 2), 1, 0)
    assert half_t + half_t == T


def test_mul_exponent_addition():
    assert T * LOG_T == LogPoly.term(1, 1, 1)


def test_mul_inverse_powers():
    assert LogPoly.term(1, -1, 0) * T == LogPoly.constant(1)


def test_binomial_square():
    p = LOG_T + LogPoly.constant(1)
    assert p * p == LogPoly({(0, 2): 1, (0, 1): 2, (0, 0): 1})


def test_scalar_operations():
    assert 2 * T == LogPoly.term(2, 1, 0)
    assert T * Fraction(1, 3) == LogPoly.term(Fraction(1, 3), 1, 0)
    assert T / 2 == LogPoly.term(Fraction(1, 2), 1, 0)
    assert (LOG_T + LogPoly.constant(1)) ** 0 == LogPoly.constant(1)


def test_ring_axioms_random():
    rng = random.Random(20260808)
    for _ in range(60):
        p, q, r = (random_logpoly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + LogPoly.zero() == p
        assert p * LogPoly.constant(1) == p
        assert p - p == LogPoly.zero()


def is_canonical_coefficient(c):
    # one representation per value: int when integral, else a proper Fraction
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_canonical(p):
    keys = [key for key, _ in p.items()]
    assert keys == sorted(set(keys))
    assert all(is_canonical_coefficient(c) and c != 0 for _, c in p.items())


def test_ring_ops_match_validating_constructor():
    # the ring operations skip re-validation; their results must be the
    # canonical form the validating constructor builds from the same terms
    rng = random.Random(41)
    pairs = [(T + LOG_T, T - LOG_T), (LOG_T + LogPoly.constant(1), LogPoly.constant(1) - LOG_T)]
    for _ in range(200):
        a = random_logpoly(rng)
        # negated copies of some of a's terms cancel exactly in a + b
        cancel = [(key, -c) for key, c in a.items() if rng.random() < 0.5]
        pairs.append((a, LogPoly(list(random_logpoly(rng).items()) + cancel)))
    for a, b in pairs:
        expected = {
            "add": LogPoly(list(a.items()) + list(b.items())),
            "sub": LogPoly(list(a.items()) + [(key, -c) for key, c in b.items()]),
            "mul": LogPoly(
                [((m1 + m2, j1 + j2), c1 * c2)
                 for (m1, j1), c1 in a.items() for (m2, j2), c2 in b.items()]
            ),
            "neg": LogPoly([(key, -c) for key, c in a.items()]),
        }
        got = {"add": a + b, "sub": a - b, "mul": a * b, "neg": -a}
        for op, value in got.items():
            assert value == expected[op], op
            assert hash(value) == hash(expected[op]), op
            assert_canonical(value)
        assert a - a == LogPoly.zero()
        assert hash(a - a) == hash(LogPoly.zero())


def test_integral_coefficients_are_ints():
    half_t = LogPoly.term(Fraction(1, 2), 1, 0)
    half_square = LogPoly({(1, 2): Fraction(1, 2), (0, 0): Fraction(3, 2)})
    cases = {
        "fraction sum": (half_t + half_t, LogPoly({(1, 0): 1})),
        "divide then multiply": ((LOG_T / 3) * 3, LogPoly({(0, 1): 1})),
        "reducible fraction": (LogPoly.term(Fraction(6, 3)), LogPoly({(0, 0): 2})),
        "diff of halves": (half_square.diff(), LogPoly({(0, 2): Fraction(1, 2), (0, 1): 1})),
        "fraction product": (half_t * LogPoly.term(Fraction(2)), T),
        "fraction difference": (
            LogPoly.term(Fraction(5, 2)) - LogPoly.term(Fraction(1, 2)),
            LogPoly.constant(2),
        ),
    }
    for name, (value, expected) in cases.items():
        assert value == expected, name
        assert hash(value) == hash(expected), name
        assert_canonical(value)


def test_non_integral_coefficients_stay_fractions():
    third = LOG_T / 3
    assert third == LogPoly({(0, 1): Fraction(1, 3)})
    assert hash(third) == hash(LogPoly({(0, 1): Fraction(1, 3)}))
    assert_canonical(third)
    (_, c), = third.items()
    assert type(c) is Fraction and c.denominator == 3


def test_coefficient_and_value_at_one_follow_the_rule():
    p = LogPoly({(2, 0): Fraction(1, 2), (-1, 0): Fraction(1, 2), (0, 1): Fraction(4, 2)})
    assert type(p.coefficient(2, 0)) is Fraction and p.coefficient(2, 0) == Fraction(1, 2)
    assert type(p.coefficient(0, 1)) is int and p.coefficient(0, 1) == 2
    assert type(p.coefficient(5, 5)) is int and p.coefficient(5, 5) == 0
    assert type(p.value_at_one()) is int and p.value_at_one() == 1
    q = p + LogPoly.constant(Fraction(1, 3))
    assert type(q.value_at_one()) is Fraction and q.value_at_one() == Fraction(4, 3)
    assert type(LogPoly.zero().value_at_one()) is int


# -- exact division -------------------------------------------------------------


def test_exact_div_undoes_multiplication():
    rng = random.Random(1968)
    for _ in range(200):
        a = random_logpoly(rng)
        b = random_logpoly(rng)
        if b.is_zero():
            continue
        q = (a * b).exact_div(b)
        assert q == a
        assert_canonical(q)
    assert LogPoly.zero().exact_div(T + LOG_T) == LogPoly.zero()
    assert (LOG_T * LOG_T).exact_div(LOG_T) == LOG_T
    assert LogPoly.constant(3).exact_div(LogPoly.constant(6)) == LogPoly.constant(Fraction(1, 2))


@pytest.mark.parametrize(
    "num, den",
    [
        (LOG_T + LogPoly.constant(1), LOG_T),  # remainder 1 would need (log t)^-1
        (T, T + LOG_T),  # the quotient would be an infinite series in log t / t
        (T + LOG_T, T + LogPoly.constant(1)),  # a quotient term below the trailing bound
        (T, LogPoly.zero()),
    ],
)
def test_exact_div_refuses_what_is_not_exact(num, den):
    with pytest.raises(DomainError):
        num.exact_div(den)


# -- differentiation ----------------------------------------------------------


def test_diff_product_rule_single_term():
    # d/dt (t log t) = log t + 1
    assert LogPoly.term(1, 1, 1).diff() == LogPoly({(0, 1): 1, (0, 0): 1})


def test_diff_t_log_squared():
    # hand differentiation: d/dt (t (log t)^2) = (log t)^2 + 2 log t
    assert LogPoly.term(1, 1, 2).diff() == LogPoly({(0, 2): 1, (0, 1): 2})


def test_diff_constant():
    assert LogPoly.constant(1).diff() == LogPoly.zero()


def test_leibniz_rule_random():
    rng = random.Random(11)
    for _ in range(40):
        p, q = random_logpoly(rng), random_logpoly(rng)
        assert (p * q).diff() == p.diff() * q + p * q.diff()


def test_diff_then_eval_matches_finite_differences():
    # central differences at decreasing h must show the O(h^2) error decay;
    # sample points are exact rationals so only the scheme error remains
    p = LogPoly.term(1, 1, 2) + LogPoly.term(1, -1, 0)
    t0 = Fraction(2)
    bits = 250
    exact = lp_eval(p.diff(), t0, bits)
    errors = []
    for h in (Fraction(1, 10**4), Fraction(1, 10**5)):
        with mp.workprec(bits):
            spacing = mp.mpf(2) * mp.mpf(h.numerator) / h.denominator
            fd = (lp_eval(p, t0 + h, bits) - lp_eval(p, t0 - h, bits)) / spacing
            errors.append(abs(fd - exact))
    ratio = errors[0] / errors[1]
    assert 80 < ratio < 120  # h -> h/10 shrinks an O(h^2) error ~100x
    assert errors[0] < 1e-7


# -- evaluation ---------------------------------------------------------------


def test_eval_quadratic_log_sum_at_one():
    # (log^2 t + 2 log t + 2)/t at t = 1 evaluates to exactly 2
    p = LogPoly({(-1, 2): 1, (-1, 1): 2, (-1, 0): 2})
    assert lp_eval(p, 1) == 2


def test_eval_t_log_t_at_e():
    value = lp_eval(LogPoly.term(1, 1, 1), mp.e)
    assert abs(value - mp.e) < 1e-15


def test_eval_inverse_power():
    assert lp_eval(LogPoly.term(1, -1, 0), 4) == 0.25


def test_eval_rejects_nonpositive_argument():
    with pytest.raises(NonPositiveArgument):
        lp_eval(T, 0)
    with pytest.raises(NonPositiveArgument):
        lp_eval(T, -2.5)


def test_eval_rejects_low_precision():
    with pytest.raises(BadParameter):
        lp_eval(T, 1.0, 32)


def test_eval_homomorphism_within_ulps():
    # positive coefficients and t > 1 keep the sums cancellation-free
    rng = random.Random(5150)
    bits = 113
    for t in (1.5, 2.718281828459045, 3.25):
        for _ in range(20):
            p = random_logpoly(rng, positive=True)
            q = random_logpoly(rng, positive=True)
            with mp.workprec(bits):
                eps = mp.ldexp(1, 1 - bits)
                lhs = lp_eval(p + q, t, bits)
                rhs = lp_eval(p, t, bits) + lp_eval(q, t, bits)
                assert abs(lhs - rhs) <= 4 * eps * max(abs(lhs), abs(rhs), mp.mpf(1))
                lhs = lp_eval(p * q, t, bits)
                rhs = lp_eval(p, t, bits) * lp_eval(q, t, bits)
                assert abs(lhs - rhs) <= 4 * eps * max(abs(lhs), abs(rhs), mp.mpf(1))


def _exact(raw):
    # the rational value of a raw libmp float
    sign, man, exp, _ = raw
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


def _round_to_bits(q, bits):
    # q rounded to the nearest rational with ``bits`` significant bits, ties to even
    if not q:
        return Fraction(0)
    e = q.numerator.bit_length() - q.denominator.bit_length() - bits
    scaled = abs(q) / Fraction(2) ** e
    while scaled >= 2 ** bits:
        scaled, e = scaled / 2, e + 1
    while scaled < 2 ** (bits - 1):
        scaled, e = scaled * 2, e - 1
    whole = scaled.numerator // scaled.denominator
    rest = scaled - whole
    if rest > Fraction(1, 2) or (rest == Fraction(1, 2) and whole % 2):
        whole += 1
    return (whole if q > 0 else -whole) * Fraction(2) ** e


def _fraction_reference(p, t, bits):
    # lp_rows' rounding contract in exact rationals: log t and t^m come
    # from libmp, each t-power group's value is exact and rounded once, and
    # the rounded groups are added in ascending t-power, each sum rounded
    t_raw = as_mpf_at(t, bits)._mpf_
    log_t = _exact(mpf_log(t_raw, bits, round_nearest))
    groups = {}
    for (m, j), c in p.items():
        groups[m] = groups.get(m, 0) + c * log_t ** j
    total = None
    for m in sorted(groups):
        power = _exact(mpf_pow_int(t_raw, m, bits, round_nearest)) if m else 1
        piece = _round_to_bits(power * groups[m], bits)
        total = piece if total is None else _round_to_bits(total + piece, bits)
    return Fraction(0) if total is None else total


def _assert_matches_reference(polys, t, bits):
    values = _eval_many(polys, t, bits)
    assert [_exact(v._mpf_) for v in values] == [_fraction_reference(p, t, bits) for p in polys]


with mp.workprec(53):
    E_SQUARED_53 = mp.e ** 2  # its 53-bit log rounds to exactly 2: a positive exponent


def _evaluation_cases(bits):
    # ``shared`` has a negative t-power and non-integer coefficients, and its
    # exponent pairs recur in the ``p + shared`` polynomials of each draw
    rng = random.Random(bits)
    shared = LogPoly({(-3, 2): Fraction(7, 3), (2, 1): Fraction(-5, 4), (0, 3): 1})
    points = (1, "0.3", "1e-300", "1e300", MPF_400_BITS, E_SQUARED_53)
    for draw in range(15):
        polys = [random_logpoly(rng) for _ in range(5)] + [shared, LogPoly.zero()]
        polys += [p + shared for p in polys[:2]]
        for t in (rng.uniform(0.05, 40.0), Fraction(22, 7), points[draw % len(points)]):
            yield polys, t
    yield [LogPoly.term(Fraction(2, 3), -2, 0), LogPoly.term(-5, 3, 1)], 1.9
    for t in (MPF_400_BITS, "0.3"):
        yield [FRACTIONAL], t


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_eval_many_is_bit_identical_to_single_evaluation(bits):
    for polys, t in _evaluation_cases(bits):
        assert _eval_many(polys, t, bits) == [lp_eval(p, t, bits) for p in polys]


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_eval_many_is_pinned_to_the_fraction_reference(bits):
    for polys, t in _evaluation_cases(bits):
        _assert_matches_reference(polys, t, bits)


def test_eval_many_reference_cases_are_reached():
    # the points above take the kernel's edge paths: t = 1 has log 0, and
    # the 53-bit log of E_SQUARED_53 has a positive exponent
    assert mpf_log(E_SQUARED_53._mpf_, 53, round_nearest)[2] > 0
    assert _eval_many([LogPoly({(0, 0): 3, (0, 2): 5, (4, 1): 1})], 1, 53) == [3]


def _libmp_eval(p, t, bits):
    # lp_rows' contract written on libmp's own calls: each t-power
    # group exact, then from_man_exp, or mpf_div by the common denominator,
    # at ``bits``; the groups added in ascending t-power with mpf_add
    t_raw = as_mpf_at(t, bits)._mpf_
    log_t = _exact(mpf_log(t_raw, bits, round_nearest))
    denom = lcm(*(Fraction(c).denominator for _, c in p.items()))
    total = None
    for m in sorted({m for (m, _), _ in p.items()}):
        exact = sum(c * denom * log_t ** j for (mj, j), c in p.items() if mj == m)
        if m:
            exact *= _exact(mpf_pow_int(t_raw, m, bits, round_nearest))
        man, exp = exact.numerator, 1 - exact.denominator.bit_length()
        if denom == 1:
            piece = from_man_exp(man, exp, bits, round_nearest)
        else:
            piece = mpf_div(from_man_exp(man, exp), from_int(denom), bits, round_nearest)
        total = piece if total is None else mpf_add(total, piece, bits, round_nearest)
    return fzero if total is None else total


def _field_offset_and_scaled(curve):
    # the normal field, the components, the plane offset, and the field over
    # 4 and times 5/12: a denominator that is a power of two (mpf_div's
    # one-bit divisor) and one that is not
    field = normal_field(curve)
    offset = LogPoly.zero()
    for component, coefficient in zip(curve.components, field):
        offset = offset + component * coefficient
    scaled = tuple(q / 4 for q in field) + tuple(q * Fraction(5, 12) for q in field)
    return field + curve.components + (offset,) + scaled


@pytest.mark.parametrize("bits", [53, 113, 256, 1500])
def test_eval_many_matches_the_libmp_calls(bits):
    points = (2.5, "0.3", 1, "17.125", "1e300", MPF_400_BITS, E_SQUARED_53)
    for n in range(2, 11):
        curves = [make_log_curve(n), make_monomial_curve([-2] + list(range(1, n)))]
        if n >= 3:
            curves.append(make_conjecture_curve(n))
        for curve in curves:
            polys = _field_offset_and_scaled(curve)
            for t in points:
                values = [v._mpf_ for v in _eval_many(polys, t, bits)]
                assert values == [_libmp_eval(p, t, bits) for p in polys], (n, curve, t)


def test_n16_log_curve_is_pinned_to_the_fraction_reference_at_286_bits():
    _assert_matches_reference(_field_and_components(make_log_curve(16)), "3.7", 286)


def test_eval_many_empty_and_zero():
    assert _eval_many((), 2.5, 113) == []
    assert _eval_many((LogPoly.zero(),), 2.5, 113) == [0]


@pytest.mark.parametrize("polys", [(), (T, LOG_T)])
def test_eval_many_rejects_what_eval_rejects(polys):
    for t in (0, -2.5):
        with pytest.raises(NonPositiveArgument):
            _eval_many(polys, t)
    with pytest.raises(BadParameter):
        _eval_many(polys, 1.0, 32)


@pytest.mark.parametrize("t", [mp.inf, -mp.inf, mp.nan])
def test_eval_rejects_non_finite_mpf(t):
    with pytest.raises(BadParameter):
        lp_eval(LogPoly.term(1, 1, 1), t)


# -- pinned bits ---------------------------------------------------------------


def _field_and_components(curve):
    return normal_field(curve) + curve.components


# the integer 3^45 + 2 needs 72 bits and the numerators 2^70 + 1 and
# 7^109 + 1 need 71 and 307, so a coefficient is rounded at every precision;
# 7^109 + 1 rounded and then divided by 11^88 differs from the correctly
# rounded quotient at 53, 113 and 256 bits.  The t-powers run from -40 to 2
FRACTIONAL = LogPoly({
    (-40, 1): 3 ** 45 + 2,
    (-3, 2): Fraction(7, 3),
    (-1, 0): Fraction(-5, 4),
    (0, 3): Fraction(2 ** 70 + 1, 2 ** 68),
    (2, 1): Fraction(7 ** 109 + 1, 11 ** 88),
})
with mp.workprec(400):
    MPF_400_BITS = mp.sqrt(2) + 1
FRACTIONAL_POINTS = (3, 0.7, "1.2375", Fraction(22, 7), MPF_400_BITS)

_PINNED_EVALUATIONS = {
    ('log7', 53): [
        "mpf('66.792090439512052')",
        "mpf('-66.770128364712264')",
        "mpf('33.313158812032647')",
        "mpf('-10.973595595072497')",
        "mpf('2.6006596228425272')",
        "mpf('-0.4266642482337405')",
        "mpf('0.037108517437440001')",
        "mpf('2.5')",
        "mpf('2.2907268296853878')",
        "mpf('2.0989717632961868')",
        "mpf('1.9232683731738491')",
        "mpf('1.7622729852458818')",
        "mpf('1.6147544034130012')",
        "mpf('1.4795844941003136')",
    ],
    ('conj5', 53): [
        "mpf('-460.80000000000001')",
        "mpf('138.24000000000001')",
        "mpf('-24.576000000000001')",
        "mpf('1.8432000000000002')",
        "mpf('288.0')",
        "mpf('2.5')",
        "mpf('6.25')",
        "mpf('15.625')",
        "mpf('39.0625')",
        "mpf('0.91629073187415511')",
    ],
    ('frac', 53): [
        "mpf('301.34548003315729')",
        "mpf('-1.6550360707659768e+27')",
        "mpf('1.2508861410615253e+17')",
        "mpf('82.614211212133839')",
        "mpf('1272316.3106790537')",
    ],
    ('log7', 113): [
        "mpf('66.7920904395120468254019856206016572')",
        "mpf('-66.7701283647122519007472409193515739')",
        "mpf('33.3131588120326447121004967530967438')",
        "mpf('-10.9735955950724957631469724741438058')",
        "mpf('2.60065962284252668276005483010679388')",
        "mpf('-0.426664248233740457088176516230427869')",
        "mpf('0.0371085174374400000000000000000000001')",
        "mpf('2.5')",
        "mpf('2.29072682968538766295881802942002776')",
        "mpf('2.09897176329618682283220168511155492')",
        "mpf('1.92326837317384879196804681405286006')",
        "mpf('1.76227298524588148979307067294391053')",
        "mpf('1.61475440341300082131064438769506218')",
        "mpf('1.47958449410031315823321005222852181')",
    ],
    ('conj5', 113): [
        "mpf('-460.80000000000000000000000000000001')",
        "mpf('138.240000000000000000000000000000008')",
        "mpf('-24.5759999999999999999999999999999986')",
        "mpf('1.84320000000000000000000000000000001')",
        "mpf('288.0')",
        "mpf('2.5')",
        "mpf('6.25')",
        "mpf('15.625')",
        "mpf('39.0625')",
        "mpf('0.916290731874155065183527211768011027')",
    ],
    ('frac', 113): [
        "mpf('301.345480033157307725012755206992289')",
        "mpf('-1655036070765976661410923553.80574203')",
        "mpf('125088614106152689.8670512378170947')",
        "mpf('82.6142112121337998652440491000481512')",
        "mpf('1272316.3106790538396444236646646297')",
    ],
    ('log7', 256): [
        "mpf('66.79209043951204682540198562060166386241933845291988394396124509283670581945004')",
        "mpf('-66.7701283647122519007472409193515724988933635580950550597355054684306460109103')",
        "mpf('33.31315881203264471210049675309674812849461170846791304103472355093112872364585')",
        "mpf('-10.97359559507249576314697247414380658668887180535886305647468463406134822769451')",
        "mpf('2.600659622842526682760054830106794040740968281843795851175744733968809078999521')",
        "mpf('-0.4266642482337404570881765162304278945013583531949126431791431591371383862690795')",
        "mpf('0.03710851743744000000000000000000000000000000000000000000000000000000000000000021')",
        "mpf('2.5')",
        "mpf('2.290726829685387662958818029420027678625253049770656169479919704951963414344922')",
        "mpf('2.098971763296186822832201685111555106621410393137933182268659917854354841041254')",
        "mpf('1.923268373173848791968046814052860280736673835349155934642401371719918985630084')",
        "mpf('1.762272985245881489793070672943910950831448633032458700376687313186599233093206')",
        "mpf('1.614754403413000821310644387695062560437636433845426709080852241634103304651018')",
        "mpf('1.479584494100313158233210052228522189881435852592463105068359383212387408472949')",
    ],
    ('conj5', 256): [
        "mpf('-460.8000000000000000000000000000000000000000000000000000000000000000000000000027')",
        "mpf('138.239999999999999999999999999999999999999999999999999999999999999999999999999')",
        "mpf('-24.57599999999999999999999999999999999999999999999999999999999999999999999999977')",
        "mpf('1.843200000000000000000000000000000000000000000000000000000000000000000000000017')",
        "mpf('288.0')",
        "mpf('2.5')",
        "mpf('6.25')",
        "mpf('15.625')",
        "mpf('39.0625')",
        "mpf('0.9162907318741550651835272117680110714501012199082624677919678819807853657379671')",
    ],
    ('frac', 256): [
        "mpf('301.3454800331573077250127552069923221646600946818199370261141424437451285180536')",
        "mpf('-1655036070765976661410923553.805741813243247052005016717201150416133571974619478')",
        "mpf('125088614106152689.8670512378170948351160376558064124595682981487669525576477857')",
        "mpf('82.61421121213379986524404910004812097103155290443159170812428474808521988693807')",
        "mpf('1272316.310679053839644423664664629771648718015980765740095432701136574617033503')",
    ],
}


def _pinned_evaluation(name, bits):
    if name == "log7":
        return _eval_many(_field_and_components(make_log_curve(7)), "2.5", bits)
    if name == "conj5":
        return _eval_many(_field_and_components(make_conjecture_curve(5)), "2.5", bits)
    return [_eval_many([FRACTIONAL], t, bits)[0] for t in FRACTIONAL_POINTS]


@pytest.mark.parametrize("name, bits", sorted(_PINNED_EVALUATIONS))
def test_eval_many_bits_are_pinned(name, bits):
    values = _pinned_evaluation(name, bits)
    with mp.workprec(bits):
        assert [repr(v) for v in values] == _PINNED_EVALUATIONS[name, bits]


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_eval_many_ignores_the_ambient_precision(bits):
    polys = _field_and_components(make_log_curve(5)) + (FRACTIONAL,)
    results = []
    for ambient in (mp.prec, 20, 400, 500):
        with mp.workprec(ambient):
            results.append([v._mpf_ for v in _eval_many(polys, "2.5", bits)]
                           + [lp_eval(FRACTIONAL, t, bits)._mpf_ for t in ("0.1", "7/3")])
            assert mp.prec == ambient
            with pytest.raises(NonPositiveArgument):
                _eval_many(polys, "-2.5", bits)
            assert mp.prec == ambient
    assert all(result == results[0] for result in results)


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_cold_coefficient_cache_gives_the_warm_bits(bits):
    polys = _field_and_components(make_log_curve(7)) + (FRACTIONAL,)
    _grouped_terms.cache_clear()
    cold = [v._mpf_ for v in _eval_many(polys, "2.5", bits)]
    warm = [v._mpf_ for v in _eval_many(polys, "2.5", bits)]
    assert cold == warm
    assert _grouped_terms.cache_info().hits >= 1


def test_fraction_bits_are_pinned_at_each_precision_through_the_cache():
    # one exact entry serves every precision: the 53-bit and the 113-bit
    # evaluations read the same integers and each keeps its own bits
    _grouped_terms.cache_clear()
    for bits in (53, 113, 53, 113):
        values = [_eval_many([FRACTIONAL], t, bits)[0] for t in FRACTIONAL_POINTS]
        with mp.workprec(bits):
            assert [repr(v) for v in values] == _PINNED_EVALUATIONS["frac", bits]
    assert _grouped_terms.cache_info().currsize == 1


def test_coefficient_cache_stays_within_its_bound():
    _grouped_terms.cache_clear()
    polys = [LogPoly.term(Fraction(i, 3), i % 5, i % 3) for i in range(CACHE_MAXSIZE + 20)]
    first = _eval_many([polys[0]], "1.5", 113)
    for p in polys:
        _eval_many([p], "1.5", 113)
        assert _grouped_terms.cache_info().currsize <= CACHE_MAXSIZE
    assert _grouped_terms.cache_info().currsize == CACHE_MAXSIZE
    assert _eval_many([polys[0]], "1.5", 113) == first  # evicted, then rebuilt


def _family_sets():
    """Polynomial sets whose groups share series: the log curve's planes
    (n = 2-16), the conjecture curve's, and a seeded set of rational
    multiples of prefixes of one random series, spread over two t-powers and
    mixed with polynomials that fit no other group's series."""
    sets = [(f"log{n}", _plane_polynomials(make_log_curve(n))) for n in range(2, 17)]
    sets += [(f"conj{n}", _plane_polynomials(make_conjecture_curve(n))) for n in (3, 5, 9)]
    rng = random.Random(36)
    series = [Fraction(rng.randint(-9**9, 9**9), rng.randint(1, 10**4)) for _ in range(9)]
    seeded = []
    for length in (9, 7, 7, 4, 2, 1):
        for m in (-3, 2):
            scale = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
            seeded.append(LogPoly({(m, j): scale * series[j] for j in range(length)}))
    seeded.append(seeded[0] + seeded[3])  # two t-powers, each a prefix multiple
    seeded.append(LogPoly({(2, 0): 1, (2, 1): 3, (2, 2): 1}))  # a series of its own
    seeded.append(seeded[6] + LogPoly.term(1, -3, 0))  # a prefix but for its constant
    seeded.append(LogPoly.zero())
    sets.append(("seeded", tuple(seeded)))
    return sets


with mp.workprec(400):
    _FAMILY_POINT_400_BITS = mp.sqrt(3) * 7
_FAMILY_RNG = random.Random(7)
_FAMILY_POINTS = (1, 0.3, "1e300", "1e-300", _FAMILY_POINT_400_BITS) + tuple(
    f"{_FAMILY_RNG.uniform(0.01, 100):.15g}" for _ in range(4)
)


def _libmp_reference(p, t, bits):
    # an exact oracle: each t-power group by Horner in Fraction at the
    # rounded log t and t^m, rounded once by libmp's from_rational, and the
    # groups added in ascending t-power, each sum rounded once by mpf_add
    t_raw = as_mpf_at(t, bits)._mpf_
    log_t = _exact(mpf_log(t_raw, bits, round_nearest))
    groups = {}
    for (m, j), c in p.items():
        groups.setdefault(m, {})[j] = c
    total = fzero
    for m, coefficients in sorted(groups.items()):
        value = Fraction(0)
        for j in range(max(coefficients), -1, -1):
            value = value * log_t + coefficients.get(j, 0)
        if m:
            value *= _exact(mpf_pow_int(t_raw, m, bits, round_nearest))
        piece = from_rational(value.numerator, value.denominator, bits, round_nearest)
        total = mpf_add(total, piece, bits, round_nearest)
    return total


@pytest.mark.parametrize("bits", [83, 143, 286, 1530])
def test_family_rows_equal_horner_pinned(bits):
    # every row lp_rows builds from shared prefix sums has the bits of the
    # exact Horner oracle, group by group
    for name, polys in _family_sets():
        groups, series = _grouped_terms(tuple(polys))
        assert len(series) < sum(map(len, groups)), name  # some series is shared
        rows = lp_rows(polys, _FAMILY_POINTS, bits)
        for row, t in zip(rows, _FAMILY_POINTS):
            expected = [_libmp_reference(p, t, bits) for p in polys]
            assert [_raw_value(v) for v in row] == expected, (name, t, bits)


def _series_positions(groups):
    return [(f, top) for *_, f, top in sum(groups, ())]


def test_families_are_read_from_the_coefficients_given():
    # the log curve: one series of length n holds every normal, the
    # constant normal at J = 0, and the offset is a series of its own
    for n in (3, 7, 16):
        groups, series = _grouped_terms(_plane_polynomials(make_log_curve(n)))
        assert [len(s) for s in series] == [n, 1]
        assert _series_positions(groups) == [(0, n - k) for k in range(1, n + 1)] + [(1, 0)]
    # the same normals with one coefficient moved: that normal has its own series
    polys = list(_plane_polynomials(make_log_curve(5)))
    polys[1] = polys[1] + LogPoly.term(1, -6, 1)
    groups, series = _grouped_terms(tuple(polys))
    assert [len(s) for s in series] == [5, 4, 1]
    assert _series_positions(groups) == [(0, 4), (1, 3), (0, 2), (0, 1), (0, 0), (2, 0)]


def test_value_at_one_exact():
    p = LogPoly({(-1, 2): 1, (-1, 1): 2, (-1, 0): Fraction(3, 7)})
    assert p.value_at_one() == Fraction(3, 7)


# -- substitution --------------------------------------------------------------


def test_substitute_power():
    # t -> t^2 on t (log t)^3: log(t^2) = 2 log t
    p = LogPoly.term(1, 1, 3)
    assert substitute_power(p, 2) == LogPoly.term(8, 2, 3)
    assert substitute_power(p, 1) == p
    with pytest.raises(BadParameter):
        substitute_power(p, 0)


def test_substitute_power_eval_consistency():
    rng = random.Random(99)
    for _ in range(10):
        p = random_logpoly(rng)
        q = substitute_power(p, 3)
        with mp.workprec(113):
            cubed = mp.mpf(1.7) ** 3
        direct = lp_eval(p, cubed, 113)
        composed = lp_eval(q, 1.7, 113)
        assert abs(direct - composed) <= 1e-30 * max(1, abs(direct))


# -- text rendering -------------------------------------------------------------


def test_to_text_goldens():
    assert to_text(LogPoly.zero()) == "0"
    assert to_text(LogPoly.term(48, 3, 0)) == "48*t^3*L^0"
    p = LogPoly({(-1, 0): 2, (-1, 1): 2, (-1, 2): 1})
    assert to_text(p) == "2*t^-1*L^0 + 2*t^-1*L^1 + 1*t^-1*L^2"
    q = LogPoly({(0, 0): Fraction(-1, 2), (2, 1): 3})
    assert to_text(q) == "-1/2*t^0*L^0 + 3*t^2*L^1"

