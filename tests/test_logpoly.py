"""Exact ring behaviour, differentiation, evaluation, and text rendering."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from oscmean.errors import BadParameter, DomainError, NonPositiveArgument
from oscmean.logpoly import (
    LogPoly,
    lp_eval,
    lp_eval_many,
    substitute_power,
    to_text,
)

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


def _term_by_term(p, t, bits):
    # reference evaluation: every term computes its own t^m and (log t)^j
    with mp.workprec(bits):
        tv = mp.mpf(t) if not isinstance(t, Fraction) else mp.mpf(t.numerator) / t.denominator
        log_t = mp.log(tv)
        total = mp.mpf(0)
        for (m, j), c in p.items():
            piece = mp.mpf(c.numerator)
            if c.denominator != 1:
                piece = piece / c.denominator
            if m:
                piece = piece * tv ** m
            if j:
                piece = piece * log_t ** j
            total = total + piece
        return +total


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_eval_many_is_bit_identical_to_single_evaluation(bits):
    # ``shared`` has a negative t-power and non-integer coefficients, and its
    # exponent pairs recur in the ``p + shared`` polynomials of each draw
    rng = random.Random(bits)
    shared = LogPoly({(-3, 2): Fraction(7, 3), (2, 1): Fraction(-5, 4), (0, 3): 1})
    for _ in range(15):
        polys = [random_logpoly(rng) for _ in range(5)] + [shared, LogPoly.zero()]
        polys += [p + shared for p in polys[:2]]
        for t in (rng.uniform(0.05, 40.0), "0.3", Fraction(22, 7)):
            values = lp_eval_many(polys, t, bits)
            assert values == [lp_eval(p, t, bits) for p in polys]
            assert values == [_term_by_term(p, t, bits) for p in polys]
    unshared = [LogPoly.term(Fraction(2, 3), -2, 0), LogPoly.term(-5, 3, 1)]
    assert lp_eval_many(unshared, 1.9, bits) == [_term_by_term(p, 1.9, bits) for p in unshared]


def test_eval_many_empty_and_zero():
    assert lp_eval_many((), 2.5, 113) == []
    assert lp_eval_many((LogPoly.zero(),), 2.5, 113) == [0]


@pytest.mark.parametrize("polys", [(), (T, LOG_T)])
def test_eval_many_rejects_what_eval_rejects(polys):
    for t in (0, -2.5):
        with pytest.raises(NonPositiveArgument):
            lp_eval_many(polys, t)
    with pytest.raises(BadParameter):
        lp_eval_many(polys, 1.0, 32)


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

