"""Linear solver and bracketed root finder at configurable precision."""

import contextlib
import inspect
import math
import random
import sys
from fractions import Fraction

import pytest
from mpmath import mp

from mpmath.libmp import (
    from_man_exp,
    from_rational,
    from_str,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_sub,
    round_nearest,
)

from oscmean import logpoly, numerics
from oscmean.errors import BadDimension, BadParameter, NoBracket, SingularSystem
from oscmean.identities import draw_tuple
from oscmean.logpoly import lp_eval
from oscmean.means import evaluate_request, hyperplane_at
from oscmean.numerics import det, find_root_bracketed, solve_linear
from oscmean.precision import as_mpf_at
from oscmean.wronskian import make_log_curve, normal_field


# -- solve_linear ---------------------------------------------------------------


def test_identity_system():
    report = solve_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3])
    assert report.solution == (1, 2, 3)
    # 2^-53 (|I| (|I| |x| + |b|))_1 / |x_1| = 2^-53 * 2
    assert report.error_bound == 2.0 ** -52


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


@pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan])
def test_non_finite_entries_are_refused(bad):
    with pytest.raises(BadParameter):
        solve_linear([[1, 0], [0, bad]], [1, 1])
    with pytest.raises(BadParameter):
        solve_linear([[1, 0], [0, 1]], [bad, 1])
    with pytest.raises(BadParameter):
        det([[bad, 0], [0, 1]])


def test_mpf_entries_are_read_as_given():
    # zero, and 400-bit entries that 53 bits would round
    with mp.workprec(400):
        third = mp.mpf(1) / 3
    report = solve_linear([[third, mp.mpf(0)], [mp.mpf(0), mp.mpf(1)]], [third, 2], 400)
    assert report.solution == (1, 2)


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_pair_entries_are_read_as_their_mpf_values(bits):
    # (m, e) is m * 2^e rounded at the width, as mpf((m, e)) reads it: odd
    # and even mantissas, zeros, and mantissas wider than the width
    rng = random.Random(bits)
    for n in (1, 2, 3, 5, 8):
        for _ in range(5):
            width = rng.choice([3, bits - 1, bits + 7, 2 * bits])
            rows = [
                [(rng.randrange(-(1 << width), 1 << width), rng.randint(-80, 40)) for _ in range(n)]
                for _ in range(n)
            ]
            for i in range(n):
                rows[i][i] = (rng.randrange(1 << width, 1 << (width + 1)), 0)
            if n > 1:
                rows[0][-1] = (0, 5)
            rhs = [
                (rng.randrange(-(1 << width), 1 << width), rng.randint(-20, 20)) for _ in range(n)
            ]
            with mp.workprec(bits):
                as_mpf = [[mp.mpf(v) for v in row] for row in rows], [mp.mpf(v) for v in rhs]
            from_pairs = solve_linear(rows, rhs, bits)
            from_mpf = solve_linear(*as_mpf, bits)
            assert [x._mpf_ for x in from_pairs.solution] == [x._mpf_ for x in from_mpf.solution]
            assert from_pairs.determinant._mpf_ == from_mpf.determinant._mpf_
            assert det(rows, bits)._mpf_ == det(as_mpf[0], bits)._mpf_


@pytest.mark.parametrize("bits", [53, 113])
def test_fractions_are_rounded_once(bits):
    # a Fraction is its exact value rounded once; rounding its numerator
    # first and then the quotient puts this one an ulp off at 53 bits
    example = Fraction(1897200288808408930379, 261)
    with mp.workprec(53):
        assert mp.mpf(example.numerator) / example.denominator != as_mpf_at(example, 53)
    rng = random.Random(bits)
    values = [example]
    for _ in range(500):
        # numerators of 54-120 bits, denominators of 2-70 bits
        num, den = (
            1 << (width - 1) | rng.getrandbits(width - 1)
            for width in (rng.randint(54, 120), rng.randint(2, 70))
        )
        values.append(Fraction(-num if rng.random() < 0.5 else num, den))
    for value in values:
        assert numerics._pair(as_mpf_at(value, bits)._mpf_) == _nearest(value, bits), value


def _decimal_near(value, digits, rng):
    """A literal of ``digits`` significant digits a few units in its last
    place from the positive Fraction ``value``."""
    exponent = len(str(value.numerator // value.denominator or 1)) - digits
    if value < 1:
        exponent = -len(str(value.denominator // value.numerator)) - digits
    mantissa = round(value / Fraction(10) ** exponent) + rng.randint(-3, 3)
    return f"{mantissa}e{exponent}"


def test_decimal_literals_are_rounded_once():
    # mpmath's from_str reads the first literal one ulp below its exact
    # value rounded once; then 1e401 and 5e-401, which are exact ties or
    # exact values at 1500 bits, where the enclosure of 10^e must become
    # exact; then forty-digit literals within a few units of 10^-40 of a
    # 53-bit midpoint, with exponents past 400 either way
    literals = ["1.412394506200404465474743162920074563491e+525", "1e401", "-5e-401"]
    rng = random.Random(525)
    for _ in range(100):
        power = Fraction(10) ** (rng.choice((1, -1)) * rng.randint(401, 600))
        m, e = _nearest(power * Fraction(rng.uniform(1, 10)), 53)
        literals.append(_decimal_near(_fraction((2 * m + 1, e - 1)), 40, rng))
    for bits in (53, 1500):
        for literal in literals:
            exact = Fraction(literal)
            assert as_mpf_at(literal, bits)._mpf_ == from_rational(
                exact.numerator, exact.denominator, bits, round_nearest
            ), (literal, bits)
    # mpmath's own reader misrounds some of the forty-digit literals
    assert any(
        mp.mpf(literal, prec=53, rounding=round_nearest)._mpf_ != as_mpf_at(literal, 53)._mpf_
        for literal in literals
    )


def _literal_spelling(rng):
    """A decimal literal as a user may spell it: a sign or none, leading
    zeros, a point at either end or inside or none, trailing zeros, an
    exponent in either case with or without a sign, and spaces around,
    with a decimal exponent within 400 either way."""
    digits = "0" * rng.randint(0, 3) + str(rng.randint(0, 10 ** rng.randint(1, 40)))
    point = rng.choice((None, 0, len(digits), rng.randint(0, len(digits))))
    body = digits
    if point is not None:
        body = digits[:point] + "." + digits[point:] + "0" * rng.randint(0, 3)
    e = rng.randint(-340, 340)
    suffix = rng.choice(("", f"e{e}", f"E{e}", f"e+{abs(e)}", f"E-{abs(e)}"))
    sign = rng.choice(("", "+", "-"))
    return rng.choice(("", " ", "\t")) + sign + body + suffix + rng.choice(("", " "))


def test_literals_read_once_round_as_mpmath_reads_them():
    # up to |e| = 400 a literal m * 10^e is read once and rounded from the
    # exact integer or quotient, as mpmath's from_str rounds it; the one
    # spelling mpmath cannot read, a zero with a bare point such as "+.0",
    # is read as zero
    rng = random.Random(400)
    literals = ["-0", "+.5", "5.", "-5.000", "1E5", " 1e-5 ", "007", "0.000", "1e400", "1e-400"]
    literals += ["+.0"]
    literals += [_literal_spelling(rng) for _ in range(400)]
    zeros = 0
    for bits in (53, 83, 113, 256, 1500, *(rng.randint(53, 1500) for _ in range(4))):
        for literal in literals:
            try:
                expected = mp.mpf(literal, prec=bits, rounding=round_nearest)._mpf_
            except ValueError:
                assert float(literal) == 0 and "." in literal, literal
                zeros += 1
                expected = fzero
            assert as_mpf_at(literal, bits)._mpf_ == expected, (literal, bits)
    # nearly every literal is compared with mpmath's reading
    assert zeros < len(literals)


@pytest.mark.parametrize("literal", [".0", "+.0", "-.0", ".0e1", ".00"])
def test_zero_literals_with_a_bare_point_read_as_zero(literal):
    # mpmath's reader fails on these, which Python's float reads as 0.0;
    # a nonzero literal with a bare point keeps its bits
    with pytest.raises(ValueError):
        mp.mpf(literal)
    for bits in (53, 1500):
        assert as_mpf_at(literal, bits)._mpf_ == fzero
        for nonzero in (".5", "-.5e-3"):
            assert as_mpf_at(nonzero, bits)._mpf_ == from_str(nonzero, bits, round_nearest)


@pytest.mark.parametrize("literal, plain", [
    ("1.5_0", "1.50"), ("1.5_1", "1.51"), ("1_000.000_1", "1000.0001"),
    ("-2_5e1_0", "-25e10"), (" 1_2.3_4E-5_0 ", "12.34E-50"), (".5_0", ".50"),
])
def test_underscores_between_digits_read_as_python_reads_them(literal, plain):
    # mpmath's reader refuses "1.5_0" and reads "1.5_1" as 0.151; Python's
    # float drops an underscore between two digits
    assert float(literal) == float(plain)
    for bits in (53, 113, 1500):
        assert as_mpf_at(literal, bits)._mpf_ == as_mpf_at(plain, bits)._mpf_
    assert as_mpf_at("1.5_0", 53) == as_mpf_at("1.5_0", 113) == 1.5


@pytest.mark.parametrize("literal", ["1__0", "1_", "_1", "1_.5", "1._5", "1.5e_1", "1_e5"])
def test_underscores_not_between_digits_are_refused(literal):
    with pytest.raises(ValueError):
        float(literal)
    for bits in (53, 113):
        with pytest.raises(BadParameter, match=rf"^could not parse '{literal}' as a real number$"):
            as_mpf_at(literal, bits)


@pytest.mark.parametrize("ambient", [20, 400])
def test_string_entries_ignore_the_ambient_precision(ambient):
    rows = [["0.1", "0.3", "1/3"], ["0.7", "2", "0.5"], ["1e-5", "0.9", "3"]]
    rhs = ["0.2", "0.9", "1.1"]

    def raw():
        report = solve_linear(rows, rhs, 113)
        return ([x._mpf_ for x in report.solution], report.error_bound,
                report.determinant._mpf_, det(rows, 113)._mpf_)

    default = raw()
    with mp.workprec(ambient):
        assert raw() == default


def _backward_error(A, b, x):
    """max_i |b - Ax|_i / (|A| |x| + |b|)_i, exactly, for pair entries: the
    componentwise relative perturbation of A and b that x solves exactly
    (Oettli & Prager 1964), which ``error_bound`` takes to be 2^-w."""
    worst = 0
    for row, bi in zip(A, b):
        terms = [_fraction(a) * _fraction(xj) for a, xj in zip(row, x)]
        scale = sum(map(abs, terms)) + abs(_fraction(bi))
        worst = max(worst, abs(_fraction(bi) - sum(terms)) / scale)
    return worst


def test_random_well_conditioned_residuals():
    rng = random.Random(7)
    for bits in (53, 113):
        for n in (2, 3, 5):
            for _ in range(10):
                # diagonal dominance keeps the error bound small
                a = [
                    [rng.uniform(-1, 1) + (n + 2 if i == j else 0) for j in range(n)]
                    for i in range(n)
                ]
                b = [rng.uniform(-5, 5) for _ in range(n)]
                report = solve_linear(a, b, bits)
                assert report.error_bound < 2.0 ** (-bits + 12)
                # the residual is within the rounding of the solution
                x = [numerics._pair(v._mpf_) for v in report.solution]
                pairs = [numerics._pairs(row, bits) for row in a]
                assert _backward_error(pairs, numerics._pairs(b, bits), x) <= 2.0 ** -bits


def test_precision_scaling_on_intersection_systems():
    # same plane matrix solved at 53 and 113 bits: the bound drops >= 2^40
    curve = make_log_curve(5)
    values = (1.5, 2.25, 5.0, 11.0, 31.0)
    field = normal_field(curve)
    matrix = [[float(lp_eval(p, a, 53)) for p in field] for a in values]
    rhs = [float(sum(lp_eval(c, a, 53) * lp_eval(p, a, 53)
                     for c, p in zip(curve.components, field))) for a in values]
    low = solve_linear(matrix, rhs, 53)
    high = solve_linear(matrix, rhs, 113)
    assert 0 < high.error_bound and low.error_bound / high.error_bound >= 2 ** 40


def _scaled(rows, row_exps, col_exps):
    """The pairs of ``rows`` times 2^(row_exps[i] + col_exps[j]), exactly."""
    return [
        [(m, e + r + c) if m else (m, e) for (m, e), c in zip(row, col_exps)]
        for row, r in zip(rows, row_exps)
    ]


def test_error_bound_is_invariant_under_power_of_two_scaling():
    # B is computed on the system with its rows and then its columns scaled
    # by powers of two to a largest entry in [1/2, 1), so an exact scaling
    # of the rows of A and b by powers of two leaves it bit for bit; a
    # scaling of the columns too may move a pivot, which moves the last bits
    for name in ("decimal3", "mixed5", "log7"):
        A, b = _SYSTEMS[name]()
        A, b = [numerics._pairs(row, 113) for row in A], numerics._pairs(b, 113)
        n = len(A)
        rng = random.Random(n)
        rows = [rng.randint(-900, 900) for _ in range(n)]
        cols = [rng.randint(-8, 8) for _ in range(n)]
        base = solve_linear(A, b, 113)
        by_rows = solve_linear(_scaled(A, rows, [0] * n), _scaled([b], [0], rows)[0], 113)
        scaled_b = [(m, e + r) if m else (m, e) for (m, e), r in zip(b, rows)]
        by_both = solve_linear(_scaled(A, rows, cols), scaled_b, 113)
        assert by_rows.error_bound == base.error_bound, name
        assert abs(by_both.error_bound - base.error_bound) <= 1e-12 * base.error_bound, name
    # a badly scaled row is not an ill-conditioned system: diag(1, eps)
    # reads 2 * 2^-53, as the identity does ...
    assert solve_linear([[1, 0], [0, 1e-6]], [1, 1]).error_bound == 2.0 ** -52
    # ... while [[1, 1], [1, 1 + eps]], which no scaling brings near the
    # identity, reads about 4 / eps times 2^-53
    near = solve_linear([[1, 1], [1, 1 + 1e-6]], [1, 1]).error_bound
    assert 3.9e6 * 2.0 ** -53 < near < 4.1e6 * 2.0 ** -53


def test_error_bound_reads_wide_mantissas():
    # entries of 1500 bits, read as given by a 256-bit solve, are cut to
    # their top 53 bits, not passed whole to a float conversion that
    # overflows past 1024 bits; the same system rounded to 256 bits reads
    # the same bound to about 2^-256
    A, b = _SYSTEMS["decimal3"]()
    wide_A = [[as_mpf_at(v, 1500) for v in row] for row in A]
    wide_b = [as_mpf_at(v, 1500) for v in b]
    wide = solve_linear(wide_A, wide_b, 256).error_bound
    narrow = solve_linear(A, b, 256).error_bound
    assert 0 < wide < 1e-75
    assert abs(wide - narrow) <= 1e-14 * wide


def test_error_bound_is_inf_when_a_pivot_underflows():
    # the second pivot, 2^-1100 of its row's scale, is 0.0 as a float64
    report = solve_linear([[1, 1], [1, ((1 << 1100) + 1, -1100)]], [1, 2], 1200)
    assert report.solution[1] == mp.ldexp(1, 1100)
    assert report.error_bound == math.inf


def test_error_bound_adds_floats_left_to_right():
    # the same bits on every Python: builtin sum() compensates from 3.12
    # on, and math.fsum, which rounds the exact sum once, shows where
    # (row 1 of U^-1)[3] sums 1e16, 1.0 and -1e16: 0.0 left to right, not 1.0
    lu = [[1.0, -1.0, 1e8, 1e16], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1e8],
          [0.0, 0.0, 0.0, 1.0]]
    assert numerics._first_row_of_inverse(lu) == [1.0, 1.0, -1e8, 0.0]
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    # row 0, scaled to [0.5, 2^-54, 2^-54] with x = (1, 1, 1), sums
    # 0.5 + 2^-54 + 2^-54 and then 0.5 + 2^-53 for |Rb|: 1.0, not 1 + 2^-52;
    # then 2 * 1.0 + 2^-53 + 2^-53 is 2.0, not 2 + 2^-52
    tiny = mp.ldexp(1, -53)
    report = solve_linear([[1, tiny, tiny], [0, 1, 0], [0, 0, 1]], [1 + 2 * tiny, 1, 1])
    assert report.solution == (1, 1, 1)
    assert report.error_bound == 2.0 ** -52
    assert math.fsum([0.5, 2.0 ** -54, 2.0 ** -54, 0.5 + 2.0 ** -53]) == 1 + 2.0 ** -52


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


# -- every bit of solve_linear and det --------------------------------------------


def _log_minor_system():
    # the n = 7 intersection system, built at 300 bits, so the solver gets
    # entries wider than its working precision, as intersect's residual does
    planes = [
        hyperplane_at(make_log_curve(7), v, 300)
        for v in ("0.35", "1.2", "2.5", "4.75", "9.1", "17.3", "41")
    ]
    return [p.normal for p in planes], [p.offset for p in planes]


def _wide(k, scale=0, tie_at=None):
    # 2^scale times a 400-bit value in [1, 2), the leading bits of sqrt(k)
    # for k in [1, 4); with tie_at, its first tie_at bits, a one, zeros and
    # a final one, so that it lies just above a tie at tie_at bits
    man = math.isqrt(k << 798)
    if tie_at is not None:
        man = (man >> (400 - tie_at) << 1 | 1) << (399 - tie_at) | 1
    return mp.make_mpf(from_man_exp(man, scale - 399))


def _wide_system():
    # 400-bit entries, wider than the working precision, and a column 0 that
    # spans 2^-480..1: the elimination and the forward substitution subtract
    # products far below a wide operand, where the kernel stands in a unit
    # for them.  Some entries lie just above a tie at 113 or 256 bits.
    A = [
        [mp.mpf(1), _wide(2, -1), _wide(3, -1)],
        [mp.ldexp(1, -393), _wide(2, 0, 113), _wide(3, 0, 256)],
        [mp.ldexp(1, -480), _wide(5, -1), _wide(6, -1)],
    ]
    b = [_wide(7, -1), _wide(2, 0, 113), _wide(3, -1, 256)]
    return A, b


_SYSTEMS = {
    "decimal3": lambda: (
        [["0.1", "2.7", "-1.3"], ["3.3", "-0.45", "1.9"], ["-2.2", "1.1", "0.7"]],
        ["1.5", "-0.2", "2.9"],
    ),
    "mixed5": lambda: (
        [[Fraction(1, i + j + 1) + (2 if i == j else 0) for j in range(5)] for i in range(5)],
        [1, -2, 3, 0.5, Fraction(7, 3)],
    ),
    "log7": _log_minor_system,
    "wide3": _wide_system,
}

# (solution, error_bound, det), each repr taken at the precision the value
# carries, the error bound as the float64 it is
_PINNED_SYSTEMS = {
    ("decimal3", 53): (
        [
            "mpf('-0.48297987780425089')",
            "mpf('1.0459295605199217')",
            "mpf('0.98131678894104868')",
        ],
        "5.818750755314194e-16",
        "mpf('-21.195499999999999')",
    ),
    ("decimal3", 113): (
        [
            "mpf('-0.482979877804250902314170460710999929')",
            "mpf('1.04592956051992168148899530560732231')",
            "mpf('0.981316788941048807529900214668207794')",
        ],
        "5.046961768050655e-34",
        "mpf('-21.1954999999999999999999999999999999')",
    ),
    ("decimal3", 256): (
        [
            "mpf('-0.4829798778042509023141704607109999764100870467787973862376447830907503951310474')",
            "mpf('1.045929560519921681488995305607322308980679861291311835059328631077351324573617')",
            "mpf('0.9813167889410488075299002146682078743129437852374324738741714043075181052581946')",
        ],
        "4.526271856048286e-77",
        "mpf('-21.19549999999999999999999999999999999999999999999999999999999999999999999999973')",
    ),
    ("mixed5", 53): (
        [
            "mpf('0.29069906686245467')",
            "mpf('-1.1544526539437132')",
            "mpf('1.3709613272614383')",
            "mpf('0.13824245508537533')",
            "mpf('1.0679070176300134')",
        ],
        "7.313299593272679e-16",
        "mpf('63.392897439572621')",
    ),
    ("mixed5", 113): (
        [
            "mpf('0.290699066862454650653741301575593956')",
            "mpf('-1.15445265394371324741898649655104767')",
            "mpf('1.37096132726143848895320971125484112')",
            "mpf('0.138242455085375306891161044266984964')",
            "mpf('1.06790701763001341020537922698524387')",
        ],
        "6.3432762456508765e-34",
        "mpf('63.3928974395726103492543401840454056')",
    ),
    ("mixed5", 256): (
        [
            "mpf('0.290699066862454650653741301575593938203834378375403858700248405129453299290476')",
            "mpf('-1.154452653943713247418986496551047822335905708921780340342532471891060102654345')",
            "mpf('1.370961327261438488953209711254841220656905889793768590954676127478061529310363')",
            "mpf('0.1382424550853753068911610442669849582984165052477003299756604757271794620863077')",
            "mpf('1.067907017630013410205379226985243917147718148790819906291902628996773890820208')",
        ],
        "5.688846887563945e-77",
        "mpf('63.39289743957261034925434018404539946490059868744676000911828576227669198190796')",
    ),
    ("log7", 53): (
        [
            "mpf('5.0568686381578001')",
            "mpf('7.2684448192647491')",
            "mpf('8.5295680967750389')",
            "mpf('6.498710621747585')",
            "mpf('-1.7157469464021429')",
            "mpf('-16.724424964018173')",
            "mpf('-31.118925522488336')",
        ],
        "1.3471620986866437e-12",
        "mpf('1.1539753223648986e-26')",
    ),
    ("log7", 113): (
        [
            "mpf('5.05686863815780030067205134791058224')",
            "mpf('7.26844481926474924578314777363174494')",
            "mpf('8.52956809677503948861658010367414907')",
            "mpf('6.49871062174758452256320111062274423')",
            "mpf('-1.71574694640214277178424282517211664')",
            "mpf('-16.7244249640181712045408452089581194')",
            "mpf('-31.1189255224883378545418019092810032')",
        ],
        "1.168476859269315e-30",
        "mpf('1.15397532236452976505859717335436223e-26')",
    ),
    ("log7", 256): (
        [
            "mpf('5.056868638157800300672051347910582556345153534775908298446117678763855844501366')",
            "mpf('7.268444819264749245783147773631745161975247374996438369641347791132693017913023')",
            "mpf('8.529568096775039488616580103674148952919677767800617452901561205992205963391745')",
            "mpf('6.49871062174758452256320111062274392000968395397524430924928646620904612491064')",
            "mpf('-1.715746946402142771784242825172116615116915210823012162676958468614375688269141')",
            "mpf('-16.72442496401817120454084520895811949316420912629338432915664545198906763875245')",
            "mpf('-31.11892552248833785454180190928100437304303973812722074047918599641158280129822')",
        ],
        "1.047926290235633e-73",
        "mpf('1.153975322364529765058597173354217794675928768423091091295533714862077971013292e-26')",
    ),
    ("wide3", 53): (
        [
            "mpf('0.61576887434574779')",
            "mpf('-1.135050993654408')",
            "mpf('1.7432618364251682')",
        ],
        "1.3108386650677494e-15",
        "mpf('-0.20444086553483123')",
    ),
    ("wide3", 113): (
        [
            "mpf('0.615768874345747770849963514714781208')",
            "mpf('-1.13505099365440792058418925466840821')",
            "mpf('1.74326183642516815710633435032971851')",
        ],
        "1.1369713027555614e-33",
        "mpf('-0.204440865534831149062186358385327712')",
    ),
    ("wide3", 256): (
        [
            "mpf('0.615768874345747770849963514714781171356169196473506120448175444447544500955989')",
            "mpf('-1.135050993654407920584189254668408152691036468747133896580951411196056237056313')",
            "mpf('1.743261836425168157106334350329718546319587925688102644188624554087140943472723')",
        ],
        "1.0196711299409631e-76",
        "mpf('-0.2044408655348311490621863583853274359334468807696829734105725896257792742576947')",
    ),
}


@pytest.mark.parametrize("name, bits", sorted(_PINNED_SYSTEMS))
def test_solve_and_det_bits_are_pinned(name, bits):
    A, b = _SYSTEMS[name]()
    report = solve_linear(A, b, bits)
    determinant = det(A, bits)
    solution, bound, expected_det = _PINNED_SYSTEMS[name, bits]
    with mp.workprec(bits):
        assert [repr(x) for x in report.solution] == solution
        assert repr(determinant) == expected_det
    assert repr(report.error_bound) == bound


def _line_of(function, text):
    """The number of the one line of ``function`` that contains ``text``."""
    lines, first = inspect.getsourcelines(function)
    (index,) = [i for i, line in enumerate(lines) if text in line]
    return first + index


@contextlib.contextmanager
def _tracing_kernel(on_event):
    """Calls on_event(frame, event, arg) at each line the fused
    multiply-subtract kernel runs, and at its calls and returns: its
    rounding is written out, so no primitive can be spied on in its place."""

    def local(frame, event, arg):
        on_event(frame, event, arg)
        return local

    def calls(frame, event, arg):
        if frame.f_code is not numerics._dot_sub.__code__:
            return None
        on_event(frame, event, arg)
        return local

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        yield
    finally:
        sys.settrace(previous)


def _primitive_chain(s, xs, ys, prec):
    for x, y in zip(xs, ys):
        s = numerics._sub(s, numerics._mul(x, y, prec), prec)
    return s


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_wide_system_reaches_the_unit_stand_in(bits):
    # the elimination's column and row chains and the forward substitution
    # of wide3 subtract products wholly below the rounding position of a
    # larger operand wider than the working precision: the kernel stands a
    # unit in for them, each such difference is still the exact difference
    # rounded once, and every chain is bit for bit the chain of primitives
    stand_in = _line_of(numerics._dot_sub, "(1 if p > 0 else -1)")
    reached = set()
    chains = []

    def on_event(frame, event, arg):
        v = frame.f_locals
        if event == "call":
            chains.append((v["s"], v["xs"], v["ys"], v["prec"]))
        elif event == "return":
            chains[-1] += (arg,)
        elif event == "line" and frame.f_lineno == stand_in:
            m, e, p, ep, prec, q = (v[k] for k in ("m", "e", "p", "ep", "prec", "q"))
            if m.bit_length() > prec:
                # the unit at 2^q is rounded, not the exact sum at 2^ep
                unit = (m << (e - q)) + (1 if p > 0 else -1)
                assert numerics._round(unit, q, prec) == _nearest(
                    _fraction((m, e)) + _fraction((p, ep)), prec
                )
                reached.add((frame.f_back.f_code, frame.f_back.f_lineno))

    A, b = _wide_system()
    with _tracing_kernel(on_event):
        solve_linear(A, b, bits)
    lu_code = numerics._lu_factor.__code__
    column = (lu_code, _line_of(numerics._lu_factor, "columns[col][first:]"))
    row = (lu_code, _line_of(numerics._lu_factor, "columns[j][first:]"))
    forward = (numerics._lu_solve.__code__, _line_of(numerics._lu_solve, "lu[i][:i]"))
    assert reached == {column, row, forward}
    for s, xs, ys, prec, result in chains:
        assert result == _primitive_chain(s, xs, ys, prec)


def test_far_apart_inputs_round_only_narrow_integers(monkeypatch):
    # inputs 10^60000000 apart: adding exactly would shift a mantissa by
    # about 2 * 10^8 bits, where the unit stand-in keeps every integer that
    # is rounded narrow, in the primitives and in the kernel's two roundings
    widest = 0
    kernel_roundings = 0
    original_round = numerics._round

    def recording(m, e, prec):
        nonlocal widest
        widest = max(widest, m.bit_length())
        return original_round(m, e, prec)

    # the integer about to be rounded: the product p, or the difference m
    rounded = {
        _line_of(numerics._dot_sub, "n = p.bit_length() - prec"): "p",
        _line_of(numerics._dot_sub, "n = m.bit_length() - prec"): "m",
    }

    def on_event(frame, event, arg):
        nonlocal widest, kernel_roundings
        name = rounded.get(frame.f_lineno) if event == "line" else None
        if name:
            kernel_roundings += 1
            widest = max(widest, frame.f_locals[name].bit_length())

    monkeypatch.setattr(numerics, "_round", recording)
    monkeypatch.setattr(logpoly, "_round", recording)
    with _tracing_kernel(on_event):
        evaluate_request(["1e-30000000", "1", "1e30000000"], 1, 53)
    assert kernel_roundings
    assert 0 < widest <= 4096


def test_refinement_corrections_are_rounded_to_working_precision():
    # ones plus offsets c * 2^e, built at 400 bits; rows 0 and 1 differ by
    # 2^-52 in the last column, so the refinement makes large corrections,
    # and carrying them wider than 113 bits changes the last bits below
    offsets = [
        [(-1, -96), (1, -116), (0, 0), (-3, -77)],
        [(-1, -96), (1, -116), (0, 0), (-3, -77)],
        [(-1, -108), (1, -107), (0, 0), (-1, -46)],
        [(-1, -91), (3, -84), (-1, -81), (0, 0)],
    ]
    with mp.workprec(400):
        A = [[1 + mp.ldexp(c, e) for c, e in row] for row in offsets]
        A[1][3] += mp.ldexp(1, -52)
        b = [1 + mp.ldexp(c, e) for c, e in [(-1, -97), (-1, -99), (1, -67), (-1, -107)]]
    report = solve_linear(A, b, 113)
    with mp.workprec(113):
        assert [repr(x) for x in report.solution] == [
            "mpf('537192298.568070443366462304300849564')",
            "mpf('-390315701.478752145165876408349436133')",
            "mpf('-146876596.08931829820060721222670586')",
            "mpf('2.13162820728030055761337280273438814e-14')",
        ]


def _exact_solution(A, b):
    """Gauss-Jordan in Fractions: the exact solution of a nonsingular system."""
    n = len(A)
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(n):
            if i != col and rows[i][col]:
                factor = rows[i][col] / rows[col][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _fraction(pair):
    m, e = pair
    return Fraction(m) * Fraction(2) ** e


def _units_off(pairs, truth, bits):
    """The largest |x_i - x*_i| / |x*_i| over the components, in units of 2^-bits."""
    return max(abs(_fraction(x) - t) / abs(t) * 2 ** bits for x, t in zip(pairs, truth))


def _log_curve_systems(n, bits, count=4):
    """Seeded intersection systems of the log curve, as built at ``bits``,
    with their pairs and the exact solution of those rounded pairs."""
    rng = random.Random(1000 * n + bits)
    curve = make_log_curve(n)
    for _ in range(count):
        planes = [hyperplane_at(curve, a, bits) for a in draw_tuple(rng, n, 1.1, 50)]
        A = [plane.normal for plane in planes]
        b = [plane.offset for plane in planes]
        A_pairs = [numerics._pairs(row, bits) for row in A]
        b_pairs = numerics._pairs(b, bits)
        truth = _exact_solution(
            [[_fraction(v) for v in row] for row in A_pairs], [_fraction(v) for v in b_pairs]
        )
        yield A, b, A_pairs, b_pairs, truth


@pytest.mark.parametrize("bits", [83, 143, 286])
@pytest.mark.parametrize("n", range(2, 8))
def test_one_refinement_step_is_within_a_unit_of_the_exact_solution(n, bits):
    # the solve and one refinement step leave each component within 2^-bits
    # relative of the exact solution of the rounded system; the uncorrected
    # LU solution is not, on the same systems (the negative control)
    worst_refined = worst_unrefined = 0
    for A, b, A_pairs, b_pairs, truth in _log_curve_systems(n, bits):
        solution = [numerics._pair(x._mpf_) for x in solve_linear(A, b, bits).solution]
        worst_refined = max(worst_refined, _units_off(solution, truth, bits))
        lu, perm, _ = numerics._lu_factor(A_pairs, bits)
        unrefined = numerics._lu_solve(lu, perm, b_pairs, bits)
        worst_unrefined = max(worst_unrefined, _units_off(unrefined, truth, bits))
    assert worst_refined <= 1
    assert worst_unrefined > 1


def test_pivot_ratios_that_round_alike_are_compared_exactly():
    # column 0's ratios |a| / scale are 2^51 / (2^52 + 1) and
    # (2^51 + 1) / (2^52 + 3): the second is larger by about 2^-104, and
    # both round to the same 53-bit value, so only an exact comparison
    # takes row 1
    A = [[1 << 51, -((1 << 52) + 1)], [(1 << 51) + 1, (1 << 52) + 3]]
    A_pairs = [numerics._pairs(row, 53) for row in A]
    ratios = [numerics._div(a, numerics._abs(s), 53) for a, s in A_pairs]
    assert ratios[0] == ratios[1]
    _, perm, _ = numerics._lu_factor(A_pairs, 53)
    assert perm == [1, 0]


def _sign_cases():
    # seeded dense matrices, and permuted diagonals: a random shuffle, the
    # reversal and the cyclic shift, where every column but the last swaps
    rng = random.Random(16)
    for n in range(2, 17):
        for _ in range(3):
            yield [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        for columns in (shuffled, list(range(n))[::-1], [(i + 1) % n for i in range(n)]):
            yield [[float(i + 1) if j == columns[i] else 0.0 for j in range(n)]
                   for i in range(n)]


def _sign_mismatches(lu_factor):
    """Cases where ``lu_factor``'s sign is not (-1)^(inversions of perm)."""
    count = 0
    for A in _sign_cases():
        _, perm, sign = lu_factor([numerics._pairs(row, 53) for row in A], 53)
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        count += sign != (-1) ** inversions
    return count


def test_lu_sign_is_the_parity_of_its_permutation():
    assert _sign_mismatches(numerics._lu_factor) == 0
    # negative control: the same factorization with the flip at column 0 left out
    source = inspect.getsource(numerics._lu_factor)
    mutated = source.replace("sign = -sign", "sign = sign if col == 0 else -sign")
    assert mutated != source
    namespace = dict(vars(numerics))
    exec(mutated, namespace)
    assert _sign_mismatches(namespace["_lu_factor"]) > 0


# -- integer (mantissa, exponent) arithmetic: exact, then rounded once ---------------


def _nearest(value, prec):
    """The canonical pair of a Fraction rounded to ``prec`` bits, to nearest
    with ties to even, from the Fraction alone."""
    if not value:
        return (0, 0)
    num, den = abs(value.numerator), value.denominator
    e = num.bit_length() - den.bit_length() - prec
    while True:
        # m + r / d = |value| / 2^e
        n, d = (num, den << e) if e >= 0 else (num << -e, den)
        m, r = divmod(n, d)
        if m >> prec:
            e += 1
        elif not m >> (prec - 1):
            e -= 1
        else:
            break
    if 2 * r > d or (2 * r == d and m & 1):
        m += 1
    zeros = (m & -m).bit_length() - 1
    m >>= zeros
    return (-m if value < 0 else m), e + zeros


def _fuzz_mantissa(rng, prec):
    """A signed mantissa: zero, a power of two, a random one up to 64 bits
    wider than prec, an exact tie at prec, or a run of ones that carries."""
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        man = 1
    elif kind == 2:
        width = rng.randint(1, prec + 64)
        man = 1 << (width - 1) | rng.getrandbits(width - 1)
    elif kind == 3:
        # prec random bits, a one, then zeros: halfway between two values
        man = ((1 << (prec - 1) | rng.getrandbits(prec - 1)) << 1 | 1) << rng.randrange(20)
    else:
        man = (1 << (prec + rng.randrange(3))) - 1
    return -man if rng.random() < 0.5 else man


def _fuzz_offset(rng):
    """An exponent offset: 0, at most 100, above 100, or about 10^4."""
    offset = rng.choice((0, rng.randint(1, 100), rng.randint(101, 400), rng.randint(9900, 10100)))
    return -offset if rng.random() < 0.5 else offset


def _perturbation_case(rng, prec):
    """An addition libmp does not round correctly: s is wider than prec and
    just above a tie (prec bits, a one, 40 zeros, a one), and t, of the
    opposite sign, lies 120 exponents lower but reaches 30 bits above s's
    last bit, so s + t is below the tie while s plus a unit is above it."""
    s = ((1 << (prec - 1) | rng.getrandbits(prec - 1)) << 1 | 1) << 41 | 1
    t = -(1 << 149 | rng.getrandbits(149) | 1)
    s_exp = rng.randint(-50, 50)
    if rng.random() < 0.5:
        s, t = -s, -t
    return from_man_exp(s, s_exp), from_man_exp(t, s_exp - 120)


def _threshold_case(rng, prec):
    """s and t with t's top bit within 3 exponents of 2^q, where
    q = min(e, top - prec - 1) - 2 for s's exponent e and top exponent top:
    the edge of ``numerics._sum``'s unit stand-in."""
    man = 0
    while not man:
        man = _fuzz_mantissa(rng, prec)
    s = from_man_exp(man, rng.randint(-50, 50))
    _, _, s_exp, s_bc = s
    q = min(s_exp, s_exp + s_bc - prec - 1) - 2
    # t wider than prec too, so that t lies over prec exponents below a wide s
    width = rng.choice((rng.randint(1, prec), rng.randint(prec + 4, prec + 64)))
    t = 1 << (width - 1) | rng.getrandbits(width - 1)
    if rng.random() < 0.5:
        t = -t
    return s, from_man_exp(t, q + rng.randint(-3, 3) - width)


def _fuzz_cases(prec):
    """The perturbation cases, then random operands with exponent offsets up
    to about 10^4, then cases at the unit stand-in's edge, as raw values."""
    rng = random.Random(prec)
    cases = [_perturbation_case(rng, prec) for _ in range(10)]
    for _ in range(1500):
        s = from_man_exp(_fuzz_mantissa(rng, prec), rng.randint(-50, 50))
        t = from_man_exp(_fuzz_mantissa(rng, prec), 0)
        if t[1]:
            t = (t[0], t[1], s[2] - _fuzz_offset(rng), t[3])
        cases.append((s, t))
    cases += [_threshold_case(rng, prec) for _ in range(300)]
    return cases


_PRECISIONS = [53, 83, 113, 143, 256, 286, 1500]


@pytest.mark.parametrize("prec", _PRECISIONS)
def test_pair_arithmetic_is_exact_then_rounded_once(prec):
    rng = random.Random(-prec)
    for s, t in _fuzz_cases(prec):
        x, y = numerics._pair(s), numerics._pair(t)
        fx, fy = _fraction(x), _fraction(y)
        assert numerics._add(x, y, prec) == _nearest(fx + fy, prec), (s, t)
        assert numerics._sub(x, y, prec) == _nearest(fx - fy, prec), (s, t)
        assert numerics._mul(x, y, prec) == _nearest(fx * fy, prec), (s, t)
        if fy:
            assert numerics._div(x, y, prec) == _nearest(fx / fy, prec), (s, t)
        else:
            with pytest.raises(ZeroDivisionError):
                numerics._div(x, y, prec)
        man = _fuzz_mantissa(rng, prec)
        assert numerics._round(man, 7, prec) == _nearest(Fraction(man * 2**7), prec)


@pytest.mark.parametrize("prec", _PRECISIONS)
def test_division_by_a_unit_rounds_the_dividend_once(prec):
    # b = +-1 takes the general path: a negative odd a wider than prec, one
    # bit wider (every other one a tie) or up to 80, divided by +-2^eb is a
    # times +-2^-eb rounded once
    rng = random.Random(prec + 1)
    for draw in range(200):
        width = prec + (1 if draw % 2 else rng.randint(2, 80))
        a = -(1 << (width - 1) | rng.getrandbits(width - 1) | 1)
        ea, eb = rng.randint(-60, 60), rng.randint(-60, 60)
        for b in (1, -1):
            expected = numerics._round(a * b, ea - eb, prec)
            assert numerics._div((a, ea), (b, eb), prec) == expected, (a, ea, b, eb)
            assert expected == _nearest(Fraction(a * b) * Fraction(2) ** (ea - eb), prec)


@pytest.mark.parametrize("prec", _PRECISIONS)
def test_pair_arithmetic_matches_libmp(prec):
    # libmp rounds products, quotients and conversions correctly, and sums
    # whose larger operand fits in prec bits; it misrounds each perturbation
    # case, where the pairs do not (the negative control)
    cases = _fuzz_cases(prec)
    for s, t in cases[10:]:
        x, y = numerics._pair(s), numerics._pair(t)
        assert numerics._raw_value(numerics._mul(x, y, prec)) == mpf_mul(s, t, prec, round_nearest)
        if t[1]:
            assert numerics._raw_value(numerics._div(x, y, prec)) == mpf_div(
                s, t, prec, round_nearest
            ), (s, t)
        larger = max(s, t, key=lambda v: v[2] + v[3] if v[1] else -math.inf)
        if larger[3] <= prec:
            assert numerics._raw_value(numerics._add(x, y, prec)) == mpf_add(
                s, t, prec, round_nearest
            ), (s, t)
            assert numerics._raw_value(numerics._sub(x, y, prec)) == mpf_sub(
                s, t, prec, round_nearest
            ), (s, t)
        man = s[1] if s[0] == 0 else -s[1]
        assert numerics._raw_value(numerics._round(man, 7, prec)) == from_man_exp(
            man, 7, prec, round_nearest
        )
    for s, t in cases[:10]:
        x, y = numerics._pair(s), numerics._pair(t)
        assert numerics._raw_value(numerics._add(x, y, prec)) != mpf_add(
            s, t, prec, round_nearest
        ), (s, t)


@pytest.mark.parametrize("prec", _PRECISIONS)
def test_sub_is_sign_symmetric(prec):
    # y - x is x - y negated, bit for bit, the unit stand-in included:
    # means._divided_difference computes each gap once and negates it
    for s, t in _fuzz_cases(prec):
        x, y = numerics._pair(s), numerics._pair(t)
        m, e = numerics._sub(x, y, prec)
        assert numerics._sub(y, x, prec) == (-m, e), (s, t)


def _fuzz_pair(rng, prec, exponent):
    """A canonical pair of a fuzzed mantissa (``_fuzz_mantissa``)."""
    return numerics._pair(from_man_exp(_fuzz_mantissa(rng, prec), exponent))


def _fuzz_chain(rng, prec):
    """s and 0 to 16 terms (x, y): zero terms, mixed signs, mantissas up to
    64 bits wider than prec, terms s * 1 that may cancel s exactly, and
    products whose top lies above s's top or below it by less than prec,
    by prec give or take 4, by more than prec (where the unit stand-in
    takes over) or by about 10^4."""
    s = _fuzz_pair(rng, prec, rng.randint(-50, 50))
    top = s[0].bit_length() + s[1]
    xs, ys = [], []
    for _ in range(rng.randint(0, 16)):
        if rng.random() < 0.1:
            xs.append(s)
            ys.append(numerics._ONE)
            continue
        gap = rng.choice((
            rng.randint(-40, prec - 5),
            prec + rng.randint(-4, 4),
            rng.randint(prec + 5, 2 * prec + 200),
            rng.randint(9900, 10100),
        ))
        mx, my = _fuzz_mantissa(rng, prec), _fuzz_mantissa(rng, prec)
        ex = rng.randint(-60, 60)
        ey = top - gap - ex - mx.bit_length() - my.bit_length()
        xs.append(numerics._pair(from_man_exp(mx, ex)))
        ys.append(numerics._pair(from_man_exp(my, ey)))
    return s, xs, ys


@pytest.mark.parametrize("prec", _PRECISIONS)
def test_fused_kernel_is_pinned_to_the_primitives(prec):
    # s - x_1 y_1 - ... in one call: bit for bit the chain of _sub and
    # _mul, and the exact product and the exact difference rounded once at
    # each step
    rng = random.Random(prec + 1)
    for _ in range(120 if prec > 300 else 250):
        s, xs, ys = _fuzz_chain(rng, prec)
        truth = s
        for x, y in zip(xs, ys):
            product = _nearest(_fraction(x) * _fraction(y), prec)
            truth = _nearest(_fraction(truth) - _fraction(product), prec)
        assert numerics._dot_sub(s, xs, ys, prec) == truth, (s, xs, ys)
        assert _primitive_chain(s, xs, ys, prec) == truth, (s, xs, ys)


def _right_looking_lu(matrix, prec):
    """The reference for ``numerics._lu_factor``: right-looking elimination
    with the same pivot rule, the first row of largest |a_i| / s_i and the
    same guard, both compared as Fractions, and each update of an entry
    one ``_sub(s, _mul(l, u))``, skipped where the multiplier l is zero."""
    n = len(matrix)
    lu = [row[:] for row in matrix]
    scales = [max(abs(_fraction(v)) for v in row) for row in lu]
    if not all(scales):
        raise SingularSystem("matrix has an all-zero row")
    perm, sign = list(range(n)), 1
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: abs(_fraction(lu[i][col])) / scales[i])
        if abs(_fraction(lu[pivot_row][col])) <= scales[pivot_row] * Fraction(2) ** (8 - prec):
            raise SingularSystem(
                f"pivot {col} fell below the relative threshold; "
                "the system is numerically singular"
            )
        if pivot_row != col:
            for seq in (lu, scales, perm):
                seq[col], seq[pivot_row] = seq[pivot_row], seq[col]
            sign = -sign
        upper = lu[col]
        for row in lu[col + 1 :]:
            row[col] = factor = numerics._div(row[col], upper[col], prec)
            if factor[0]:
                for j in range(col + 1, n):
                    row[j] = numerics._sub(row[j], numerics._mul(factor, upper[j], prec), prec)
    return lu, perm, sign


def _fuzz_matrix(rng, prec):
    """A square matrix of n = 1 to 8 canonical pairs: extra zeros, mantissas
    up to 64 bits wider than prec (``_fuzz_mantissa``), tops mostly within a
    few exponents of each other, some more than prec or about 10^4 apart,
    and now and then a repeated or an all-zero row."""
    n = rng.randint(1, 8)
    zeros = rng.choice((0, 0.3))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            man = 0 if rng.random() < zeros else _fuzz_mantissa(rng, prec)
            r = rng.random()
            if r < 0.8:
                top = rng.randint(-4, 4)
            elif r < 0.95:
                top = rng.randint(-3 * prec, 3 * prec)
            else:
                top = rng.randint(-10100, 10100)
            row.append(numerics._pair(from_man_exp(man, top - abs(man).bit_length())))
        rows.append(row)
    if n > 1 and rng.random() < 0.15:
        rows[rng.randrange(n)] = rows[rng.randrange(n)][:]
    if rng.random() < 0.05:
        rows[rng.randrange(n)] = [(0, 0)] * n
    return rows


def _factor_outcome(lu_factor, matrix, prec):
    try:
        return lu_factor(matrix, prec)
    except SingularSystem as exc:
        return str(exc)


@pytest.mark.parametrize("prec", _PRECISIONS)
def test_lu_is_pinned_to_right_looking_elimination(prec):
    # the left-looking LU, each entry one chain of the kernel with k
    # ascending, gives the right-looking elimination's lu, perm and sign bit
    # for bit, or the same refusal; negative controls: the same LU with
    # each chain's k order reversed, and with a chain that starts at a
    # leading zero multiplier, which rounds an entry wider than prec early
    rng = random.Random(prec + 2)
    cases = [_fuzz_matrix(rng, prec) for _ in range(100 if prec > 300 else 300)]
    outcomes = [_factor_outcome(_right_looking_lu, A, prec) for A in cases]
    for A, expected in zip(cases, outcomes):
        assert _factor_outcome(numerics._lu_factor, A, prec) == expected, A
    assert any(isinstance(o, str) for o in outcomes)
    assert any(not isinstance(o, str) and o[2] == -1 for o in outcomes)

    source = inspect.getsource(numerics._lu_factor)
    mutations = [
        [("row[first:col], columns[col][first:]",
          "row[first:col][::-1], columns[col][first:][::-1]"),
         ("factors, columns[j][first:]", "factors[::-1], columns[j][first:][::-1]")],
        [("if lead[i] == col and not factor[0]:", "if False:")],
    ]
    for mutation in mutations:
        mutated = source
        for old, new in mutation:
            assert old in mutated
            mutated = mutated.replace(old, new)
        namespace = dict(vars(numerics))
        exec(mutated, namespace)
        assert any(
            _factor_outcome(namespace["_lu_factor"], A, prec) != expected
            for A, expected in zip(cases, outcomes)
        ), mutation


# -- pivot rules ----------------------------------------------------------------------


def _guard_system(bits, extra):
    # column 0 ties (2/2 = 3/3), so row 0 pivots; the second pivot is then
    # exactly 3 * 2^(-bits + 8) + extra against a row scale of 3
    with mp.workprec(bits):
        corner = mp.mpf("1.5") + 3 * mp.ldexp(1, -bits + 8) + extra
    return [[2, 1], [3, corner]]


@pytest.mark.parametrize("bits", [53, 113])
def test_pivot_at_the_guard_is_singular(bits):
    matrix = _guard_system(bits, 0)
    with pytest.raises(SingularSystem):
        solve_linear(matrix, [1, 1], bits)
    assert det(matrix, bits) == 0


@pytest.mark.parametrize("bits", [53, 113])
def test_pivot_just_above_the_guard_factors(bits):
    # one ulp of 1.5 above the guard
    ulp = mp.ldexp(1, -bits + 1)
    matrix = _guard_system(bits, ulp)
    solve_linear(matrix, [1, 1], bits)
    with mp.workprec(bits):
        assert det(matrix, bits) == 2 * (3 * mp.ldexp(1, -bits + 8) + ulp)


def test_equal_scaled_pivots_take_the_first_row():
    # rows 1 and 2 tie in column 0 (3.1/3.1 = 6.2/6.2); taking row 2 gives
    # det -159.78 at 53 bits, one ulp from the pinned value
    A = [[1, 5, 2], ["3.1", "1.3", "-2.2"], ["6.2", "-0.7", "4.9"]]
    b = ["0.3", "1.7", "-2.9"]
    report = solve_linear(A, b, 53)
    with mp.workprec(53):
        assert [repr(x) for x in report.solution] == [
            "mpf('0.01965828013518588')",
            "mpf('0.28638753285767926')",
            "mpf('-0.57579797221179119')",
        ]
        assert repr(det(A, 53)) == "mpf('-159.78000000000003')"


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
