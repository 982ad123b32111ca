"""Linear solver and bracketed root finder at configurable precision."""

import math
import random
import sys
from fractions import Fraction

import pytest
from mpmath import mp

from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_sub, round_nearest

from oscmean import numerics
from oscmean.errors import BadDimension, BadParameter, NoBracket, SingularSystem
from oscmean.identities import draw_tuple
from oscmean.logpoly import lp_eval
from oscmean.means import hyperplane_at
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
    # cond_inf([[1, 1], [1, 1 + eps]]) = (2 + eps)^2 / eps, which no
    # scaling of rows or columns brings down
    report = solve_linear([[1, 1], [1, 1 + 1e-6]], [1, 1])
    assert 3.9e6 < report.condition_estimate < 4.1e6
    # a badly scaled row is not an ill-conditioned system: equilibrated,
    # diag(1, eps) reads below 2
    assert solve_linear([[1, 0], [0, 1e-6]], [1, 1]).condition_estimate < 2


def test_condition_estimate_reads_wide_mantissas():
    # 1500-bit entries are cut to their top 53 bits, not passed whole to a
    # float conversion that overflows past 1024 bits
    A, b = _SYSTEMS["decimal3"]()
    wide = solve_linear(A, b, 1500).condition_estimate
    assert abs(wide - solve_linear(A, b, 256).condition_estimate) <= 1e-14 * wide


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
    # products far below a wide operand, where mpf_add stands in a unit for
    # them.  At 113 and 256 bits the ties at 113 and 256 bits make that
    # differ from the correctly rounded difference.
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

# (solution, residual_norm, condition_estimate, det), each repr taken at the
# precision the value carries: the residual at twice the working precision,
# the condition estimate as the float64 it is
_PINNED_SYSTEMS = {
    ("decimal3", 53): (
        [
            "mpf('-0.48297987780425089')",
            "mpf('1.0459295605199217')",
            "mpf('0.98131678894104868')",
        ],
        "mpf('1.208539623688407400128711137463175e-16')",
        "4.901417753768488",
        "mpf('-21.195499999999999')",
    ),
    ("decimal3", 113): (
        [
            "mpf('-0.482979877804250902314170460710999929')",
            "mpf('1.04592956051992168148899530560732231')",
            "mpf('0.981316788941048807529900214668207794')",
        ],
        "mpf('8.490068962522382667521107444302239921341197979471192991845728985941641e-35')",
        "4.90141775376849",
        "mpf('-21.1954999999999999999999999999999999')",
    ),
    ("decimal3", 256): (
        [
            "mpf('-0.4829798778042509023141704607109999764100870467787973862376447830907503951310474')",
            "mpf('1.045929560519921681488995305607322308980679861291311835059328631077351324573617')",
            "mpf('0.9813167889410488075299002146682078743129437852374324738741714043075181052581946')",
        ],
        "mpf('8.06952446933925793505441263820131695061343585831094681526165700962716775402791240803482323033692648946454018755983021651022144754970866362401647591455020142e-78')",
        "4.90141775376849",
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
        "mpf('8.119066435191768001037413473900795e-17')",
        "2.6143635013596693",
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
        "mpf('5.731444860945215345233620299817906917234974780842170874977298812381748e-35')",
        "2.6143635013596693",
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
        "mpf('4.78888006243867919288782244586590751711484765396142941453867458685779410898241171909966623312002042239556317581556997378408268658252121234776191380919476117e-78')",
        "2.6143635013596693",
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
        "mpf('3.969867200893939464478551983013201e-16')",
        "56796.84069965137",
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
        "mpf('7.765664259536824060158349058824367995290825696943418422857836610171479e-35')",
        "56796.84069966886",
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
        "mpf('3.43432296959398250049030753024963791813420674391301940169449659390956494302565272459280088133601063857327262838113114137274154325812193760754010929088101305e-77')",
        "56796.84069966886",
        "mpf('1.153975322364529765058597173354217794675928768423091091295533714862077971013292e-26')",
    ),
    ("wide3", 53): (
        [
            "mpf('0.61576887434574779')",
            "mpf('-1.135050993654408')",
            "mpf('1.7432618364251682')",
        ],
        "mpf('2.250293470120664729524243139156317e-17')",
        "45.50392050813706",
        "mpf('-0.20444086553483123')",
    ),
    ("wide3", 113): (
        [
            "mpf('0.615768874345747770849963514714781208')",
            "mpf('-1.13505099365440792058418925466840821')",
            "mpf('1.74326183642516815710633435032971851')",
        ],
        "mpf('1.010226804982545233204196122143132969446963153544273743712297634005653e-34')",
        "45.50392050813708",
        "mpf('-0.204440865534831149062186358385327495')",
    ),
    ("wide3", 256): (
        [
            "mpf('0.615768874345747770849963514714781171356169196473506120448175444447544500955989')",
            "mpf('-1.135050993654407920584189254668408152691036468747133896580951411196056237056313')",
            "mpf('1.743261836425168157106334350329718546319587925688102644188624554087140943472723')",
        ],
        "mpf('6.93846584413784511390150356826947210363544943506433532719096441611721711845231858299563098183948102562831176611883849405973891704125966218583759270863456287e-78')",
        "45.50392050813708",
        "mpf('-0.2044408655348311490621863583853274359334468807696829734105725896257792742577141')",
    ),
}


@pytest.mark.parametrize("name, bits", sorted(_PINNED_SYSTEMS))
def test_solve_and_det_bits_are_pinned(name, bits):
    A, b = _SYSTEMS[name]()
    report = solve_linear(A, b, bits)
    determinant = det(A, bits)
    solution, residual, condition, expected_det = _PINNED_SYSTEMS[name, bits]
    with mp.workprec(bits):
        assert [repr(x) for x in report.solution] == solution
        assert repr(report.condition_estimate) == condition
        assert repr(determinant) == expected_det
    with mp.workprec(2 * bits):
        assert repr(report.residual_norm) == residual


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_wide_system_reaches_the_unit_stand_in(monkeypatch, bits):
    # the pinned wide3 bits rest on additions that take mpf_add's unit
    # stand-in with a larger operand wider than the working precision, both
    # in the elimination and in the forward substitution
    reached = set()
    original_sum = numerics._sum

    def recording(*args):
        a, ea, b, eb, prec = args
        if ea < eb:
            a, ea, b, eb = b, eb, a, ea
        if (
            a and b and ea - eb > 100 and a.bit_length() > prec
            and (a.bit_length() + ea) - (b.bit_length() + eb) > prec + 4
        ):
            # the caller of _add or _sub
            reached.add(sys._getframe(2).f_code.co_name)
        return original_sum(*args)

    monkeypatch.setattr(numerics, "_sum", recording)
    A, b = _wide_system()
    solve_linear(A, b, bits)
    assert reached == {"_lu_factor", "_lu_solve"}


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
    with mp.workprec(226):
        assert repr(report.residual_norm) == (
            "mpf('4.889294092912107630085669257370400704253647489736540290280511282172554e-26')"
        )


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
        lu, perm = numerics._lu_factor(A_pairs, bits)
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
    ratios = [numerics._div(a, numerics._abs(s, 53), 53) for a, s in A_pairs]
    assert ratios[0] == ratios[1]
    _, perm = numerics._lu_factor(A_pairs, 53)
    assert perm == [1, 0]


# -- integer (mantissa, exponent) arithmetic against libmp --------------------------


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


@pytest.mark.parametrize("prec", [53, 83, 113, 143, 256, 286, 1500])
def test_pair_arithmetic_matches_libmp(prec):
    rng = random.Random(prec)
    cases = [_perturbation_case(rng, prec) for _ in range(10)]
    for _ in range(1500):
        s = from_man_exp(_fuzz_mantissa(rng, prec), rng.randint(-50, 50))
        t = from_man_exp(_fuzz_mantissa(rng, prec), 0)
        if t[1]:
            t = (t[0], t[1], s[2] - _fuzz_offset(rng), t[3])
        cases.append((s, t))
    for s, t in cases:
        x, y = numerics._pair(s), numerics._pair(t)
        for ours, theirs in (
            (numerics._add, mpf_add),
            (numerics._sub, mpf_sub),
            (numerics._mul, mpf_mul),
        ):
            assert numerics._raw_value(ours(x, y, prec)) == theirs(s, t, prec, round_nearest), (
                ours.__name__, s, t,
            )
        if t[1]:
            assert numerics._raw_value(numerics._div(x, y, prec)) == mpf_div(
                s, t, prec, round_nearest
            ), (s, t)
        else:
            with pytest.raises(ZeroDivisionError):
                numerics._div(x, y, prec)
        man = _fuzz_mantissa(rng, prec)
        assert numerics._raw_value(numerics._round(man, 7, prec)) == from_man_exp(
            man, 7, prec, round_nearest
        )


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
