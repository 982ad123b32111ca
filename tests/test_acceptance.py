"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  All tolerances are pinned here, not configured elsewhere.
"""

import json
import math
import random
import time
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp

from oscmean.cli import main as cli_main
from oscmean.identities import (
    conjecture_scan,
    draw_tuple,
    lemma3_check,
    lemma4_check,
    lemma7_check,
    main_theorem_scan,
    numeric_scan,
    run_exact_suite,
    tangent_scan,
)
from oscmean.logpoly import LogPoly, substitute_power
from oscmean.means import (
    hyperplane_at,
    identric_IZ,
    mean_M,
    neuman_LN,
)
from oscmean.wronskian import (
    closed_form_v,
    deriv_table,
    det_symbolic,
    factorial_product,
    full_wronskian_closed_form,
    make_log_curve,
    make_monomial_curve,
    normal_field,
    orthogonality_residuals,
    recursion_deriv,
    wronskian_full,
    wronskian_minor,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_c1_exact_symbolic_suite():
    start = time.perf_counter()
    # minors equal closed forms, zero tolerance, n in 2..7, all k
    for n in range(2, 8):
        curve = make_log_curve(n)
        for k in range(1, n + 1):
            assert wronskian_minor(curve, k) == closed_form_v(k, n)
    # full Wronskian closed form, n in 3..7
    for n in range(3, 8):
        assert wronskian_full(make_log_curve(n)) == full_wronskian_closed_form(n)
    # minor recursions, n in 2..6
    for n in range(2, 7):
        for k in range(1, n + 1):
            assert closed_form_v(k + 1, n + 1) == LogPoly.term(
                Fraction(factorial(n), k), -(n - 1), 0
            ) * closed_form_v(k, n)
        assert closed_form_v(1, n + 1) == LogPoly.term(
            factorial_product(n), -(n * (n - 1)) // 2, n
        ) + LogPoly.term(factorial(n), -(n - 1), 0) * closed_form_v(1, n)
    # order-reduction recursion vs direct differentiation, k <= 6, 2 <= r <= 6
    table = deriv_table(make_log_curve(7), 6)
    for k in range(1, 7):
        for r in range(2, 7):
            assert recursion_deriv(k, r) == table.entry(r, k + 1)
    # derivative values at t = 1: zeros below the diagonal, factorials on it
    for k in range(2, 8):
        for r in range(0, k - 1):
            assert table.entry(r, k).value_at_one() == 0
    for r in range(2, 8):
        assert table.entry(r - 1, r).value_at_one() == factorial(r - 1)
    # orthogonality residuals vanish, n in 3..6
    for n in range(3, 7):
        assert all(res.is_zero() for res in orthogonality_residuals(n))
    # alternating binomial sum, n in 1..20
    for n in range(1, 21):
        lhs, rhs = lemma3_check(n)
        assert lhs == rhs
    # polynomial double sums collapse to 1 and -1, n in 1..12
    for n in range(1, 13):
        first, second = lemma4_check(n)
        assert first == LogPoly.constant(1)
        if n >= 2:
            assert second == LogPoly.constant(-1)
    # Vandermonde cofactor identity, n in 3..7, 50 random rational vectors each
    rng = random.Random(0)
    for n in range(3, 8):
        for _ in range(50):
            vec = []
            while len(vec) < n:
                candidate = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                if candidate not in vec:
                    vec.append(candidate)
            lhs, rhs = lemma7_check(vec)
            assert lhs == rhs
    elapsed = time.perf_counter() - start
    report("C1 exact-symbolic-suite", elapsed < 30.0, f"{elapsed:.2f}s")


def test_c2_main_theorem_desk_scale():
    start = time.perf_counter()
    worst53 = worst113 = 0.0
    for n in range(3, 7):
        worst53 = max(worst53, main_theorem_scan(n, 100, 0, 53).max_rel_error)
        worst113 = max(worst113, main_theorem_scan(n, 100, 0, 113).max_rel_error)
    elapsed = time.perf_counter() - start
    ok = worst53 < 1e-9 and worst113 < 1e-20 and elapsed < 10.0
    report(
        "C2 main-theorem",
        ok,
        f"53-bit worst {worst53:.2e}, 113-bit worst {worst113:.2e}, {elapsed:.2f}s",
    )


def test_c3_tangent_two_variable_case():
    rep = tangent_scan(trials=100, seed=0, precision_bits=53)
    report("C3 tangent-n2", rep.max_rel_error < 1e-12, f"worst {rep.max_rel_error:.2e}")


def test_c4_worked_example_goldens():
    curve = make_monomial_curve([1, 2, 3, 4])
    ok = normal_field(curve) == (
        LogPoly.term(48, 3, 0),
        LogPoly.term(-72, 2, 0),
        LogPoly.term(48, 1, 0),
        LogPoly.term(-12, 0, 0),
    )
    plane = hyperplane_at(curve, 1)
    ok = ok and plane.normal == (48, -72, 48, -12) and plane.offset == 12
    ok = ok and [c / 12 for c in plane.normal] == [4, -6, 4, -1] and plane.offset / 12 == 1

    # n = 3 determinant closed forms as exact ring identities at a_j = t^j
    field = normal_field(make_log_curve(3))
    matrix = [[substitute_power(p, c) for p in field] for c in (1, 2, 3)]
    ok = ok and det_symbolic(matrix) == LogPoly.term(4, -6, 3)
    for j, c in enumerate((1, 2, 3)):
        matrix[j][0] = substitute_power(full_wronskian_closed_form(3), c)
    expected = LogPoly({(-5, 1): 4, (-4, 1): -8, (-3, 1): 4})
    ok = ok and det_symbolic(matrix) == expected
    report("C4 worked-example-goldens", ok)


def test_c5_numeric_determinant_identities():
    worst_det = 0.0
    worst_closure = 0.0
    for n in range(3, 7):
        prop3, prop4, closure, _ = numeric_scan(n, 100, 0, 113)
        worst_det = max(worst_det, prop3.max_rel_error, prop4.max_rel_error)
        worst_closure = max(worst_closure, closure.max_rel_error)
    ok = worst_det < 1e-8 and worst_closure < 1e-9
    report(
        "C5 numeric-determinants",
        ok,
        f"det worst {worst_det:.2e}, closure worst {worst_closure:.2e}",
    )


def test_c6_mean_properties():
    rng = random.Random(0)
    eps = mp.ldexp(1, -52)
    ok = True
    # betweenness for every computed mean
    for n in (2, 3, 4, 5):
        curve = make_log_curve(n)
        for _ in range(10):
            # the scans' draw, kept only when every log gap is >= 0.1
            values = draw_tuple(rng, n, 1.5, 30.0)
            while any(math.log(b) - math.log(a) < 0.1 for a, b in zip(values, values[1:])):
                values = draw_tuple(rng, n, 1.5, 30.0)
            for k in range(1, n + 1):
                mk = mean_M(curve, k, values)
                ok = ok and values[0] < mk < values[-1]
    # permutation symmetry and homogeneity within 4 ulp
    for _ in range(20):
        values = list(draw_tuple(rng, 4, 0.5, 25.0))
        reference = neuman_LN(values)
        shuffled = values[:]
        rng.shuffle(shuffled)
        ok = ok and abs(neuman_LN(shuffled) - reference) <= 4 * eps * abs(reference)
        iz_ref = identric_IZ(values)
        ok = ok and abs(identric_IZ(shuffled) - iz_ref) <= 4 * eps * abs(iz_ref)
        lam = rng.uniform(0.2, 8.0)
        scaled = [lam * v for v in values]
        lhs = neuman_LN(scaled)
        ok = ok and abs(lhs - lam * reference) <= 4 * eps * abs(lhs)
    report("C6 mean-properties", ok)


def test_c7_conjecture_experiment():
    gated = conjecture_scan(3, trials=100, seed=0, precision_bits=53)
    ok = gated.max_rel_error < 1e-6
    detail = [f"n=3 {gated.max_rel_error:.2e} (gated)"]
    for n in (4, 5):
        rep = conjecture_scan(n, trials=100, seed=0, precision_bits=53)
        detail.append(f"n={n} {rep.max_rel_error:.2e} (reported)")
    report("C7 conjecture", ok, ", ".join(detail))


def test_c8_cli_contract(capsys):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    # byte-identical output for a fixed seed
    args = ("verify", "--max-n", "3", "--trials", "5", "--seed", "3", "--json")
    code_a, out_a = run(*args)
    code_b, out_b = run(*args)
    ok = code_a == 0 and code_b == 0 and out_a == out_b
    args = ("conjecture", "--n", "3", "--trials", "5", "--seed", "3", "--csv")
    code_a, out_a = run(*args)
    code_b, out_b = run(*args)
    ok = ok and code_a == 0 and out_a == out_b

    # malformed-input battery: every case must exit 2, never raise
    battery = [
        ("mean",),
        ("mean", "--values", "2,2,3"),
        ("mean", "--values=-1,2"),
        ("mean", "--values", "abc,2"),
        ("mean", "--values", "1,4", "--k", "9"),
        ("mean", "--values", "1,4", "--precision", "8"),
        ("verify", "--max-n", "1"),
        ("verify", "--max-n", "9"),
        ("verify", "--max-n", "3", "--trials", "0"),
        ("identities", "--max-n", "0"),
        ("conjecture", "--n", "2"),
        ("conjecture", "--n", "3", "--trials", "0"),
        ("unknown-subcommand",),
    ]
    for argv in battery:
        code, _ = run(*argv)
        ok = ok and code == 2
    report("C8 cli-contract", ok)
