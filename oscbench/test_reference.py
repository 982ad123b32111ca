"""Known values for the benchmark's reference.

Run with ``python3 -m pytest oscbench/test_reference.py`` or
``python3 oscbench/test_reference.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mpmath import mp  # noqa: E402

import reference  # noqa: E402

DIGITS = 60


def literal(x) -> str:
    return mp.nstr(x, DIGITS, strip_zeros=False)


def close(a, b, bits=180) -> bool:
    return abs(a - b) <= abs(b) * mp.ldexp(1, -bits)


def test_three_variable_log_mean_of_powers_of_e():
    # L_N(1, e, e^2) = 2 * [1/((0-1)(0-2)) + e/((1-0)(1-2)) + e^2/((2-0)(2-1))] = (e-1)^2
    with mp.workprec(400):
        literals = ["1", literal(mp.e), literal(mp.e ** 2)]
        expected = (mp.e - 1) ** 2
    ref = reference.reference_for(literals)
    with mp.workprec(400):
        assert close(ref.ln_mean, expected)
        assert close(ref.point[0], expected)


def test_two_variable_log_mean():
    ref = reference.reference_for(["2", "5"])
    with mp.workprec(400):
        expected = mp.mpf(3) / (mp.log(5) - mp.log(2))
        assert close(ref.ln_mean, expected, bits=380)
        assert close(ref.point[0], expected, bits=380)


def test_two_variable_identric_mean():
    value = reference.power_log_mean(["1.5", "4.5"])
    with mp.workprec(400):
        a, b = mp.mpf("1.5"), mp.mpf("4.5")
        expected = mp.exp((b * mp.log(b) - a * mp.log(a)) / (b - a) - 1)
        assert close(value, expected, bits=380)


def test_mk_lies_on_the_curve_inside_the_inputs():
    literals = ["1.25", "3.5", "7", "19.75"]
    for k in (2, 3, 4):
        ref = reference.reference_for(literals, k)
        with mp.workprec(ref.work_bits):
            assert ref.lo < ref.mk < ref.hi
            assert close(ref.mk * mp.log(ref.mk) ** (k - 1), ref.point[k - 1], bits=300)


def test_first_coordinate_sensitivity_is_the_mean():
    # L_N is homogeneous of degree 1 and increasing in every input, so by
    # Euler's theorem sum_j a_j dL/da_j = L_N
    for literals in (["0.5", "2", "5"], ["1.25", "3.5", "7", "19.75", "33"]):
        ref = reference.reference_for(literals)
        with mp.workprec(ref.work_bits):
            assert close(ref.sensitivity[0], ref.ln_mean, bits=60)


def test_near_equal_inputs_raise_the_working_precision():
    literals = ["2", "2.000000001", "2.000000002", "2.000000003", "2.000000004"]
    ref = reference.reference_for(literals)
    assert ref.work_bits >= 400 + 4 * 30
    with mp.workprec(ref.work_bits):
        assert close(ref.ln_mean, mp.mpf("2.000000002"), bits=60)


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
