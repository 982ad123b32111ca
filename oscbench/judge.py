"""Judging oscmean's answers against the independent reference.

The CLI prints every number as a float64, whatever ``--precision`` is, so a
printed value is right when it lies within ``TOLERANCE_ULPS`` float64 ulps
of the reference:

* a mean (``m1``, ``neuman_ln``, ``mk``): relative to the reference value,
  and it must also lie in [min, max] of the inputs;
* a coordinate of the point: relative to the larger of the reference value
  and ``Reference.sensitivity``, the amount the coordinate moves per unit
  relative change of the inputs, since reading a literal at 53 bits
  already moves it that far.

Output rounding and input rounding cost at most about 2 ulps together;
``TOLERANCE_ULPS`` leaves a factor of two on top.

For k >= 2 with an input <= 1, M_k is not pinned down by the inputs (the
component is not monotone there): a refusal or an ``mk`` inside the inputs'
range counts as correct, anything else as wrong.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List

from mpmath import mp

import reference

TOLERANCE_ULPS = 4
ULP = 2.0 ** -52
TOLERANCE = TOLERANCE_ULPS * ULP
#: Accuracy reported for an exact answer.
ACCURACY_CAP_BITS = 256.0
#: Accuracy reported for an answer off by half its scale or more: it has no
#: correct leading bit, and the floor keeps the metric positive.
ACCURACY_FLOOR_BITS = 1.0

#: Documented gates of the verification suite (README "Install and test");
#: the conjecture gate is applied to both conjecture runs.
ROW_GATES = {
    "main_theorem_m1_vs_neuman": 1e-20,
    "tangent_n2_vs_two_variable_mean": 1e-12,
    "prop3_determinant": 1e-8,
    "prop4_determinant": 1e-8,
    "cramer_quotient_vs_neuman": 1e-8,
    "conjecture_mn_vs_identric": 1e-6,
}
#: Rows verify --max-n 7 must report, one per n.
REQUIRED_ROWS = {
    "tangent_n2_vs_two_variable_mean": (2,),
    "main_theorem_m1_vs_neuman": range(3, 8),
    "prop3_determinant": range(3, 8),
    "prop4_determinant": range(3, 8),
    "cramer_quotient_vs_neuman": range(3, 8),
}


def accuracy_bits(error) -> float:
    """-log2 of a relative error, clamped to [ACCURACY_FLOOR_BITS, ACCURACY_CAP_BITS]."""
    if error <= 0:
        return ACCURACY_CAP_BITS
    return min(ACCURACY_CAP_BITS, max(ACCURACY_FLOOR_BITS, -math.log2(float(error))))


def _rel(value: float, ref, scale) -> float:
    with mp.workprec(200):
        return float(abs(mp.mpf(value) - ref) / scale)


def judge_mean(request: Dict, code, stdout: str, ref: reference.Reference) -> Dict:
    """Verdict for one ``mean`` request: ok, refused or wrong, with details.

    A refusal is a nonzero exit (or a crash) on a request whose mean is
    defined; every generated request has a defined mean.
    """
    allowed_refusal = request["kind"] == "k2-low"
    if code != 0:
        return {"verdict": "ok" if allowed_refusal else "refused", "code": code}
    try:
        out = json.loads(stdout)
        point = [float(x) for x in out["point"]]
        values = {key: float(out[key]) for key in ("m1", "neuman_ln", "mk")}
        escalated = out["effective_precision_bits"] != out["precision_bits"]
        shape_ok = out["n"] == len(request["literals"]) and out["k"] == request["k"]
    except (ValueError, KeyError, TypeError) as exc:
        return {"verdict": "wrong", "code": code, "why": f"malformed output: {exc}",
                "malformed": True}
    n = len(request["literals"])
    errors = {}
    with mp.workprec(ref.work_bits):
        lo, hi = ref.lo, ref.hi
        if not shape_ok or len(point) != n:
            return {"verdict": "wrong", "code": code, "why": "wrong n, k or point length"}
        for key in ("m1", "neuman_ln"):
            errors[key] = _rel(values[key], ref.ln_mean, ref.ln_mean)
        for i, (x, exact, scale) in enumerate(zip(point, ref.point, ref.sensitivity), 1):
            errors[f"x{i}"] = _rel(x, exact, max(abs(exact), scale))
        if ref.mk is not None:
            errors["mk"] = _rel(values["mk"], ref.mk, ref.mk)
        in_range = all(lo <= mp.mpf(values[key]) <= hi for key in ("m1", "neuman_ln", "mk"))
    worst = max(errors, key=errors.get)
    verdict = "ok" if in_range and errors[worst] <= TOLERANCE else "wrong"
    result = {"verdict": verdict, "code": code, "escalated": escalated,
              "accuracy_bits": accuracy_bits(errors[worst]), "worst": worst,
              "worst_error": errors[worst]}
    if not in_range:
        result["why"] = "a mean lies outside [min, max] of the inputs"
    elif verdict == "wrong":
        result["why"] = f"{worst} is off by {errors[worst]:.3g} (relative to its scale)"
    return result


def judge_batch(records: List[Dict]) -> List[Dict]:
    """Verdict per reported row of one verify-batch run.

    Exact rows must be exact; numeric rows must lie within the documented
    gates; a command that exits nonzero or prints no rows counts as one
    refused answer; a required row that is missing counts as wrong.
    """
    verdicts = []
    seen = set()
    for index, record in enumerate(records, 1):
        if record["code"] != 0:
            verdicts.append({"verdict": "refused", "row": f"command {index}",
                             "code": record["code"]})
            continue
        try:
            rows = json.loads(record["stdout"])
        except ValueError as exc:
            verdicts.append({"verdict": "wrong", "row": f"command {index}",
                             "why": f"malformed output: {exc}", "malformed": True})
            continue
        for row in rows:
            name, error = row.get("identity"), row.get("max_rel_error")
            seen.add((name, row.get("n")))
            verdict = {"verdict": "ok", "row": f"{name} n={row.get('n')}",
                       "instances": row.get("instances", 0)}
            if error is None:
                if row.get("exact") is not True:
                    verdict.update(verdict="wrong", why="exact identity failed")
            else:
                gate = ROW_GATES.get(name, 1.0)
                verdict["accuracy_bits"] = accuracy_bits(error)
                if not (math.isfinite(error) and 0 <= error <= gate):
                    verdict.update(verdict="wrong", why=f"max_rel_error {error!r} > {gate}")
            verdicts.append(verdict)
    for name, dims in REQUIRED_ROWS.items():
        for n in dims:
            if (name, n) not in seen:
                verdicts.append({"verdict": "wrong", "row": f"{name} n={n}",
                                 "why": "required row missing"})
    return verdicts
