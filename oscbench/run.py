"""The oscmean benchmark.

Usage, from the root of a checkout:

    python3 oscbench/run.py --workload mean-spread --seed 1 --seconds 20 --trace 0

Workloads: mean-spread, mean-clustered, verify-batch (see README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
with spans around every layer entry point and prints the per-layer metrics.
Every answer is checked against ``reference.py``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Details,
the reproducer ledger and the spans go to ``.oscbench_out/``.

This process starts one fresh driver interpreter at a time and waits for
each; the program under test runs only inside those drivers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".oscbench_out"
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402

import judge  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters that measure set-up per run (a mean-* run adds the
#: measuring driver's own set-up; verify-batch adds each batch driver's).
SETUP_PROBES = {"mean-spread": 2, "mean-clustered": 2, "verify-batch": 3}
#: Fixed tail percentile per workload: the highest with at least ten
#: samples beyond it at this commit's throughput.  verify-batch has a few
#: batches per run, so its tail is the slowest batch.
TAIL_PERCENTILE = {"mean-spread": 98.0, "mean-clustered": 99.0}
LEDGER_ENTRIES = 5
#: Every driver must finish this many seconds after the run started, which
#: leaves time to judge the answers inside the 180 seconds a run may take.
RUN_DEADLINE_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "wall_s": "s",
    "ok_frac": "ratio",
    "not_wrong_frac": "ratio",
    "accuracy_bits_min": "bits",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_s": ("cli.main", "self_s"),
    "logpoly.lp_eval.calls": ("logpoly.lp_eval", "calls"),
    "logpoly.lp_eval.self_s": ("logpoly.lp_eval", "self_s"),
    "means.hyperplane_at.calls": ("means.hyperplane_at", "calls"),
    "means.hyperplane_at.self_s": ("means.hyperplane_at", "self_s"),
    "means.intersect.calls": ("means.intersect", "calls"),
    "means.intersect.self_s": ("means.intersect", "self_s"),
    "means.neuman_LN.self_s": ("means.neuman_LN", "self_s"),
    "means.identric_IZ.self_s": ("means.identric_IZ", "self_s"),
    "means.mean_M.self_s": ("means.mean_M", "self_s"),
    "numerics.solve_linear.calls": ("numerics.solve_linear", "calls"),
    "numerics.solve_linear.self_s": ("numerics.solve_linear", "self_s"),
    "numerics.det.calls": ("numerics.det", "calls"),
    "numerics.det.self_s": ("numerics.det", "self_s"),
    "numerics.find_root_bracketed.calls": ("numerics.find_root_bracketed", "calls"),
    "numerics.find_root_bracketed.self_s": ("numerics.find_root_bracketed", "self_s"),
    "wronskian.normal_field.calls": ("wronskian.normal_field", "calls"),
    "wronskian.normal_field.total_s": ("wronskian.normal_field", "total_s"),
    "wronskian.det_symbolic.calls": ("wronskian.det_symbolic", "calls"),
    "wronskian.det_symbolic.self_s": ("wronskian.det_symbolic", "self_s"),
    "identities.exact_suite.total_s": ("identities.exact_suite", "total_s"),
    "identities.scans.self_s": ("identities.scans", "self_s"),
    "identities.conjecture_scan.self_s": ("identities.conjecture_scan", "self_s"),
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_driver(job: Dict, deadline: float) -> Dict:
    """Run one fresh driver interpreter to completion and return its result.

    The driver is this interpreter's own binary, not a launcher script, so
    its CPU time since start-up (``setup_s``) is that of one interpreter.
    """
    timeout = max(1.0, deadline - time.monotonic())
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        job_path = Path(tmp) / "job.json"
        result_path = Path(tmp) / "result.json"
        job_path.write_text(json.dumps(dict(job, src=str(SRC), out_dir=str(OUT))))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "driver.py"), str(job_path), str(result_path)],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                env=dict(os.environ, PYTHONHASHSEED="0"),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"driver did not finish within {RUN_DEADLINE_S} s") from exc
        if proc.returncode != 0:
            raise BenchmarkError(
                f"driver exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        return json.loads(result_path.read_text())


def provenance(workload: str, seed: int, seconds: float) -> Dict:
    return {
        "inputs_sha256": workloads.fingerprint(workload, seed, seconds),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def output_hash(records: List[Dict]) -> str:
    return hashlib.sha256(
        json.dumps([[r["code"], r["stdout"]] for r in records]).encode()
    ).hexdigest()


def ledger_entry(request: Dict, record: Dict, verdict: Dict, ref) -> Dict:
    entry = {"argv": ["oscmean"] + request["argv"], "outcome": verdict["verdict"],
             "exit_code": record["code"]}
    if "why" in verdict:
        entry["why"] = verdict["why"]
    if record["code"] != 0:
        entry["stderr"] = record["stderr"].strip()
    with mpmath.mp.workprec(ref.work_bits):
        entry["reference"] = {
            "ln_mean": mpmath.nstr(ref.ln_mean, 25),
            "mk": None if ref.mk is None else mpmath.nstr(ref.mk, 25),
            "point": [mpmath.nstr(x, 25) for x in ref.point],
        }
    if record["code"] == 0:
        try:
            printed = json.loads(record["stdout"])
            entry["printed"] = {key: printed.get(key) for key in ("m1", "mk", "point")}
        except ValueError:
            entry["printed"] = record["stdout"][:400]
    return entry


def driver(args, mode: str, trace: bool = False) -> Dict:
    return run_driver({"mode": mode, "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": trace}, args.deadline)


def setup_probes(args) -> List[Dict]:
    return [driver(args, "setup") for _ in range(SETUP_PROBES[args.workload])]


def cpu(records: List[Dict]) -> float:
    return sum(r["cpu_s"] for r in records)


def wall_over_cpu(records: List[Dict]) -> float:
    """Wall time beyond raw CPU time, as a share of raw CPU time."""
    return sum(r["wall_s"] for r in records) / sum(r["raw_cpu_s"] for r in records) - 1


def speed_scale(records: List[Dict]) -> float:
    """Scaled over raw CPU time: above 1 when the host ran slow."""
    return cpu(records) / sum(r["raw_cpu_s"] for r in records)


def mean_workload(args) -> Dict:
    probes = setup_probes(args)
    result = driver(args, "mean", bool(args.trace))
    setups = [p["setup_s"] for p in probes + [result]]
    raw_setups = [p["raw_setup_s"] for p in probes + [result]]
    records = result["records"]
    requests = workloads.request_set(args.workload, args.seed, args.seconds,
                                     bool(args.trace))

    # every answer is judged; an answer repeated byte for byte is judged once
    answers: List[Dict] = [{} for _ in requests]
    for index, record in enumerate(records):
        i = index % len(requests)
        key = (record["code"], record["stdout"])
        if key not in answers[i]:
            request = requests[i]
            ref = reference.reference_for(request["literals"], request["k"])
            verdict = judge.judge_mean(request, record["code"], record["stdout"], ref)
            verdict["kind"] = request["kind"]
            answers[i][key] = (verdict, record, ref)
    # one verdict per request of the set: its first answer that is not ok
    verdicts, ledger = [], []
    for request, judged in zip(requests, answers):
        verdict, record, ref = next(
            (a for a in judged.values() if a[0]["verdict"] != "ok"),
            next(iter(judged.values())))
        verdicts.append(verdict)
        if verdict["verdict"] != "ok" and len(ledger) < LEDGER_ENTRIES:
            ledger.append(ledger_entry(request, record, verdict, ref))
    every_answer = [a[0] for judged in answers for a in judged.values()]

    latencies = [r["cpu_s"] for r in records]
    size = workloads.block_size(args.workload)
    blocks = [cpu(records[i:i + size]) for i in range(0, len(records) - size + 1, size)]
    answered = [v for v in every_answer if "accuracy_bits" in v]
    pct = TAIL_PERCENTILE[args.workload]
    tail = percentile(latencies, pct)
    detail = {
        "setup_samples_s": setups,
        "requests": len(records),
        "repeated": len(records) - len(requests),
        "nondeterministic": sum(1 for judged in answers if len(judged) > 1),
        "tail_percentile": pct,
        "samples_beyond_tail": sum(1 for x in latencies if x > tail),
        "block_s": blocks,
        "wall_over_cpu": wall_over_cpu(records),
        "speed_scale": speed_scale(records),
        "raw_setup_samples_s": raw_setups,
        "by_kind": by_kind(verdicts),
        "escalated": sum(1 for v in verdicts if v.get("escalated")),
        "outputs_sha256": output_hash(records[: workloads.HASHED_REQUESTS]),
        "ledger": ledger,
        "malformed": sum(1 for v in every_answer if v.get("malformed")),
        "crashes": sum(1 for v in verdicts if v.get("code") == "crash"),
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(records) / cpu(records),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail,
        "wall_s": statistics.fmean(blocks) if blocks else cpu(records),
        "accuracy_bits_min": min((v["accuracy_bits"] for v in answered),
                                 default=judge.ACCURACY_FLOOR_BITS),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return finish(args, verdicts, metrics, detail, result)


def by_kind(verdicts: List[Dict]) -> Dict:
    table: Dict[str, Dict[str, int]] = {}
    for v in verdicts:
        row = table.setdefault(v.get("kind", "row"), {"ok": 0, "refused": 0, "wrong": 0})
        row[v["verdict"]] += 1
    return table


def verify_workload(args) -> Dict:
    probes = setup_probes(args)
    setups = [p["setup_s"] for p in probes]
    raw_setups = [p["raw_setup_s"] for p in probes]
    batches = []
    start = time.perf_counter()
    while not batches or (not args.trace and time.perf_counter() - start < args.seconds):
        batches.append(driver(args, "batch"))
    traced = driver(args, "batch", trace=True) if args.trace else None
    setups += [b["setup_s"] for b in batches]
    every_answer = [v for b in batches for v in judge.judge_batch(b["records"])]
    # one verdict per row of the batch: its first one that is not ok
    by_row: Dict[str, Dict] = {}
    for verdict in every_answer:
        kept = by_row.setdefault(verdict["row"], verdict)
        if kept["verdict"] == "ok" and verdict["verdict"] != "ok":
            by_row[verdict["row"]] = verdict
    verdicts = list(by_row.values())
    times = [cpu(b["records"]) for b in batches]
    instances = sum(v.get("instances", 0) for v in every_answer)
    numeric = [v for v in every_answer if "accuracy_bits" in v]
    argv = [["oscmean"] + r["argv"] for r in workloads.verify_batch(args.seed)]
    ledger = [dict(v, argv=argv) for v in verdicts if v["verdict"] != "ok"][:LEDGER_ENTRIES]
    detail = {
        "setup_samples_s": setups,
        "batch_s": times,
        "batch_commands_s": [[r["cpu_s"] for r in b["records"]] for b in batches],
        "wall_over_cpu": wall_over_cpu([r for b in batches for r in b["records"]]),
        "speed_scale": speed_scale([r for b in batches for r in b["records"]]),
        "raw_setup_samples_s": raw_setups + [b["raw_setup_s"] for b in batches],
        "by_kind": by_kind(verdicts),
        "outputs_sha256": output_hash(batches[0]["records"]),
        "ledger": ledger,
        "malformed": sum(1 for v in every_answer if v.get("malformed")),
        "crashes": sum(1 for v in verdicts if v.get("code") == "crash"),
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": instances / sum(times),
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_tail_ms": 1000 * max(times),
        "wall_s": statistics.median(times),
        "accuracy_bits_min": min((v["accuracy_bits"] for v in numeric),
                                 default=judge.ACCURACY_FLOOR_BITS),
        "peak_rss_mb": max(b["peak_rss_mb"] for b in batches),
    }
    if traced is not None:
        # both unscaled: no speed sampling runs beside a traced batch
        traced["trace"].update(
            untraced_s=sum(r["raw_cpu_s"] for r in batches[0]["records"]),
            traced_s=cpu(traced["records"]),
            replay_identical=output_hash(traced["records"]) == detail["outputs_sha256"])
        traced["ops"] = 1
    return finish(args, verdicts, metrics, detail, traced)


def layer_metrics(workload: str, result: Dict, verdicts: List[Dict]):
    """Per-layer metrics per op, and the expected spans that were never hit."""
    trace = result["trace"]
    ops = result.get("ops") or len(result["records"])
    layers = trace["layers"]
    metrics = {name: layers[span][field] / ops for name, (span, field) in PER_LAYER.items()}
    metrics["numerics.find_root_bracketed.f_evals"] = trace["f_evals"] / ops
    mean_answers = [v for v in verdicts if "escalated" in v]
    metrics["means.escalated_frac"] = (
        sum(1 for v in mean_answers if v["escalated"]) / len(mean_answers)
        if mean_answers else 0.0
    )
    hits = trace["cache_after"]["hits"] - trace["cache_before"]["hits"]
    misses = trace["cache_after"]["misses"] - trace["cache_before"]["misses"]
    metrics["wronskian.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["wronskian.cache_entries"] = trace["cache_after"]["entries"]
    metrics["trace.overhead_frac"] = trace["traced_s"] / trace["untraced_s"] - 1
    unexercised = [span for span in spans.EXPECTED[workload] if layers[span]["calls"] == 0]
    if unexercised:
        print(f"trace: {workload} never reached {', '.join(unexercised)}", file=sys.stderr)
    if not trace["replay_identical"]:
        print("trace: traced and untraced outputs differ", file=sys.stderr)
    return metrics, unexercised


def finish(args, verdicts, metrics, detail, result) -> Dict:
    attempted = len(verdicts)
    refused = sum(1 for v in verdicts if v["verdict"] == "refused")
    wrong = sum(1 for v in verdicts if v["verdict"] == "wrong")
    metrics["ok_frac"] = len([v for v in verdicts if v["verdict"] == "ok"]) / attempted
    metrics["not_wrong_frac"] = 1 - wrong / attempted
    detail.update(attempted=attempted, refused=refused, wrong=wrong,
                  failed_frac=(refused + wrong) / attempted, wrong_frac=wrong / attempted)
    detail.update(provenance(args.workload, args.seed, args.seconds))
    # a crash is a refusal the program did not mean; unparsable output is
    # an answer the benchmark cannot check
    correct = detail["malformed"] == 0
    if args.trace:
        layer, unexercised = layer_metrics(args.workload, result, verdicts)
        detail["trace_unexercised"] = unexercised
        correct = correct and result["trace"]["replay_identical"]
        reported = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}
    else:
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items()}
    detail["metrics"] = reported
    return {"correct": correct, "attempted": attempted, "failed": refused + wrong,
            "metrics": reported, "detail": detail}


def unit_of(name: str) -> str:
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("cache_entries"):
        return "count"
    if name.endswith((".calls", ".f_evals")):
        return "count/op"
    return "s/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oscmean" / "cli.py").is_file():
        print(f"oscbench: no oscmean source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    args.deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.workload == "verify-batch":
            outcome = verify_workload(args)
        else:
            outcome = mean_workload(args)
    except (BenchmarkError, reference.ReferenceError) as exc:
        print(f"oscbench: {exc}", file=sys.stderr)
        return 1
    detail = outcome.pop("detail")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(outcome, detail=detail), indent=1))
    (OUT / f"ledger-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(detail["ledger"], indent=1))
    report(args, outcome, detail)
    print(json.dumps(outcome))
    return 0


def report(args, outcome, detail) -> None:
    print(f"oscbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for key in ("python", "mpmath", "mpmath_backend", "nproc", "inputs_sha256",
                "outputs_sha256"):
        print(f"  {key}: {detail[key]}")
    print(f"  attempted {detail['attempted']}: refused {detail['refused']} "
          f"({detail['crashes']} by crashing), wrong {detail['wrong']}, "
          f"failed_frac {detail['failed_frac']:.4f}, wrong_frac {detail['wrong_frac']:.4f}")
    for kind, row in sorted(detail["by_kind"].items()):
        print(f"    {kind:>10}: {row}")
    if "requests" in detail:
        print(f"  tail = p{detail['tail_percentile']:g} of {detail['requests']} requests, "
              f"{detail['samples_beyond_tail']} beyond it")
    print(f"  wall time over CPU time: {detail['wall_over_cpu']:+.3f}; "
          f"host speed scale: {detail['speed_scale']:.3f}")
    for entry in detail["ledger"]:
        print(f"  ledger: {json.dumps(entry)[:300]}")
    for name, metric in outcome["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
