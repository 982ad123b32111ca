"""One fresh driver interpreter of the oscmean benchmark.

Usage: python3 driver.py JOB.json RESULT.json

The job names a mode:

* ``setup`` -- import oscmean and send one cold request per distinct n;
  report how long that took.
* ``mean``  -- the same set-up, then a closed loop with one client that
  sends the run's request set once and then repeats it, a block at a time,
  until ``seconds`` have passed.  With ``trace`` every request of the
  (smaller) traced set is sent twice, once with spans installed, which
  gives per-layer numbers and the tracing overhead on the same requests.
* ``batch`` -- import oscmean, then run the verify-batch commands once,
  traced or not.

Requests go to ``oscmean.cli.main(argv)`` in-process with stdout and stderr
captured.  The driver is single-threaded and starts no process.
"""

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# a launcher may have run child processes before this interpreter started
_CHILD_CPU = sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2])

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402

STDERR_KEEP = 400


def load_program(src: str):
    os.environ.pop("OSCMEAN_PRECISION", None)
    sys.path.insert(0, src)
    import oscmean.cli as cli

    location = Path(cli.__file__).resolve()
    if Path(src).resolve() not in location.parents:
        raise SystemExit(f"oscmean was imported from {location}, not from {src}")
    return cli


def call(cli, argv, meter=None):
    """Run one CLI request and time it in CPU seconds of this thread.

    The virtual machine the benchmark runs in loses up to a third of wall
    time to the host in bursts; the program is single-threaded and does no
    I/O, so its CPU time is its latency on a quiet machine.  With a running
    ``meter`` the time is scaled to the reference host speed (``speed.py``);
    ``raw_cpu_s`` and wall time are kept beside it.
    """
    out = io.StringIO()
    err = io.StringIO()
    sampling = meter.overhead if meter is not None else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall = time.perf_counter()
        start = time.thread_time()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is an outcome to report, not to stop on
            code = "crash"
            traceback.print_exc(file=err)
        end = time.thread_time()
        wall = time.perf_counter() - wall
    if meter is not None:
        sampling = meter.overhead - sampling
    raw = end - start - sampling
    return {"cpu_s": raw, "raw_cpu_s": raw, "wall_s": wall, "cpu_span": (start, end),
            "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-STDERR_KEEP:]}


def closed_loop(cli, requests, window, block, recorder=None, meter=None):
    """Send every request once, one after another, then send them again from
    the first, a whole block at a time, until ``window`` wall seconds passed.

    Record i answers request i modulo ``len(requests)``, a multiple of
    ``block``.
    """
    records = []
    loop_start = time.perf_counter()
    for index, request in enumerate(itertools.cycle(requests)):
        if (index >= len(requests) and index % block == 0
                and time.perf_counter() - loop_start >= window):
            break
        if recorder is not None:
            recorder.request = index
        records.append(call(cli, request["argv"], meter))
    if meter is not None:
        for record in records:
            record["cpu_s"] *= meter.scale(*record["cpu_span"])
    return records


def traced_pairs(cli, requests):
    """Send each request once untraced and once traced, alternating which
    goes first so that neither side alone pays for warming up."""
    recorder = spans.Recorder()
    records = []
    untraced_s = traced_s = 0.0
    identical = True
    before = spans.cache_stats()
    for index, request in enumerate(requests):
        recorder.request = index
        outcomes = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                recorder.install()
            try:
                outcomes[traced] = call(cli, request["argv"])
            finally:
                if traced:
                    recorder.uninstall()
        plain, spanned = outcomes[False], outcomes[True]
        records.append(plain)
        untraced_s += plain["cpu_s"]
        traced_s += spanned["cpu_s"]
        identical = identical and (plain["code"], plain["stdout"]) == \
            (spanned["code"], spanned["stdout"])
    return records, recorder, {"untraced_s": untraced_s, "traced_s": traced_s,
                               "replay_identical": identical, "cache_before": before}


def check_single_process():
    """CPU time of this thread is only the program's latency if all of the
    program's work ran here."""
    threads = len(os.listdir("/proc/self/task"))
    children = sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2]) - _CHILD_CPU
    if threads != 1 or children > 0:
        raise NotSingleThreaded(
            f"the program ran {threads} threads or child processes; "
            "the benchmark times one single-threaded process"
        )


class NotSingleThreaded(RuntimeError):
    pass


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_report(recorder, before, out_dir, tag):
    recorder.write(Path(out_dir) / f"spans-{tag}.jsonl")
    return {"layers": recorder.summary(), "f_evals": recorder.f_evals,
            "cache_before": before, "cache_after": spans.cache_stats()}


def run(job):
    meter = Speedometer()
    meter.start()
    cli = load_program(job["src"])
    for request in workloads.setup_requests(job["workload"], job["seed"]):
        call(cli, request["argv"])
    # CPU time since the interpreter started: start-up, import, cold requests
    end = time.thread_time()
    result = {"setup_s": (end - meter.overhead) * meter.scale(0.0, end),
              "raw_setup_s": end - meter.overhead}
    if job["trace"] or job["mode"] == "setup":
        meter.stop()
    tag = f"{job['workload']}-seed{job['seed']}"
    if job["mode"] == "setup":
        pass
    elif job["mode"] == "batch":
        recorder = spans.Recorder() if job["trace"] else None
        if recorder is not None:
            before = spans.cache_stats()
            recorder.install()
        batch = workloads.verify_batch(job["seed"])
        result["records"] = closed_loop(cli, batch, 0.0, len(batch), recorder,
                                        None if job["trace"] else meter)
        if recorder is not None:
            recorder.uninstall()
            result["trace"] = layer_report(recorder, before, job["out_dir"], tag)
    else:
        requests = workloads.request_set(job["workload"], job["seed"], job["seconds"],
                                         job["trace"])
        if not job["trace"]:
            result["records"] = closed_loop(cli, requests, job["seconds"],
                                            workloads.block_size(job["workload"]),
                                            meter=meter)
        else:
            result["records"], recorder, totals = traced_pairs(cli, requests)
            result["trace"] = layer_report(recorder, totals.pop("cache_before"),
                                           job["out_dir"], tag)
            result["trace"].update(totals)
    meter.stop()
    result["speed_samples"] = len(meter.samples)
    result["sampling_s"] = meter.overhead
    check_single_process()
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main():
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    try:
        result = run(job)
    except (spans.MissingEntryPoint, NotSingleThreaded) as exc:
        print(f"driver: {exc}", file=sys.stderr)
        return 3
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
