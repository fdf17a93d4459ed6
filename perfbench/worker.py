"""Measured passes over one workload, run in a child process of its own.

Reads a JSON request on stdin: {"problems": [{"id", "argv"}...], "seconds",
"min_passes", "trace", "spans_path"}.  Calls ``coincidence_kit.cli.main`` in
process for every problem, pass after pass, while another pass still fits
in ``seconds`` or fewer than ``min_passes`` passes are complete.  A pass
calls each problem once, so every problem's calls are spread over the
whole run.  The calibration kernel is timed at the start and end of every
pass and after every 0.03 s of calls; a call is taken to reference speed
by the median of the four kernel timings nearest to it.
Prints one JSON result on stdout: each problem's exit code, stdout and
stderr from its first call, its wall time in every call with the factor
that takes it to reference speed, and this process's peak RSS.

With ``trace`` set, passes alternate untraced and traced, starting
untraced, so the two throughputs come from the same stretch of time and
their ratio is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from calibration import scale, time_kernel

CALIBRATE_EVERY_S = 0.03
WINDOW = 2  # kernel timings taken on each side of a call


def _solve(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = main(argv)
        except Exception as exc:  # any escape from main is an errored answer
            code = f"exception {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run(request: dict) -> dict:
    from coincidence_kit import cli

    problems = request["problems"]
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    first = [None] * len(problems)
    calls = [[] for _ in problems]  # (seconds, kernel timing before)
    traced_calls = [[] for _ in problems]
    kernel = []
    passes = []  # whether each pass was traced
    mismatched = set()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        kernel.append(time_kernel())
        since = 0.0
        if traced:
            tracer.begin_pass()
        for i, p in enumerate(problems):
            if traced:
                tracer.problem = p["id"]
            code, out, err, ns = _solve(cli.main, p["argv"])
            if first[i] is None:
                first[i] = {"code": code, "stdout": out, "stderr": err}
            elif (code, out) != (first[i]["code"], first[i]["stdout"]):
                mismatched.add(p["id"])
            (traced_calls if traced else calls)[i].append((ns / 1e9, len(kernel) - 1))
            since += ns / 1e9
            if since >= CALIBRATE_EVERY_S:
                kernel.append(time_kernel())
                since = 0.0
        if traced:
            tracer.end_pass()
        kernel.append(time_kernel())
        passes.append(traced)
        elapsed = time.perf_counter() - start
        # stop before a pass that would run past the time budget
        if len(passes) >= request["min_passes"] and elapsed * (1 + 1 / len(passes)) > request["seconds"]:
            break

    def split(per_problem):
        times = [[t for t, _ in c] for c in per_problem]
        scales = [
            [scale(kernel[max(0, k + 1 - WINDOW) : k + 1 + WINDOW]) for _, k in c]
            for c in per_problem
        ]
        return times, scales

    times, scales = split(calls)
    result = {
        "outputs": first,
        "times": times,
        "scales": scales,
        "kernel_s": kernel,
        "passes": passes,
        "nondeterministic": sorted(mismatched),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["traced_times"], result["traced_scales"] = split(traced_calls)
        result["layers"] = tracer.metrics()
        tracer.write_spans(request["spans_path"])
    return result


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
