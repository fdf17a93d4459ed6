"""Benchmark for the coincidence-kit CLI.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Generates the workload's problems
from the seed, measures the set-up cost of a fresh interpreter importing the
CLI, runs measured passes of ``coincidence_kit.cli.main`` in one child
process, then, off the clock, checks every answer against an exact reference
that does not share the engine's route.  Solve times are reported at the
reference speed of ``calibration.py``; set-up times are wall times.  Prints
the problem mix, the answer classes and every metric with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead.  Exit status is 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibration import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 8  # before and again after the measured passes
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("COINCIDENCE_KIT_MAX_CLOSURE", None)
    return env


def measure_setup(samples: int, warm: bool) -> list[float]:
    """Wall times of a fresh interpreter importing the CLI module.  Unless
    ``warm``, one untimed run first leaves the bytecode cache warm.

    These stay wall times: start-up slows down less than the calibration
    kernel when the host is busy, so scaling them would over-correct."""
    cmd = [sys.executable, "-c", "import coincidence_kit.cli"]
    env = _child_env()
    out = []
    for i in range(samples + (not warm)):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if warm or i:
            out.append(time.perf_counter() - start)
    return out


def run_passes(problems, seconds: float, trace: bool, spans_path: Path) -> dict:
    request = {
        "problems": [{"id": p["id"], "argv": p["argv"]} for p in problems],
        "seconds": seconds,
        "min_passes": MIN_PASSES + 1 if trace else MIN_PASSES,
        "trace": trace,
        "spans_path": str(spans_path),
    }
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"measured passes failed:\n{done.stderr}")
    return json.loads(done.stdout)


# -- answers ---------------------------------------------------------------------------


def classify(output: dict, ref) -> tuple[str, str]:
    """One of ok, unverified, wrong, refused, errored, with a reason."""
    code = output["code"]
    if isinstance(code, str):
        return "errored", code
    if code == 1 and "cap" in output["stderr"]:
        return "refused", output["stderr"].strip()
    if code == 3:
        return "refused", "unsupported-reduction"
    if code not in (0, 2):
        return "errored", f"exit {code}: {output['stderr'].strip()}"
    report = json.loads(output["stdout"])
    if ref is None:
        verdict, reason = "unverified", "no reference within its cap"
    else:
        verdict, reason = "ok", ""
        got = {"value": report["value"], "pairwise": tuple(report["pairwise"])}
        want = {"value": ref.value, "pairwise": ref.pairwise}
        if not got["pairwise"]:
            del got["pairwise"], want["pairwise"]
        inter = report.get("intermediates", {})
        if "ker_psi_order" in inter and ref.ker_psi is not None:
            got["ker_psi"], want["ker_psi"] = inter["ker_psi_order"], ref.ker_psi
        if "divisors" in inter and ref.divisors is not None:
            got["divisors"], want["divisors"] = tuple(inter["divisors"]), ref.divisors
        if got != want:
            return "wrong", f"program {got}, reference {want}"
    if code == 2:
        return "errored", "the program's own check failed: " + output["stderr"].strip()
    return verdict, reason


def reference_answers(problems):
    """Reference answer per problem, or None with the reason it is missing."""
    from coincidence_kit.errors import CoincidenceError
    from references import Unverifiable, reference

    refs, notes = [], []
    for p in problems:
        try:
            refs.append(reference(p["doc"]))
            notes.append("")
        except (Unverifiable, CoincidenceError) as exc:
            refs.append(None)
            notes.append(str(exc))
    return refs, notes


# -- metrics ---------------------------------------------------------------------------


def problem_times(result, traced: bool = False, raw: bool = False) -> list[float]:
    """Each problem's median untraced (or traced) call time, at reference
    speed unless ``raw``."""
    prefix = "traced_" if traced else ""
    out = []
    for times, scales in zip(result[prefix + "times"], result[prefix + "scales"]):
        out.append(statistics.median(times if raw else [t * f for t, f in zip(times, scales)]))
    return out


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result, setup, n: int, failed: int) -> dict:
    per_problem = problem_times(result)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "solve_ms_p50": {"value": 1000 * statistics.median(per_problem), "unit": "ms"},
        "solve_ms_p90": {"value": 1000 * nearest_rank(per_problem, 0.9), "unit": "ms"},
        "problems_per_s": {"value": n / sum(per_problem), "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        "ok_frac": {"value": (n - failed) / n, "unit": "ratio"},
    }


def tracing_overhead(result) -> float:
    """Untraced over traced throughput from the same run: the summed
    problem times with tracing over those without."""
    return sum(problem_times(result, traced=True)) / sum(problem_times(result))


# -- report ----------------------------------------------------------------------------


def print_mix(workload, problems, refs):
    from references import INFINITE

    print(f"workload {workload}: {len(problems)} problems")
    mix = Counter((p["family"], p["band"]) for p in problems)
    infinite = Counter(
        (p["family"], p["band"]) for p, r in zip(problems, refs) if r is not None and r.value == INFINITE
    )
    for (family, band), count in sorted(mix.items()):
        print(f"  mix {family:14s} {band:18s} {count:4d}   infinite {infinite[(family, band)]}")
    properties = {
        "k>=6 maps": sum(1 for p in problems if len(p["doc"].get("maps", ())) >= 6),
        "table-backed square": sum(1 for p in problems if p["band"].startswith("table")),
        "unequal fibers": sum(1 for r in refs if r is not None and r.unequal_fibers),
        "infinite value": sum(1 for r in refs if r is not None and r.value == INFINITE),
    }
    for name, count in properties.items():
        print(f"  share {name:20s} {count:4d} / {len(problems)} = {count / len(problems):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coincidence_kit" / "cli.py").is_file():
        print(f"error: no coincidence_kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from problems import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    try:
        problems = generate(args.workload, args.seed, ROOT)
        setup = measure_setup(SETUP_SAMPLES, warm=False)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_{args.workload}_{args.seed}.tsv"
        result = run_passes(problems, args.seconds, bool(args.trace), spans_path)
        setup += measure_setup(SETUP_SAMPLES, warm=True)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    refs, ref_notes = reference_answers(problems)
    verdicts = [classify(out, ref) for out, ref in zip(result["outputs"], refs)]
    for i, p in enumerate(problems):
        if p["id"] in result["nondeterministic"]:
            verdicts[i] = ("errored", "output changed between calls")
    classes = Counter(v for v, _ in verdicts)

    print_mix(args.workload, problems, refs)
    for p, (verdict, reason), note in zip(problems, verdicts, ref_notes):
        if verdict != "ok":
            print(f"  {verdict:10s} {p['id']} {p['family']} {p['band']}: {reason or note}"[:300])
    n = len(problems)
    failed = classes["wrong"] + classes["refused"] + classes["errored"]
    passes = result["passes"].count(False)
    samples = sum(len(t) for t in result["times"])
    print(
        f"answers: ok {classes['ok']}, unverified {classes['unverified']}, "
        f"wrong {classes['wrong']}, refused {classes['refused']}, errored {classes['errored']}"
    )
    print(
        f"fail_frac {failed / n:.4f} ratio = (wrong {classes['wrong']} + refused "
        f"{classes['refused']} + errored {classes['errored']}) / {n} attempted"
    )
    e2e = end_to_end(result, setup, n, failed)
    beyond = sum(1 for t in problem_times(result) if t * 1000 > e2e["solve_ms_p90"]["value"])
    print(
        f"timing: {n} problems, {passes} untraced passes, {samples} timed calls; "
        f"{beyond} problems beyond p90"
    )
    raw = problem_times(result, raw=True)
    print(
        f"wall clock: kernel median {1000 * statistics.median(result['kernel_s']):.3f} ms "
        f"against {1000 * REFERENCE_S:.3f} ms reference; solve p50 "
        f"{1000 * statistics.median(raw):.4f} ms, p90 {1000 * nearest_rank(raw, 0.9):.4f} ms"
    )
    if args.trace:
        metrics = result["layers"]
        metrics["trace.overhead"] = {"value": tracing_overhead(result), "unit": "ratio"}
        print(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    else:
        metrics = e2e
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    correct = classes["wrong"] == 0 and classes["errored"] == 0
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
