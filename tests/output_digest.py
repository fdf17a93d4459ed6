"""One SHA-256 per workload over the CLI's printed output.

    PYTHONPATH=src python tests/output_digest.py --seed 101 [--src DIR]

Each digest covers the exit code, stdout and stderr of these in-process
runs of ``coincidence_kit.cli.main``, in order:

- torus, finite, nilmanifold, verify: every problem that
  perfbench/problems.py generates for the workload at the seed, in its
  benchmark form; then, except for finite, ``check --trace`` and
  ``compute --oracle --trace`` (structured) on each of those problems;
- golden: the modes of tests/golden_cases.py on every shipped problem,
  named by its path relative to the checkout, which is the working
  directory of every run; so no digest depends on where the checkout lives.

The problems always come from this checkout; --src picks the package that
answers them (default: this checkout's src).  So a change meant to leave
printed output alone shows it with two commands, one per --src, that print
the same lines on stdout; stderr names the package that answered.  All work
happens under __main__, so importing this file (as pytest's
--doctest-modules does) runs nothing.

tests/output_digest_seed101.txt and tests/output_digest_seed7.txt hold the
stdout at seeds 101 and 7, and CI fails when either differs.  A change that
alters printed output on purpose regenerates both files, as it does
tests/golden/.
"""

if __name__ == "__main__":
    import argparse
    import contextlib
    import hashlib
    import io
    import json
    import os
    import sys
    from pathlib import Path

    ROOT = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench"), str(ROOT / "tests")]
    os.chdir(ROOT)

    from coincidence_kit import cli
    from problems import WORKLOADS, generate
    from golden_cases import MODES, PROBLEM_FILES

    def run(argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escape from main is output too
                code = f"exception {type(exc).__name__}: {exc}"
        return json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n"

    runs = {}
    for workload in WORKLOADS:
        problems = generate(workload, args.seed, ROOT)
        argvs = [p["argv"] for p in problems]
        if workload != "finite":
            for p in problems:
                text = p["argv"][1]
                argvs.append(["check", text, "--trace", "--format", "structured"])
                argvs.append(
                    ["compute", text, "--oracle", "--trace", "--format", "structured"]
                )
        runs[workload] = argvs
    runs["golden"] = [
        [command, path.relative_to(ROOT).as_posix(), *flags, "--format", "structured"]
        for path in PROBLEM_FILES
        for command, *flags in MODES.values()
    ]
    total = 0
    for workload, argvs in runs.items():
        digest = hashlib.sha256()
        for argv in argvs:
            digest.update(run(argv).encode("utf-8"))
        total += len(argvs)
        print(f"{workload:12s} {len(argvs):5d} runs  {digest.hexdigest()}")
    print(f"{'all':12s} {total:5d} runs")
    print(f"package: {Path(cli.__file__).parent}", file=sys.stderr)
