"""Benchmark of lietorsion: timed rounds of one workload, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src``.  Each round runs the workload in a fresh interpreter
(``job.py``), because the package keeps module-level caches that a user's
CLI call always starts without.  Rounds run one after another for about S
seconds, at least three of them; set-up is also timed in separate set-up-only
interpreters.  The program is single-threaded, so one process at a time
carries the load.

The host this was built on changes speed by up to 1.8x, from one second to
the next and over minutes (other tenants share its cores), more than any
median over a 30-second run can hide.  So each interpreter also times two
fixed reference kernels that use no lietorsion code (see job.py), and every
time it reports is rescaled to the reference speed:

    corrected = measured * sqrt(REF_NOMINAL_S[0] * REF_NOMINAL_S[1] / (r0 * r1))

with r0 and r1 the kernels' mean times in that interpreter and REF_NOMINAL_S
their times on the uncontended host.  The end-to-end times (``wall_s``,
``cpu_s``, ``setup_s``) and the per-layer seconds are these corrected
seconds; the raw medians are printed next to them.  Memory, counts and
fractions are not rescaled.

``--trace 0`` prints the end-to-end metrics, medians over rounds.
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones (medians), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed; 1 when a check failed or a round broke; 2 when
the checkout holds no lietorsion sources or the arguments are wrong.
``--plant-fault`` corrupts every answer before checking, to show that the
checker fails the run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "lietorsion")
OUT_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import check  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
SETUP_PROBES = 7        # set-up-only interpreters per run, besides one per round
HARD_LIMIT = 165        # s: no interpreter may run past this point of a run

# reference kernels' times on the uncontended 2-vCPU Xeon host, Python 3.11.7
REF_NOMINAL_S = (0.00075, 0.00045)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class RoundError(RuntimeError):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # a fixed hash seed keeps set and dict iteration orders, and so timings,
    # the same from round to round
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload, seed, mode, timeout, spans_path=None):
    cmd = [sys.executable, "-S", "-s", os.path.join(HERE, "job.py"), ROOT, workload,
           str(seed), mode]
    if spans_path:
        cmd.append(spans_path)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{mode} round did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise RoundError(f"{mode} round exited {proc.returncode}:\n{tail}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise RoundError(f"{mode} round printed no result: {lines[-1][:200]!r}") from exc


def speed_factor(result):
    """Rescaling of a child's times to the reference speed."""
    r0, r1 = result["ref_s"]
    return (REF_NOMINAL_S[0] * REF_NOMINAL_S[1] / (r0 * r1)) ** 0.5


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no lietorsion sources at {PACKAGE}", file=sys.stderr)
        return 2
    # the build: byte-compile once so no round pays for it
    if not compileall.compile_dir(PACKAGE, quiet=1):
        print("error: lietorsion sources do not compile", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.json")

    jobs = workloads.jobs(args.workload, args.seed)
    modes = ("run", "trace") if args.trace else ("run",)
    rounds = {mode: [] for mode in modes}
    setup = []
    attempted = failed = 0
    failures = []
    problems = []
    start = time.perf_counter()

    def time_left():
        return max(1.0, HARD_LIMIT - (time.perf_counter() - start))

    try:
        for _ in range(SETUP_PROBES):
            setup.append(run_child(args.workload, args.seed, "setup", time_left()))
        durations = []
        while True:
            elapsed = time.perf_counter() - start
            longest = max(durations, default=0.0)
            if len(durations) >= MIN_ROUNDS and elapsed + longest > args.seconds:
                break
            if elapsed + longest > HARD_LIMIT:
                break
            mode = modes[len(durations) % len(modes)]
            t = time.perf_counter()
            result = run_child(args.workload, args.seed, mode, time_left(),
                               spans_path if mode == "trace" else None)
            durations.append(time.perf_counter() - t)
            answers = result.pop("answers")
            if args.plant_fault:
                answers = check.plant_fault(answers)
            checker = check.check_answers(jobs, answers)
            attempted += checker.attempted
            failed += len(checker.failures)
            failures.extend(checker.failures)
            if len(durations) == 1 and not checker.failures:
                problems.extend(check.self_test(jobs, answers))
            rounds[mode].append(result)
            setup.append(result)
    except RoundError as exc:
        attempted += 1
        failed += 1
        failures.append(str(exc))

    ran = rounds["run"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ran)} untraced and {len(rounds.get('trace', []))} traced rounds, "
          f"{len(setup)} set-ups, {time.perf_counter() - start:.1f} s")
    metrics = {}
    if ran:
        series = {
            "wall_s": [r["wall_s"] * speed_factor(r) for r in ran],
            "cpu_s": [r["cpu_s"] * speed_factor(r) for r in ran],
            "setup_s": [r["setup_s"] * speed_factor(r) for r in setup],
            "peak_rss_mib": [r["rss_kib"] / 1024 for r in ran],
        }
        raw = {"wall_s": [r["wall_s"] for r in ran], "cpu_s": [r["cpu_s"] for r in ran],
               "setup_s": [r["setup_s"] for r in setup]}
        for name, values in series.items():
            q1, q3 = quartiles(values)
            line = (f"  {name:<14} {statistics.median(values):12.6f} {END_TO_END_UNITS[name]:<5}"
                    f" median of {len(values)}, quartiles {q1:.6f} .. {q3:.6f}")
            if name in raw:
                line += f"; raw median {statistics.median(raw[name]):.6f}"
            print(line)
        speeds = [speed_factor(r) for r in ran]
        print(f"  host speed vs reference: median {statistics.median(speeds):.3f},"
              f" range {min(speeds):.3f} .. {max(speeds):.3f}")
        if not args.trace:
            metrics = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
                       for name, values in series.items()}
    traced = rounds.get("trace", [])
    if ran and traced:
        for name, unit in layertrace.UNITS.items():
            if name == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] * speed_factor(r) for r in traced)
                         / statistics.median(series["wall_s"]) - 1)
            elif unit == "s":
                value = statistics.median(r["layers"][name] * speed_factor(r) for r in traced)
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<38} {value:14.6f} {unit}")
        for name in traced[0]["layer_seconds"]:
            value = statistics.median(r["layer_seconds"][name] * speed_factor(r) for r in traced)
            print(f"  {name:<38} {value:14.6f} s (traced)")
        print(f"  spans of the last traced round: {os.path.relpath(spans_path, ROOT)}")

    for message in problems:
        print(f"  CHECKER SELF-TEST FAILED: {message}")
    for message in failures[:20]:
        print(f"  FAILED CHECK: {message}")
    fail_frac = failed / attempted if attempted else 1.0
    print(f"  checks: {attempted} attempted, {failed} failed (fail_frac {fail_frac:.6f})")
    correct = bool(attempted) and not failed and not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
