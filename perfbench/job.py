"""One round of a workload in a fresh interpreter.

Usage: python3 -S -s perfbench/job.py ROOT WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup`` (import and set-up only), ``run`` or ``trace``.  Prints one
JSON line with the round's timings and answers.  The clock starts before
``import lietorsion``, so wall and CPU time include the import, as a CLI call
does; the set-up objects are built once more in a separately timed block so
that ``setup_s`` covers them without adding them to ``wall_s``.

The round also times two reference kernels that use no lietorsion code, 20
times before and 20 times after, and in ``run`` mode every 0.1 s during the
work, from a timer signal; the time those samples take is subtracted from
the work's.  run.py rescales the round's times by the kernels' mean times.
"""

import sys
import time
from itertools import permutations


def reference_sample():
    """One timing of two fixed kernels: interpreted list and dict code, and
    native tuple building and hashing."""
    a, b, acc = list(range(1000)), list(range(1000, 2000)), {}
    t = time.perf_counter()
    for k in range(10):
        c = [x - 3 * y for x, y in zip(a, b)]
        for i in range(0, 1000, 5):
            key = (i, k % 7)
            acc[key] = acc.get(key, 0) + c[i]
    t1 = time.perf_counter()
    len(set(permutations((0, 0, 0, 1, 1, 2, 3))))
    return t1 - t, time.perf_counter() - t1


reference = [reference_sample() for _ in range(20)]

t0 = time.perf_counter()
c0 = time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

root, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
src = os.path.join(root, "src")
sys.path.insert(0, src)

import lietorsion  # noqa: E402
import lietorsion.cli  # noqa: E402,F401

t_import = time.perf_counter()
c_import = time.process_time()

if not os.path.abspath(lietorsion.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"lietorsion imported from {lietorsion.__file__}, not from {src}")

import workloads  # noqa: E402

s0 = time.perf_counter()
workloads.build(workloads.setup_objects(workload, seed))
setup_s = (t_import - t0) + (time.perf_counter() - s0)


def reference_s():
    """Mean times of the two reference kernels over all samples taken."""
    reference.extend(reference_sample() for _ in range(20))
    return [sum(r[k] for r in reference) / len(reference) for k in (0, 1)]


if mode == "setup":
    print(json.dumps({"setup_s": setup_s, "ref_s": reference_s()}))
    sys.exit(0)

tracer = None
if mode == "trace":
    import layertrace
    tracer = layertrace.Tracer()
    layertrace.instrument(tracer)

sampler_s = 0.0


def sample(signum, frame):
    global sampler_s
    t = time.perf_counter()
    reference.append(reference_sample())
    sampler_s += time.perf_counter() - t


if tracer is None:
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, 0.1, 0.1)
job_list = workloads.jobs(workload, seed)
w0 = time.perf_counter()
cw0 = time.process_time()
raw = [workloads.run_job(job) for job in job_list]
w1 = time.perf_counter()
cw1 = time.process_time()
signal.setitimer(signal.ITIMER_REAL, 0)

result = {
    "setup_s": setup_s,
    "wall_s": (t_import - t0) + (w1 - w0) - sampler_s,
    "cpu_s": (c_import - c0) + (cw1 - cw0) - sampler_s,
    "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "answers": [workloads.answer(job, r) for job, r in zip(job_list, raw)],
    "ref_s": reference_s(),
}
if tracer is not None:
    result["layers"], result["layer_seconds"] = tracer.summary(w1 - w0)
    if len(sys.argv) > 5:
        tracer.dump(sys.argv[5])
print(json.dumps(result))
