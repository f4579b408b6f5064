"""Benchmark of the cellscape command line.

    python3 perfbench/run.py --workload <convergence|landscape|analysis>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The program is imported from
``src/`` and every command runs in-process through ``cellscape.cli.main``.
Rounds of the workload's commands repeat until ``--seconds`` have passed.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics.  With ``--trace 1`` rounds run in pairs, one
untraced and one traced, and the JSON object holds the per-layer metrics.
Results, the environment and (when traced) the spans are also written under
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("convergence", "landscape", "analysis"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "cellscape" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cellscape sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401  (imports cellscape.cli)
    return workloads


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def setup_seconds(workload, seed):
    """Median, over fresh interpreters, of the time from process start until
    the program is imported and the workload's inputs are written."""
    samples = []
    for i in range(SETUP_SAMPLES):
        workdir = OUT / "work" / f"probe-{os.getpid()}-{i}"
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr[-500:]}")
        samples.append(float(done.stdout.split()[-1]) - started)
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, trace, sizes=None):
    """Runs the workload for ``seconds``; returns (result, record)."""
    workloads = import_program()
    import layers
    from spans import SpanSummary, Tracer

    warnings.simplefilter("ignore", RuntimeWarning)  # overflow in diverging runs
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[workload](OUT / "work" / f"{workload}-{os.getpid()}",
                                       seed, sizes or workloads.FULL)
    wl.setup()
    try:
        setup_s = None if trace else setup_seconds(workload, seed)
        attempted = failed = 0
        failures = []
        kernel_s = []  # per untraced round: the speed kernel's times
        untraced, traced = [], []  # per round: its list of Command results
        scaled_rounds = []  # untraced round times at the reference speed
        summaries = []
        tracer = Tracer() if trace else None
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            for trace_this in ((False, True) if trace else (False,)):
                wl.calibrate = not trace_this
                wl.kernel_samples = []
                if trace_this:
                    first = len(tracer.start)
                    tracer.install()
                    wl.tracer = tracer
                try:
                    cmds, att, fail, checks = wl.round(index)
                finally:
                    if trace_this:
                        tracer.uninstall()
                        wl.tracer = None
                index += 1
                attempted += att
                failed += fail
                failures += checks.failures
                if trace_this:
                    traced.append(cmds)
                    summaries.append(SpanSummary(tracer, first))
                else:
                    untraced.append(cmds)
                    kernel_s.append(wl.kernel_samples)
                    scaled_rounds.append(speed.scale(wl.kernel_samples)
                                         * sum(c.seconds for c in cmds))
    finally:
        wl.cleanup()

    if trace:
        metrics = layers.per_layer_metrics(summaries, untraced, traced)
        (OUT / "spans").mkdir(exist_ok=True)
        tracer.write(OUT / "spans" / f"{workload}-seed{seed}.csv.gz")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "round_s": {"value": statistics.median(scaled_rounds), "unit": "s"},
        }
    result = {"correct": failed == 0 and not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "rounds": index, "env": environment(seed), "failures": failures,
              "kernel_s": kernel_s,
              "raw_round_s": [sum(c.seconds for c in cmds) for cmds in untraced],
              **result}
    return result, record


def main(argv=None):
    args = parse_args(argv)
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    for line in record["failures"][:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
