"""Run one benchmark workload in this process and print its result.

``run.py`` starts this file in a session of its own and supervises it;
run that instead.  Here the workload is set up several times (set-up
time is the median), measured untraced for the end-to-end metrics or,
with ``--trace 1``, measured untraced and then traced for the per-layer
metrics, and closed.  The last line printed is the result object, with
every metric ``BENCHMARK.json`` declares for the mode; the line before
it holds the workload's own figures (``{"detail": ...}``).
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import signal
import statistics
import sys
import time

import run  # this directory is first on sys.path

ROOT = run.ROOT
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
MIN_CPUS = 2        # DDP world 2, a 2-worker pool, a server plus one shard


#: Every workload this benchmark can run; BENCHMARK.json records why.
WORKLOADS = ("attack_flow", "release_grid", "serve")


def make_workload(workloads, name: str, seed: int):
    if name == "attack_flow":
        return workloads.AttackFlow(seed)
    if name == "release_grid":
        return workloads.ReleaseGrid(seed)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    return workloads.Serve(seed, workdir=scratch)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_pids() -> list:
    """Live direct children of this process, multiprocessing's resource
    tracker excepted (it exits on its own when this process does)."""
    me, found = str(os.getpid()), []
    for pid, fields in run.processes():
        if fields[1] != me:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"resource_tracker" in handle.read():
                    continue
        except OSError:
            continue   # exited while we looked
        found.append(pid)
    return found


def leak_problems(shm_before: set) -> list:
    """Kill and report child processes and new ``repro_*`` segments;
    any of them fails the run."""
    problems = []
    for pid in child_pids():
        problems.append(f"child process {pid} left running")
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
    for path in sorted(set(glob.glob(run.SHM_PATTERN)) - shm_before):
        problems.append(f"shared-memory segment {path} left behind")
        try:
            os.unlink(path)
        except OSError:
            pass
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Pinned before numpy loads: BLAS thread pools would otherwise compete
    # with the worker processes for the same cores.
    os.environ.update({var: "1" for var in THREAD_VARS})

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if cpu_count() < MIN_CPUS:
        print(f"perfbench: needs at least {MIN_CPUS} CPUs, has {cpu_count()}",
              file=sys.stderr)
        return 2
    shm_before = set(glob.glob(run.SHM_PATTERN))

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import repro
    import workloads
    import_s = time.perf_counter() - start
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"perfbench: imported repro from {repro.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    from layers import LayerClock
    from repro.monitor.bench import machine_fingerprint

    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": machine_fingerprint(),
    }}), flush=True)

    workload = make_workload(workloads, args.workload, args.seed)

    try:
        setups = [workload.setup() for _ in range(SETUP_REPEATS)]
        metrics = {"setup_s": import_s + statistics.median(
            sum(parts.values()) for parts in setups)}
        gc.collect()
        if args.trace:
            untraced = workload.timed(args.seconds / 2)
            with LayerClock() as clock:
                workload.trace(clock)
                gc.collect()
                traced = workload.traced(args.seconds / 2)
            runs = [untraced, traced]
            detail = {part: statistics.median(s[part] for s in setups)
                      for part in setups[0]}
            metrics = {
                "setup.import_s": import_s,
                "setup.data_s": detail["setup.data_s"],
                "setup.prepare_s": statistics.median(
                    sum(parts.values()) - parts["setup.data_s"] for parts in setups),
            }
            metrics.update(traced.metrics)
            metrics["trace.overhead_frac"] = (
                statistics.median(traced.unit_times)
                / statistics.median(untraced.unit_times) - 1.0)
            detail.update(traced.detail)
        else:
            runs = [workload.measure(args.seconds)]
            metrics.update(runs[0].metrics)
            detail = runs[0].detail
    finally:
        workload.close()

    leaks = leak_problems(shm_before)
    problems = [p for got in runs for p in got.problems] + leaks
    for got in runs:
        for table in got.tables:
            print(table)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if leaks:
        return 1
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if set(metrics) != set(declared):
        print(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json declares "
              f"{sorted(declared)}", file=sys.stderr)
        return 1
    attempted = sum(got.attempted for got in runs)
    failed = sum(got.failed for got in runs)
    print(json.dumps({"detail": detail}), flush=True)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in declared},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
