"""Benchmark of the attack flow, the release grid and serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload attack_flow --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Workloads and metrics are declared in ``BENCHMARK.json``.  With
``--trace 0`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric
and per-layer tables are printed before it.  Every workload reports the
same metric names, each measured on its own unit of work (see
``workloads.py``); the line before the result, ``{"detail": ...}``, holds
the workload's own figures (``flow_s``, ``q_ssim``, ``grid_s``,
``low.latency_p99_ms``, ...).  ``--workload all`` runs every workload in
turn and ends with one table of all their metrics and details.

This file only supervises: it runs ``child.py`` in a session of its
own, kills that whole session if it overruns, and afterwards fails the
run if any process of the session or any new ``/dev/shm/repro_*``
segment outlived it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIMIT_S = 170.0          # the whole run, set-up included
DRAIN_S = 5.0            # grace for the session to exit after the child
SHM_PATTERN = "/dev/shm/repro_*"


def processes():
    """``(pid, stat fields after the command name)`` of every live process."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue   # exited while we looked
        if fields[0] != "Z":
            yield int(entry), fields


def session_pids(sid: int) -> list:
    """Live processes of session ``sid``."""
    return [pid for pid, fields in processes() if int(fields[3]) == sid]


def kill_session(sid: int) -> None:
    try:
        os.killpg(sid, signal.SIGKILL)
    except OSError:
        pass
    for pid in session_pids(sid):   # members that left the process group
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def supervise(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a session of its own.

    Returns ``(exit code, stdout lines, problems)``; a run with problems
    or a non-zero exit code prints no result.
    """
    shm_before = set(glob.glob(SHM_PATTERN))
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        kill_session(child.pid)
        out, _ = child.communicate()
        return 3, [], [f"run exceeded {LIMIT_S:.0f}s; killed its session"]

    problems = []
    deadline = time.monotonic() + DRAIN_S
    while session_pids(child.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    leftover = session_pids(child.pid)
    if leftover:
        kill_session(child.pid)
        problems.append(f"processes {leftover} outlived the run; killed")
    for path in sorted(set(glob.glob(SHM_PATTERN)) - shm_before):
        problems.append(f"shared-memory segment {path} outlived the run")
        try:
            os.unlink(path)
        except OSError:
            pass
    lines = out.decode("utf-8", errors="replace").splitlines()
    code = child.returncode or (1 if problems or not lines else 0)
    if code:
        lines = [line for line in lines if not line.startswith('{"correct"')]
    return code, lines, problems


def summary(results: dict) -> str:
    """One table of every workload's metrics, attempted and failed."""
    lines = [f"{'workload':<14} {'metric':<42} {'value':>14}  unit"]
    for workload, result in results.items():
        if result is None:
            lines.append(f"{workload:<14} {'(failed: no result)':<42}")
            continue
        for name, metric in result["metrics"].items():
            lines.append(f"{workload:<14} {name:<42} {metric['value']:>14.6g}  "
                         f"{metric['unit']}")
        for name, value in result["detail"].items():
            lines.append(f"{workload:<14} {name:<42} {value:>14.6g}  (detail)")
        lines.append(f"{workload:<14} {'attempted / failed':<42} "
                     f"{result['attempted']:>8} / {result['failed']:<4}  "
                     f"correct={result['correct']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            workloads = [w["name"] for w in json.load(handle)["workloads"]]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads + ["all"]:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads)}, all)", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro in this checkout", file=sys.stderr)
        return 2

    chosen = workloads if args.workload == "all" else [args.workload]
    results, worst = {}, 0
    for workload in chosen:
        code, lines, problems = supervise(workload, args.seed, args.seconds,
                                          args.trace)
        print("\n".join(lines), flush=True)
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        if code:
            results[workload] = None
        else:
            results[workload] = json.loads(lines[-1])
            results[workload]["detail"] = json.loads(lines[-2])["detail"]
        worst = worst or code
    if args.workload == "all":
        print(summary(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
