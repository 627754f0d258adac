"""Tests of the benchmark itself (not of the program it measures).

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench -q

They drive ``run.py`` the way a user does, with short runs, and pin
that quality figures repeat bitwise for a seed, that every workload
prints exactly the metrics ``BENCHMARK.json`` declares, with their
units, that every workload says why it exists there, and that no run
leaves a process or a shared-memory segment behind.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402

SPEC = child.load_spec()
SECONDS = "1"


def bench(workload: str, seed: int = 0, trace: int = 0, cwd: str = ROOT):
    """Run the benchmark in its own session; returns (process, result, leftovers)."""
    shm_before = set(glob.glob(run.SHM_PATTERN))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    out, err = proc.communicate(timeout=300)
    leftovers = run.session_pids(proc.pid)
    leftovers += sorted(set(glob.glob(run.SHM_PATTERN)) - shm_before)
    lines = out.decode().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') \
        else None
    assert proc.returncode == 0 and result is not None, err.decode()[-3000:]
    result["detail"] = json.loads(lines[-2])["detail"]
    return result, leftovers


@pytest.fixture(scope="module")
def results():
    """Two untraced runs and one traced run of every workload, seed 0."""
    return {(w, trace, rep): bench(w, trace=trace)
            for w in child.WORKLOADS for trace, rep in ((0, 0), (0, 1), (1, 0))}


def test_every_workload_says_why():
    recorded = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert set(recorded) == set(child.WORKLOADS)
    for why in recorded.values():
        assert why.strip() and "\n" not in why and len(why) <= 200


def test_runs_are_correct_and_leave_nothing_behind(results):
    for key, (result, leftovers) in results.items():
        assert result["correct"] and result["failed"] == 0, key
        assert result["attempted"] >= 1, key
        assert leftovers == [], key


def test_every_workload_prints_every_declared_metric(results):
    declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for (workload, trace, _), (result, _) in results.items():
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert got == declared[trace], (workload, trace)
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), (workload, name)
        if not trace:
            assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_quality_repeats_bitwise_for_a_seed(results):
    quality = {"attack_flow": ("q_ssim", "q_accuracy"),
               "release_grid": ("q_ssim_tcq",)}
    for workload, names in quality.items():
        first = results[(workload, 0, 0)][0]["detail"]
        second = results[(workload, 0, 1)][0]["detail"]
        for name in names:
            assert first[name] == second[name], (workload, name)


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark files exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "0",
         "--seconds", SECONDS, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
