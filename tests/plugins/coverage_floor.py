"""Dependency-free line-coverage floor for the parallel, backend and
monitor layers.

The container has no ``pytest-cov``, so this plugin implements the
coverage gate with the stdlib: a targeted ``sys.settrace`` hook records
executed lines in the watched files, executable lines are derived from
the compiled code objects (``dis.findlinestarts``), and the session
fails when coverage of ``src/repro/parallel/`` +
``src/repro/pipeline/sweep.py`` + ``src/repro/backend/`` +
``src/repro/monitor/`` + ``src/repro/serve/`` drops below the floor.

Wired into ``pyproject.toml`` addopts via
``-p tests.plugins.coverage_floor`` (loaded always) but inert -- zero
tracing overhead -- unless ``--repro-cov`` is passed.  CI enforces the
floor with::

    PYTHONPATH=src python -m pytest --repro-cov -m "not slow"

Known limit: lines that execute only inside worker *processes* (the
fork core's ``_child_main`` in ``parallel/worker.py``) are invisible to
the parent's trace hook, so the floor is set with that in mind;
everything else in the layer runs in-process somewhere in the suite.
"""

from __future__ import annotations

import dis
import sys
import threading
from typing import Dict, Set, Tuple

FLOOR_PERCENT = 85.0
TARGET_FILES = (
    "src/repro/parallel/__init__.py",
    "src/repro/parallel/pool.py",
    "src/repro/parallel/seeding.py",
    "src/repro/parallel/shards.py",
    "src/repro/parallel/worker.py",
    "src/repro/serve/__init__.py",
    "src/repro/serve/artifacts.py",
    "src/repro/serve/batcher.py",
    "src/repro/serve/server.py",
    "src/repro/serve/loadgen.py",
    "src/repro/serve/http.py",
    "src/repro/serve/tracing.py",
    "src/repro/serve/analyze.py",
    "src/repro/telemetry/metrics.py",
    "src/repro/telemetry/slo.py",
    "src/repro/pipeline/sweep.py",
    "src/repro/backend/__init__.py",
    "src/repro/backend/registry.py",
    "src/repro/backend/reference.py",
    "src/repro/backend/fast.py",
    "src/repro/backend/equivalence.py",
    "src/repro/monitor/__init__.py",
    "src/repro/monitor/core.py",
    "src/repro/monitor/probes.py",
    "src/repro/monitor/system.py",
    "src/repro/monitor/report.py",
    "src/repro/monitor/bench.py",
    "src/repro/monitor/alerts.py",
    "src/repro/telemetry/trace.py",
    "src/repro/precision.py",
    "src/repro/autograd/planner.py",
    "src/repro/autograd/function.py",
)


def pytest_addoption(parser):
    parser.addoption(
        "--repro-cov", action="store_true", default=False,
        help=f"trace src/repro/parallel + pipeline/sweep.py line coverage "
             f"and fail the session under {FLOOR_PERCENT:.0f}%%",
    )


class _FloorTracer:
    """Targeted line tracer: only frames from watched files are traced.

    A code object stops being traced once every one of its lines has
    been hit: further events could add nothing, and hot paths under
    timing tests (the disabled ``span()``) stay near their untraced cost.
    """

    def __init__(self, targets: Set[str]) -> None:
        self.targets = targets
        self.hits: Dict[str, Set[int]] = {path: set() for path in targets}
        self.done: Set[object] = set()
        self.lines: Dict[object, Set[int]] = {}

    def global_trace(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in self.targets and code not in self.done:
                # the call event's line is the def line, which never
                # fires as a separate "line" event inside the body
                self.hits[code.co_filename].add(frame.f_lineno)
                return self.local_trace
        return None

    def local_trace(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        elif event == "return":
            code = frame.f_code
            lines = self.lines.get(code)
            if lines is None:
                lines = self.lines[code] = {
                    line for _, line in dis.findlinestarts(code)
                    if line is not None and line > 0}
            if lines <= self.hits[code.co_filename]:
                self.done.add(code)
        return self.local_trace

    def install(self) -> None:
        threading.settrace(self.global_trace)
        sys.settrace(self.global_trace)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def _executable_lines(path: str) -> Tuple[Set[int], Set[int]]:
    """(module-level lines, nested-code lines) with trace-visible numbers.

    Module-level lines execute at import time; nested code objects
    (functions, methods, comprehensions) need a runtime call.  Each
    nested code object's first line (the ``def``) is attributed to the
    call event, so it stays in the nested set.
    """
    with open(path, "r", encoding="utf-8") as handle:
        top = compile(handle.read(), path, "exec")
    module_lines: Set[int] = set()
    nested_lines: Set[int] = set()
    stack = [(top, True)]
    while stack:
        code, is_module = stack.pop()
        lines = {line for _, line in dis.findlinestarts(code)
                 if line is not None and line > 0}
        (module_lines if is_module else nested_lines).update(lines)
        for const in code.co_consts:
            if isinstance(const, type(top)):
                stack.append((const, False))
    nested_lines -= module_lines
    return module_lines, nested_lines


def pytest_configure(config):
    if not config.getoption("--repro-cov"):
        config._repro_cov = None
        return
    root = config.rootpath
    targets = {str(root / rel) for rel in TARGET_FILES}
    tracer = _FloorTracer(targets)
    tracer.install()
    config._repro_cov = tracer


def pytest_sessionfinish(session, exitstatus):
    tracer = getattr(session.config, "_repro_cov", None)
    if tracer is None:
        return
    tracer.uninstall()
    total_executable = 0
    total_covered = 0
    rows = []
    for path in sorted(tracer.targets):
        module_lines, nested_lines = _executable_lines(path)
        # importing the module executes every module-level line; the
        # import itself happened under the tracer, but count it as
        # covered regardless so early-imported modules aren't penalised
        imported = any(
            getattr(mod, "__file__", None) == path
            for mod in list(sys.modules.values())
        )
        hits = tracer.hits[path]
        covered = (module_lines if imported else module_lines & hits) | \
                  (nested_lines & hits)
        executable = module_lines | nested_lines
        total_executable += len(executable)
        total_covered += len(covered)
        pct = 100.0 * len(covered) / len(executable) if executable else 100.0
        rows.append((path, len(covered), len(executable), pct))

    pct = 100.0 * total_covered / total_executable if total_executable else 100.0
    lines = ["", "repro.parallel + repro.backend + repro.monitor coverage "
                 f"floor (floor {FLOOR_PERCENT:.0f}%):"]
    for path, covered, executable, file_pct in rows:
        lines.append(f"  {file_pct:5.1f}%  {covered}/{executable}  {path}")
    lines.append(f"  total: {pct:.1f}%")
    print("\n".join(lines))
    if pct < FLOOR_PERCENT:
        print(f"FAILED coverage floor: {pct:.1f}% < {FLOOR_PERCENT:.0f}%")
        session.exitstatus = 1
