"""Shared fixtures for the benchmark suite.

The experiment cache is the paper claims' (``tests/paper/experiments.py``):
the ``test_ext_*`` and ablation benchmarks read it at ``ref/f32``, the
process defaults, and ``test_paper_claims.py`` overrides ``mode`` to run
the ten claims at the oracle and DDP modes.
"""

import pytest

from tests.paper.experiments import (  # noqa: F401  (fixtures)
    BITS_SWEEP,
    FACE_BITS,
    LAMBDA_SWEEP,
    cache,
    face_experiment,
    in_mode,
    trained,
)


@pytest.fixture(scope="session")
def mode():
    return "ref/f32"


def run_once(benchmark, fn):
    """Measure ``fn`` exactly once (experiments are not micro-benchmarks)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
