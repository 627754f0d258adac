"""The paper's claims at the shipping mode, fast/f32 (see experiments.py)."""

import pytest

from tests.paper.experiments import (  # noqa: F401  (fixtures)
    cache,
    face_experiment,
    in_mode,
    trained,
)


@pytest.fixture(scope="session")
def mode():
    return "fast/f32"
