"""A released artifact decodes and serves exactly like the in-process model.

Each test asserts one part of the contract row
``fast/f32/served~fast/f32:bitwise`` of
:mod:`tests.contract.test_mode_contract`: the golden 4-bit TCQ model,
written with :func:`save_artifact`, reloaded with :func:`load_artifact`,
decoded, and served by :class:`ModelServer` through serial and forked
shards, against the in-process ``fast/f32`` run.
"""

import pytest

from tests.contract import test_mode_contract as contract

SERVED, BASE = "fast/f32/served", "fast/f32"


def test_loaded_artifact_decodes_identically(runs):
    contract.assert_same_evaluation(runs[SERVED], runs[BASE])
    contract.assert_same_weights(runs[SERVED], runs[BASE])


@pytest.mark.parametrize("start_method", [
    "spawn",  # ShardPool degrades spawn to in-process (serial) shards
    pytest.param("fork", marks=pytest.mark.skipif(
        not contract.HAVE_FORK, reason="fork start method unavailable")),
])
def test_served_outputs_equal_in_process_forward(runs, start_method):
    contract.assert_same_logits(runs[SERVED], runs[BASE], start_method)
