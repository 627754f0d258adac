"""Golden end-to-end regression at the process default (``ref/f32``).

Each test asserts one part of the contract row ``ref/f32~golden:band``
of :mod:`tests.contract.test_mode_contract`, which holds the golden
configuration, the ``GOLDEN`` numbers and their bands; the run is the
session cache ``runs``, shared with the contract.
"""

import pytest

from tests.contract import test_mode_contract as contract

pytestmark = pytest.mark.slow

MODE = "ref/f32"


class TestGoldenNumbers:
    def test_payload_capacity_exact(self, runs):
        contract.assert_capacity(runs[MODE])

    def test_accuracy(self, runs):
        contract.assert_accuracy(runs[MODE])

    def test_reconstruction_quality(self, runs):
        contract.assert_reconstruction(runs[MODE])

    def test_recognizability(self, runs):
        contract.assert_recognizability(runs[MODE])

    def test_quantized_weights_use_16_levels(self, runs):
        contract.assert_levels(runs[MODE])
