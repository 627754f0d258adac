"""Golden attack-metric bands under data-parallel training.

The hard acceptance criterion for the DDP runtime: the full quantized
correlation attack, trained across 1/2/4 ranks, stays inside the same
golden bands as the serial seed run (``test_golden_pipeline.py``).
Per-rank batch-norm statistics make multi-rank runs drift slightly from
serial (classic DDP-without-sync-BN behaviour) but the drift must stay
well inside the bands -- and ``ddp_workers=1`` must not merely land in
the bands, it must reproduce the serial numbers *exactly*, proving the
serial code path is untouched.
"""

import numpy as np
import pytest

pytestmark = pytest.mark.slow

from repro.datasets import SyntheticCifarConfig, make_synthetic_cifar, train_test_split
from repro.metrics.psnr import batch_psnr
from repro.models import resnet8_tiny
from repro.parallel import ddp
from repro.pipeline import (
    AttackConfig,
    QuantizationConfig,
    TrainingConfig,
    run_quantized_correlation_attack,
)
from repro.telemetry.metrics import default_registry

from tests.integration.test_golden_pipeline import GOLDEN, within


def _golden_attack(ddp_workers):
    data = make_synthetic_cifar(
        SyntheticCifarConfig(num_images=120, num_classes=4, image_size=16, seed=11)
    )
    train, test = train_test_split(data, test_fraction=0.2, seed=0)
    return run_quantized_correlation_attack(
        train, test,
        lambda: resnet8_tiny(num_classes=4, in_channels=3, width=8,
                             rng=np.random.default_rng(7)),
        TrainingConfig(epochs=6, batch_size=32, lr=0.08, seed=0),
        AttackConfig(layer_ranges=((1, 3), (4, -1)), rates=(0.0, 20.0),
                     std_window=8.0),
        QuantizationConfig(bits=4, method="target_correlated",
                           finetune_epochs=1),
        ddp_workers=ddp_workers,
    )


def _assert_in_bands(result):
    assert result.encoded_images == GOLDEN["encoded_images"]
    assert within(result.uncompressed.accuracy, GOLDEN["uncompressed_accuracy"])
    assert within(result.quantized.accuracy, GOLDEN["quantized_accuracy"])
    assert within(result.quantized.mean_ssim, GOLDEN["quantized_ssim"])
    assert within(result.quantized.mean_mape, GOLDEN["quantized_mape"])
    psnr = batch_psnr(result.quantized.originals,
                      result.quantized.reconstructions)
    assert np.isfinite(psnr).all()
    assert within(float(psnr.mean()), GOLDEN["quantized_psnr"])
    assert within(result.quantized.recognized_count,
                  GOLDEN["recognized_count"])


def test_ddp_workers_one_reproduces_serial_exactly():
    """world=1 takes the serial code path bit-for-bit."""
    serial = _golden_attack(ddp_workers=None)
    one = _golden_attack(ddp_workers=1)
    assert one.uncompressed.accuracy == serial.uncompressed.accuracy
    assert one.quantized.accuracy == serial.quantized.accuracy
    assert np.array_equal(one.quantized.reconstructions,
                          serial.quantized.reconstructions)
    _assert_in_bands(one)


@pytest.mark.skipif(not ddp.available(), reason="fork start method unavailable")
@pytest.mark.parametrize("world", [2, 4])
def test_ddp_attack_flow_stays_in_golden_bands(world):
    result = _golden_attack(ddp_workers=world)
    _assert_in_bands(result)
    # the run really was data-parallel, and it cleaned up after itself
    registry = default_registry()
    assert registry.gauge("ddp.workers").value == float(world)
    assert registry.counter("ddp.worker_steps").value > 0
    assert registry.gauge("ddp.shm_segments").value == 0.0
    assert registry.counter("ddp.steps").value > 0
    assert registry.counter("ddp.bytes_moved").value > 0
    assert registry.histogram("ddp.allreduce_s").count > 0
    assert registry.histogram("ddp.barrier_wait_s").count > 0
    assert registry.gauge("ddp.tape_saved_bytes").value > 0
    assert registry.gauge("ddp.tape_peak_live_bytes").value > 0
