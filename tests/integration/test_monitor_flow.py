"""End-to-end monitor acceptance: watch the imprint appear, then vanish.

Fixed-seed malicious and benign runs over the same would-be encoding
target.  The correlation probe must separate the two by epoch 2, the
decode probe's PSNR must grow monotone-ish over the malicious run, and
a weighted-entropy release tick must show the imprint being erased.
The timeseries round-trips through ``repro analyze``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.layerwise import assign_payload, group_by_layer_ranges
from repro.attacks.secret import SecretPayload
from repro.datasets import SyntheticCifarConfig, make_synthetic_cifar, train_test_split
from repro.datasets.transforms import images_to_batch, normalize_batch
from repro.models import resnet8_tiny
from repro.monitor import CorrelationProbe, DecodeProbe, Monitor, default_probes
from repro.pipeline import (
    AttackConfig,
    QuantizationConfig,
    Trainer,
    TrainingConfig,
    run_quantized_correlation_attack,
)

EPOCHS = 5
RANGES = ((1, 2), (3, 4), (5, -1))
RATES = (0.0, 0.0, 20.0)


@pytest.fixture(autouse=True)
def _clean_default_registry():
    """Attack runs + probes populate the global registry; drop the
    metrics after each test so later suites see a pristine snapshot."""
    from repro.telemetry.metrics import default_registry
    yield
    default_registry().clear()


@pytest.fixture(scope="module")
def splits():
    data = make_synthetic_cifar(
        SyntheticCifarConfig(num_images=120, num_classes=4, image_size=16,
                             seed=11))
    return train_test_split(data, test_fraction=0.2, seed=0)


@pytest.fixture(scope="module")
def malicious(splits, tmp_path_factory):
    """Full attack flow under the default probe suite, weighted-entropy
    release so the post-release tick shows the imprint erased."""
    train, test = splits
    path = str(tmp_path_factory.mktemp("mal") / "malicious.timeseries.jsonl")
    monitor = Monitor(default_probes(decode_images=2), path=path)
    result = run_quantized_correlation_attack(
        train, test,
        lambda: resnet8_tiny(num_classes=4, in_channels=3, width=8,
                             rng=np.random.default_rng(7)),
        training=TrainingConfig(epochs=EPOCHS, batch_size=32, lr=0.08, seed=7),
        attack=AttackConfig(layer_ranges=RANGES, rates=RATES, std_window=8.0),
        quantization=QuantizationConfig(bits=2, method="weighted_entropy",
                                        finetune_epochs=0),
        monitor=monitor,
    )
    monitor.close()
    return monitor, result, path


@pytest.fixture(scope="module")
def benign(splits, tmp_path_factory):
    """Benign training observed against the same would-be target."""
    train, _ = splits
    batch = images_to_batch(train.images)
    batch, _, _ = normalize_batch(batch)
    model = resnet8_tiny(num_classes=4, in_channels=3, width=8,
                         rng=np.random.default_rng(7))
    groups = group_by_layer_ranges(model, RANGES, RATES)
    pixels = train.pixels_per_image
    capacity = sum(g.capacity(pixels) for g in groups if g.rate > 0.0)
    payload_all = SecretPayload.from_dataset(
        train, np.arange(min(capacity, len(train))))
    payload_all.take(assign_payload(groups, payload_all))
    path = str(tmp_path_factory.mktemp("ben") / "benign.timeseries.jsonl")
    monitor = Monitor([CorrelationProbe(), DecodeProbe(max_images=2)],
                      path=path).bind(groups=groups)
    Trainer(model, batch, train.labels,
            TrainingConfig(epochs=EPOCHS, batch_size=32, lr=0.08, seed=7),
            probes=monitor).train()
    monitor.close()
    return monitor, path


class TestLeakageSeparation:
    def test_correlation_separates_by_epoch_2(self, malicious, benign):
        mal_monitor, _, _ = malicious
        ben_monitor, _ = benign
        mal = mal_monitor.series("corr_abs_mean")
        ben = ben_monitor.series("corr_abs_mean")
        assert len(mal) >= EPOCHS and len(ben) == EPOCHS
        # by the second epoch the malicious run has visibly pulled away
        assert mal[1] > ben[1] + 0.1
        assert mal[1] > 2.0 * abs(ben[1])
        # and keeps climbing while benign stays near zero throughout
        assert mal[EPOCHS - 1] > mal[0]
        assert max(abs(v) for v in ben) < 0.15

    def test_decode_psnr_grows_monotone_ish(self, malicious):
        monitor, _, _ = malicious
        psnr = monitor.series("psnr_mean")[:EPOCHS]  # training epochs only
        assert len(psnr) == EPOCHS
        assert psnr[-1] > psnr[0]
        # monotone-ish: no epoch may fall far below its predecessor
        assert all(b - a > -1.0 for a, b in zip(psnr, psnr[1:]))

    def test_release_tick_shows_imprint_degraded(self, malicious):
        monitor, result, _ = malicious
        epochs = result.history.epochs
        release = [r for r in monitor.probe_records("correlation")
                   if r["epoch"] == epochs]
        training = [r for r in monitor.probe_records("correlation")
                    if r["epoch"] == epochs - 1]
        assert release and training
        # 2-bit weighted-entropy quantization visibly weakens the
        # encoding (Table I); at this tiny scale the correlation drops
        # rather than vanishing outright
        assert release[0]["corr_abs_mean"] < 0.85 * training[0]["corr_abs_mean"]

    def test_quantized_attack_quality_collapses(self, malicious):
        _, result, _ = malicious
        assert result.quantized is not None
        assert result.quantized.mean_ssim < result.uncompressed.mean_ssim


class TestReportRendering:
    def test_cli_report_renders_single_run(self, malicious, capsys):
        from repro.cli import main
        _, _, path = malicious
        # correlation_leak fires on the malicious run, hence exit 1
        assert main(["analyze", path]) == 1
        out = capsys.readouterr().out
        assert "corr_abs_mean" in out
        assert any(tick in out for tick in "▁▂▃▄▅▆▇█")

    def test_cli_report_diffs_runs(self, malicious, benign, capsys):
        from repro.cli import main
        _, _, mal_path = malicious
        _, ben_path = benign
        assert main(["analyze", mal_path, ben_path]) == 1
        out = capsys.readouterr().out
        assert "monitor diff" in out
        assert "correlation" in out

    def test_timeseries_parses_as_jsonl(self, malicious):
        from repro.monitor import load_timeseries
        _, _, path = malicious
        records = load_timeseries(path)
        assert records
        run_ids = {r.get("run_id") for r in records}
        assert len(run_ids) == 1  # one run id keys the whole timeseries


class TestAlertSeparation:
    """Acceptance: replaying the correlation rule over the two stored
    timeseries raises an alert on the malicious run and stays silent on
    the benign one."""

    @staticmethod
    def _correlation_engine():
        from repro.monitor import AlertEngine, ThresholdRule
        return AlertEngine([ThresholdRule(
            "correlation_leak", "corr_abs_mean", above=0.25,
            probe="correlation", min_epoch=1, severity="critical")])

    def test_malicious_run_raises_correlation_alert(self, malicious):
        from repro.monitor import load_timeseries
        _, _, path = malicious
        fired = self._correlation_engine().replay(load_timeseries(path))
        assert len(fired) == 1  # fire_once: flags, does not spam
        alert = fired[0]
        assert alert.rule == "correlation_leak"
        assert alert.severity == "critical"
        assert alert.value > 0.25
        assert alert.epoch >= 1

    def test_benign_run_raises_nothing(self, benign):
        from repro.monitor import load_timeseries
        _, path = benign
        assert self._correlation_engine().replay(load_timeseries(path)) == []

    def test_cli_alerts_separates_runs(self, malicious, benign, capsys):
        from repro.cli import main
        _, _, mal_path = malicious
        _, ben_path = benign
        assert main(["analyze", mal_path]) == 1
        assert "correlation_leak" in capsys.readouterr().out
        assert main(["analyze", ben_path]) == 0
        assert "no alerts" in capsys.readouterr().out
