"""Live exporter: Prometheus rendering, HTTP endpoints, health heartbeat."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigError
from repro.telemetry.export import (
    MetricsExporter,
    active_exporter,
    health_snapshot,
    prometheus_text,
    reset_health,
    serve_metrics,
    stop_exporter,
    update_health,
)
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_exporter_state():
    yield
    stop_exporter()
    reset_health()


def _get(url: str) -> tuple:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


class TestPrometheusText:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("trainer.batches").inc(7)
        registry.gauge("trainer.images_per_s").set(123.5)
        text = prometheus_text(registry)
        assert "# TYPE repro_trainer_batches counter" in text
        assert "repro_trainer_batches 7.0" in text
        assert "# TYPE repro_trainer_images_per_s gauge" in text
        assert "repro_trainer_images_per_s 123.5" in text

    def test_every_histogram_renders_native_buckets(self):
        registry = MetricsRegistry()
        for value in range(100):
            registry.histogram("batch_ms").observe(float(value))
        text = prometheus_text(registry)
        assert "# TYPE repro_batch_ms histogram" in text
        assert 'repro_batch_ms_bucket{le="1"} 2' in text     # 0 and 1
        assert 'repro_batch_ms_bucket{le="+Inf"} 100' in text
        assert "repro_batch_ms_count 100" in text
        assert "summary" not in text
        assert "_breaches" not in text   # no SLO target, no breach tally

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("a.b-c/d e").inc()
        text = prometheus_text(registry)
        assert "repro_a_b_c_d_e" in text

    def test_empty_registry_renders(self):
        assert prometheus_text(MetricsRegistry()) == "\n"


class TestHealth:
    def test_update_and_snapshot(self):
        update_health(epoch=3, stage="training")
        snap = health_snapshot()
        assert snap["epoch"] == 3
        assert snap["stage"] == "training"
        reset_health()
        assert health_snapshot() == {}


class TestExporterHTTP:
    def test_serves_metrics_and_health(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        update_health(epoch=5)
        with MetricsExporter(port=0, registry=registry) as exporter:
            assert exporter.port > 0
            status, body = _get(exporter.url + "/metrics")
            assert status == 200
            assert "repro_hits 3.0" in body
            status, body = _get(exporter.url + "/health")
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "ok"
            assert payload["epoch"] == 5
            assert "run_id" in payload and "uptime_s" in payload
            assert payload["workers_alive"] == 0

    def test_health_reflects_pool_liveness_metrics(self):
        registry = MetricsRegistry()
        registry.gauge("pool.workers_alive").set(4.0)
        registry.counter("pool.worker_crashes").inc(1)
        with MetricsExporter(port=0, registry=registry) as exporter:
            _, body = _get(exporter.url + "/health")
            payload = json.loads(body)
            assert payload["workers_alive"] == 4
            assert payload["worker_crashes"] == 1

    def test_unknown_route_is_404(self):
        with MetricsExporter(port=0) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(exporter.url + "/nope")
            assert excinfo.value.code == 404

    def test_port_validation(self):
        with pytest.raises(ConfigError):
            MetricsExporter(port=70000)


class TestSingleton:
    def test_serve_metrics_is_idempotent(self):
        first = serve_metrics(port=0)
        second = serve_metrics(port=0)
        assert first is second
        assert active_exporter() is first
        stop_exporter()
        assert active_exporter() is None

    def test_manifest_records_endpoint(self):
        from repro.telemetry.events import RunManifest

        exporter = serve_metrics(port=0)
        manifest = RunManifest.create(seed=1)
        assert manifest.extra["metrics_endpoint"] == exporter.url
        stop_exporter()
        manifest = RunManifest.create(seed=1)
        assert "metrics_endpoint" not in manifest.extra


class TestInjectedClock:
    def test_uptime_is_deterministic_with_a_fake_clock(self):
        now = [1_000.0]
        with MetricsExporter(port=0, registry=MetricsRegistry(),
                             clock=lambda: now[0]) as exporter:
            assert exporter.started_at == 1_000.0
            now[0] = 1_042.5
            _, body = _get(exporter.url + "/health")
            assert json.loads(body)["uptime_s"] == pytest.approx(42.5)
            now[0] = 1_100.0
            _, body = _get(exporter.url + "/health")
            assert json.loads(body)["uptime_s"] == pytest.approx(100.0)
