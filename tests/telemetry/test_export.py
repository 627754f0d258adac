"""Prometheus text export of a metrics registry, and its HTTP exporter:
``repro serve``'s front end on ``GET /metrics`` and ``GET /healthz``."""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.models.registry import build_model
from repro.serve import ModelServer, ServeConfig, ServeHTTP, save_artifact
from repro.telemetry.metrics import (
    MetricsRegistry,
    default_registry,
    prometheus_text,
)

KW = dict(num_classes=4, in_channels=3, width=4)


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


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("export") / "released"
    model = build_model("resnet8_tiny", rng=np.random.default_rng(17), **KW)
    save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                  input_shape=(3, 8, 8), seed=17)
    return str(path)


def _get(url):
    """Blocking GET; returns (status, content type, body) on any status."""
    try:
        with urllib.request.urlopen(url, timeout=15) as reply:
            return (reply.status, reply.headers["Content-Type"],
                    reply.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers["Content-Type"], exc.read().decode()


def _get_all(path, routes):
    """Start a one-shard server + HTTP front end, GET each route in turn."""

    async def _go():
        config = ServeConfig(start_method="spawn")
        async with ModelServer({"m": path}, config=config) as server:
            async with ServeHTTP(server) as front:
                loop = asyncio.get_event_loop()
                return [await loop.run_in_executor(None, _get,
                                                   front.url + route)
                        for route in routes]

    return asyncio.run(_go())


class TestExporterHTTP:
    def test_serves_metrics_and_health(self, artifact):
        hits = default_registry().counter("export.hits")
        hits.inc(3)
        (m_status, m_type, metrics), (h_status, h_type, health) = _get_all(
            artifact, ["/metrics", "/healthz"])
        assert m_status == 200
        assert m_type == "text/plain; version=0.0.4"
        assert "# TYPE repro_export_hits counter" in metrics
        assert f"repro_export_hits {hits.value}" in metrics
        assert h_status == 200
        assert h_type == "application/json"
        payload = json.loads(health)
        assert payload["ok"] is True
        assert payload["running"] is True
        assert payload["shards_alive"] == payload["shards"] == 1
        assert payload["models"] == ["m"]

    def test_unknown_route_is_404(self, artifact):
        [(status, content_type, body)] = _get_all(artifact, ["/nope"])
        assert status == 404
        assert content_type == "application/json"
        assert json.loads(body)["error_kind"] == "bad_request"
