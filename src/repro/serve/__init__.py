"""Batched async serving of released (compressed) model artifacts.

The paper's attack surface is a *served* compressed model; this package
is that serving stack, end to end:

* :mod:`repro.serve.artifacts` -- released-artifact format
  (``weights.npz`` + fingerprinted ``artifact.json``) and the LRU
  :class:`ArtifactCache`;
* :mod:`repro.serve.batcher` -- :class:`DeadlineBatcher`, the pure
  per-model admission queue;
* :mod:`repro.serve.server` -- :class:`ModelServer`, the asyncio front
  end handing each free shard of a
  :class:`~repro.parallel.shards.ShardPool` one batch of the queue;
* :mod:`repro.serve.loadgen` -- seeded heavy-tailed open-loop traffic
  with byte-replayable traces, replayed by one loop that times each
  request from when it was due;
* :mod:`repro.serve.http` -- a stdlib HTTP/1.1 face for cross-process
  runs (``repro serve`` / ``repro loadgen``);
* :mod:`repro.serve.tracing` -- the per-request record
  (:class:`RequestContext`) and what it feeds: span trees, the
  ``serve.*_ms`` stage histograms, and the flight-recorder ring whose
  dumps are Chrome traces (:class:`RequestTracer`);
* :mod:`repro.serve.analyze` -- the request view of a trace or flight
  dump: tail-latency attribution, printed by ``repro analyze`` next to
  the lane tables, where each shard has its own lane.
"""

from repro.serve.analyze import (
    RequestRecord,
    analyze_requests,
    render_analysis,
    request_records,
)
from repro.serve.artifacts import (
    ArtifactCache,
    ReleasedArtifact,
    artifact_fingerprint,
    load_artifact,
    save_artifact,
)
from repro.serve.batcher import DeadlineBatcher, QueuedRequest
from repro.serve.http import ServeHTTP, http_loadgen
from repro.serve.loadgen import (
    LoadGenConfig,
    LoadReport,
    SentRequest,
    Trace,
    TraceEntry,
    generate_trace,
    load_trace,
    run_loadgen,
    save_trace,
    trace_from_jsonl,
    trace_to_jsonl,
)
from repro.serve.server import InferenceResponse, ModelServer, ServeConfig
from repro.serve.tracing import FlightRecorder, RequestContext, RequestTracer

__all__ = [
    "RequestContext", "RequestTracer", "FlightRecorder",
    "RequestRecord", "request_records", "analyze_requests",
    "render_analysis",
    "ArtifactCache", "ReleasedArtifact", "artifact_fingerprint",
    "load_artifact", "save_artifact",
    "DeadlineBatcher", "QueuedRequest",
    "ModelServer", "ServeConfig", "InferenceResponse",
    "LoadGenConfig", "LoadReport", "SentRequest", "Trace",
    "TraceEntry", "generate_trace",
    "trace_to_jsonl", "trace_from_jsonl", "save_trace", "load_trace",
    "run_loadgen",
    "ServeHTTP", "http_loadgen",
]
