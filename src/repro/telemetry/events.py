"""Structured run logging: leveled JSONL events and the RunManifest.

Events are one JSON object per line -- machine-parsable, diffable, and
greppable -- tagged with a run id so interleaved runs can be separated.
The :class:`RunManifest` is the durable summary written next to result
files by :mod:`repro.pipeline.results_io`: run id, seed, a config
fingerprint, and the final telemetry snapshot, which together make a
result reproducible and a regression attributable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, TextIO, Union

from repro.errors import ConfigError

LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _level_value(level: Union[str, int]) -> int:
    if isinstance(level, int):
        return level
    try:
        return LEVELS[level.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown log level {level!r}; expected one of {sorted(LEVELS)}"
        ) from None


def new_run_id() -> str:
    """A short unique id tagging every event/manifest of one run."""
    return uuid.uuid4().hex[:12]


def _canonical(value: Any) -> Any:
    """Reduce configs to canonical JSON-ready data for fingerprinting."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "item") and getattr(value, "ndim", None) == 0:
        return value.item()  # numpy scalar
    return repr(value)


def config_fingerprint(*configs: Any) -> str:
    """Stable 16-hex-digit hash of one or more config objects.

    Dataclasses, dicts, sequences and scalars hash structurally; any
    other object hashes by ``repr``.  Two runs with equal fingerprints
    ran the same configuration.
    """
    canon = [_canonical(c) for c in configs]
    payload = json.dumps(canon if len(canon) != 1 else canon[0],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class EventLogger:
    """Leveled JSONL event sink.

    Events go to ``path`` (append) and/or ``stream``; the most recent
    ``buffer`` events are also retained in memory (``records``) for
    tests and interactive inspection.  Below-threshold events are
    dropped before any formatting work happens.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        stream: Optional[TextIO] = None,
        level: Union[str, int] = "info",
        run_id: Optional[str] = None,
        buffer: int = 1000,
    ) -> None:
        self.level = _level_value(level)
        self.run_id = run_id if run_id is not None else new_run_id()
        self.records: deque = deque(maxlen=buffer)
        self._stream = stream
        self._handle: Optional[TextIO] = None
        if path is not None:
            self._handle = open(path, "a", encoding="utf-8")

    def set_level(self, level: Union[str, int]) -> None:
        self.level = _level_value(level)

    def is_enabled(self, level: Union[str, int]) -> bool:
        return _level_value(level) >= self.level

    def log(self, level: Union[str, int], event: str, **fields: Any) -> None:
        value = _level_value(level)
        if value < self.level:
            return
        name = level if isinstance(level, str) else str(level)
        record = {"ts": time.time(), "level": name, "run_id": self.run_id,
                  "event": event}
        record.update(fields)
        self.records.append(record)
        line = json.dumps(record, sort_keys=True, default=repr)
        if self._handle is not None:
            self._handle.write(line + "\n")
            self._handle.flush()
        if self._stream is not None:
            self._stream.write(line + "\n")

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLogger":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# The library-wide logger.  Quiet by default (warnings only, in memory);
# the CLI raises verbosity with --log-level / routes it to a file.
_default_logger: Optional[EventLogger] = None


def get_logger() -> EventLogger:
    global _default_logger
    if _default_logger is None:
        _default_logger = EventLogger(level="warning")
    return _default_logger


def configure_logging(
    path: Optional[str] = None,
    stream: Optional[TextIO] = None,
    level: Union[str, int] = "info",
    run_id: Optional[str] = None,
) -> EventLogger:
    """Replace the library-wide logger (closing the previous one)."""
    global _default_logger
    if _default_logger is not None:
        _default_logger.close()
    _default_logger = EventLogger(path=path, stream=stream, level=level,
                                  run_id=run_id)
    return _default_logger


@dataclass
class RunManifest:
    """Who/what/how of one experiment run, written beside its results."""

    run_id: str
    seed: Optional[int] = None
    config_hash: Optional[str] = None
    created_at: float = 0.0
    backend: Optional[str] = None
    workers: Optional[int] = None
    timeseries: Optional[str] = None
    telemetry: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        seed: Optional[int] = None,
        config: Any = None,
        telemetry: Optional[Dict[str, Any]] = None,
        run_id: Optional[str] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        timeseries: Optional[str] = None,
        **extra: Any,
    ) -> "RunManifest":
        """Build a manifest for the current process state.

        ``config`` may be any fingerprintable object (dataclass, dict,
        tuple of configs); ``telemetry`` defaults to the default
        registry's snapshot.  ``backend`` defaults to the active kernel
        backend's name, so every manifest records which dispatch layer
        produced its numbers; ``workers`` is the experiment's worker
        count (``None`` = serial) and ``timeseries`` the path of the
        run's monitor timeseries, when one was recorded.
        """
        if telemetry is None:
            from repro.telemetry.metrics import default_registry
            telemetry = default_registry().snapshot()
        if backend is None:
            try:
                from repro import backend as _backend
                backend = _backend.active().name
            except Exception:
                backend = None
        return cls(
            run_id=run_id if run_id is not None else get_logger().run_id,
            seed=None if seed is None else int(seed),
            config_hash=None if config is None else config_fingerprint(config),
            created_at=time.time(),
            backend=backend,
            workers=None if workers is None else int(workers),
            timeseries=None if timeseries is None else str(timeseries),
            telemetry=dict(telemetry),
            extra=dict(extra),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "created_at": self.created_at,
            "backend": self.backend,
            "workers": self.workers,
            "timeseries": self.timeseries,
            "telemetry": self.telemetry,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"manifest has unknown fields {sorted(unknown)}")
        if "run_id" not in data:
            raise ConfigError("manifest is missing 'run_id'")
        return cls(**data)
