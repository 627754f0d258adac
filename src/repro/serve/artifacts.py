"""Released-model artifacts: the on-disk unit the serving layer loads.

The paper's threat model starts where training ends: a compressed model
is *released* and strangers query it.  An artifact directory is that
released unit -- the weights plus enough metadata to rebuild the exact
module and to prove what it is:

``weights.npz``
    The state dict (:func:`repro.nn.save_state` format), quantized or
    float.

``artifact.json``
    Builder name + kwargs (resolved against
    :mod:`repro.models.registry`), the input shape served, optional
    quantization metadata (bits/method), the owning
    :class:`~repro.telemetry.events.RunManifest`, and the artifact
    **fingerprint** -- a stable hash over the manifest-style config
    fingerprint *and* a digest of the weight bytes, so two artifacts
    with the same architecture but different weights never collide.

:class:`ArtifactCache` keeps loaded artifacts in a bounded LRU keyed by
that fingerprint; an evicted artifact reloads transparently on the next
request (``serve.cache_*`` counters make hit rates visible on the
front end's ``GET /metrics``).  Corrupt or tampered artifacts fail loudly with
:class:`ServeError` -- a serving stack must never run weights it cannot
verify.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import ServeError
from repro.nn.module import Module
from repro.telemetry.events import RunManifest, config_fingerprint
from repro.telemetry.metrics import default_registry

PathLike = Union[str, os.PathLike]

ARTIFACT_FORMAT = "repro-artifact-v1"
WEIGHTS_FILE = "weights.npz"
META_FILE = "artifact.json"

__all__ = ["ReleasedArtifact", "save_artifact", "load_artifact",
           "artifact_fingerprint", "ArtifactCache"]


def _weights_digest(state: Mapping[str, np.ndarray]) -> str:
    """sha256 over (name, dtype, shape, bytes) of every entry, sorted."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def artifact_fingerprint(model_name: str, model_kwargs: Mapping[str, Any],
                         state: Mapping[str, np.ndarray]) -> str:
    """Identity of one released artifact: config x weights."""
    return config_fingerprint({
        "model": model_name,
        "model_kwargs": dict(model_kwargs),
        "weights_sha256": _weights_digest(state),
    })


@dataclass
class ReleasedArtifact:
    """Metadata half of one released artifact (weights live in the npz)."""

    path: str
    model_name: str
    model_kwargs: Dict[str, Any]
    input_shape: Tuple[int, ...]
    fingerprint: str
    quantization: Optional[Dict[str, Any]] = None
    manifest: Dict[str, Any] = field(default_factory=dict)

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", ""))


def save_artifact(model: Module, path: PathLike, model_name: str,
                  model_kwargs: Optional[Mapping[str, Any]] = None,
                  input_shape: Optional[Tuple[int, ...]] = None,
                  quantization: Optional[Mapping[str, Any]] = None,
                  seed: Optional[int] = None,
                  **extra: Any) -> ReleasedArtifact:
    """Write ``model`` as a released artifact directory at ``path``.

    ``model_name`` must be resolvable via
    :func:`repro.models.registry.build_model` with ``model_kwargs`` so
    a loader can rebuild the architecture without the producing code.
    ``input_shape`` is the CHW shape of one serving input (recorded so
    load generators can synthesize traffic without out-of-band
    knowledge).
    """
    from repro.models.registry import available_models

    if model_name not in available_models():
        raise ServeError(
            f"model {model_name!r} is not in the registry "
            f"({', '.join(available_models())}); artifacts must be "
            f"rebuildable by name")
    model_kwargs = dict(model_kwargs or {})
    state = model.state_dict()
    fingerprint = artifact_fingerprint(model_name, model_kwargs, state)
    manifest = RunManifest.create(
        seed=seed,
        config={"model": model_name, "model_kwargs": model_kwargs,
                "quantization": dict(quantization) if quantization else None},
        telemetry={},  # artifact identity, not a metrics snapshot
        artifact_fingerprint=fingerprint,
        **extra,
    )
    os.makedirs(path, exist_ok=True)
    np.savez(os.path.join(os.fspath(path), WEIGHTS_FILE), **state)
    meta = {
        "format": ARTIFACT_FORMAT,
        "model": model_name,
        "model_kwargs": model_kwargs,
        "input_shape": list(input_shape) if input_shape is not None else None,
        "fingerprint": fingerprint,
        "quantization": dict(quantization) if quantization else None,
        "manifest": manifest.to_dict(),
    }
    with open(os.path.join(os.fspath(path), META_FILE), "w",
              encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return ReleasedArtifact(
        path=os.fspath(path), model_name=model_name,
        model_kwargs=model_kwargs,
        input_shape=tuple(input_shape) if input_shape is not None else (),
        fingerprint=fingerprint,
        quantization=dict(quantization) if quantization else None,
        manifest=manifest.to_dict(),
    )


def load_artifact(path: PathLike,
                  verify: bool = True) -> Tuple[Module, ReleasedArtifact]:
    """Rebuild the module from an artifact directory.

    Raises :class:`ServeError` for anything short of a healthy
    artifact: missing files, unparseable metadata, unknown builder, a
    weights archive that does not load, or (with ``verify``) weights
    whose digest no longer matches the recorded fingerprint.
    """
    from repro.models.registry import build_model

    root = os.fspath(path)
    meta_path = os.path.join(root, META_FILE)
    weights_path = os.path.join(root, WEIGHTS_FILE)
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ServeError(f"cannot read artifact metadata {meta_path}: {exc}")
    if meta.get("format") != ARTIFACT_FORMAT:
        raise ServeError(
            f"{meta_path}: unknown artifact format {meta.get('format')!r} "
            f"(expected {ARTIFACT_FORMAT!r})")
    for key in ("model", "fingerprint"):
        if key not in meta:
            raise ServeError(f"{meta_path}: missing required field {key!r}")
    try:
        with np.load(weights_path) as archive:
            state = {key: archive[key] for key in archive.files}
    except Exception as exc:
        raise ServeError(f"cannot load artifact weights {weights_path}: "
                         f"{exc!r}")
    model_kwargs = dict(meta.get("model_kwargs") or {})
    if verify:
        expected = meta["fingerprint"]
        actual = artifact_fingerprint(meta["model"], model_kwargs, state)
        if actual != expected:
            raise ServeError(
                f"{root}: weights digest mismatch (recorded {expected}, "
                f"recomputed {actual}); artifact is corrupt or tampered")
    try:
        model = build_model(meta["model"], **model_kwargs)
        model.load_state_dict(state)
    except Exception as exc:
        raise ServeError(f"cannot rebuild model {meta['model']!r} from "
                         f"{root}: {exc!r}")
    model.eval()
    shape = meta.get("input_shape")
    artifact = ReleasedArtifact(
        path=root, model_name=meta["model"], model_kwargs=model_kwargs,
        input_shape=tuple(shape) if shape else (),
        fingerprint=meta["fingerprint"],
        quantization=meta.get("quantization"),
        manifest=dict(meta.get("manifest") or {}),
    )
    return model, artifact


class ArtifactCache:
    """Bounded LRU of loaded artifacts, keyed by artifact fingerprint.

    ``get(path)`` loads (or returns the cached) ``(model, artifact)``
    pair; the least-recently-used entry is evicted past ``capacity``
    and transparently reloaded from disk on its next request.  Counters
    ``serve.cache_hits`` / ``serve.cache_misses`` /
    ``serve.cache_evictions`` land in the default registry, and the
    same tallies are kept per-instance (:attr:`hits` / :attr:`misses`
    / :attr:`evictions`, summarized by :meth:`stats`) so a cache living
    inside a forked shard still reports accurately -- shard replies
    ship the counter deltas back, but the instance numbers are the
    ground truth the owner can always read directly.
    """

    def __init__(self, capacity: int = 2) -> None:
        if capacity < 1:
            raise ServeError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[str, Tuple[Module, ReleasedArtifact]]" = \
            OrderedDict()
        self._by_path: Dict[str, str] = {}  # abspath -> fingerprint

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction tallies plus the derived hit rate."""
        lookups = self.hits + self.misses
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "lookups": float(lookups),
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def fingerprints(self) -> Tuple[str, ...]:
        """Cached fingerprints, least- to most-recently used."""
        return tuple(self._entries)

    def get(self, path: PathLike) -> Tuple[Module, ReleasedArtifact]:
        registry = default_registry()
        abspath = os.path.abspath(os.fspath(path))
        key = self._by_path.get(abspath)
        if key is not None and key in self._entries:
            self.hits += 1
            registry.counter("serve.cache_hits").inc()
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        registry.counter("serve.cache_misses").inc()
        model, artifact = load_artifact(abspath)
        self._by_path[abspath] = artifact.fingerprint
        self._entries[artifact.fingerprint] = (model, artifact)
        self._entries.move_to_end(artifact.fingerprint)
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.evictions += 1
            registry.counter("serve.cache_evictions").inc()
            self._by_path = {p: f for p, f in self._by_path.items()
                             if f != evicted}
        return self._entries[artifact.fingerprint]
