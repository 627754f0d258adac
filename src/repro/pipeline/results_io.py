"""Serialize experiment results to JSON (and back).

Keeps the on-disk format plain: floats/ints/lists only, so results can
be diffed, versioned and plotted without this library.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Union

from repro.pipeline.evaluation import AttackEvaluation
from repro.telemetry.events import RunManifest

PathLike = Union[str, os.PathLike]


def evaluation_to_dict(evaluation: AttackEvaluation) -> Dict:
    """Summarise one AttackEvaluation as plain JSON-ready data."""
    return {
        "accuracy": float(evaluation.accuracy),
        "encoded_images": int(evaluation.encoded_images),
        "mean_mape": float(evaluation.mean_mape),
        "mean_ssim": float(evaluation.mean_ssim),
        "recognized_count": int(evaluation.recognized_count),
        "recognized_percent": float(evaluation.recognized_percent),
        "mape_per_image": [float(v) for v in evaluation.mape_per_image],
        "ssim_per_image": [float(v) for v in evaluation.ssim_per_image],
        "recognizable": [bool(v) for v in evaluation.recognizable],
    }


def attack_result_to_dict(result) -> Dict:
    """Summarise an AttackFlowResult (pipeline.attack_flow) as JSON data."""
    out = {
        "encoded_images": int(result.encoded_images),
        "selection": {
            "std_mean": float(result.selection.std_mean),
            "std_range": [float(v) for v in result.selection.std_range],
            "num_candidates": int(len(result.selection.candidate_indices)),
        },
        "history": {
            "task_loss": [float(v) for v in result.history.task_loss],
            "penalty": [float(v) for v in result.history.penalty],
            "val_accuracy": [float(v) for v in result.history.val_accuracy],
        },
        "uncompressed": evaluation_to_dict(result.uncompressed),
        "quantized": (evaluation_to_dict(result.quantized)
                      if result.quantized is not None else None),
    }
    if result.quantization is not None:
        out["quantization"] = {
            "levels": int(result.quantization.levels),
            "bits": int(result.quantization.bits),
            "tensors": sorted(result.quantization.assignments),
        }
    return out


def save_result(data: Dict, path: PathLike,
                manifest: Optional[RunManifest] = None,
                timeseries: Optional[PathLike] = None) -> None:
    """Write a result dict as pretty-printed JSON.

    When ``manifest`` is given, it is written alongside the result (see
    :func:`save_manifest`), tying the record to its run id, seed, config
    fingerprint and telemetry snapshot.  ``timeseries`` links the run's
    monitor timeseries (see :mod:`repro.monitor`) into the manifest, as
    an absolute path, so ``repro analyze x.manifest.json`` finds it
    from the manifest alone.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if manifest is not None:
        if timeseries is not None:
            manifest.timeseries = os.path.abspath(timeseries)
        save_manifest(manifest, path)


def timeseries_path(result_path: PathLike) -> str:
    """The conventional monitor-timeseries sidecar path for a result file
    (``x.json`` -> ``x.timeseries.jsonl``)."""
    root, _ = os.path.splitext(os.fspath(result_path))
    return root + ".timeseries.jsonl"


def load_result(path: PathLike) -> Dict:
    """Read back a result written by :func:`save_result`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def manifest_path(result_path: PathLike) -> str:
    """The sidecar manifest path for a result file (``x.json`` -> ``x.manifest.json``)."""
    root, _ = os.path.splitext(os.fspath(result_path))
    return root + ".manifest.json"


def save_manifest(manifest: RunManifest, result_path: PathLike) -> str:
    """Write a :class:`RunManifest` next to its result file; returns the path."""
    path = manifest_path(result_path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(result_path: PathLike) -> RunManifest:
    """Read the manifest written next to ``result_path``."""
    with open(manifest_path(result_path), "r", encoding="utf-8") as handle:
        return RunManifest.from_dict(json.load(handle))
