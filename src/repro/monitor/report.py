"""Render monitor timeseries: tables, sparklines, and run comparison.

Turns the JSONL timeseries written by :class:`repro.monitor.Monitor`
back into something a terminal reader can act on: one row per observed
field with its trajectory as an ASCII sparkline, and a two-run diff
(e.g. baseline vs. quantized, malicious vs. benign) aligning final
values side by side.  Used by ``repro analyze``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.monitor.alerts import ALERT_EVENT
from repro.monitor.core import ERROR_EVENT, PROBE_EVENT
from repro.telemetry.tables import format_table
from repro.viz import sparkline

#: Record keys that are structure, not observed fields.
_META_KEYS = ("probe", "scope", "epoch", "batch", "ts", "level", "run_id",
              "event", "probe_error", "error", "disabled",
              "alert", "rule", "severity", "message")


def load_timeseries(path: str) -> List[Dict[str, Any]]:
    """Read a monitor JSONL timeseries back into records.

    Keeps ``monitor.probe``, ``monitor.probe_error`` and
    ``monitor.alert`` events (other interleaved events are ignored);
    a line that is not a JSON object raises :class:`ConfigError` with
    its line number.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}:{number}: not valid JSONL ({exc})") from None
            if not isinstance(record, dict):
                raise ConfigError(
                    f"{path}:{number}: record is not a JSON object")
            event = record.get("event")
            if event == PROBE_EVENT:
                records.append(record)
            elif event == ERROR_EVENT:
                records.append({"probe_error": True, **record})
            elif event == ALERT_EVENT:
                records.append({"alert": True, **record})
    return records


def alert_records(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Alert events from a loaded timeseries, in emission order."""
    return [r for r in records if r.get("alert")]


def probe_ticks(records: Sequence[Dict[str, Any]],
                scope: str = "epoch") -> List[Dict[str, Any]]:
    """Successful probe records of one scope, epoch-ordered."""
    ticks = [r for r in records
             if not r.get("probe_error") and r.get("scope") == scope]
    return sorted(ticks, key=lambda r: (r.get("epoch", 0), r.get("batch") or 0))


def series(records: Sequence[Dict[str, Any]], field: str,
           probe: Optional[str] = None) -> Tuple[List[int], List[float]]:
    """(epochs, values) trajectory of one field over epoch-scope ticks."""
    epochs: List[int] = []
    values: List[float] = []
    for record in probe_ticks(records):
        if field in record and (probe is None or record.get("probe") == probe):
            epochs.append(int(record.get("epoch", len(epochs))))
            values.append(float(record[field]))
    return epochs, values


def fields_by_probe(records: Sequence[Dict[str, Any]]) -> Dict[str, List[str]]:
    """Observed field names per probe, in first-seen order."""
    table: Dict[str, List[str]] = {}
    for record in probe_ticks(records):
        probe = str(record.get("probe", "?"))
        known = table.setdefault(probe, [])
        for key in record:
            if key not in _META_KEYS and key not in known:
                known.append(key)
    return table


def error_counts(records: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        if record.get("probe_error"):
            probe = str(record.get("probe", "?"))
            counts[probe] = counts.get(probe, 0) + 1
    return counts


def _fmt(value: float) -> str:
    if value != value:
        return "nan"
    if value != 0 and abs(value) < 1e-3:
        return f"{value:.2e}"
    return f"{value:.4g}"


def render_run(records: Sequence[Dict[str, Any]], title: str = "monitor run",
               width: int = 24) -> str:
    """One table row per (probe, field): first/last/min/max + sparkline."""
    rows: List[List[Any]] = []
    for probe, fields in fields_by_probe(records).items():
        for field in fields:
            _, values = series(records, field, probe=probe)
            finite = [v for v in values if math.isfinite(v)]
            if not values:
                continue
            rows.append([
                probe, field,
                _fmt(values[0]), _fmt(values[-1]),
                _fmt(min(finite)) if finite else "nan",
                _fmt(max(finite)) if finite else "nan",
                sparkline(values, width=width),
            ])
    out = format_table(
        ["probe", "field", "first", "last", "min", "max", "trend"],
        rows, title=title,
    )
    errors = error_counts(records)
    if errors:
        detail = ", ".join(f"{name} x{count}" for name, count in sorted(errors.items()))
        out += f"\nprobe errors: {detail}"
    alerts = alert_records(records)
    if alerts:
        counts: Dict[str, int] = {}
        for record in alerts:
            rule = str(record.get("rule", "?"))
            counts[rule] = counts.get(rule, 0) + 1
        detail = ", ".join(f"{name} x{count}"
                           for name, count in sorted(counts.items()))
        out += f"\nalerts: {detail}"
    return out


def compare_runs(a: Sequence[Dict[str, Any]], b: Sequence[Dict[str, Any]],
                 labels: Tuple[str, str] = ("run A", "run B"),
                 width: int = 16) -> str:
    """Align two timeseries field-by-field: final values, delta, trends.

    The canonical use is malicious vs. benign (watch the correlation
    probe separate) or uncompressed vs. quantized (watch quantization
    erase the imprint).
    """
    fields_a = fields_by_probe(a)
    fields_b = fields_by_probe(b)
    rows: List[List[Any]] = []
    probes = list(fields_a)
    probes += [p for p in fields_b if p not in fields_a]
    for probe in probes:
        merged = list(fields_a.get(probe, []))
        merged += [f for f in fields_b.get(probe, []) if f not in merged]
        for field in merged:
            _, values_a = series(a, field, probe=probe)
            _, values_b = series(b, field, probe=probe)
            last_a = values_a[-1] if values_a else float("nan")
            last_b = values_b[-1] if values_b else float("nan")
            delta = last_b - last_a
            rows.append([
                probe, field, _fmt(last_a), _fmt(last_b),
                _fmt(delta) if delta == delta else "n/a",
                sparkline(values_a, width=width),
                sparkline(values_b, width=width),
            ])
    return format_table(
        ["probe", "field", labels[0], labels[1], "delta",
         f"{labels[0]} trend", f"{labels[1]} trend"],
        rows, title=f"monitor diff: {labels[0]} vs {labels[1]}",
    )
