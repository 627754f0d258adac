"""Machine identity for benchmark records.

``perfbench`` stamps every result with :func:`machine_fingerprint` so
medians are only compared between runs on the same box.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from typing import Any, Dict, Mapping, Optional


def machine_info() -> Dict[str, Any]:
    """The benchmark-relevant identity of this machine."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def machine_fingerprint(info: Optional[Mapping[str, Any]] = None) -> str:
    """Short stable hash of :func:`machine_info` (same box => same hash)."""
    payload = json.dumps(dict(info if info is not None else machine_info()),
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
