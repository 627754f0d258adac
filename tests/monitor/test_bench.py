"""Machine fingerprint stamped on benchmark records."""

from __future__ import annotations

import re

from repro.monitor import machine_fingerprint, machine_info


def test_fingerprint_is_short_deterministic_and_tracks_the_machine():
    info = machine_info()
    fingerprint = machine_fingerprint()
    assert re.fullmatch(r"[0-9a-f]{12}", fingerprint)
    assert machine_fingerprint(info) == fingerprint
    assert machine_fingerprint(dict(info)) == fingerprint
    assert machine_fingerprint({**info, "cpus": info["cpus"] + 1}) != \
        fingerprint
