"""The execution modes every whole-run contract is stated over.

A mode is one point of backend x dtype x DDP world x served artifact,
named ``backend/dtype[/ddpN|/served]`` (``ref`` is the reference
backend).  ``fast/f32`` is what ships: the CLI default backend at the
default compute dtype; ``ref/f64`` is the bit-exact oracle.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, Optional

from repro import backend as _backend
from repro import precision
from repro.parallel import ddp


@dataclass(frozen=True)
class Mode:
    name: str
    backend: str
    dtype: str
    ddp_workers: Optional[int] = None   # None: serial training
    served: bool = False                # released, reloaded and served

    @property
    def base(self) -> str:
        """The in-process mode a served mode releases."""
        return self.name.rsplit("/", 1)[0] if self.served else self.name


def _mode(name: str) -> Mode:
    backend, dtype, *rest = name.split("/")
    tail = rest[0] if rest else ""
    return Mode(name=name,
                backend={"ref": "reference", "fast": "fast"}[backend],
                dtype={"f32": "float32", "f64": "float64"}[dtype],
                ddp_workers=int(tail[3:]) if tail.startswith("ddp") else None,
                served=tail == "served")


MODES = {name: _mode(name) for name in (
    "ref/f64", "ref/f32", "fast/f32",
    "fast/f32/ddp1", "fast/f32/ddp2", "fast/f32/ddp4",
    "fast/f32/served",
)}


@contextlib.contextmanager
def use_mode(name: str) -> Iterator[Mode]:
    """Scope the process defaults (backend, dtype, DDP world) to ``name``
    for code that reads them rather than taking them as arguments."""
    mode = MODES[name]
    previous = ddp.set_default_ddp_workers(mode.ddp_workers)
    try:
        with _backend.use_backend(mode.backend), \
                precision.use_dtype(mode.dtype):
            yield mode
    finally:
        ddp.set_default_ddp_workers(previous)
