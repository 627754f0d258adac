"""Lint: no new hard-coded ``dtype=np.float64`` in compute paths.

The compute dtype must come from :mod:`repro.precision`; a bare
``dtype=np.float64`` in a kernel or layer silently upcasts float32
training and forfeits the policy's speedup.  Metric, decoder and
finite-difference modules are deliberately pinned to float64 (see
``precision.METRICS_DTYPE``) and whitelisted below.
"""

import pathlib
import re

import repro

PATTERN = re.compile(r"dtype\s*=\s*np\.float64")

#: Modules allowed to pin float64: paper-table metrics, the decoder,
#: the float64 finite-difference oracle, and analysis/monitoring code
#: whose numbers must not move with the compute policy.
WHITELIST = {
    "attacks/correlated.py",
    "attacks/decoder.py",
    "attacks/membership.py",
    "autograd/grad_check.py",
    "datasets/transforms.py",
    "metrics/distribution.py",
    "metrics/mape.py",
    "metrics/psnr.py",
    "metrics/ssim.py",
    "monitor/probes.py",
    "preprocessing/stats.py",
    "quantization/target_correlated.py",
}


def _package_root() -> pathlib.Path:
    return pathlib.Path(repro.__file__).parent


def test_no_new_float64_literals_outside_whitelist():
    root = _package_root()
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in WHITELIST:
            continue
        if PATTERN.search(path.read_text(encoding="utf-8")):
            offenders.append(rel)
    assert not offenders, (
        "hard-coded dtype=np.float64 outside the metrics whitelist "
        f"(use repro.precision instead): {offenders}"
    )


def test_whitelist_entries_are_live():
    # a whitelisted file that no longer pins float64 should drop off
    # the list, so the lint stays meaningful
    root = _package_root()
    stale = []
    for rel in sorted(WHITELIST):
        path = root / rel
        if not path.exists() or not PATTERN.search(
                path.read_text(encoding="utf-8")):
            stale.append(rel)
    assert not stale, f"whitelist entries without float64 literals: {stale}"
