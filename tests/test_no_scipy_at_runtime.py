"""The library runs on numpy alone: importing it pulls in no scipy.

scipy is a test-only dependency (the oracle of
``tests/metrics/test_scipy_oracle.py``).  A fresh interpreter imports
every ``repro`` module and must not have loaded any ``scipy`` module;
the check runs in a subprocess because this test process has scipy
loaded already.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_importing_every_module_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    count, scipy_modules = (done.stdout.splitlines() + [""])[:2]
    assert int(count) > 100
    assert scipy_modules == "", \
        f"scipy loaded at import: {scipy_modules.split()[:5]}"
