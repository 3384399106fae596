"""Import cost: the package and its CLI load without scipy.signal.

scipy.signal (and scipy.stats, which it pulls in) takes about a second to
import, longer than a whole 10 ms witness run; only the Monte-Carlo oracle
needs it, and loads it when it runs.  The check uses a fresh interpreter
because other tests import SciPy into this one.
"""

import json
import os
import subprocess
import sys

import tpsh


def test_import_leaves_scipy_signal_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tpsh.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import json, sys\n"
        "import tpsh, tpsh.cli\n"
        "print(json.dumps([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
