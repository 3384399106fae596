"""Import cost: the package, its CLI and the Monte-Carlo oracle run without scipy.signal.

scipy.signal (and scipy.stats, which it pulls in) takes about a second and
48 MiB to import, longer than a whole 10 ms witness run; nothing in tpsh
needs it, and the tests keep it as their reference only.  The checks use a
fresh interpreter because other tests import SciPy into this one.
"""

import json
import os
import subprocess
import sys

import tpsh


def _heavy_modules_after(code: str):
    """Which of scipy.signal and scipy.stats a fresh interpreter holds after code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tpsh.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code += (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_leaves_scipy_signal_unloaded():
    assert _heavy_modules_after("import tpsh, tpsh.cli") == []


def test_the_oracle_leaves_scipy_signal_unloaded():
    code = (
        "import tpsh\n"
        "ss = tpsh.steady_state(tpsh.CavityParams())\n"
        "mc = tpsh.mc_spectra(ss, [6e6], seed=1, n_realizations=2, n_steps=1 << 16)\n"
        "assert mc.spec.s_x1[0] > 0\n"
    )
    assert _heavy_modules_after(code) == []
