"""Import cost: SciPy loads at the first spectral estimate and nowhere else.

The analyzer's segment FFT is the package's only use of SciPy, and it
imports scipy.fft when an estimate first runs.  scipy.fft brings in
scipy.special and a NumPy array-API clone: about 0.2 s and 26 MiB of a
fresh process.  So the package import, the Monte-Carlo oracle and every
command that makes no estimate (steady-state, spectra, sweep, synth) must
leave every scipy module unloaded; scipy.signal, which the tests keep as
their reference, costs another second.  The checks use a fresh interpreter
because other tests import SciPy into this one.
"""

import json
import os
import subprocess
import sys

import pytest

import tpsh


def _scipy_modules_after(code: str):
    """The scipy modules a fresh interpreter holds after running code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tpsh.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("TPSH_DEFAULTS", None)
    code += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    assert _scipy_modules_after("import tpsh, tpsh.cli") == []


def test_the_oracle_leaves_scipy_unloaded():
    code = (
        "import tpsh\n"
        "ss = tpsh.steady_state(tpsh.CavityParams())\n"
        "mc = tpsh.mc_spectra(ss, [6e6], seed=1, n_realizations=2, n_steps=1 << 16)\n"
        "assert mc.spec.s_x1[0] > 0\n"
    )
    assert _scipy_modules_after(code) == []


@pytest.mark.parametrize("command", ["steady-state", "spectra", "sweep", "synth"])
def test_commands_without_an_estimate_leave_scipy_unloaded(tmp_path, command):
    argv = [command, "--duration-ms", "10", "--out", str(tmp_path)]
    code = (
        "import contextlib, io\n"
        "from tpsh import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(%r) == 0\n" % argv
    )
    assert _scipy_modules_after(code) == []


def test_the_first_estimate_loads_scipy_fft():
    # the probe above can see a loaded module
    code = (
        "import numpy as np, tpsh\n"
        "tpsh.welch_psd(np.ones(4096, dtype=np.float32), 1e6, 1e4)\n"
    )
    assert "scipy.fft" in _scipy_modules_after(code)
