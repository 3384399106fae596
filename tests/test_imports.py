"""Import cost: no command, estimate or oracle loads SciPy.

NumPy is the package's only runtime dependency.  The segment FFTs of the
estimate and of the synthesis are NumPy's rfft with norm="forward": with
the default norm NumPy 2 runs a float32 transform in double, about six
times slower, which once kept scipy.fft in the estimate at about 0.2 s
and 25 MiB of a fresh process.  So the package import, the Monte-Carlo
oracle, every command and a direct estimate must leave every scipy module
unloaded; scipy.signal stays a reference for the tests only.  The checks
use a fresh interpreter because other tests import SciPy into this one.
The last tests record the synthesis's and the estimate's transforms: each
single-precision one must run in NumPy's single-precision loop.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tpsh
from tpsh import cli
from tpsh.analyzer import cross_spectral_matrix
from tpsh.noise import default_frequency_grid, quadrature_spectra
from tpsh.synth import DetectionChain, synthesize


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


def _command_code(argv) -> str:
    return (
        "import contextlib, io\n"
        "from tpsh import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(%r) == 0\n" % argv
    )


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
    assert _scipy_modules_after(_command_code(argv)) == []


@pytest.mark.parametrize("command", ["witness", "analyze"])
def test_commands_with_an_estimate_leave_scipy_unloaded(tmp_path, command):
    argv = [command, "--duration-ms", "10", "--out", str(tmp_path / "out")]
    if command == "analyze":
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--duration-ms", "10", "--out", str(tmp_path)]) == 0
        argv.insert(1, str(tmp_path / "trace.bin"))
    assert _scipy_modules_after(_command_code(argv)) == []


def test_an_estimate_leaves_scipy_unloaded():
    code = (
        "import numpy as np, tpsh\n"
        "tpsh.welch_psd(np.ones(4096, dtype=np.float32), 1e6, 1e4)\n"
    )
    assert _scipy_modules_after(code) == []
    # the probe can see a loaded module
    assert "scipy.fft" in _scipy_modules_after("import scipy.fft")


def _recorded_transforms(calls):
    """The fft_calls of a synthesis and of an estimate of its trace, apart."""
    chain = DetectionChain(sample_rate=50e6)
    spec = quadrature_spectra(tpsh.steady_state(tpsh.CavityParams()), default_frequency_grid())
    trace = synthesize(spec, chain, 0.010, seed=1)
    synthesis = calls[:]
    calls.clear()
    cross_spectral_matrix(trace, 100e3)
    return synthesis, calls


def test_single_precision_transforms_use_the_forward_norm(fft_calls):
    """Every float32 rfft of an estimate and a synthesis passes norm="forward".

    With the default norm NumPy 2 casts a float32 transform to double and
    back; the recorded calls would show it.
    """
    for recorded in _recorded_transforms(fft_calls):
        norms = [norm for name, dtype, _, norm in recorded if name == "rfft" and dtype == np.float32]
        assert norms and set(norms) == {"forward"}


def test_single_precision_inverse_transforms_keep_the_default_norm(fft_calls):
    """Every complex64 irfft of a synthesis keeps the default norm.

    An inverse transform's default scale factor is the float 1/n, which
    keeps NumPy's single-precision loop; norm="forward" passes the int 1
    and runs it in double, with cast copies (8 rows of 32 768 points: 3.5
    against 0.9 ms, 2-vCPU x86).  The estimate makes no inverse transform.
    """
    synthesis, estimate = _recorded_transforms(fft_calls)
    norms = [norm for name, dtype, _, norm in synthesis if name == "irfft" and dtype == np.complex64]
    assert norms and set(norms) <= {None, "backward"}
    assert [name for name, *_ in estimate if name == "irfft"] == []
