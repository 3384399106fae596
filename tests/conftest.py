import sys
import threading

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that ends with a thread it started still alive."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail("threads left running: %s" % ", ".join(t.name for t in left))


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs, in order."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


@pytest.fixture
def fft_calls(monkeypatch):
    """(name, dtype, shape, norm) of every np.fft.rfft and irfft call while the test runs."""
    import numpy as np

    calls = []
    for name in ("rfft", "irfft"):
        def recording(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            a = np.asarray(a)
            calls.append((_name, a.dtype, a.shape, kwargs.get("norm")))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    return calls
