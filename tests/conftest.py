import numpy as np
import pytest

from otdistill import core


def pytest_terminal_summary(terminalreporter):
    # surface the acceptance-gate verdicts even though pytest captures the
    # per-test stdout on success
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in RESULTS:
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")


@pytest.fixture
def exponentials(monkeypatch):
    """Entries core exponentiates, counted by the width of each array its
    np.exp takes (a dict from width to entries), through a stand-in for
    numpy in core alone. Calls stay on the calling thread (one usable
    core), so no two threads add to the count at once."""
    counts = {}

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x, *args, **kwargs):
            counts[x.shape[-1]] = counts.get(x.shape[-1], 0) + x.size
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(core, "_cores", lambda: 1)
    monkeypatch.setattr(core, "np", CountingNumpy())
    return counts
