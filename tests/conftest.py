"""Shared fixtures: random-matrix helpers, hypothesis profile, and the
acceptance-criteria registry that prints one summary line per criterion."""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "bandflow",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("bandflow")


def random_hermitian(rng, n, scale=1.0):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (X + X.conj().T)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_subspace(rng, n, k):
    from bandflow import Subspace

    X = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    Q, _ = np.linalg.qr(X)
    return Subspace(n, Q[:, :k])


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def window_builds(monkeypatch):
    """Every window_subspace or spectral_projection call, at every binding of
    either name in a bandflow module, recorded as its (lo, hi) window."""
    from bandflow.families import window_subspace
    from bandflow.linalg import spectral_projection

    calls = []
    for original in (window_subspace, spectral_projection):
        def counted(*args, _original=original, **kwargs):
            calls.append(args[-2:])
            return _original(*args, **kwargs)

        name = original.__name__
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "bandflow" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


# --- acceptance criteria bookkeeping ---------------------------------------
#
# test_acceptance.py wraps each criterion in `with criterion(n, label):`; the
# registry records pass/fail and elapsed time whether or not the body raised,
# and the terminal summary prints one line per criterion at the end.

_RESULTS = {}


@contextmanager
def _criterion(number, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _RESULTS[number] = (label, False, time.perf_counter() - t0)
        raise
    _RESULTS[number] = (label, True, time.perf_counter() - t0)


@pytest.fixture
def criterion():
    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        label, passed, elapsed = _RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d}: {verdict}  ({elapsed:6.2f}s)  {label}"
        )
