import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polarbench.kernels import CodeSpec, kernel_arikan, kernel_linear

# ell=4 binary kernel used across general-kernel tests (two nested butterflies)
G4 = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]


@pytest.fixture(scope="session")
def arikan():
    return kernel_arikan()


@pytest.fixture(scope="session")
def k4():
    return kernel_linear(G4)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_llr(rng, n, scale=2.0):
    return rng.normal(0.0, scale, n)


def spec_all_free(kernel, m) -> CodeSpec:
    return CodeSpec(kernel, m, {})


def message_values(seen: set):
    """A tick that records every value of every message the sweep computes."""
    return lambda d, r, op, outs: seen.update(np.ravel(outs).tolist())


class Recorder:
    """Schedule hook of both SC decoders that keeps every decision.

    decisions holds (input index, symbols, decision LLR) in decode order;
    the other events are ignored.
    """

    def __init__(self):
        self.decisions = []

    def decide(self, i, u, llr):
        self.decisions.append((i, np.array(u), np.array(llr)))

    def f(self, *args):
        pass

    g = prep = node = f

    def llrs(self):
        """decode_sc_arikan's decision LLRs in input order, shaped like its llr."""
        return np.concatenate([llr for _, _, llr in self.decisions], axis=-1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(libm_agreement())
    # surface the acceptance verdict lines even under captured output
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "ACCEPTANCE_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


_PROBE = np.random.default_rng(0).random(20_000) * 40.0


@functools.cache
def _libm_same() -> dict[str, bool]:
    # per ufunc: does numpy's loop equal libm on every probe value
    return {name: np.array_equal(getattr(np, name)(_PROBE), [getattr(math, name)(v) for v in _PROBE.tolist()])
            for name in ("exp", "log1p", "log")}


def numpy_is_libm() -> bool:
    """Whether np.exp, np.log1p and np.log all equal libm on the probe, as
    with numpy's AVX-512 loops for them off (an AVX2-only host, or
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"). A pin table
    that holds one digest per dispatch picks its column by this."""
    return all(_libm_same().values())


LIBM_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def run_pytest_under_libm(*args: str) -> subprocess.CompletedProcess:
    """Run pytest on args in a child process whose numpy computes exp,
    log1p and log through libm (LIBM_DISPATCH), after asserting that it
    does, so that a host with numpy's AVX-512 loops checks both columns of
    a pin table that keeps one digest per dispatch."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, **LIBM_DISPATCH, PYTHONPATH=str(root / "src"))
    probe = subprocess.run([sys.executable, "-c", "import conftest; print(conftest.numpy_is_libm())"],
                           cwd=root / "tests", env=env, capture_output=True, text=True, timeout=120)
    assert probe.stdout.strip() == "True", probe.stderr
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)


@functools.cache
def libm_agreement() -> str:
    """One line: whether np.exp, np.log1p and np.log equal math.exp,
    math.log1p and math.log on a fixed probe vector.

    The full-precision message pins were recorded on a host where numpy's
    AVX-512 loops for these ufuncs round differently from libm in the last
    bit. The line goes into the run's log (the header, or the summary under
    -q, which hides the header), so a pin that fails on another host can be
    traced to that dispatch from the log alone. It changes no test outcome.
    """
    verdicts = [f"np.{name} {'equals' if same else 'differs from'} math.{name}" for name, same in _libm_same().items()]
    return f"numpy {np.__version__} on a fixed probe of {len(_PROBE)} values: " + ", ".join(verdicts)


def pytest_report_header(config):
    return libm_agreement()
