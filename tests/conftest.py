"""Pytest fixtures; helper functions live in tests/helpers.py.

Seed policy: every source of randomness in the suite derives from the one
documented ``REPRO_TEST_SEED`` environment knob
(:mod:`repro.testing.seeds`) — the global ``random``/``numpy`` RNGs are
re-seeded per test from a stream derived from the knob and the test's node
id, hypothesis runs under the registered ``repro`` profile (``print_blob``
on, so failures print their reproduction blob), and failing tests get a
"repro seeds" report section naming the exact ``REPRO_TEST_SEED=...`` to
re-run with.

Leak policy: every test is checked for worker processes and non-daemon
threads it left behind, so the backends' teardown is enforced in one place.
"""

import multiprocessing
import os
import pathlib
import random
import sys
import threading

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import pytest
from hypothesis import settings as _hyp_settings

from helpers import compile_mj, compile_mj_raw, run_mj  # noqa: F401

from repro.testing.seeds import ENV_VAR, base_seed, derive_seed

_hyp_settings.register_profile("repro", deadline=None, print_blob=True)
_hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


def pytest_configure(config):
    # route hypothesis's own RNG through the knob when it is set explicitly
    if os.environ.get(ENV_VAR) and hasattr(config.option, "hypothesis_seed"):
        if config.option.hypothesis_seed is None:
            config.option.hypothesis_seed = str(base_seed())


@pytest.fixture(autouse=True)
def _seed_global_rngs(request):
    """Deterministically seed the global RNGs per test, derived from
    ``REPRO_TEST_SEED`` and the test's node id (independent streams)."""
    seed = derive_seed("pytest", request.node.nodeid)
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed % 2**32)
    except ImportError:  # pragma: no cover - numpy is a test dependency
        pass
    yield


@pytest.fixture(autouse=True)
def _no_leaked_workers():
    """Fail any test that leaves a live worker process or a non-daemon
    thread behind — the definition ``perfbench/child.py::leaked_workers``
    counts by (threads that predate the test are not its leak)."""
    before = set(threading.enumerate())
    yield
    leaked = multiprocessing.active_children() + [
        t for t in threading.enumerate()
        if not t.daemon and t not in before
    ]
    assert not leaked, f"test leaked workers/threads: {leaked}"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print the effective seed with every failure, so any randomized test
    can be reproduced with ``REPRO_TEST_SEED=<value> pytest <nodeid>``."""
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and rep.failed:
        rep.sections.append(
            (
                "repro seeds",
                f"{ENV_VAR}={base_seed()} "
                f"(per-test rng stream {derive_seed('pytest', item.nodeid)})",
            )
        )


@pytest.fixture
def bank_loaded():
    from repro.workloads import WORKLOADS

    return compile_mj(WORKLOADS["bank"].source("test"))


@pytest.fixture
def bank_program():
    from repro.workloads import WORKLOADS

    return compile_mj_raw(WORKLOADS["bank"].source("test"))[0]
