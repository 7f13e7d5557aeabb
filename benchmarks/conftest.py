"""Fixtures for the reproduction benches.

Every bench writes its table/figure artifact under ``benchmarks/out/`` so
the reproduced numbers survive the run; the pytest-benchmark timing table
covers the wall-clock side.  Deterministic artifacts are tracked in git;
the ones that carry wall-clock columns go to the git-ignored
``benchmarks/out/timing/``, so running the suite leaves the worktree clean.

All benches route through one session-scoped stage cache (the
process-default :class:`repro.harness.cache.StageCache`), so a workload is
compiled and analyzed once per session instead of once per bench, and every
bench starts from deterministically seeded RNGs.
"""

from __future__ import annotations

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import numpy as np
import pytest

from bench_utils import OUT_DIR

from repro.harness.cache import StageCache, default_cache

from repro.testing.seeds import derive_seed

#: one seed for every bench — makes any stochastic helper (synthetic graph
#: generators, sampling profilers) reproducible run to run.  Derived from
#: the documented ``REPRO_TEST_SEED`` knob (``repro.testing.seeds``); with
#: the knob unset this is a fixed constant, so default runs stay stable.
BENCH_SEED = derive_seed("bench")


@pytest.fixture(autouse=True)
def seed_rngs():
    """Deterministically seed the global RNGs before every bench."""
    random.seed(BENCH_SEED)
    np.random.seed(BENCH_SEED % 2**32)
    yield


@pytest.fixture(scope="session")
def stage_cache() -> StageCache:
    """The cache every bench's experiments share (the process default, so
    benches that construct an ``Experiment`` directly hit it too).  Its
    teardown prints the hit/miss summary under ``-s``."""
    cache = default_cache()
    yield cache
    print()
    print(cache.summary())


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def timing_dir(out_dir) -> pathlib.Path:
    """Where artifacts with wall-clock content go (git-ignored)."""
    path = out_dir / "timing"
    path.mkdir(exist_ok=True)
    return path
