"""Shared fixtures: a fast simulated campaign and derived datasets.

The campaign uses a deliberately small VM (512 MB RAM / 256 MB swap) and
aggressive anomaly rates so four runs simulate in ~0.5 s while exercising
the full crash dynamics (cache eviction, swap fill, thrashing, failure).
"""

from __future__ import annotations

import os

# One BLAS thread for the whole session, set before numpy loads: an
# OpenBLAS thread-pool stall adds milliseconds to sub-millisecond fits,
# which wall-clock comparisons cannot tell from a slow fit, and the BLAS
# thread count changes SVR bits (docs/PARALLELISM.md). The session
# checks that the pin took effect (test_integration.py).
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.core import AggregationConfig, aggregate_history  # noqa: E402
from repro.system import CampaignConfig, MachineConfig, TestbedSimulator  # noqa: E402


def small_machine() -> MachineConfig:
    return MachineConfig(
        ram_kb=524_288.0,
        swap_kb=262_144.0,
        os_base_kb=131_072.0,
        app_working_set_kb=65_536.0,
        min_cache_kb=16_384.0,
        shared_kb=8_192.0,
        buffers_kb=4_096.0,
    )


def small_campaign(n_runs: int = 4, seed: int = 3) -> CampaignConfig:
    return CampaignConfig(
        n_runs=n_runs,
        seed=seed,
        machine=small_machine(),
        n_browsers=40,
        p_leak_range=(0.3, 0.5),
        leak_kb_range=(1024.0, 4096.0),
        max_run_seconds=3000.0,
    )


@pytest.fixture
def machine():
    """The small test VM config (512 MB RAM / 256 MB swap)."""
    return small_machine()


@pytest.fixture
def campaign():
    """The small, fast campaign config."""
    return small_campaign()


@pytest.fixture(scope="session")
def history():
    """Four crashed runs on the small test VM (session-cached)."""
    return TestbedSimulator(small_campaign()).run_campaign()


@pytest.fixture(scope="session")
def dataset(history):
    """Aggregated 30-column training set from the session campaign."""
    return aggregate_history(history, AggregationConfig(window_seconds=30.0))


@pytest.fixture(scope="session")
def linear_data():
    """Noisy linear regression problem: y = 3 x0 - 2 x1 + 1 + noise."""
    rng = np.random.default_rng(42)
    X = rng.normal(size=(300, 5))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 1.0 + rng.normal(scale=0.05, size=300)
    return X, y


@pytest.fixture(scope="session")
def nonlinear_data():
    """Problem with a genuine nonlinearity (trees/kernels should win)."""
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, size=(400, 3))
    y = np.where(X[:, 0] > 0.0, 5.0 + X[:, 1], -5.0 - X[:, 1]) + rng.normal(
        scale=0.1, size=400
    )
    return X, y
