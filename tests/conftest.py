import numpy as np
import pytest

from levisqueeze.models import SystemParams


def pytest_configure(config) -> None:
    # Deselect with `pytest -m "not slow"` for a fast local loop.
    config.addinivalue_line("markers", "slow: runs for tens of seconds; the full tier-1 run keeps it")


@pytest.fixture
def detuned() -> SystemParams:
    """Far-detuned working point used throughout the transient studies."""
    return SystemParams(omega_x=1.0, kappa=0.2, delta=5.0, lam=0.3, q_m=1e9, nbar=2e7)


@pytest.fixture
def resonant() -> SystemParams:
    """Resonant working point of the dissipative cooling scheme."""
    return SystemParams(omega_x=1.0, kappa=0.2, delta=1.0, lam=0.3, q_m=1e9, nbar=2e7)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)
