import pytest

from debias_lab import estimands as est
from debias_lab.presets import preset


@pytest.fixture(scope="session")
def small_presets():
    """One small preset per kind, shared across the suite."""
    return {kind: preset(kind, x_cells=32, d_cells=16) for kind in est.KINDS}


@pytest.fixture(scope="session")
def medium_presets():
    return {kind: preset(kind, x_cells=64, d_cells=32) for kind in est.KINDS}
