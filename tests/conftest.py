import numpy as np
import pytest

from pitaevskii.grid import make_grid
from pitaevskii.initial_conditions import gaussian_random_field
from pitaevskii.model import State


def random_vector_field(grid, rng, kc=3.0, band_limit=True):
    return np.stack([gaussian_random_field(grid, rng, kc, band_limit=band_limit) for _ in range(grid.d)])


def random_state_fields(grid, rng, kc=3.0, amp=0.5, rho_mean=1.0, rho_var=0.2):
    """A smooth random (psi, u, rho) triple; u is not yet projected and rho
    stays within rho_mean +/- rho_var."""
    psi = amp * gaussian_random_field(grid, rng, kc, complex_field=True)
    u = amp * random_vector_field(grid, rng, kc)
    raw = gaussian_random_field(grid, rng, kc)
    scale = np.abs(raw).max()
    rho = rho_mean + (rho_var * raw / scale if scale > 0 else 0.0)
    return psi, u, rho


def smooth_2d_state(grid, amp=0.4, m=0.8, M=1.2):
    """Low-mode 2D data with rho spanning 0.5(m+M) +/- 0.45(M-m): contrast
    1.44 at the default m, M and 16 at m = 0.1, M = 10."""
    x, y = grid.meshes()
    psi = amp * (np.cos(x) * np.cos(y) + 0.5j * (np.sin(x) + np.cos(y)) + 0.3)
    u = amp * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    rho = 0.5 * (m + M) + 0.45 * (M - m) * np.cos(x) * np.cos(y)
    return State(0.0, psi.astype(complex), u, rho, grid)


@pytest.fixture
def grid2d():
    return make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])


@pytest.fixture
def grid1d():
    return make_grid(1, [64], [2 * np.pi])


@pytest.fixture
def grid3d():
    return make_grid(3, [16, 16, 16], [2 * np.pi, 2 * np.pi, 2 * np.pi])


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
