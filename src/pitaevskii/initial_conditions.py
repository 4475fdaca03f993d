"""Named initial-condition families.

All families produce smooth fields (a handful of low lattice modes or a
Gaussian-spectrum random draw), so the spectral representation is exact and
the wavefunction regularity assumptions behind the diagnostics hold.  The
run ingests every state through band-limiting and a divergence-free
projection, so families need not project their velocity themselves.
"""

import numpy as np

from .grid import check_constraints
from .model import State
from .snapshot_io import read_snapshot
from .spectral import plan_for


def _tapered_velocity(grid, amplitude):
    """Taylor-Green style divergence-free velocity (a uniform stream in 1d)."""
    mesh = grid.meshes()
    if grid.d == 1:
        return np.stack([np.full(grid.shape, 0.3 * amplitude)])
    if grid.d == 2:
        x, y = mesh
        return amplitude * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    x, y, z = mesh
    return amplitude * np.stack([
        np.sin(x) * np.cos(y) * np.cos(z),
        -np.cos(x) * np.sin(y) * np.cos(z),
        np.zeros(grid.shape),
    ])


def smooth_state(grid, params, amplitude):
    """The standard smooth initial condition used by the verification runs."""
    mesh = grid.meshes()
    bump = np.prod(np.stack([np.cos(x) for x in mesh]), axis=0)
    if grid.d == 1:
        swirl = np.sin(mesh[0]) + np.cos(2 * mesh[0])
    else:
        swirl = np.sin(mesh[0]) + np.cos(mesh[1])
    psi = amplitude * (bump + 0.5j * swirl + 0.3)
    u = _tapered_velocity(grid, amplitude)
    rho_mid = 0.5 * (params.m + params.M)
    rho = rho_mid + 0.45 * (params.M - params.m) * bump
    return State(0.0, psi.astype(complex), u, rho, grid)


def plane_wave_state(grid, k, a0, u0, rho0):
    """psi = a0 exp(i k.x) with uniform velocity u0 and density rho0: the
    PDE-side state of the reduced plane-wave oracle.  k is a wavevector, so
    the state is periodic only for k in the lattice 2 pi m / L."""
    mesh = grid.meshes()
    k = tuple(k)
    phase = sum(ki * xi for ki, xi in zip(k, mesh))
    psi = a0 * np.exp(1j * phase)
    u = np.stack([np.full(grid.shape, float(v)) for v in np.atleast_1d(u0)])
    rho = np.full(grid.shape, float(rho0))
    return State(0.0, psi.astype(complex), u, rho, grid)


def padded(values, d, name):
    """values padded with zeros to d entries; more than d entries are a
    ValueError that names them name."""
    if len(values) > d:
        raise ValueError(f"{name} needs at most {d} entries, got {len(values)}")
    return tuple(values) + (0,) * (d - len(values))


def lattice_wavevector(mode, lengths):
    """Wavevector k = 2 pi m / L of the lattice mode m on a box with these
    axis lengths; m is padded with zeros to the dimension, and more entries
    than the dimension are a ValueError."""
    mode = padded(mode, len(lengths), "mode")
    return [2 * np.pi / L * m for m, L in zip(mode, lengths)]


def plane_wave_parameters(ic, lengths):
    """(k, a0, u0) of the plane-wave family on a box with these axis
    lengths: k is the lattice_wavevector of the mode, and the velocity is
    padded with zeros to the dimension; more entries than the dimension are
    a ValueError."""
    k = lattice_wavevector(ic.mode, lengths)
    vel = padded(ic.velocity, len(lengths), "velocity")
    return k, ic.wave_amp * np.exp(1j * ic.wave_phase), vel


def plane_wave_state_from_ic(grid, ic):
    """Single-mode wavefunction with uniform velocity and density."""
    k, a0, vel = plane_wave_parameters(ic, grid.lengths)
    return plane_wave_state(grid, k, a0, vel, ic.rho0)


def gaussian_random_field(grid, rng, kc=3.0, complex_field=False, band_limit=True):
    """Smooth random field: Gaussian spectrum exp(-|k|^2/kc^2), random phases.

    band_limit keeps the spectrum inside the 2/3 dealias ball so truncation
    inside the model is invisible (the identity tests rely on that).
    """
    shape = grid.shape
    coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeff *= np.exp(-grid.k2_mesh / kc ** 2)
    if band_limit:
        coeff = plan_for(grid).dealias_hat(coeff)
    f = np.fft.ifftn(coeff) * grid.num_points ** 0.5
    return f if complex_field else f.real


def random_smooth_state(grid, params, amplitude, seed, kc=3.0):
    """Seeded Gaussian-spectrum draw, band-limited by construction; seed may
    also be a numpy Generator, which is drawn from in place."""
    rng = np.random.default_rng(seed)
    psi = amplitude * gaussian_random_field(grid, rng, kc, complex_field=True)
    u = amplitude * np.stack([gaussian_random_field(grid, rng, kc) for _ in range(grid.d)])
    raw = gaussian_random_field(grid, rng, kc)
    scale = float(np.abs(raw).max()) or 1.0
    rho = 0.5 * (params.m + params.M) + 0.4 * (params.M - params.m) * raw / scale
    return State(0.0, psi, u, rho, grid)


def floor_breach_state(grid, params, amplitude):
    """Contrived data whose mass exchange pulls the density down locally.

    A real wavefunction with a strong carrier-plus-sideband profile makes
    Re(conj(psi) C[psi]) negative near the trough; with the density started
    close to the floor the run must end in a density-floor event.
    """
    mesh = grid.meshes()
    psi = amplitude * (1.0 + 0.9 * np.cos(mesh[0]))
    u = np.zeros((grid.d,) + grid.shape)
    rho = np.full(grid.shape, params.m + 0.02 * (params.M - params.m))
    return State(0.0, psi.astype(complex), u, rho, grid)


# family name -> builder(grid, params, ic)
FAMILIES = {
    "smooth": lambda grid, params, ic: smooth_state(grid, params, ic.amplitude),
    "plane-wave": lambda grid, params, ic: plane_wave_state_from_ic(grid, ic),
    "random-smooth": lambda grid, params, ic: random_smooth_state(grid, params, ic.amplitude, ic.seed),
    "floor-breach": lambda grid, params, ic: floor_breach_state(grid, params, ic.amplitude),
    "snapshot": lambda grid, params, ic: read_snapshot(ic.path, expected_grid=grid),
}


def family_constraint(family):
    """The (fields, message, holds) constraint that family names a family."""
    return (("family",), f"unknown ic family {family!r}; choose from {', '.join(FAMILIES)}",
            family in FAMILIES)


def build_initial_state(grid, params, ic):
    """Dispatch on the configured family."""
    check_constraints([family_constraint(ic.family)])
    return FAMILIES[ic.family](grid, params, ic)
