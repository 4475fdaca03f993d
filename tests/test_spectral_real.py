"""The real-to-complex operators against a complex numpy.fft reference.

Every operator of SpectralPlan acts on the half spectrum of a real field.  The
reference below transforms the same real field with the complex numpy.fft on
the full spectrum, applies the documented multipliers (odd derivatives zero
on each axis's Nyquist plane) and keeps the real part.  White-noise fields
fill every mode, the Nyquist planes included.
"""

import numpy as np
import pytest

from pitaevskii.diagnostics import measure
from pitaevskii.grid import make_grid
from pitaevskii.model import Params, State, coupling_term
from pitaevskii.norms import sobolev_norm
from pitaevskii.spectral import plan_for

TOL = 1e-12

GRIDS = {
    1: ([16], [2 * np.pi]),
    2: ([16, 12], [2 * np.pi, 3.0]),
    3: ([8, 12, 10], [2 * np.pi, 4.0, 5.0]),
}


@pytest.fixture(params=sorted(GRIDS), ids=lambda d: f"{d}d")
def grid(request):
    n, lengths = GRIDS[request.param]
    return make_grid(request.param, n, lengths)


class Reference:
    """Full-spectrum complex operators with the plan's conventions."""

    def __init__(self, grid):
        self.grid = grid
        self.axes = tuple(range(-grid.d, 0))
        self.k = [np.where(2 * np.abs(m.reshape(km.shape)) == n, 0.0, km)
                  for m, km, n in zip(grid.mode_axes, grid.k_mesh, grid.n)]
        self.k2 = grid.k2_mesh
        kk = sum(km ** 2 for km in self.k) + np.zeros(grid.shape)
        self.inv_kk = np.where(kk > 0, 1.0 / np.where(kk > 0, kk, 1.0), 0.0)
        mask = np.ones(grid.shape, dtype=bool)
        for i, m in enumerate(grid.mode_axes):
            mask &= (np.abs(m) <= grid.n[i] / 3.0).reshape([-1 if i == j else 1 for j in range(grid.d)])
        self.mask = mask

    def fft(self, f):
        return np.fft.fftn(f, axes=self.axes)

    def ifft(self, fhat):
        return np.fft.ifftn(fhat, axes=self.axes).real

    def gradient(self, f):
        fhat = self.fft(f)
        return np.stack([self.ifft(1j * km * fhat) for km in self.k])

    def divergence(self, v):
        vhat = self.fft(v)
        return self.ifft(sum(1j * km * vhat[i] for i, km in enumerate(self.k)))

    def laplacian(self, f):
        return self.ifft(-self.k2 * self.fft(f))

    def leray_project(self, v):
        vhat = self.fft(v)
        coeff = sum(km * vhat[i] for i, km in enumerate(self.k)) * self.inv_kk
        what = vhat - np.stack([km * coeff for km in self.k])
        return self.ifft(what), self.ifft(-1j * coeff)

    def dealias(self, f):
        return self.ifft(self.mask * self.fft(f))

    def helmholtz_solve(self, f, alpha):
        return self.ifft(self.fft(f) / (1.0 + alpha * self.k2))

    def spectral_sum(self, f, weight):
        """sum over modes of weight * |fhat/N|^2, summed over components."""
        dens = np.abs(self.fft(f) / self.grid.num_points) ** 2
        if f.ndim > self.grid.d:
            dens = dens.sum(axis=0)
        return float(np.sum(weight * dens))


def assert_close(actual, expected):
    assert actual.shape == expected.shape
    assert not np.iscomplexobj(actual)
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= TOL * scale


def white_noise(grid, rng, *lead):
    return rng.standard_normal(lead + grid.shape)


def test_real_and_complex_round_trips(grid):
    plan = plan_for(grid)
    rng = np.random.default_rng(11)
    f = white_noise(grid, rng)
    fhat = plan.fft(f)
    assert fhat.shape == grid.shape[:-1] + (grid.n[-1] // 2 + 1,)
    assert np.allclose(fhat, np.fft.fftn(f)[..., :grid.n[-1] // 2 + 1], rtol=0, atol=1e-12 * np.abs(fhat).max())
    back = plan.ifft(fhat, f)
    assert back.dtype == np.float64 and back.shape == grid.shape
    assert np.abs(back - f).max() <= TOL * np.abs(f).max()
    v = white_noise(grid, rng, grid.d)
    assert np.abs(plan.ifft(plan.fft(v), v) - v).max() <= TOL * np.abs(v).max()
    z = f + 1j * white_noise(grid, rng)
    zhat = plan.fft(z)
    assert zhat.shape == grid.shape
    back = plan.ifft(zhat, z)
    assert np.iscomplexobj(back)
    assert np.abs(back - z).max() <= TOL * np.abs(z).max()


def test_spectral_inner_product_is_parseval(grid):
    plan = plan_for(grid)
    rng = np.random.default_rng(16)
    f, g = white_noise(grid, rng), white_noise(grid, rng)
    fhat, ghat = plan.fft(f), plan.fft(g)
    expect = grid.num_points * float(np.sum(f * g))
    assert plan.tables(fhat).dot(fhat, ghat) == pytest.approx(expect, rel=TOL)
    a, b = f + 1j * g, g - 0.5j * f
    ahat, bhat = plan.fft(a), plan.fft(b)
    expect = grid.num_points * float(np.sum(np.conj(a) * b).real)
    assert plan.tables(ahat).dot(ahat, bhat) == pytest.approx(expect, rel=TOL)


def test_operators_match_complex_reference(grid):
    plan = plan_for(grid)
    ref = Reference(grid)
    rng = np.random.default_rng(12)
    f = white_noise(grid, rng)
    v = white_noise(grid, rng, grid.d)
    assert_close(plan.gradient(f), ref.gradient(f))
    assert_close(plan.divergence(v), ref.divergence(v))
    assert_close(plan.laplacian(f), ref.laplacian(f))
    assert_close(plan.laplacian(v), np.stack([ref.laplacian(c) for c in v]))
    assert_close(plan.dealias(f), ref.dealias(f))
    assert_close(plan.dealias(v), np.stack([ref.dealias(c) for c in v]))
    assert_close(plan.helmholtz_solve(f, 0.37), ref.helmholtz_solve(f, 0.37))
    w, chi = plan.leray_project(v)
    w_ref, chi_ref = ref.leray_project(v)
    assert_close(w, w_ref)
    assert_close(chi, chi_ref)


def test_projections_are_solenoidal_on_every_mode(grid):
    # the zeroed Nyquist derivative keeps div(w) = 0 on the Nyquist planes
    plan = plan_for(grid)
    rng = np.random.default_rng(13)
    v = white_noise(grid, rng, grid.d)
    w, _ = plan.leray_project(v)
    assert np.abs(plan.divergence(w)).max() <= TOL * grid.k_max * np.abs(w).max()
    rho = np.exp(0.5 * white_noise(grid, rng))
    w, _ = plan.weighted_leray_project(v, rho)
    assert np.abs(plan.divergence(w)).max() <= TOL * grid.k_max * np.abs(w).max()


def test_sobolev_norms_match_complex_reference(grid):
    ref = Reference(grid)
    rng = np.random.default_rng(14)
    f = white_noise(grid, rng)
    for s in (-1.0, 1.0, 2.75):
        expect = np.sqrt(grid.volume * ref.spectral_sum(f, (1.0 + ref.k2) ** s))
        assert sobolev_norm(grid, f, s) == pytest.approx(expect, rel=TOL)
    hom = np.where(ref.k2 > 0, ref.k2, 0.0)
    expect = np.sqrt(grid.volume * ref.spectral_sum(f, hom))
    assert sobolev_norm(grid, f, 1.0, homogeneous=True) == pytest.approx(expect, rel=TOL)


def test_measure_parseval_sums_match_complex_reference(grid):
    ref = Reference(grid)
    rng = np.random.default_rng(15)
    params = Params(lam=0.7, mu=0.6, nu=0.15, m=0.5, M=2.0, eps=0.2)
    psi = white_noise(grid, rng) + 1j * white_noise(grid, rng)
    u = white_noise(grid, rng, grid.d)
    rho = 1.0 + 0.3 * np.tanh(white_noise(grid, rng))
    state = State(0.0, psi, u, rho, grid)
    rec = measure(state, params)
    vol, k2 = grid.volume, ref.k2
    grad_u_sq = vol * ref.spectral_sum(u, k2)
    lap_u_sq = vol * ref.spectral_sum(u, k2 ** 2)
    coupling = coupling_term(state, params)
    grad_c_sq = vol * ref.spectral_sum(coupling, k2)
    w_mid = (1.0 + k2) ** (1.5 + params.delta)
    assert rec.diss_visc == pytest.approx(params.nu * grad_u_sq, rel=TOL)
    assert rec.sob_vel == pytest.approx(np.sqrt(vol * ref.spectral_sum(u, w_mid)), rel=TOL)
    assert rec.second_diss == pytest.approx(
        params.lam * grad_c_sq + params.nu ** 2 / params.m_prime * lap_u_sq, rel=TOL)
    assert rec.second_energy == pytest.approx(
        1.0 + vol * ref.spectral_sum(psi, k2 ** 2) + params.nu * grad_u_sq, rel=TOL)


@pytest.mark.parametrize("d, n", [(2, 32), (3, 16)], ids=["2d-32", "3d-16"])
def test_stacked_transforms_equal_per_component_bit_for_bit(d, n):
    """One plan.fft / plan.ifft call on a stack of fields gives each field
    the bits of its own call: the integrator stacks the wave stages' psi and
    grad(psi), and the acceleration with curl(u), |u|^2 and rho u, on this."""
    grid = make_grid(d, [n] * d, [2 * np.pi] * d)
    plan = plan_for(grid)
    rng = np.random.default_rng(17)
    v = white_noise(grid, rng, d)
    vhat = plan.fft(v)
    assert all(np.array_equal(vhat[i], plan.fft(v[i])) for i in range(d))
    back = plan.ifft(vhat, v)
    assert all(np.array_equal(back[i], plan.ifft(vhat[i], v[i])) for i in range(d))
    z = white_noise(grid, rng, d + 1) + 1j * white_noise(grid, rng, d + 1)
    zhat = plan.fft(z)
    assert all(np.array_equal(zhat[i], plan.fft(z[i])) for i in range(d + 1))
    back = plan.ifft(zhat, z)
    assert all(np.array_equal(back[i], plan.ifft(zhat[i], z[i])) for i in range(d + 1))


def test_in_place_truncation_is_the_mask_product(grid):
    # dealias_in_place zeroes the slabs |m_i| > n_i/3 of a spectrum the
    # caller owns, one field or a stack, on the half and the full layout:
    # it leaves the values of the mask product (a signed zero may differ,
    # which == ignores) and returns the array it was given.  dealias_hat
    # and dealias truncate a copy and leave their inputs as they were
    plan = plan_for(grid)
    rng = np.random.default_rng(23)
    f = white_noise(grid, rng, grid.d)
    z = white_noise(grid, rng, grid.d) + 1j * white_noise(grid, rng, grid.d)
    for field in (f[0], f, z[0], z):
        fhat = plan.fft(field)
        expect = fhat * plan.tables(fhat).mask
        kept = fhat.copy()
        copied = plan.dealias_hat(fhat)
        assert np.array_equal(fhat, kept) and not np.shares_memory(copied, fhat)
        assert np.array_equal(copied, expect)
        out = plan.dealias_in_place(fhat)
        assert out is fhat and np.array_equal(out, expect)
        before = field.copy()
        plan.dealias(field)
        assert np.array_equal(field, before)
