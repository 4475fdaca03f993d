"""Property tests of the spectral identities on random even grids in 1D, 2D
and 3D: the Leray projection, the pressure split, the density-weighted
projection, Parseval through SpectralTables.dot and the Helmholtz inverse.

Each test draws a grid (even point counts, arbitrary box lengths) and a
seed for its fields; hypothesis runs derandomized, so every run of the
suite sees the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pitaevskii.grid import make_grid
from pitaevskii.spectral import ProjectionNotConverged, plan_for

from conftest import gaussian_random_field, numpy_pressure_residual

# a relative round-off bound: every identity below is exact in exact
# arithmetic, and the largest error seen on these grids was 9.0e-16
ROUNDOFF = 1e-13
MAX_N = {1: 32, 2: 16, 3: 8}
PROPERTIES = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@st.composite
def grids(draw):
    d = draw(st.integers(1, 3))
    n = [draw(st.integers(2, MAX_N[d] // 2)) * 2 for _ in range(d)]
    lengths = [draw(st.floats(0.5, 8.0)) for _ in range(d)]
    return make_grid(d, n, lengths)


seeds = st.integers(0, 2 ** 32 - 1)


def noise(grid, rng, rows=None, complex_field=False):
    """A field with every mode present, the Nyquist planes and the modes
    outside the dealias ball included."""
    shape = grid.shape if rows is None else (rows,) + grid.shape
    f = rng.standard_normal(shape)
    return f + 1j * rng.standard_normal(shape) if complex_field else f


def density(grid, rng, contrast):
    """A smooth positive weight spanning [1, contrast] exactly."""
    g = gaussian_random_field(grid, rng, kc=3.0)
    return contrast ** ((g - g.min()) / (g.max() - g.min()))


def assert_roundoff(a, b, scale):
    assert np.abs(a - b).max() <= ROUNDOFF * scale


@PROPERTIES
@given(grids(), seeds, st.booleans())
def test_leray_projection_is_idempotent_solenoidal_and_splits_v(grid, seed, complex_field):
    # w = P v has div w = 0, P w = w, and w + grad(chi) = v, on the half
    # spectrum of a real v and the full spectrum of a complex one
    plan = plan_for(grid)
    v = noise(grid, np.random.default_rng(seed), grid.d, complex_field)
    vhat = plan.fft(v)
    tab = plan.tables(vhat)
    what, chihat = plan.leray_hat(vhat)
    scale = np.abs(vhat).max()
    assert np.abs(plan.div_hat(what)).max() <= ROUNDOFF * tab.k_max * scale
    assert_roundoff(plan.leray_hat(what)[0], what, scale)
    assert_roundoff(what + plan.grad_hat(chihat), vhat, scale)
    if not complex_field:
        w, chi = plan.leray_project(v)
        assert_roundoff(w + plan.gradient(chi), v, np.abs(v).max())


@PROPERTIES
@given(grids(), seeds, st.floats(1.0, 100.0))
def test_split_projection_is_solenoidal_and_adds_the_truncated_p_star(grid, seed, contrast):
    # p = rho0 chi + T p* on the modes k' != 0, and 0 where k' = 0
    rng = np.random.default_rng(seed)
    plan = plan_for(grid)
    rho = density(grid, rng, contrast)
    vhat = plan.fft(noise(grid, rng, grid.d))
    p_star = plan.fft(noise(grid, rng))
    what, phat = plan.split_leray_hat(vhat, rho, p_star)
    tab = plan.tables(vhat)
    assert np.abs(plan.div_hat(what)).max() <= ROUNDOFF * tab.k_max * np.abs(vhat).max()
    assert np.array_equal(what, plan.leray_hat(vhat)[0])
    expected = rho.min() * plan.leray_hat(vhat)[1] + plan.dealias_hat(p_star)
    scale = max(np.abs(expected).max(), np.abs(p_star).max())
    assert_roundoff(np.where(tab.nonzero, phat, 0.0), np.where(tab.nonzero, expected, 0.0), scale)
    assert not np.any(phat[~tab.nonzero])


@PROPERTIES
@given(grids(), seeds, st.floats(1.0, 100.0), st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6]),
       st.integers(0, 80), st.booleans())
def test_weighted_projection_meets_its_tolerance_or_raises(grid, seed, contrast, tol, max_iter,
                                                           warm):
    # a returned pressure's residual, recomputed by numpy's transforms, is
    # within tol or at the round-off floor of div(v); a solve that cannot
    # get there within max_iter raises with the residual it reached
    rng = np.random.default_rng(seed)
    plan = plan_for(grid)
    rho = density(grid, rng, contrast)
    v = noise(grid, rng, grid.d)
    vhat = plan.fft(v)
    guess = plan.fft(noise(grid, rng)) if warm else None
    try:
        what, phat = plan.weighted_leray_hat(vhat, rho, tol, max_iter, guess)
    except ProjectionNotConverged as exc:
        assert exc.iterations == max_iter
        assert exc.residual > tol
        return
    tab = plan.tables(vhat)
    div_v = plan.div_hat(vhat)
    floor = 1e-15 * tab.k_max * np.sqrt(tab.dot(vhat, vhat) / tab.dot(div_v, div_v))
    assert numpy_pressure_residual(grid, v, rho, plan.ifft(phat, rho)) <= 1.01 * max(tol, floor)
    assert np.abs(plan.div_hat(what)).max() <= ROUNDOFF * tab.k_max * np.abs(vhat).max()


@PROPERTIES
@given(grids(), seeds, st.booleans(), st.sampled_from([None, 1, 3]))
def test_tables_dot_is_parseval(grid, seed, complex_field, rows):
    # dot(fft f, fft g) = N sum_x f g for real fields, N Re sum_x conj(f) g
    # for complex ones, stacked rows summed
    rng = np.random.default_rng(seed)
    plan = plan_for(grid)
    f = noise(grid, rng, rows, complex_field)
    g = noise(grid, rng, rows, complex_field)
    fhat, ghat = plan.fft(f), plan.fft(g)
    expected = grid.num_points * np.vdot(f, g).real
    scale = grid.num_points * np.linalg.norm(f) * np.linalg.norm(g)
    assert abs(plan.tables(fhat).dot(fhat, ghat) - expected) <= ROUNDOFF * scale


@PROPERTIES
@given(grids(), seeds, st.booleans(), st.floats(0.0, 10.0))
def test_helmholtz_inverse(grid, seed, complex_field, alpha):
    # (I - alpha lap) applied to the solve gives f back, on spectra and on
    # fields
    plan = plan_for(grid)
    f = noise(grid, np.random.default_rng(seed), None, complex_field)
    fhat = plan.fft(f)
    ghat = plan.helmholtz_hat(fhat, plan.helmholtz_factor(fhat, alpha))
    assert_roundoff((1.0 + alpha * plan.tables(fhat).k2) * ghat, fhat, np.abs(fhat).max())
    g = plan.helmholtz_solve(f, alpha)
    scale = np.abs(f).max() * (1.0 + alpha * float(plan.tables(fhat).k2.max()))
    assert_roundoff(g - alpha * plan.laplacian(g), f, scale)
