import numpy as np
import pytest

from pitaevskii.norms import inner_product, lp_norm
from pitaevskii.spectral import ProjectionNotConverged, plan_for

from conftest import (fold_pressure, gaussian_random_field, numpy_pressure_residual,
                      random_vector_field, untruncated_split_leray_hat,
                      untruncated_weighted_leray_hat)


def test_gradient_single_mode(grid2d):
    plan = plan_for(grid2d)
    x, y = grid2d.meshes()
    k = (3, -2)
    f = np.exp(1j * (k[0] * x + k[1] * y))
    g = plan.gradient(f)
    for i in range(2):
        assert np.allclose(g[i], 1j * k[i] * f, atol=1e-12)


def test_laplacian_constant(grid2d):
    plan = plan_for(grid2d)
    f = np.full(grid2d.shape, 4.2)
    assert np.abs(plan.laplacian(f)).max() <= 1e-14


def test_divergence_of_gradient_is_laplacian(grid2d, rng):
    plan = plan_for(grid2d)
    f = gaussian_random_field(grid2d, rng)
    lhs = plan.divergence(plan.gradient(f))
    rhs = plan.laplacian(f)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1e-30)


def test_leray_annihilates_gradients(grid2d, rng):
    plan = plan_for(grid2d)
    chi = gaussian_random_field(grid2d, rng)
    v = plan.gradient(chi)
    w, pot = plan.leray_project(v)
    scale = np.abs(v).max()
    assert np.abs(w).max() <= 1e-12 * scale
    # potential recovers chi up to its mean
    assert np.abs((pot - pot.mean()) - (chi - chi.mean())).max() <= 1e-12 * np.abs(chi).max()


def test_leray_keeps_divergence_free_2d(grid2d, rng):
    plan = plan_for(grid2d)
    chi = gaussian_random_field(grid2d, rng)
    g = plan.gradient(chi)
    v = np.stack([-g[1], g[0]])  # perpendicular gradient, divergence-free
    w, pot = plan.leray_project(v)
    assert np.abs(w - v).max() <= 1e-12 * np.abs(v).max()
    assert np.abs(pot).max() <= 1e-12 * np.abs(chi).max()


def test_leray_random_field_properties(grid2d, rng):
    plan = plan_for(grid2d)
    v = random_vector_field(grid2d, rng)
    w, pot = plan.leray_project(v)
    scale = np.abs(v).max()
    assert np.abs(plan.divergence(w)).max() <= 1e-12 * scale
    # reconstruction and idempotence
    assert np.abs(w + plan.gradient(pot) - v).max() <= 1e-12 * scale
    w2, pot2 = plan.leray_project(w)
    assert np.abs(w2 - w).max() <= 1e-12 * scale
    assert np.abs(pot2).max() <= 1e-12 * scale


def test_leray_orthogonality(grid2d, rng):
    plan = plan_for(grid2d)
    for _ in range(5):
        v = random_vector_field(grid2d, rng)
        chi = gaussian_random_field(grid2d, rng)
        w, _ = plan.leray_project(v)
        gchi = plan.gradient(chi)
        ip = inner_product(grid2d, w, gchi)
        bound = 1e-12 * lp_norm(grid2d, v, 2) * lp_norm(grid2d, gchi, 2)
        assert abs(ip) <= max(bound, 1e-15)


def test_leray_preserves_mean_mode(grid2d):
    plan = plan_for(grid2d)
    v = np.stack([np.full(grid2d.shape, 1.5), np.full(grid2d.shape, -0.5)])
    w, pot = plan.leray_project(v)
    assert np.allclose(w, v, atol=1e-14)
    assert np.abs(pot).max() <= 1e-14


def test_dealias_mask(grid2d):
    plan = plan_for(grid2d)
    x, y = grid2d.meshes()
    low = np.exp(1j * (2 * x + 3 * y))       # |m| <= 32/3 -> kept
    assert np.abs(plan.dealias(low) - low).max() <= 1e-12
    nyq = np.cos(16 * x)                      # Nyquist mode -> zeroed
    assert np.abs(plan.dealias(nyq)).max() <= 1e-12
    just_out = np.exp(1j * 11 * x)            # 11 > 32/3 -> zeroed
    assert np.abs(plan.dealias(just_out)).max() <= 1e-12


def test_dealias_energy_nonincreasing(grid2d, rng):
    plan = plan_for(grid2d)
    f = gaussian_random_field(grid2d, rng, kc=12.0, complex_field=True, band_limit=False)
    assert lp_norm(grid2d, plan.dealias(f), 2) <= lp_norm(grid2d, f, 2) * (1 + 1e-12)


def test_helmholtz_identity_at_zero(grid2d, rng):
    plan = plan_for(grid2d)
    f = gaussian_random_field(grid2d, rng)
    out = plan.helmholtz_solve(f, 0.0)
    assert np.array_equal(out, f)


def test_helmholtz_single_mode(grid2d):
    plan = plan_for(grid2d)
    x, y = grid2d.meshes()
    f = np.exp(1j * (x + 2 * y))  # |k|^2 = 5
    out = plan.helmholtz_solve(f, 1.0)
    assert np.allclose(out, f / 6.0, atol=1e-13)


def test_helmholtz_residual(grid2d, rng):
    plan = plan_for(grid2d)
    f = gaussian_random_field(grid2d, rng)
    alpha = 0.37
    out = plan.helmholtz_solve(f, alpha)
    residual = out - alpha * plan.laplacian(out) - f
    assert np.abs(residual).max() <= 1e-12 * np.abs(f).max()


def test_helmholtz_rejects_negative_alpha(grid2d):
    plan = plan_for(grid2d)
    with pytest.raises(ValueError):
        plan.helmholtz_solve(np.zeros(grid2d.shape), -0.1)


@pytest.mark.parametrize("shift", [(1, 0), (0, 3), (5, 7)])
def test_translation_equivariance(grid2d, rng, shift):
    plan = plan_for(grid2d)
    f = gaussian_random_field(grid2d, rng)
    rolled = np.roll(f, shift, axis=(0, 1))
    for op in (plan.laplacian, plan.dealias, lambda x: plan.helmholtz_solve(x, 0.5)):
        a = op(rolled)
        b = np.roll(op(f), shift, axis=(0, 1))
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-30)
    a = plan.gradient(rolled)
    b = np.roll(plan.gradient(f), shift, axis=(1, 2))
    assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-30)


def test_real_fields_stay_real(grid2d, rng):
    plan = plan_for(grid2d)
    f = gaussian_random_field(grid2d, rng)
    assert not np.iscomplexobj(plan.laplacian(f))
    assert not np.iscomplexobj(plan.gradient(f))
    assert not np.iscomplexobj(plan.dealias(f))
    v = random_vector_field(grid2d, rng)
    w, pot = plan.leray_project(v)
    assert not np.iscomplexobj(w) and not np.iscomplexobj(pot)


def high_contrast_density(grid, rng):
    """Smooth density spanning [0.1, 10], both ends attained."""
    g = gaussian_random_field(grid, rng, kc=4.0)
    g = 2.0 * (g - g.min()) / (g.max() - g.min()) - 1.0
    return 10.0 ** g


def pressure_residual(plan, v, weight, p):
    """max |div((1/weight) grad p) - div v| / max |div v|."""
    div_v = plan.divergence(v)
    lhs = plan.divergence(plan.gradient(p) / weight)
    return float(np.abs(lhs - div_v).max()) / float(np.abs(div_v).max())


def test_weighted_projection_solenoidal_high_contrast(grid2d, rng):
    plan = plan_for(grid2d)
    rho = high_contrast_density(grid2d, rng)
    v = random_vector_field(grid2d, rng, kc=8.0, band_limit=False)
    w, _ = plan.weighted_leray_project(v, rho)
    assert np.abs(plan.divergence(w)).max() <= 1e-12 * grid2d.k_max * np.abs(w).max()


def test_weighted_projection_converges_high_contrast(grid2d, rng):
    # a fixed-point iteration stalls here at max_iter with a residual ~1e-2
    plan = plan_for(grid2d)
    rho = high_contrast_density(grid2d, rng)
    v = random_vector_field(grid2d, rng)
    w, p = plan.weighted_leray_project(v, rho)
    assert pressure_residual(plan, v, rho, p) <= 1e-8
    # for the band-limited v, w = v - T[(1/rho) grad p], T the 2/3
    # truncation, up to the exact Leray clean-up of the residual; with the
    # correction untruncated, w = v - (1/rho) grad p to the same accuracy.
    # The truncation itself moves w by far more (5.5e-3 of max|v| here)
    correction = plan.gradient(p) / rho
    assert np.abs(w - (v - plan.dealias(correction))).max() <= 1e-8 * np.abs(v).max()
    w_x = plan.ifft(untruncated_weighted_leray_hat(plan, plan.fft(v), rho, plan.fft(p)), v)
    assert np.abs(w_x - (v - correction)).max() <= 1e-8 * np.abs(v).max()
    assert np.abs(w_x - w).max() > 1e-4 * np.abs(v).max()


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_weighted_projection_meets_its_tolerance(grid2d, rng, tol):
    # the returned pressure's residual, recomputed independently, is within
    # tol on cold and warm solves from contrast 1.44 to 100 (measured at
    # most 0.90 tol here; a solve stopped at 10 tol read 1.0-9.7 tol)
    plan = plan_for(grid2d)
    for contrast in (1.44, 3.9, 16.0, 100.0):
        g = gaussian_random_field(grid2d, rng, kc=4.0)
        rho = contrast ** ((g - g.min()) / (g.max() - g.min()))     # [1, contrast]
        v = random_vector_field(grid2d, rng)
        vhat = plan.fft(v)
        _, phat = plan.weighted_leray_hat(vhat, rho, tol=tol)
        _, warm = plan.weighted_leray_hat(vhat, rho, tol=tol, initial_pressure_hat=1.01 * phat)
        for p in (phat, warm):
            assert numpy_pressure_residual(grid2d, v, rho, plan.ifft(p, rho)) <= tol


# Cold-solve iteration budgets of the seeded solves below at contrast 4, 16
# and 100: the preconditioner L^-1 (-div(rho grad(L^-1 .))), L = |k'|^2,
# takes exactly these.  |k'|^-1 rho |k'|^-1 took 15, 24, 45 (2D 32^2) and
# 15, 24, 50 (3D 16^3), the constant-coefficient inverse 1/(r_bar |k'|^2)
# 21, 42, 87 and 18, 30, 64.
COLD_ITERATIONS = {"grid2d": (7, 12, 18), "grid3d": (7, 11, 21)}


@pytest.mark.parametrize("name", sorted(COLD_ITERATIONS))
def test_weighted_projection_cold_iterations(request, rng, name):
    # each solve meets its tolerance within its budget (max_iter raises
    # above it), its residual recomputed independently
    grid = request.getfixturevalue(name)
    plan = plan_for(grid)
    for contrast, budget in zip((4.0, 16.0, 100.0), COLD_ITERATIONS[name]):
        g = gaussian_random_field(grid, rng, kc=4.0)
        rho = contrast ** ((g - g.min()) / (g.max() - g.min()))     # [1, contrast]
        v = random_vector_field(grid, rng)
        _, phat = plan.weighted_leray_hat(plan.fft(v), rho, max_iter=budget)
        assert numpy_pressure_residual(grid, v, rho, plan.ifft(phat, rho)) <= 1e-10


def test_weighted_projection_of_a_nearly_solenoidal_field_returns(grid3d, rng):
    # div v at round-off, or within a few orders of it: PCG cannot take the
    # residual below about 8e-18 of max|k'| ||v|| here, so a tolerance
    # relative to ||div v|| alone stalled and raised after max_iter (at
    # relative residuals 1.3e-1, 2.3e-5, 2.6e-7 and 2.7e-9 for the four
    # fields below).  A solenoidal field passes through the Leray projection
    # with a zero pressure; the others meet the round-off floor
    plan = plan_for(grid3d)
    g = gaussian_random_field(grid3d, rng, kc=4.0)
    rho = 16.0 ** ((g - g.min()) / (g.max() - g.min()))     # [1, 16]
    v = plan.leray_project(random_vector_field(grid3d, rng))[0]
    vhat = plan.fft(v)
    what, phat = plan.weighted_leray_hat(vhat, rho, max_iter=0)
    assert np.array_equal(what, plan.leray_hat(vhat)[0])
    assert not phat.any()
    grad = plan.gradient(gaussian_random_field(grid3d, rng, kc=4.0))
    grad *= np.abs(v).max() / np.abs(grad).max()
    for delta in (1e-12, 1e-10, 1e-8):
        v_delta = v + delta * grad
        w, _ = plan.weighted_leray_project(v_delta, rho)
        assert np.abs(plan.divergence(w)).max() <= 1e-12 * grid3d.k_max * np.abs(w).max()
        assert np.abs(w - v).max() <= 2 * delta * np.abs(v).max()


def test_weighted_projection_warm_start_reaches_the_same_pressure(grid2d, rng):
    plan = plan_for(grid2d)
    rho = high_contrast_density(grid2d, rng)
    v = random_vector_field(grid2d, rng)
    w, p = plan.weighted_leray_project(v, rho)
    w2, p2 = plan.weighted_leray_project(v, rho, initial_pressure=p + 0.1 * np.sin(grid2d.meshes()[0]))
    assert np.abs(p2 - p).max() <= 1e-8 * np.abs(p).max()
    assert np.abs(w2 - w).max() <= 1e-8 * np.abs(w).max()


def test_weighted_projection_warm_start_at_the_solution_takes_no_iteration(grid2d, rng):
    plan = plan_for(grid2d)
    rho = high_contrast_density(grid2d, rng)
    vhat = plan.fft(random_vector_field(grid2d, rng))
    what, phat = plan.weighted_leray_hat(vhat, rho, tol=1e-12)
    # max_iter=0 raises unless the initial guess already meets the tolerance
    what2, phat2 = plan.weighted_leray_hat(vhat, rho, max_iter=0, initial_pressure_hat=phat)
    assert np.array_equal(phat2, phat)
    assert np.abs(what2 - what).max() <= 1e-12 * np.abs(what).max()
    with pytest.raises(ProjectionNotConverged):
        plan.weighted_leray_hat(vhat, rho, max_iter=0)


def test_split_projection_at_the_solved_pressure_is_the_weighted_projection(grid2d, rng):
    # p* = the solved pressure makes the split's explicit remainder the whole
    # variable-coefficient part.  Without truncation the split returns the
    # velocity of the weighted projection with an untruncated correction,
    # and its pressure; the split takes its remainder with the
    # acceleration's 2/3 truncation T (fold_pressure), so for a band-limited
    # v it returns T p and the shipped weighted projection's velocity, whose
    # correction is truncated: T w.  Any p* leaves a divergence-free
    # velocity; at uniform weight the split is the weighted projection, the
    # plain Leray projection, whatever p*
    plan = plan_for(grid2d)
    g = gaussian_random_field(grid2d, rng, kc=4.0)
    rho = 1.44 ** ((g - g.min()) / (g.max() - g.min()))     # [1, 1.44]
    vhat = plan.fft(random_vector_field(grid2d, rng))
    what, phat = plan.weighted_leray_hat(vhat, rho, tol=1e-12)
    what_x, phat_x = untruncated_split_leray_hat(plan, vhat, rho, phat)
    assert np.abs(phat_x - phat).max() <= 1e-10 * np.abs(phat).max()
    untruncated = untruncated_weighted_leray_hat(plan, vhat, rho, phat)
    assert np.abs(what_x - untruncated).max() <= 1e-10 * np.abs(what).max()
    assert np.abs(plan.dealias_hat(untruncated) - what).max() <= 1e-10 * np.abs(what).max()
    what_s, phat_s = plan.split_leray_hat(fold_pressure(plan, vhat, rho, phat), rho, phat)
    assert np.abs(phat_s - plan.dealias_hat(phat)).max() <= 1e-10 * np.abs(phat).max()
    assert np.abs(what_s - what).max() <= 1e-10 * np.abs(what).max()
    what_0, _ = plan.split_leray_hat(vhat, rho, np.zeros_like(phat))
    assert np.abs(plan.div_hat(what_0)).max() <= 1e-12 * grid2d.k_max * np.abs(what_0).max()
    assert np.abs(what_0 - what).max() > 1e-3 * np.abs(what).max()
    uniform = np.full(grid2d.shape, 2.0)
    what_w, phat_w = plan.weighted_leray_hat(vhat, uniform)
    # the body's velocity is the Leray projection of what it is given, bit
    # for bit; folded in, (1/2) grad(p*) is a pure gradient, which it removes
    assert np.array_equal(plan.split_leray_hat(vhat, uniform, phat)[0], what_w)
    what_u, phat_u = plan.split_leray_hat(fold_pressure(plan, vhat, uniform, phat), uniform, phat)
    assert np.abs(what_u - what_w).max() <= 1e-14 * np.abs(what_w).max()
    assert np.abs(phat_u - phat_w).max() <= 1e-14 * np.abs(phat_w).max()


def test_weighted_projection_not_converged_is_loud(grid2d, rng):
    plan = plan_for(grid2d)
    rho = high_contrast_density(grid2d, rng)
    v = random_vector_field(grid2d, rng)
    with pytest.raises(ProjectionNotConverged) as err:
        plan.weighted_leray_project(v, rho, max_iter=1)
    assert err.value.iterations == 1
    assert err.value.residual > 1e-10
