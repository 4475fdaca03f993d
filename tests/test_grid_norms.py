import sys
import threading
from functools import partial

import numpy as np
import pytest

from pitaevskii.grid import GridError, make_grid
from pitaevskii.norms import inner_product, integral, lp_norm, sobolev_norm
from pitaevskii.spectral import SpectralTables

from conftest import gaussian_random_field


def test_wavenumber_table_1d():
    g = make_grid(1, [8], [2 * np.pi])
    assert np.array_equal(g.mode_axes[0], [0, 1, 2, 3, -4, -3, -2, -1])
    assert np.allclose(g.k_axes[0], [0, 1, 2, 3, -4, -3, -2, -1])


def test_grid_2d_geometry():
    g = make_grid(2, [4, 4], [1.0, 1.0])
    assert g.num_points == 16
    assert g.dx == (0.25, 0.25)
    assert g.volume == pytest.approx(1.0)


def test_grid_rejects_bad_input():
    with pytest.raises(GridError):
        make_grid(3, [3, 4, 4], [1, 1, 1])   # odd
    with pytest.raises(GridError):
        make_grid(1, [2], [1.0])             # too small
    with pytest.raises(GridError):
        make_grid(2, [8, 8], [1.0, -1.0])    # negative length
    with pytest.raises(GridError):
        make_grid(4, [8] * 4, [1.0] * 4)     # unsupported dimension


GEOMETRY_MESSAGE = ("grid lengths must give a positive cell volume, a finite volume and finite "
                    "Sobolev weights and inverse Laplacian")


@pytest.mark.parametrize("d, lengths, accepted", [
    # (1 + k_max^2)^3 with k_max = 8 pi / L overflows between these two
    (1, [1.1e-50], True), (1, [1.0e-50], False), (1, [1e-300], False), (1, [1e-320], False),
    # 1/k_min^2 with k_min = 2 pi / L overflows between these two
    (1, [8.4e154], True), (1, [8.5e154], False),
    # the volume overflows between these two
    (2, [1e154, 1e154], True), (2, [1e155, 1e154], False),
])
def test_grid_rejects_lengths_whose_geometry_overflows(d, lengths, accepted):
    # the check reads values alone; an accepted grid forms its largest
    # Sobolev weight, at s = 5/2 + delta < 3, and its inverse Laplacian
    # without a warning
    if not accepted:
        with pytest.raises(GridError) as err:
            make_grid(d, [8] * d, lengths)
        assert err.value.violations == [(("lengths", "n"), GEOMETRY_MESSAGE)]
        return
    g = make_grid(d, [8] * d, lengths)
    x = g.meshes()[0] * (2 * np.pi / g.lengths[0])
    assert g.cell_volume > 0 and np.isfinite(g.volume)
    assert np.isfinite(sobolev_norm(g, np.cos(x), 2.999))
    assert sobolev_norm(g, np.cos(x), -1.0) > 0


def test_nyquist_mode_indexable():
    g = make_grid(1, [8], [2 * np.pi])
    assert -4 in g.mode_axes[0]


def test_lp_norm_constant_field():
    g = make_grid(2, [16, 16], [2.0, 3.0])
    c = 1.7 - 0.4j
    f = np.full(g.shape, c)
    for p in (1, 2, 4):
        assert lp_norm(g, f, p) == pytest.approx(abs(c) * g.volume ** (1 / p), rel=1e-13)
    assert lp_norm(g, f, np.inf) == pytest.approx(abs(c))


def test_sobolev_single_mode():
    # e^{ik.x} with |k|^2 = 1 on a volume-V torus: H^s norm is 2^{s/2} sqrt(V)
    g = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])
    x, y = g.meshes()
    f = np.exp(1j * x)
    v = g.volume
    for s in (-1.0, 0.5, 1.0, 2.0, 2.75):
        assert sobolev_norm(g, f, s) == pytest.approx(2 ** (s / 2) * np.sqrt(v), rel=1e-12)
    # homogeneous variant: |k|^{2s} weight with |k| = 1
    assert sobolev_norm(g, f, 1.0, homogeneous=True) == pytest.approx(np.sqrt(v), rel=1e-12)


def test_homogeneous_norm_kills_constants():
    g = make_grid(1, [16], [2 * np.pi])
    f = np.full(g.shape, 2.5)
    assert sobolev_norm(g, f, 1.0, homogeneous=True) == 0.0
    assert sobolev_norm(g, f, 1.0) > 0.0


def test_parseval(grid2d, rng):
    f = gaussian_random_field(grid2d, rng, complex_field=True, band_limit=False)
    quad = lp_norm(grid2d, f, 2) ** 2
    fhat = np.fft.fftn(f) / grid2d.num_points
    spectral = float(np.sum(np.abs(fhat) ** 2)) * grid2d.volume
    assert abs(quad - spectral) <= 1e-12 * quad


def test_inner_product_fourier_modes():
    g = make_grid(1, [16], [2 * np.pi])
    x = g.axis_coordinates(0)
    e1 = np.exp(1j * x)
    e2 = np.exp(2j * x)
    assert inner_product(g, e1, e1) == pytest.approx(2 * np.pi, rel=1e-13)
    assert abs(inner_product(g, e1, e2)) <= 1e-13


def test_inner_product_sesquilinear(grid2d, rng):
    f = gaussian_random_field(grid2d, rng, complex_field=True)
    h = gaussian_random_field(grid2d, rng, complex_field=True)
    alpha = 0.8 - 1.3j
    assert inner_product(grid2d, f, alpha * h) == pytest.approx(alpha * inner_product(grid2d, f, h), rel=1e-12)
    assert inner_product(grid2d, alpha * f, h) == pytest.approx(
        np.conj(alpha) * inner_product(grid2d, f, h), rel=1e-12
    )
    # conjugate symmetry and positivity
    assert inner_product(grid2d, f, h) == pytest.approx(np.conj(inner_product(grid2d, h, f)), rel=1e-12)
    ff = inner_product(grid2d, f, f)
    assert abs(ff.imag) <= 1e-14 * abs(ff)
    assert ff.real == pytest.approx(lp_norm(grid2d, f, 2) ** 2, rel=1e-12)


def test_inner_product_grid_mismatch(grid2d):
    f = np.zeros(grid2d.shape)
    with pytest.raises(GridError):
        inner_product(grid2d, f, np.zeros((8, 8)))


@pytest.mark.parametrize("spec", [
    (lp_norm, 1),
    (lp_norm, 2),
    (lp_norm, 4),
    (lp_norm, np.inf),
    (sobolev_norm, 0.0),
    (sobolev_norm, 1.0),
    (sobolev_norm, -1.0),
    (partial(sobolev_norm, homogeneous=True), 1.0),
])
def test_triangle_inequality(grid2d, rng, spec):
    norm, index = spec
    for _ in range(5):
        f = gaussian_random_field(grid2d, rng, complex_field=True)
        h = gaussian_random_field(grid2d, rng, complex_field=True)
        lhs = norm(grid2d, f + h, index)
        rhs = norm(grid2d, f, index) + norm(grid2d, h, index)
        assert lhs <= rhs * (1 + 1e-12)


def test_sobolev_monotonicity(grid2d, rng):
    f = gaussian_random_field(grid2d, rng, complex_field=True)
    values = [sobolev_norm(grid2d, f, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))
    # exact ratio on a single mode
    g = make_grid(1, [16], [2 * np.pi])
    e = np.exp(1j * 2 * g.axis_coordinates(0))
    assert sobolev_norm(g, e, 2.0) / sobolev_norm(g, e, 1.0) == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_sobolev_weights_are_built_once_and_shared_across_threads():
    # racing first uses of one table must all get the one stored array
    g = make_grid(2, [256, 192], [2 * np.pi, 3.0])
    tab = SpectralTables(g, half=True)
    keys = [(s, hom) for s in (-1.0, 0.0, 0.7, 1.0, 2.5) for hom in (False, True)]
    seen = {key: [] for key in keys}
    start = threading.Barrier(8, timeout=60)

    def worker():
        start.wait()
        for key in keys:
            seen[key].append(tab.sobolev_weight(*key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    k2 = tab.k2
    for (s, hom), got in seen.items():
        assert len(got) == 8 and all(w is got[0] for w in got)
        if hom:
            expect = np.power(k2, s, out=np.zeros_like(k2), where=k2 > 0)
        else:
            expect = (1.0 + k2) ** s
        np.testing.assert_allclose(got[0], expect, rtol=1e-14, atol=0.0)


def test_norm_zero_iff_zero(grid1d):
    z = np.zeros(grid1d.shape, dtype=complex)
    assert lp_norm(grid1d, z, 2) == 0.0
    assert sobolev_norm(grid1d, z, 1.5) == 0.0
    f = z.copy()
    f[3] = 1e-30
    assert lp_norm(grid1d, f, 2) > 0.0


def test_invalid_specs(grid2d):
    with pytest.raises(ValueError):
        lp_norm(grid2d, np.ones(grid2d.shape), 0.5)


def test_integral_matches_mean():
    g = make_grid(2, [8, 8], [1.0, 2.0])
    f = np.full(g.shape, 3.0)
    assert integral(g, f) == pytest.approx(6.0, rel=1e-13)
