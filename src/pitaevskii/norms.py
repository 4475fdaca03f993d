"""Lebesgue and Sobolev norms on periodic grids.

Conventions:

* ``L^p`` norms use node-sum quadrature, ``(sum |f|^p * cell_volume)^(1/p)``;
  on the torus this is the trapezoid rule and is spectrally accurate for
  smooth integrands.  ``p = inf`` is the max over nodes.
* ``H^s`` norms are spectral: ``sqrt(V * sum (1+|k|^2)^s |fhat_k|^2)`` with
  ``fhat_k`` the Fourier coefficients in the convention ``f = sum fhat_k
  exp(i k.x)``.  The homogeneous variant uses ``|k|^(2s)`` and ignores the
  mean mode, so it vanishes exactly on constants.  sobolev_sq is the one
  body: it weighs a Parseval density (spectral_density_hat), so a caller that
  needs several H^s norms of one field transforms it once.
* Vector fields use the pointwise Euclidean magnitude for ``L^p`` and the
  component-wise sum of spectra for ``H^s``.

The inner product is sesquilinear with the first argument conjugated.
"""

import numpy as np

from .grid import GridError
from .spectral import plan_for


def _pointwise_magnitude(grid, f):
    f = np.asarray(f)
    if grid.is_vector(f):
        return np.sqrt(np.sum(np.abs(f) ** 2, axis=0))
    if grid.is_scalar(f):
        return np.abs(f)
    raise GridError(f"field with shape {f.shape} does not live on grid {grid.shape}")


def spectral_density_hat(plan, fhat):
    """Parseval-weighted squared modulus of the Fourier coefficients, summed
    over components, from the spectrum fhat = plan.fft(f) of a scalar or
    stacked vector field (the half spectrum for a real field), with the
    SpectralTables of that layout.  The squared modulus is Re^2 + Im^2,
    and the Parseval weight and the 1/N^2 of the unnormalised spectrum
    enter in one multiply (SpectralTables.parseval)."""
    tab = plan.tables(fhat)
    dens = fhat.real ** 2 + fhat.imag ** 2
    if np.ndim(fhat) > plan.grid.d:
        dens = dens.sum(axis=0)
    dens *= tab.parseval
    return dens, tab


def lp_norm(grid, f, p):
    if not p >= 1:
        raise ValueError(f"integrability index must satisfy p >= 1, got {p}")
    mag = _pointwise_magnitude(grid, f)
    if np.isinf(p):
        return float(mag.max()) if mag.size else 0.0
    return float((np.sum(mag ** p) * grid.cell_volume) ** (1.0 / p))


def sobolev_sq(dens, tab, volume, s, homogeneous=False):
    """Squared H^s norm from a Parseval density and its layout's tables (the
    pair spectral_density_hat returns) on a box of this volume: the weight is
    (1+|k|^2)^s, or |k|^(2s) off the mean mode when homogeneous, read from
    the tables' cache (SpectralTables.sobolev_weight).  One dot product of
    the density with that weight table; no product array is formed."""
    return float(np.vdot(tab.sobolev_weight(s, homogeneous), dens)) * volume


def sobolev_norm(grid, f, s, homogeneous=False):
    grid.check_field(f)
    plan = plan_for(grid)
    dens, tab = spectral_density_hat(plan, plan.fft(np.asarray(f)))
    return float(np.sqrt(sobolev_sq(dens, tab, grid.volume, s, homogeneous)))


def inner_product(grid, f, g):
    """Sesquilinear L^2 pairing: the first argument is conjugated.

    For vector fields the component pairings are summed.  <f, f> is real and
    equals lp_norm(grid, f, 2)**2 up to round-off.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape:
        raise GridError(f"field shapes {f.shape} and {g.shape} do not match")
    grid.check_field(f)
    return complex(np.sum(np.conj(f) * g) * grid.cell_volume)


def integral(grid, f):
    """Plain node-sum integral of a scalar field (complex allowed)."""
    f = np.asarray(f)
    if not grid.is_scalar(f):
        raise GridError("integral expects a scalar field")
    val = np.sum(f) * grid.cell_volume
    return complex(val) if np.iscomplexobj(f) else float(val)

