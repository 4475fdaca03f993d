"""Lebesgue and Sobolev norms on periodic grids.

Conventions:

* ``L^p`` norms use node-sum quadrature, ``(sum |f|^p * cell_volume)^(1/p)``;
  on the torus this is the trapezoid rule and is spectrally accurate for
  smooth integrands.  ``p = inf`` is the max over nodes.
* ``H^s`` norms are spectral: ``sqrt(V * sum (1+|k|^2)^s |fhat_k|^2)`` with
  ``fhat_k`` the Fourier coefficients in the convention ``f = sum fhat_k
  exp(i k.x)``.  The homogeneous variant uses ``|k|^(2s)`` and ignores the
  mean mode, so it vanishes exactly on constants.
* ``W^{1,p}`` is the inhomogeneous form ``(||f||_p^p + ||grad f||_p^p)^(1/p)``.
* Vector fields use the pointwise Euclidean magnitude for ``L^p`` and the
  component-wise sum of spectra for ``H^s``.

The inner product is sesquilinear with the first argument conjugated.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridError
from .spectral import plan_for


@dataclass(frozen=True)
class NormSpec:
    """Which norm to compute: kind is 'lp', 'sobolev' or 'w1p'."""

    kind: str
    p: float = 2.0
    s: float = 0.0
    homogeneous: bool = False

    def __post_init__(self):
        if self.kind not in ("lp", "sobolev", "w1p"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind in ("lp", "w1p") and not self.p >= 1:
            raise ValueError(f"integrability index must satisfy p >= 1, got {self.p}")
        if self.kind == "sobolev" and not np.isfinite(self.s):
            raise ValueError("derivative index s must be finite")


def _pointwise_magnitude(grid, f):
    f = np.asarray(f)
    if grid.is_vector(f):
        return np.sqrt(np.sum(np.abs(f) ** 2, axis=0))
    if grid.is_scalar(f):
        return np.abs(f)
    raise GridError(f"field with shape {f.shape} does not live on grid {grid.shape}")


def spectral_density(grid, f):
    """Parseval-weighted squared modulus of the Fourier coefficients, summed
    over components, on the spectrum layout of f (the half spectrum for a
    real field), with the |k|^2 table of that layout."""
    f = np.asarray(f)
    if not (grid.is_vector(f) or grid.is_scalar(f)):
        raise GridError(f"field with shape {f.shape} does not live on grid {grid.shape}")
    plan = plan_for(grid)
    return spectral_density_hat(plan, plan.fft(f))


def spectral_density_hat(plan, fhat):
    """spectral_density from the spectrum fhat = plan.fft(f) of a scalar or
    stacked vector field."""
    tab = plan.tables(fhat)
    dens = tab.weight * np.abs(fhat / plan.grid.num_points) ** 2
    if np.ndim(fhat) > plan.grid.d:
        dens = dens.sum(axis=0)
    return dens, tab.k2


def lp_norm(grid, f, p):
    if not p >= 1:
        raise ValueError(f"integrability index must satisfy p >= 1, got {p}")
    mag = _pointwise_magnitude(grid, f)
    if np.isinf(p):
        return float(mag.max()) if mag.size else 0.0
    return float((np.sum(mag ** p) * grid.cell_volume) ** (1.0 / p))


def sobolev_norm(grid, f, s, homogeneous=False):
    dens, k2 = spectral_density(grid, f)
    if homogeneous:
        weight = np.zeros_like(k2)
        nz = k2 > 0
        weight[nz] = k2[nz] ** s
    else:
        weight = (1.0 + k2) ** s
    total = float(np.sum(weight * dens)) * grid.volume
    return float(np.sqrt(max(total, 0.0)))


def w1p_norm(grid, f, p):
    if not grid.is_scalar(np.asarray(f)):
        raise GridError("W^{1,p} norm implemented for scalar fields")
    g = plan_for(grid).gradient(f)
    if np.isinf(p):
        return max(lp_norm(grid, f, p), lp_norm(grid, g, p))
    return float((lp_norm(grid, f, p) ** p + lp_norm(grid, g, p) ** p) ** (1.0 / p))


def norm(grid, f, spec):
    """Dispatch on a NormSpec; returns a nonnegative float."""
    if spec.kind == "lp":
        return lp_norm(grid, f, spec.p)
    if spec.kind == "sobolev":
        return sobolev_norm(grid, f, spec.s, spec.homogeneous)
    return w1p_norm(grid, f, spec.p)


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
    val = complex(np.sum(np.conj(f) * g) * grid.cell_volume)
    return val


def integral(grid, f):
    """Plain node-sum integral of a scalar field (complex allowed)."""
    f = np.asarray(f)
    if not grid.is_scalar(f):
        raise GridError("integral expects a scalar field")
    val = np.sum(f) * grid.cell_volume
    return complex(val) if np.iscomplexobj(f) else float(val)


def vector_integral(grid, f):
    """Componentwise integral of a vector field, returns shape (d,)."""
    f = np.asarray(f)
    if not grid.is_vector(f):
        raise GridError("vector_integral expects a vector field")
    return np.sum(f, axis=tuple(range(1, f.ndim))) * grid.cell_volume
