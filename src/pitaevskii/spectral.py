"""Fourier differential operators, Leray projections, dealiasing and Helmholtz solves.

A SpectralPlan caches the multiplier tables for one grid.  Plans are immutable
after construction and safe to share across concurrent runs; every method is a
pure function of its inputs.  Real input fields produce real outputs, complex
inputs stay complex.

Conventions:

* Transforms are scipy.fft's, single-threaded.  A real field (u, rho, p and
  every real product) is transformed with rfftn to its half spectrum: the
  last axis keeps the modes 0..n/2, the others follow from Hermitian
  symmetry.  A complex field (psi) keeps its full spectrum (fftn).  fft(f)
  picks the transform from the dtype of f and ifft(fhat, like) from the dtype
  of like, so plan.ifft(plan.fft(f), f) round-trips real and complex fields.
  Spectra are unnormalised (numpy's convention: the inverse divides by N).
* The multiplier tables of both layouts (SpectralTables) are built once, with
  the plan; tables(fhat) picks the layout from the spectrum's last axis.
* Nyquist: the odd-derivative multiplier i k_j is zero on the Nyquist plane
  of axis j (mode index -n_j/2), where the grid cannot tell +n_j/2 from
  -n_j/2.  Derivatives of real fields are then real mode by mode, no
  imaginary residue is dropped, and the half- and full-spectrum paths agree
  to round-off.  Gradient, divergence and both projections use this zeroed
  vector k', so div(grad) is -|k'|^2 and a projected field is divergence-free
  on every mode, the Nyquist planes included.  Even multipliers (the
  Laplacian and Helmholtz |k|^2, the Sobolev weights) keep the Nyquist mode.
* Parseval: sum_x f g = (1/N) sum over the half spectrum of
  weight * Re(conj(fhat) ghat), with weight 1 on the planes m_last = 0 and
  m_last = n_last/2, whose modes have no mirror image in the half spectrum,
  and 2 elsewhere.  The full layout has weight 1 everywhere.
* Pressure: weighted_leray_hat solves -div((1/rho) grad p) = -div v by
  preconditioned conjugate gradients, preconditioned by the
  constant-coefficient inverse 1/(r_bar |k'|^2).  It takes the velocity's
  half spectrum and an optional pressure spectrum as initial guess, and
  returns the spectra of the projected velocity and of the pressure, so a
  caller that holds spectra pays only the d inverse and d forward
  transforms of each iteration.  weighted_leray_project is its physical
  wrapper: it transforms v in and (w, p) back out.  The solve either
  meets its tolerance or raises ProjectionNotConverged; it never returns a
  pressure that missed it.
"""

import numpy as np
import scipy.fft

from .grid import GridError


class ProjectionNotConverged(RuntimeError):
    """The density-weighted projection reached max_iter above its tolerance."""

    def __init__(self, iterations, residual):
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(
            f"density-weighted projection did not converge: relative pressure "
            f"residual {self.residual:.3e} after {self.iterations} iterations"
        )


class SpectralTables:
    """Multiplier tables for one spectrum layout of a grid: the full
    spectrum of a complex field, or (half=True) the half spectrum of a real
    one.  Every table has the layout's full shape.

    ik       -- odd-derivative multipliers i k'_j, stacked (d, ...), zero on
                the Nyquist plane of axis j
    k2       -- |k|^2 (Nyquist kept)
    inv_kk   -- 1/|k'|^2, 0 where k' = 0 (the mean mode, and in the half
                layout the modes whose every index is 0 or Nyquist)
    mask     -- 2/3-rule dealias mask: keep |m_i| <= n_i/3
    weight   -- Parseval weight of each mode (see the module docstring)
    """

    def __init__(self, grid, half):
        self.half = half
        d = grid.d
        modes = list(grid.mode_axes)
        if half:
            modes[-1] = np.arange(grid.n[-1] // 2 + 1)
        shape = tuple(len(m) for m in modes)

        def mesh(i, axis_values):
            return np.broadcast_to(axis_values.reshape([-1 if i == j else 1 for j in range(d)]), shape)

        k = [mesh(i, 2.0 * np.pi / grid.lengths[i] * m) for i, m in enumerate(modes)]
        odd = [np.where(mesh(i, 2 * np.abs(m) == grid.n[i]), 0.0, km)
               for i, (m, km) in enumerate(zip(modes, k))]
        self.ik = 1j * np.stack(odd)
        self.k2 = sum(km ** 2 for km in k)
        kk = sum(km ** 2 for km in odd)
        self.inv_kk = np.divide(1.0, kk, out=np.zeros(shape), where=kk > 0)
        mask = np.ones(shape, dtype=bool)
        for i, m in enumerate(modes):
            mask &= mesh(i, np.abs(m) <= grid.n[i] / 3.0)
        self.mask = mask
        weight = np.ones(shape[-1])
        if half:
            weight[1:grid.n[-1] // 2] = 2.0
        self.weight = mesh(d - 1, weight)

    def dot(self, a, b):
        """Real inner product of two spectra with the Parseval weights:
        N * sum_x a(x) b(x) for real fields, N * Re sum_x conj(a) b for
        complex ones."""
        total = np.vdot(a, b).real
        if self.half:
            # weight 2 everywhere but on the first and last planes
            total = 2.0 * total - np.vdot(a[..., 0], b[..., 0]).real - np.vdot(a[..., -1], b[..., -1]).real
        return float(total)


class SpectralPlan:
    """Cached spectral operators for one grid.

    truncate=False builds a plan whose dealias() is a pass-through; the
    integrator uses it when truncation is switched off in the step config.
    """

    def __init__(self, grid, truncate=True):
        self.grid = grid
        self.truncate = truncate
        self._axes = tuple(range(-grid.d, 0))
        self._full = SpectralTables(grid, half=False)
        self._half = SpectralTables(grid, half=True)
        # full-spectrum 2/3-rule mask, independent of truncate
        self.dealias_mask = self._full.mask

    # -- transforms ------------------------------------------------------

    def fft(self, f):
        """Half spectrum of a real field, full spectrum of a complex one."""
        if np.iscomplexobj(f):
            return scipy.fft.fftn(f, axes=self._axes)
        return scipy.fft.rfftn(f, axes=self._axes)

    def ifft(self, fhat, like):
        """Inverse of fft for a field of the dtype of `like`."""
        if np.iscomplexobj(like):
            return scipy.fft.ifftn(fhat, axes=self._axes)
        return scipy.fft.irfftn(fhat, s=self.grid.shape, axes=self._axes)

    def tables(self, fhat):
        """The multiplier tables of the layout of spectrum fhat."""
        return self._full if np.shape(fhat)[-1] == self.grid.n[-1] else self._half

    # -- spectral-space operators ------------------------------------------

    def grad_hat(self, fhat):
        """Spectrum of the gradient, stacked (d, ...)."""
        return self.tables(fhat).ik * fhat

    def div_hat(self, vhat):
        """Spectrum of the divergence of a stacked vector spectrum."""
        return np.sum(self.tables(vhat).ik * vhat, axis=0)

    def dealias_hat(self, fhat):
        """2/3-rule truncation of a spectrum (identity when truncate=False)."""
        return fhat * self.tables(fhat).mask if self.truncate else fhat

    def _leray_hat(self, vhat):
        """(what, chihat): divergence-free part and gradient potential."""
        tab = self.tables(vhat)
        div = self.div_hat(vhat)
        return vhat + tab.ik * (div * tab.inv_kk), -div * tab.inv_kk

    # -- physical-space operators -----------------------------------------

    def _check(self, f, vector=False):
        f = np.asarray(f)
        if vector:
            if not self.grid.is_vector(f):
                raise GridError(f"expected a vector field on grid {self.grid.shape}, got shape {f.shape}")
        else:
            if not self.grid.is_scalar(f):
                raise GridError(f"expected a scalar field on grid {self.grid.shape}, got shape {f.shape}")
        return f

    def gradient(self, f):
        f = self._check(f)
        return self.ifft(self.grad_hat(self.fft(f)), f)

    def divergence(self, v):
        v = self._check(v, vector=True)
        return self.ifft(self.div_hat(self.fft(v)), v[0])

    def laplacian(self, f):
        f = np.asarray(f)
        self.grid.check_field(f)
        fhat = self.fft(f)
        return self.ifft(-self.tables(fhat).k2 * fhat, f)

    def leray_project(self, v):
        """Split v into a divergence-free part and a gradient potential.

        Returns (w, chi) with w + grad(chi) = v, div(w) = 0 to round-off and
        chi mean-free.  The mean (k=0) mode of v is left in w untouched, so
        uniform flows pass through the projector.
        """
        v = self._check(v, vector=True)
        what, chihat = self._leray_hat(self.fft(v))
        return self.ifft(what, v), self.ifft(chihat, v[0])

    def weighted_leray_project(self, v, weight, tol=1e-10, max_iter=200,
                               initial_pressure=None):
        """Physical-space form of weighted_leray_hat: returns (w, p) with

            w = v - (1/weight) grad(p),   div(w) = 0 (to round-off),

        for a real vector field v; initial_pressure (a physical field)
        warm-starts the solve.  Transforms v in and (w, p) back out around
        the one spectral solver.
        """
        v = self._check(v, vector=True)
        guess = None if initial_pressure is None else self.fft(np.asarray(initial_pressure, dtype=float))
        what, phat = self.weighted_leray_hat(self.fft(v), weight, tol, max_iter, guess)
        return self.ifft(what, v), self.ifft(phat, v[0])

    def weighted_leray_hat(self, vhat, weight, tol=1e-10, max_iter=200,
                           initial_pressure_hat=None):
        """Project the spectrum vhat = fft(v) of a real vector field onto
        divergence-free fields, orthogonally in the weight-ed L^2 metric:
        returns the spectra (what, phat) of (w, p) with

            w = v - (1/weight) grad(p),   div(w) = 0 (to round-off).

        This is the pressure elimination for variable-density flow: with
        weight = rho the correction (1/rho) grad(p) uses a true scalar
        pressure, which keeps grad(p) energy-orthogonal to the velocity.
        Constant weight reduces to leray_project with no iteration.

        Solved by preconditioned conjugate gradients on the symmetric
        positive system -div(r grad p) = -div(v), r = 1/weight, with the
        constant-coefficient inverse 1/(r_bar |k'|^2), r_bar the midrange of
        r, as preconditioner; iterations grow with the square root of the
        condition number max r / min r.  Each iteration applies r in
        physical space: d inverse and d forward transforms.
        initial_pressure_hat, a pressure spectrum, warm-starts the
        iteration.  The solve stops once the L^2 norm of the
        pressure-equation residual is at most tol times that of div(v);
        after max_iter iterations above it, ProjectionNotConverged is
        raised.  The divergence of w is exact to round-off regardless of
        tol: the final correction passes through the exact Leray projection.
        """
        tab = self._half
        vhat = np.asarray(vhat)
        if vhat.shape != (self.grid.d,) + tab.k2.shape:
            raise GridError(f"expected the half spectrum of a vector field on grid "
                            f"{self.grid.shape}, got shape {vhat.shape}")
        weight = np.asarray(weight)
        if not self.grid.is_scalar(weight):
            raise GridError("projection weight must be a scalar field")
        wmin = float(weight.min())
        if not wmin > 0:
            raise ValueError(f"projection weight must be positive, got min {wmin}")
        r = 1.0 / weight
        r_lo, r_hi = float(r.min()), float(r.max())
        r_bar = 0.5 * (r_lo + r_hi)

        rhs = -self.div_hat(vhat)
        rhs_norm = np.sqrt(tab.dot(rhs, rhs))
        if rhs_norm == 0.0:
            return vhat.copy(), np.zeros_like(rhs)

        def flux(phat):
            # spectrum of r grad(p): d inverse and d forward transforms
            return self.fft(r * self.ifft(tab.ik * phat, weight))

        precondition = tab.inv_kk / r_bar
        if r_hi - r_lo <= 1e-14 * r_bar:
            # uniform weight: the preconditioner is the exact inverse, and
            # r grad(p) is a pure gradient, which the Leray projection removes
            return self._leray_hat(vhat)[0], rhs * precondition
        if initial_pressure_hat is None:
            phat = np.zeros_like(rhs)
            flux_p = np.zeros_like(vhat)
            res = rhs
        else:
            phat = np.where(tab.inv_kk > 0, initial_pressure_hat, 0.0)
            flux_p = flux(phat)
            res = rhs + self.div_hat(flux_p)
        z = res * precondition
        direction = z
        rz = tab.dot(res, z)
        res_norm = np.sqrt(tab.dot(res, res))
        iterations = 0
        while res_norm > tol * rhs_norm:
            if iterations == max_iter:
                raise ProjectionNotConverged(iterations, res_norm / rhs_norm)
            flux_d = flux(direction)
            a_dir = -self.div_hat(flux_d)
            step = rz / tab.dot(direction, a_dir)
            phat += step * direction
            flux_p += step * flux_d
            res = res - step * a_dir
            z = res * precondition
            rz, rz_old = tab.dot(res, z), rz
            direction = z + (rz / rz_old) * direction
            iterations += 1
            res_norm = np.sqrt(tab.dot(res, res))
        return self._leray_hat(vhat - flux_p)[0], phat

    def dealias(self, f):
        """Zero every mode with any |index_i| > n_i/3 (2/3-rule truncation)."""
        f = np.asarray(f)
        self.grid.check_field(f)
        if not self.truncate:
            return f
        return self.ifft(self.dealias_hat(self.fft(f)), f)

    def helmholtz_solve(self, f, alpha):
        """Invert (I - alpha * Laplacian); alpha = 0 is the identity."""
        if alpha < 0:
            raise ValueError(f"helmholtz coefficient must be >= 0, got {alpha}")
        f = np.asarray(f)
        self.grid.check_field(f)
        if alpha == 0:
            return f.copy()
        fhat = self.fft(f)
        return self.ifft(fhat / (1.0 + alpha * self.tables(fhat).k2), f)


def plan_for(grid, truncate=True):
    """Shared SpectralPlan per grid instance (cached on the grid)."""
    attr = "_spectral_plan" if truncate else "_spectral_plan_raw"
    plan = getattr(grid, attr, None)
    if plan is None or plan.grid is not grid:
        plan = SpectralPlan(grid, truncate=truncate)
        setattr(grid, attr, plan)
    return plan
