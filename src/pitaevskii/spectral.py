"""Fourier differential operators, Leray projections, dealiasing and Helmholtz solves.

A SpectralPlan caches the multiplier tables for one grid.  Plans are safe to
share across concurrent runs; every method is a pure function of its inputs.
The one state a plan gains after construction is the Sobolev weight tables,
each filled on first use: the fill is idempotent (callers that race compute
equal arrays and all get the one stored), so sharing stays safe.  Real input
fields produce real outputs, complex inputs stay complex.

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
* Dealiasing: every plan truncates by the 2/3 rule, with no switch to turn
  it off; the discrete energy structure of the model holds to round-off
  only because every nonlinear term is truncated.  A caller that sums
  several nonlinear terms on spectra may truncate the sum once
  (the truncation is linear).  A caller that owns the spectrum, such as
  the fresh output of a transform, truncates it in place
  (dealias_in_place), which zeroes the slabs |m_i| > n_i/3 axis by axis;
  dealias_hat truncates a copy, for callers that do not own their input.
* Parseval: sum_x f g = (1/N) sum over the half spectrum of
  weight * Re(conj(fhat) ghat), with weight 1 on the planes m_last = 0 and
  m_last = n_last/2, whose modes have no mirror image in the half spectrum,
  and 2 elsewhere.  The full layout has weight 1 everywhere.
* Pressure: weighted_leray_hat solves -div((1/rho) grad p) = -div v by
  conjugate gradients preconditioned with L^-1 (-div(rho grad(L^-1 .))),
  L = |k'|^2, d inverse and d forward transforms.  It takes the velocity's
  half spectrum and an optional pressure spectrum as initial guess, and
  returns the spectra of the projected velocity and of the pressure, so a
  caller that holds spectra pays only the 2d inverse and 2d forward
  transforms of each iteration.
  weighted_leray_project is its physical wrapper: it transforms v in and
  (w, p) back out.  The solve either meets its tolerance or raises
  ProjectionNotConverged; it never returns a pressure that missed it.
  split_leray_hat takes an extrapolated pressure p* in place of the
  solve: with rho0 the weight's minimum it splits
  (1/rho) grad p = (1/rho0) grad p + (1/rho - 1/rho0) grad p*.  The caller
  has already taken -(1/rho) grad p* into the velocity before its
  truncated forward transform, and the rest of the remainder,
  (1/rho0) grad p*, is a gradient the projection removes exactly.  So the
  split is one exact Leray projection on spectra: no transform and no
  iteration.  The integrator takes it for a run's warm predictor stages,
  and for its warm corrector stages of low density contrast.
* Helmholtz: helmholtz_hat multiplies a spectrum by the factor
  1/(1 + alpha |k|^2) that helmholtz_factor builds, so a caller that
  solves with one alpha many times (a run at fixed dt) builds it once.
* Memory: building the first plan of a process sets glibc's allocator to
  keep freed memory (_retain_heap), so the large temporaries of every step,
  scipy.fft's own buffers and outputs among them, reuse resident pages
  instead of being unmapped and faulted back in on the next step.
"""

import ctypes
import platform

import numpy as np
import scipy.fft

from .grid import GridError, pointwise_dot

_heap_retained = None


def _retain_heap():
    """Keep the process heap resident; True once both glibc thresholds are
    set, False off glibc or if mallopt refused one.  Runs once per process.

    glibc's default thresholds are dynamic: a freed block above the mmap
    threshold raises it, but a free heap top above twice that is returned
    to the operating system, so every step of a 3D run faulted its large
    temporaries back in (2000 to 3500 pages on most steps at 32^3).
    Fixing both thresholds keeps blocks up to 32 MiB on the heap and the
    heap at its high-water mark.  Setting either one switches off the
    dynamic rule, so both must be set: a fixed 128 KiB mmap threshold
    alone would map and unmap every 3D field."""
    global _heap_retained
    if _heap_retained is None:
        _heap_retained = False
        if platform.libc_ver()[0] == "glibc":
            mallopt = ctypes.CDLL(None).mallopt
            # M_MMAP_THRESHOLD (-3) at glibc's 64-bit maximum, then
            # M_TRIM_THRESHOLD (-1) far above any run's heap
            _heap_retained = mallopt(-3, 32 << 20) == 1 and mallopt(-1, 1 << 30) == 1
    return _heap_retained


# ||div v|| / (max|k'| ||v||) at round-off: the weighted projection asks no
# smaller residual than this times max|k'| ||v||.  A field the exact Leray
# projection left reads 1.4e-16 (3D 32^3).  PCG's residual stalls near
# 8e-18 in 3D, as the operator cannot reach the part of div(v) that is not
# Hermitian on the half spectrum's self-conjugate plane.  The stage
# accelerations of the benchmark workloads' runs read at least 2.1e-2, so
# tol = 1e-10 asks 2.1e-12 of them, far above this floor.
ROUNDOFF_DIVERGENCE = 1e-15


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
    k_max    -- max |k'|, a float
    mask     -- 2/3-rule dealias mask: keep |m_i| <= n_i/3
    nonzero  -- k' != 0: the modes a pressure solve determines
    mask_nonzero -- mask & nonzero: the pressure modes the split returns
    cuts     -- the index slabs the mask zeroes, one per axis that has one:
                each an index (..., slab, :, ...) of the contiguous modes
                |m_i| > n_i/3 of axis i, leading stacked axes included
    parseval -- Parseval weight of each mode (see the module docstring)
                over N^2, N the grid's point count: the one factor that
                turns |fhat|^2 into a mode's share of the mean square

    sobolev_weight(s, homogeneous) adds the H^s weight tables, one per
    (s, homogeneous), built on first use.
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
        self.k_max = float(np.sqrt(kk.max()))
        mask = np.ones(shape, dtype=bool)
        self.cuts = []
        for i, m in enumerate(modes):
            keep = np.abs(m) <= grid.n[i] / 3.0
            mask &= mesh(i, keep)
            # in fft order the dropped modes of an axis are one run: the
            # middle of the full layout, the tail of the half one
            dropped = np.flatnonzero(~keep)
            if dropped.size:
                slab = slice(int(dropped[0]), int(dropped[-1]) + 1)
                self.cuts.append((Ellipsis, slab) + (slice(None),) * (d - 1 - i))
        self.mask = mask
        self.nonzero = kk > 0
        self.mask_nonzero = mask & self.nonzero
        weight = np.ones(shape[-1])
        if half:
            weight[1:grid.n[-1] // 2] = 2.0
        self.parseval = mesh(d - 1, weight / float(grid.num_points) ** 2)
        self._sobolev = {}

    def sobolev_weight(self, s, homogeneous=False):
        """H^s weight of each mode: (1+|k|^2)^s, or |k|^(2s) off the mean
        mode when homogeneous.  Built once per (s, homogeneous) and kept."""
        key = (float(s), bool(homogeneous))
        weight = self._sobolev.get(key)
        if weight is None:
            k2 = self.k2
            if not homogeneous:
                weight = (1.0 + k2) ** s
            elif s > 0:
                weight = k2 ** s  # 0 on the mean mode
            else:
                weight = np.power(k2, s, out=np.zeros_like(k2), where=k2 > 0)
            weight = self._sobolev.setdefault(key, weight)
        return weight

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
    """Cached spectral operators for one grid."""

    def __init__(self, grid):
        _retain_heap()
        self.grid = grid
        self._axes = tuple(range(-grid.d, 0))
        self._full = SpectralTables(grid, half=False)
        self._half = SpectralTables(grid, half=True)

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
        return pointwise_dot(self.tables(vhat).ik, vhat)

    def dealias_hat(self, fhat):
        """2/3-rule truncation of a spectrum, into a copy: fhat is left as
        it is."""
        return self.dealias_in_place(np.array(fhat))

    def dealias_in_place(self, fhat):
        """2/3-rule truncation of a spectrum the caller owns, such as a
        fresh transform's output, in place: zeroes the index slabs with
        |m_i| > n_i/3 (the layout's cuts), which leaves what multiplying by
        the mask would, and returns fhat."""
        for cut in self.tables(fhat).cuts:
            fhat[cut] = 0
        return fhat

    def leray_hat(self, vhat):
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
        what, chihat = self.leray_hat(self.fft(v))
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
        positive system -div(r grad p) = -div(v), r = 1/weight.  Each
        iteration applies r in physical space: d inverse and d forward
        transforms.  The preconditioner L^-1 (-div(weight grad(L^-1 .))),
        L = |k'|^2, is the exact inverse at uniform weight and inverts the
        operator's variable coefficient in divergence form, for d more
        inverse and d more forward transforms an iteration.  Its iteration
        count grows far more slowly with the contrast max weight / min
        weight than the scalar preconditioner |k'|^-1 weight |k'|^-1's (one
        transform each way) and the constant-coefficient inverse's (none):
        cold solves on five smooth 64^2 densities took 6-7 against 12-13
        and 22 at contrast 4, 9-11 against 18-23 and 45-46 at contrast 16,
        and 22-27 against 43-69 and 166-175 at contrast 256.
        initial_pressure_hat, a pressure spectrum, warm-starts the
        iteration.  The solve stops once the L^2 norm of the
        pressure-equation residual is at most tol times that of div(v), or
        at most ROUNDOFF_DIVERGENCE max|k'| ||v||, the round-off of div(v),
        whichever is larger; a v whose divergence is already at that
        round-off returns its Leray projection and a zero pressure.  After
        max_iter iterations above it, ProjectionNotConverged is raised.
        The final correction (1/weight) grad(p) is truncated by the 2/3
        rule (Orszag, J. Atmos. Sci. 28, 1971) and passes through the exact
        Leray projection: w stays inside the dealias ball when v does, and
        its divergence is exact to round-off regardless of tol.  So for a
        band-limited v, w = T[v - (1/weight) grad(p)] up to the Leray
        clean-up of the residual, T the truncation.
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
        floor = ROUNDOFF_DIVERGENCE * tab.k_max * np.sqrt(tab.dot(vhat, vhat))
        if rhs_norm <= floor:
            # v is solenoidal to round-off, and p = 0 solves the equation to it
            return self.leray_hat(vhat)[0], np.zeros_like(rhs)

        def flux(phat):
            # spectrum of r grad(p): d inverse and d forward transforms
            return self.fft(r * self.ifft(tab.ik * phat, weight))

        if r_hi - r_lo <= 1e-14 * r_bar:
            # uniform weight: 1/(r_bar |k'|^2) is the exact inverse, and
            # r grad(p) is a pure gradient, which the Leray projection removes
            return self.leray_hat(vhat)[0], rhs * (tab.inv_kk / r_bar)

        def precondition(res):
            # L^-1 (-div(weight grad(L^-1 res))), L = |k'|^2: d inverse and
            # d forward transforms
            grad = self.ifft(tab.ik * (res * tab.inv_kk), weight)
            return -self.div_hat(self.fft(weight * grad)) * tab.inv_kk

        if initial_pressure_hat is None:
            phat = np.zeros_like(rhs)
            flux_p = np.zeros_like(vhat)
            res = rhs
        else:
            phat = np.where(tab.nonzero, initial_pressure_hat, 0.0)
            flux_p = flux(phat)
            res = rhs + self.div_hat(flux_p)
        res_norm = np.sqrt(tab.dot(res, res))
        direction = rz = None
        iterations = 0
        target = max(tol * rhs_norm, floor)
        while res_norm > target:
            if iterations == max_iter:
                raise ProjectionNotConverged(iterations, res_norm / rhs_norm)
            # precondition only a residual that missed the tolerance
            z = precondition(res)
            rz, rz_old = tab.dot(res, z), rz
            direction = z if direction is None else z + (rz / rz_old) * direction
            flux_d = flux(direction)
            a_dir = -self.div_hat(flux_d)
            step = rz / tab.dot(direction, a_dir)
            phat += step * direction
            flux_p += step * flux_d
            res = res - step * a_dir
            iterations += 1
            res_norm = np.sqrt(tab.dot(res, res))
        return self.leray_hat(vhat - tab.mask * flux_p)[0], phat

    def split_leray_hat(self, vhat, weight, pressure_hat):
        """The constant-coefficient pressure split of weighted_leray_hat, on
        spectra and with no transform.  With rho0 = min weight and p* =
        pressure_hat, an extrapolated pressure spectrum, the split writes

            (1/weight) grad(p) = (1/rho0) grad(p) + (1/weight - 1/rho0) grad(p*)

        and takes its explicit remainder with the acceleration: vhat must be
        the 2/3-truncated spectrum of v - (1/weight) grad(p*), as
        model.velocity_rhs_hat forms it from p*.  Since
        -(1/weight - 1/rho0) grad(p*) = -(1/weight) grad(p*) + (1/rho0) grad(p*)
        and the Leray projection removes the constant-coefficient gradient
        (1/rho0) grad(p*) exactly, the split is one exact Leray projection of
        vhat: returns the spectra (what, phat) of (w, p) with

            w = T[v - (1/weight - 1/rho0) grad(p*)] - (1/rho0) grad(p),
            div(w) = 0 (to round-off),

        T the 2/3-rule truncation, and p = rho0 chi + T p* on the modes
        k' != 0, chi the gradient potential of vhat.  So w and p differ from
        weighted_leray_hat's only through (1/weight - 1/rho0)
        grad(p_w - p*), p_w that solve's pressure, and the truncation: at
        p* = p_w and a band-limited v they are T w_w and T p_w.  Guermond &
        Salgado, J. Comput. Phys. 228 (2009); Dong & Shen, J. Comput. Phys.
        231 (2012).
        """
        rho0 = float(np.min(weight))
        if not rho0 > 0:
            raise ValueError(f"projection weight must be positive, got min {rho0}")
        tab = self._half
        what, chihat = self.leray_hat(vhat)
        return what, rho0 * chihat + tab.mask_nonzero * pressure_hat

    def dealias(self, f):
        """Zero every mode with any |index_i| > n_i/3 (2/3-rule truncation)."""
        f = np.asarray(f)
        self.grid.check_field(f)
        return self.ifft(self.dealias_in_place(self.fft(f)), f)

    def helmholtz_solve(self, f, alpha):
        """Invert (I - alpha * Laplacian); alpha = 0 is the identity."""
        if alpha < 0:
            raise ValueError(f"helmholtz coefficient must be >= 0, got {alpha}")
        f = np.asarray(f)
        self.grid.check_field(f)
        if alpha == 0:
            return f.copy()
        fhat = self.fft(f)
        return self.ifft(self.helmholtz_hat(fhat, self.helmholtz_factor(fhat, alpha)), f)

    def helmholtz_factor(self, fhat, alpha):
        """1/(1 + alpha |k|^2) on the layout of spectrum fhat: the multiplier
        of helmholtz_hat, which a caller that solves with one alpha many
        times builds once."""
        return 1.0 / (1.0 + alpha * self.tables(fhat).k2)

    def helmholtz_hat(self, fhat, factor):
        """Spectrum of (I - alpha * Laplacian)^-1 applied to spectrum fhat,
        factor = helmholtz_factor(fhat, alpha)."""
        return fhat * factor


def plan_for(grid):
    """Shared SpectralPlan per grid instance (cached on the grid)."""
    plan = getattr(grid, "_spectral_plan", None)
    if plan is None or plan.grid is not grid:
        plan = SpectralPlan(grid)
        grid._spectral_plan = plan
    return plan
