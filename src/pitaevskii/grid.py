"""Periodic grids and the wavenumber bookkeeping shared by all field operations.

Fields are plain numpy arrays: a scalar field has shape ``grid.shape``, a
vector field has shape ``(grid.d, *grid.shape)``.  Complex fields carry the
wavefunction, real fields carry velocity, density and derived scalars.  The
grid owns the angular-wavenumber tables and the quadrature weights, so every
norm and spectral operator reads its geometry from here.  ConstraintError is
what every validated object raises: Grid, Params, StepConfig and the rest
report all the constraints they find violated at once.
"""

import math

import numpy as np


class ConstraintError(ValueError):
    """Violated constraints of one object, all of them at once.

    violations holds a (fields, message) pair per violated constraint;
    fields names every field the constraint reads, the one to blame first.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


def check_constraints(constraints, error=ConstraintError):
    """Raise error naming every (fields, message, holds) constraint whose
    holds is false, all of them together."""
    violations = [(fields, message) for fields, message, holds in constraints if not holds]
    if violations:
        raise error("; ".join(message for _, message in violations), violations)


class GridError(ConstraintError):
    """Invalid grid construction parameters, or a field that is not on its grid."""


def _geometry_is_finite(d, n, lengths):
    """Whether a grid with these points per axis and positive finite lengths
    has a cell volume > 0, a finite volume, and finite extreme multipliers:
    the largest Sobolev weight the diagnostics form, (1 + d k_max^2)^3
    (their largest index is 5/2 + delta < 3), k_max the largest Nyquist
    wavenumber pi n_i / L_i, and the inverse Laplacian's largest entry
    1/k_min^2, k_min = 2 pi / max L_i the smallest nonzero wavenumber.
    Python floats overflow to inf and underflow to 0 without a warning."""
    k_max = max(math.pi * v / L for v, L in zip(n, lengths))
    k_min = 2.0 * math.pi / max(lengths)
    weight = 1.0 + d * k_max * k_max
    return (math.prod(L / v for v, L in zip(n, lengths)) > 0
            and math.isfinite(math.prod(lengths)) and math.isfinite(weight * weight * weight)
            and k_min * k_min > 0 and math.isfinite(1.0 / (k_min * k_min)))


def check_grid(d, n, lengths):
    """Raise GridError naming every constraint that the dimension d, the
    points per axis n and the axis lengths violate.  It reads the values
    alone, so it runs before any array is allocated."""
    constraints = [(("d",), "grid.d must be 1, 2 or 3", d in (1, 2, 3))]
    if d in (1, 2, 3):
        bad = next((v for v in n if v < 4 or v % 2), None)
        positive = len(lengths) == d and all(L > 0 for L in lengths)
        finite = all(np.isfinite(L) for L in lengths)
        constraints += [
            (("n", "d"), f"grid.n needs {d} entries, got {len(n)}", len(n) == d),
            (("n",), f"grid points must be even and >= 4, got {bad}", len(n) != d or bad is None),
            (("lengths", "d"), f"grid.len needs {d} entries, got {len(lengths)}", len(lengths) == d),
            (("lengths",), "grid lengths must be positive", len(lengths) != d or positive),
            (("lengths",), "grid lengths must be finite", finite),
            (("n",), "total point count exceeds the platform index range",
             math.prod(n) <= np.iinfo(np.intp).max),
            (("lengths", "n"), "grid lengths must give a positive cell volume, a finite volume "
             "and finite Sobolev weights and inverse Laplacian",
             not (len(n) == d and bad is None and positive and finite)
             or _geometry_is_finite(d, n, lengths)),
        ]
    check_constraints(constraints, GridError)


class Grid:
    """Uniform periodic grid on a d-torus (d = 1, 2 or 3).

    Attributes
    ----------
    d : int
        Spatial dimension.
    n : tuple of int
        Points per axis, each even and >= 4.
    lengths : tuple of float
        Physical extent per axis.
    dx : tuple of float
        Node spacing per axis.
    k_axes : list of 1-d arrays
        Angular wavenumbers per axis in FFT order, 2*pi/length * {0, 1, ...,
        n/2-1, -n/2, ..., -1}.  The Nyquist mode -n/2 is present.
    mode_axes : list of 1-d arrays
        Integer mode indices per axis in the same order.
    """

    def __init__(self, d, n, lengths):
        n = tuple(int(v) for v in np.atleast_1d(n))
        lengths = tuple(float(v) for v in np.atleast_1d(lengths))
        check_grid(d, n, lengths)

        self.d = d
        self.n = n
        self.lengths = lengths
        self.shape = n
        self.dx = tuple(L / v for L, v in zip(lengths, n))
        self.num_points = math.prod(n)
        self.cell_volume = float(np.prod(self.dx))
        self.volume = float(np.prod(lengths))

        self.mode_axes = [np.rint(np.fft.fftfreq(v) * v).astype(int) for v in n]
        self.k_axes = [2.0 * np.pi / L * m for m, L in zip(self.mode_axes, lengths)]
        # broadcastable meshes: k_mesh[i] has shape (1,..,n_i,..,1)
        self.k_mesh = [k.reshape([-1 if i == j else 1 for j in range(d)]) for i, k in enumerate(self.k_axes)]
        self.k2_mesh = sum(km ** 2 for km in self.k_mesh)
        self.k_max = max(float(np.abs(k).max()) for k in self.k_axes)

    def axis_coordinates(self, i):
        """Node coordinates along axis i, starting at 0."""
        return np.arange(self.n[i]) * self.dx[i]

    def meshes(self):
        """Dense coordinate meshes, one array of shape ``self.shape`` per axis."""
        axes = [self.axis_coordinates(i) for i in range(self.d)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def is_scalar(self, f):
        return np.shape(f) == self.shape

    def is_vector(self, f):
        return np.shape(f) == (self.d,) + self.shape

    def check_field(self, f, name="field"):
        """Raise GridError unless f is a scalar or vector field on this grid."""
        if not (self.is_scalar(f) or self.is_vector(f)):
            raise GridError(f"{name} with shape {np.shape(f)} does not live on grid {self.shape}")

    def __repr__(self):
        return f"Grid(d={self.d}, n={self.n}, lengths={self.lengths})"


def make_grid(d, n, lengths):
    """Build a validated periodic grid; see Grid for the conventions."""
    return Grid(d, n, lengths)


def pointwise_dot(a, b):
    """Pointwise sum_i a[i] b[i] of two stacked (d, ...) fields or spectra,
    one component at a time, so no (d, ...) product is formed.  The
    components are added in the order np.sum(a * b, axis=0) adds them, with
    the same result bit for bit."""
    out = a[0] * b[0]
    for i in range(1, len(a)):
        out += a[i] * b[i]
    return out

