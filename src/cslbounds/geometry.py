"""Rigid-body mass distributions and their Fourier-space form factors.

Every geometry is centered at its center of mass and evaluates

    mu_tilde(k) = integral mu(x) e^{i k . x} dx

so that mu_tilde(0) equals the total mass.  The angular-derivative
combination k_y d/dk_z - k_z d/dk_y of mu_tilde, which drives the
rotational noise about the x axis, is analytic for every shape.
Cuboid and Multilayer are separable: their transform is a product of
three 1D axis profiles (separable_profiles).  A cylinder's is the
product of a slab profile along its axis and a disc profile across it,
and a sphere's is its mass times a ball profile of |k|.

All evaluators are pure and accept vectorized k components.
"""

from dataclasses import dataclass

import numpy as np

from .special import sinc, sinc_prime, jinc, jinc_prime, sphere_kernel

__all__ = [
    "MassGeometry", "Point", "Sphere", "Cuboid", "Cylinder", "Multilayer",
    "PointLattice", "TwoBody", "TwoBodyFormFactorError",
    "form_factor", "form_factor_angular_derivative",
]


class TwoBodyFormFactorError(TypeError):
    """A scalar form factor was requested for a TwoBody geometry.

    The pair needs the phase-factor kernel applied in the noise module;
    asking for a single transform here is a misuse.
    """


def _unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("axis vector must be nonzero")
    return v / n


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not 0 < value < np.inf:
            raise ValueError(
                f"{name} must be strictly positive and finite, got {value}")


class MassGeometry:
    """Base class; concrete shapes are the dataclasses below."""

    @property
    def total_mass(self):
        raise NotImplementedError

    @property
    def largest_dimension(self):
        """Largest linear extent; 0 for point-like bodies.  Used to size
        oscillation-aware quadrature panels."""
        raise NotImplementedError


@dataclass(frozen=True)
class Point(MassGeometry):
    m: float

    def __post_init__(self):
        _check_positive(m=self.m)

    @property
    def total_mass(self):
        return self.m

    @property
    def largest_dimension(self):
        return 0.0


@dataclass(frozen=True)
class Sphere(MassGeometry):
    m: float
    R: float

    def __post_init__(self):
        _check_positive(m=self.m, R=self.R)

    @property
    def total_mass(self):
        return self.m

    @property
    def largest_dimension(self):
        return 2.0 * self.R


@dataclass(frozen=True)
class Cuboid(MassGeometry):
    m: float
    Lx: float
    Ly: float
    Lz: float

    def __post_init__(self):
        _check_positive(m=self.m, Lx=self.Lx, Ly=self.Ly, Lz=self.Lz)

    @property
    def total_mass(self):
        return self.m

    @property
    def largest_dimension(self):
        return max(self.Lx, self.Ly, self.Lz)


@dataclass(frozen=True)
class Cylinder(MassGeometry):
    """Solid cylinder; axis is a unit vector (default z)."""

    m: float
    R: float
    L: float
    axis: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        _check_positive(m=self.m, R=self.R, L=self.L)
        object.__setattr__(self, "axis", tuple(_unit(self.axis)))

    @property
    def axis_vector(self):
        return np.asarray(self.axis)

    @property
    def total_mass(self):
        return self.m

    @property
    def largest_dimension(self):
        return max(2.0 * self.R, self.L)


@dataclass(frozen=True)
class Multilayer(MassGeometry):
    """Stack of alternating full-density slabs, material 1 first.

    layer_count is the total number of slabs; odd-indexed slabs (0-based
    even positions) are material 1.  Cross-section Lx x Ly is normal to
    the stacking axis, which must be a principal axis ('x', 'y' or 'z').
    """

    layer_count: int
    d1: float
    d2: float
    rho1: float
    rho2: float
    Lx: float
    Ly: float
    stacking_axis: str = "z"

    def __post_init__(self):
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")
        _check_positive(d1=self.d1, d2=self.d2, rho1=self.rho1,
                        rho2=self.rho2, Lx=self.Lx, Ly=self.Ly)
        if self.stacking_axis not in ("x", "y", "z"):
            raise ValueError("stacking_axis must be one of 'x', 'y', 'z'")

    def layers(self):
        """(thickness, density, center-offset along stack) per slab,
        with the stack shifted so the center of mass sits at 0."""
        ds = np.array([self.d1 if i % 2 == 0 else self.d2
                       for i in range(self.layer_count)])
        rhos = np.array([self.rho1 if i % 2 == 0 else self.rho2
                         for i in range(self.layer_count)])
        edges = np.concatenate([[0.0], np.cumsum(ds)])
        centers = 0.5 * (edges[:-1] + edges[1:])
        masses = rhos * ds   # per unit cross-section
        com = np.sum(masses * centers) / np.sum(masses)
        return ds, rhos, centers - com

    @property
    def total_mass(self):
        ds, rhos, _ = self.layers()
        return float(np.sum(rhos * ds) * self.Lx * self.Ly)

    @property
    def stack_thickness(self):
        ds, _, _ = self.layers()
        return float(np.sum(ds))

    @property
    def largest_dimension(self):
        return max(self.Lx, self.Ly, self.stack_thickness)


@dataclass(frozen=True)
class PointLattice(MassGeometry):
    """Discrete mass points: positions (N, 3) in meters, masses (N,) kg."""

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if pos.shape != (m.size, 3):
            raise ValueError("positions must be (N, 3) matching N masses")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(m))):
            raise ValueError("positions and masses must be finite")
        if np.any(m <= 0):
            raise ValueError("masses must be strictly positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", m)

    @property
    def total_mass(self):
        return float(np.sum(self.masses))

    @property
    def largest_dimension(self):
        if len(self.masses) < 2:
            return 0.0
        span = self.positions.max(axis=0) - self.positions.min(axis=0)
        return float(np.max(span))


@dataclass(frozen=True)
class TwoBody(MassGeometry):
    """Two identical units separated by a along x; depth exactly 1."""

    unit: MassGeometry
    a: float

    def __post_init__(self):
        if isinstance(self.unit, TwoBody):
            raise ValueError("TwoBody cannot nest another TwoBody")
        if not 0 <= self.a < np.inf:
            raise ValueError(
                f"separation a must be finite and nonnegative, got {self.a}")

    @property
    def total_mass(self):
        return 2.0 * self.unit.total_mass

    @property
    def largest_dimension(self):
        return self.unit.largest_dimension + self.a


def _cylinder_components(g, kx, ky, kz):
    """(k_parallel, k_perp) of k relative to the cylinder axis."""
    n = g.axis_vector
    kpar = kx * n[0] + ky * n[1] + kz * n[2]
    k2 = kx * kx + ky * ky + kz * kz
    kperp = np.sqrt(np.maximum(k2 - kpar * kpar, 0.0))
    return kpar, kperp


@dataclass(frozen=True)
class AxisProfile:
    """1D transform P(k) of one axis of a separable mass density.

    A slab (layers None) of length L has P(k) = sinc(kL/2), so P(0) = 1.
    A layer stack has P(k) = sum_l rho_l d_l sinc(k d_l/2) e^{i k c_l},
    the mass per unit cross-section at k = 0.  length is the extent along
    the axis, the scale on which P oscillates, over the k line (dims = 1).
    """

    dims = 1
    length: float
    layers: tuple = None   # (thicknesses, densities, centers) of a stack

    def transform(self, k):
        if self.layers is None:
            return sinc(k * self.length / 2.0)
        sincs = {}   # a stack alternates two thicknesses
        out = np.zeros(np.shape(k), dtype=complex)
        for d, rho, c in zip(*self.layers):
            if d not in sincs:
                sincs[d] = sinc(k * d / 2.0)
            out += rho * d * sincs[d] * np.exp(1j * k * c)
        return out

    def derivative(self, k):
        """dP/dk."""
        if self.layers is None:
            return (self.length / 2.0) * sinc_prime(k * self.length / 2.0)
        parts = {}   # (d/2) sinc'(k d/2) and sinc(k d/2) per thickness
        out = np.zeros(np.shape(k), dtype=complex)
        for d, rho, c in zip(*self.layers):
            if d not in parts:
                parts[d] = ((d / 2.0) * sinc_prime(k * d / 2.0),
                            sinc(k * d / 2.0))
            slope, value = parts[d]
            out += rho * d * (slope + 1j * c * value) * np.exp(1j * k * c)
        return out


@dataclass(frozen=True)
class DiscProfile:
    """Transform P(k) = jinc(kR) of a cylinder of radius R across its
    axis, integrated over that k plane (dims = 2); length is the
    diameter."""

    dims = 2
    R: float

    @property
    def length(self):
        return 2.0 * self.R

    def transform(self, k):
        return jinc(k * self.R)

    def derivative(self, k):
        """dP/dk."""
        return self.R * jinc_prime(k * self.R)


@dataclass(frozen=True)
class BallProfile:
    """Transform P(k) = sphere_kernel(kR) of a sphere of radius R over
    all of k space (dims = 3); length is the diameter.  It has no
    derivative, as a sphere's torque is zero."""

    dims = 3
    R: float

    @property
    def length(self):
        return 2.0 * self.R

    def transform(self, k):
        return sphere_kernel(k * self.R)


def separable_profiles(g):
    """(scale, (Px, Py, Pz)) with mu_tilde(k) = scale Px(kx) Py(ky) Pz(kz)
    for a Cuboid or Multilayer; None for any other shape.

    This is the one place that maps a Multilayer's stacking axis and its
    cross-section Lx x Ly onto x, y and z: Lx and Ly go, in that order,
    to the two axes other than the stacking axis.
    """
    if isinstance(g, Cuboid):
        return g.m, (AxisProfile(g.Lx), AxisProfile(g.Ly), AxisProfile(g.Lz))
    if isinstance(g, Multilayer):
        cross = iter((g.Lx, g.Ly))
        return g.Lx * g.Ly, tuple(
            AxisProfile(g.stack_thickness, g.layers())
            if axis == g.stacking_axis else AxisProfile(next(cross))
            for axis in "xyz")
    return None


def form_factor(g, k):
    """Fourier transform of the mass density at wavevector k.

    k: array-like of shape (..., 3), 1/m.  Returns a complex array of
    shape (...); mu_tilde(0) is the total mass.
    """
    k = np.asarray(k, dtype=float)
    if k.shape[-1] != 3:
        raise ValueError("k must have shape (..., 3)")
    if not np.all(np.isfinite(k)):
        raise ValueError("k must be finite")
    kx, ky, kz = k[..., 0], k[..., 1], k[..., 2]

    if isinstance(g, Point):
        return np.full(kx.shape, g.m, dtype=complex)
    if isinstance(g, Sphere):
        k_abs = np.sqrt(kx * kx + ky * ky + kz * kz)
        return (g.m * BallProfile(g.R).transform(k_abs)).astype(complex)
    sep = separable_profiles(g)
    if sep is not None:
        scale, (px, py, pz) = sep
        val = scale * px.transform(kx) * py.transform(ky) * pz.transform(kz)
        return val.astype(complex)
    if isinstance(g, Cylinder):
        kpar, kperp = _cylinder_components(g, kx, ky, kz)
        slab, disc = AxisProfile(g.L), DiscProfile(g.R)
        val = g.m * disc.transform(kperp) * slab.transform(kpar)
        return val.astype(complex)
    if isinstance(g, PointLattice):
        phase = (kx[..., None] * g.positions[:, 0]
                 + ky[..., None] * g.positions[:, 1]
                 + kz[..., None] * g.positions[:, 2])
        return np.sum(g.masses * np.exp(1j * phase), axis=-1)
    if isinstance(g, TwoBody):
        raise TwoBodyFormFactorError(
            "TwoBody has no scalar form factor; evaluate the unit and apply "
            "the separation kernel in the noise module")
    raise TypeError(f"unsupported geometry {type(g).__name__}")


def _angular_derivative_analytic(g, kx, ky, kz):
    if isinstance(g, (Point, Sphere)):
        # mu_tilde depends on |k| only; the angular derivative vanishes
        return np.zeros(np.broadcast(kx, ky, kz).shape, dtype=complex)
    sep = separable_profiles(g)
    if sep is not None:
        scale, (px, py, pz) = sep
        val = scale * px.transform(kx) * (
            ky * py.transform(ky) * pz.derivative(kz)
            - kz * py.derivative(ky) * pz.transform(kz))
        return val.astype(complex)
    if isinstance(g, Cylinder):
        # m (k . w)(F_par - (k_par / k_perp) F_perp) with w = n x x^, for
        # F = P_disc(k_perp) P_slab(k_par); P_disc'(k_perp) / k_perp
        # tends to -R^2/4 as k_perp -> 0
        kpar, kperp = _cylinder_components(g, kx, ky, kz)
        slab, disc = AxisProfile(g.L), DiscProfile(g.R)
        kw = ky * g.axis[2] - kz * g.axis[1]
        safe = np.where(kperp > 0, kperp, 1.0)
        fp_over_kperp = np.where(kperp > 0, disc.derivative(kperp) / safe,
                                 -g.R * g.R / 4.0)
        val = g.m * kw * (disc.transform(kperp) * slab.derivative(kpar)
                          - kpar * fp_over_kperp * slab.transform(kpar))
        return val.astype(complex)
    if isinstance(g, PointLattice):
        y = g.positions[:, 1]
        z = g.positions[:, 2]
        phase = (kx[..., None] * g.positions[:, 0]
                 + ky[..., None] * y + kz[..., None] * z)
        lever = ky[..., None] * z - kz[..., None] * y
        return np.sum(g.masses * 1j * lever * np.exp(1j * phase), axis=-1)
    raise TypeError(f"unsupported geometry {type(g).__name__}")


def form_factor_angular_derivative(g, k):
    """k_y d/dk_z mu_tilde - k_z d/dk_y mu_tilde, for rotation about x."""
    k = np.asarray(k, dtype=float)
    if k.shape[-1] != 3:
        raise ValueError("k must have shape (..., 3)")
    return _angular_derivative_analytic(g, k[..., 0], k[..., 1], k[..., 2])
