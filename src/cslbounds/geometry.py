"""Rigid-body mass distributions and their Fourier-space form factors.

Every geometry is centered at its center of mass and evaluates

    mu_tilde(k) = integral mu(x) e^{i k . x} dx

so that mu_tilde(0) equals the total mass.  The angular-derivative
combination k_y d/dk_z - k_z d/dk_y of mu_tilde, which drives the
rotational noise about the x axis, is analytic for every shape.
Each Cuboid, Multilayer, Cylinder and Sphere builds its k-space profiles
once, as its cached property `profiles`, which its form factor and its
noise route read.  Cuboid and Multilayer are separable: their transform
is a product of three 1D axis profiles.  A cylinder's is the product of
a slab profile along its axis and a disc profile across it, and a
sphere's is its mass times a ball profile of |k|.

All evaluators are pure and accept vectorized k components.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .special import jinc, jinc_pair, sinc, sinc_pair, sphere_kernel

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
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError(f"axis vector must have three finite components, "
                         f"got {v.tolist()}")
    big = np.max(np.abs(v))
    if big == 0.0:
        raise ValueError("axis vector must be nonzero")
    if not 1e-150 < big < 1e150:   # its squares would underflow or overflow
        v = v / big
    elif abs(np.linalg.norm(v) - 1.0) <= 2.0 * np.finfo(float).eps:
        return v   # a unit axis is kept, so that replace(cylinder) is equal
    return v / np.linalg.norm(v)


def _read_only(*arrays):
    """The arrays, made read-only: they are built once and shared by
    every caller of a frozen body."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not 0 < value < np.inf:
            raise ValueError(
                f"{name} must be strictly positive and finite, got {value}")


def _check_mass(m):
    """Every spectrum scales with a body's mass squared, so m * m must be
    finite too (Python floats: an overflow gives inf, not a warning)."""
    if not float(m) * float(m) < np.inf:
        raise ValueError(f"mass must have a finite square, got {m}")


class MassGeometry:
    """Base class; concrete shapes are the dataclasses below."""

    @property
    def total_mass(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Point(MassGeometry):
    m: float

    def __post_init__(self):
        _check_positive(m=self.m)
        _check_mass(self.m)

    @property
    def total_mass(self):
        return self.m


@dataclass(frozen=True)
class Sphere(MassGeometry):
    m: float
    R: float

    def __post_init__(self):
        _check_positive(m=self.m, R=self.R)
        _check_mass(self.m)

    @property
    def total_mass(self):
        return self.m

    @cached_property
    def profiles(self):
        """Its BallProfile: mu_tilde(k) = m P(|k|)."""
        return BallProfile(self.R)


@dataclass(frozen=True)
class Cuboid(MassGeometry):
    m: float
    Lx: float
    Ly: float
    Lz: float

    def __post_init__(self):
        _check_positive(m=self.m, Lx=self.Lx, Ly=self.Ly, Lz=self.Lz)
        _check_mass(self.m)

    @property
    def total_mass(self):
        return self.m

    @cached_property
    def profiles(self):
        """(m, (Px, Py, Pz)): mu_tilde(k) = m Px(kx) Py(ky) Pz(kz)."""
        return self.m, (AxisProfile(self.Lx), AxisProfile(self.Ly),
                        AxisProfile(self.Lz))


@dataclass(frozen=True)
class Cylinder(MassGeometry):
    """Solid cylinder; axis is a unit vector (default z)."""

    m: float
    R: float
    L: float
    axis: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        _check_positive(m=self.m, R=self.R, L=self.L)
        _check_mass(self.m)
        # Python floats, so that the tilt weights of every spectrum are
        # plain float arithmetic and the repr shows plain numbers
        object.__setattr__(self, "axis", tuple(_unit(self.axis).tolist()))

    @property
    def total_mass(self):
        return self.m

    @cached_property
    def profiles(self):
        """(slab along the axis, disc across it)."""
        return AxisProfile(self.L), DiscProfile(self.R)


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
        try:
            object.__setattr__(self, "layer_count",
                               operator.index(self.layer_count))
        except TypeError:
            raise ValueError(f"layer_count must be an integer, got "
                             f"{self.layer_count!r}") from None
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")
        _check_positive(d1=self.d1, d2=self.d2, rho1=self.rho1,
                        rho2=self.rho2, Lx=self.Lx, Ly=self.Ly)
        if self.stacking_axis not in ("x", "y", "z"):
            raise ValueError("stacking_axis must be one of 'x', 'y', 'z'")
        # layer masses or offsets that overflow, or a centre of mass
        # they make NaN, are refused here, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            _check_mass(self.total_mass)
            if not np.all(np.isfinite(self.layers()[2])):
                raise ValueError("layer offsets from the centre of mass "
                                 "must be finite")

    def layers(self):
        """(thickness, density, center-offset along stack) per slab,
        with the stack shifted so the center of mass sits at 0: read-only
        arrays, built once per body."""
        return self._stack

    @cached_property
    def _stack(self):
        first = np.arange(self.layer_count) % 2 == 0   # material 1
        ds = np.where(first, self.d1, self.d2)
        rhos = np.where(first, self.rho1, self.rho2)
        edges = np.concatenate([[0.0], np.cumsum(ds)])
        centers = 0.5 * (edges[:-1] + edges[1:])
        masses = rhos * ds   # per unit cross-section
        com = np.sum(masses * centers) / np.sum(masses)
        return _read_only(ds, rhos, centers - com)

    @property
    def total_mass(self):
        ds, rhos, _ = self.layers()
        return float(np.sum(rhos * ds) * self.Lx * self.Ly)

    @property
    def stack_thickness(self):
        ds, _, _ = self.layers()
        return float(np.sum(ds))

    @cached_property
    def profiles(self):
        """(Lx Ly, (Px, Py, Pz)) as for a Cuboid: the layer stack along
        the stacking axis, Lx and Ly, in that order, along the others."""
        cross = iter((self.Lx, self.Ly))
        return self.Lx * self.Ly, tuple(
            AxisProfile(self.stack_thickness, self.layers())
            if axis == self.stacking_axis else AxisProfile(next(cross))
            for axis in "xyz")


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
        if m.size == 0:
            raise ValueError("a point lattice needs at least one point")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(m))):
            raise ValueError("positions and masses must be finite")
        if np.any(m <= 0):
            raise ValueError("masses must be strictly positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", m)
        with np.errstate(over="ignore"):   # a sum that overflows is refused
            _check_mass(self.total_mass)

    @property
    def total_mass(self):
        return float(np.sum(self.masses))


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


def _cylinder_components(g, kx, ky, kz):
    """(k_parallel, k_perp) of k relative to the cylinder axis."""
    n = g.axis
    kpar = kx * n[0] + ky * n[1] + kz * n[2]
    k2 = kx * kx + ky * ky + kz * kz
    kperp = np.sqrt(np.maximum(k2 - kpar * kpar, 0.0))
    return kpar, kperp


class LayerData(NamedTuple):
    """A profile as layers of constant density: per layer its
    half-thickness, density and centre offset gamma from the centre of
    mass, its frame; the mass (per unit cross-section) and the extent."""

    half: np.ndarray
    rho: np.ndarray
    gamma: np.ndarray
    mass: float
    extent: float


class EdgeData(NamedTuple):
    """Products over the ordered pairs (i, j) of a profile's layer edges.

    With xi the edge positions relative to the centre of mass and w the
    density steps there (+rho at a layer's lower edge, -rho at its
    upper): W = w_i w_j and |W|, diff = xi_i - xi_j, prod = xi_i xi_j
    and |prod|, and spread = |xi_i| + |xi_j|.
    """

    W: np.ndarray
    abs_W: np.ndarray
    diff: np.ndarray
    prod: np.ndarray
    abs_prod: np.ndarray
    spread: np.ndarray


@dataclass(frozen=True)
class AxisProfile:
    """1D transform P(k) of one axis of a separable mass density.

    A slab (layers None) of length L has P(k) = sinc(kL/2), so P(0) = 1.
    A layer stack has P(k) = sum_l rho_l d_l sinc(k d_l/2) e^{i k g_l},
    the mass per unit cross-section at k = 0, with g_l = gamma the layer
    centres about their centre of mass, the profile's only frame: a stack
    given off centre is the same profile as its centred copy.  length is
    the extent along the axis, the scale on which P oscillates, over the
    k line (dims = 1).  layer_data and edge_data are built on first use
    and kept: they do not depend on rC.
    """

    dims = 1
    length: float
    layers: tuple = None   # (thicknesses, densities, centers) of a stack

    @cached_property
    def layer_data(self):
        """LayerData, read-only; a slab is one layer of density 1/L at 0,
        so that P(0) = 1."""
        if self.layers is None:
            d, rho, centre = (np.array([self.length]),
                              np.array([1.0 / self.length]), np.zeros(1))
        else:
            d, rho, centre = (np.asarray(a, dtype=float)
                              for a in self.layers)
        half = 0.5 * d
        mass = float(rho @ d)
        cbar = float((rho * d) @ centre) / mass
        gamma = centre - cbar
        extent = float(np.max(gamma + half) - np.min(gamma - half))
        # rho is copied: the caller's own array stays writable
        half, rho, gamma = _read_only(half, np.array(rho), gamma)
        return LayerData(half, rho, gamma, mass, extent)

    @cached_property
    def edge_data(self):
        """EdgeData, read-only."""
        half, rho, gamma = self.layer_data[:3]
        xi = np.concatenate([gamma - half, gamma + half])
        w = np.concatenate([rho, -rho])
        W = w[:, None] * w[None, :]
        prod = xi[:, None] * xi[None, :]
        return EdgeData(*_read_only(
            W, np.abs(W), xi[:, None] - xi[None, :], prod, np.abs(prod),
            np.abs(xi[:, None]) + np.abs(xi[None, :])))

    def transform(self, k):
        if self.layers is None:
            return sinc(k * self.length / 2.0)
        half, rhos, gammas = self.layer_data[:3]
        sincs = {}   # a stack alternates two thicknesses
        out = np.zeros(np.shape(k), dtype=complex)
        for d, rho, c in zip(2.0 * half, rhos, gammas):
            if d not in sincs:
                sincs[d] = sinc(k * d / 2.0)
            out += rho * d * sincs[d] * np.exp(1j * k * c)
        return out

    def transform_and_derivative(self, k):
        """(P, dP/dk), sharing each thickness's sin and cos and each
        layer's phase e^{i k g}."""
        if self.layers is None:
            value, slope = sinc_pair(k * self.length / 2.0)
            return value, (self.length / 2.0) * slope
        half, rhos, gammas = self.layer_data[:3]
        parts = {}   # sinc(k d/2) and (d/2) sinc'(k d/2) per thickness
        p = np.zeros(np.shape(k), dtype=complex)
        dp = np.zeros(np.shape(k), dtype=complex)
        for d, rho, c in zip(2.0 * half, rhos, gammas):
            if d not in parts:
                value, slope = sinc_pair(k * d / 2.0)
                parts[d] = value, (d / 2.0) * slope
            value, slope = parts[d]
            phase = np.exp(1j * k * c)
            p += rho * d * value * phase
            dp += rho * d * (slope + 1j * c * value) * phase
        return p, dp


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

    def transform_and_derivative(self, k):
        """(P, dP/dk), sharing J1."""
        value, slope = jinc_pair(k * self.R)
        return value, self.R * slope


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
        return (g.m * g.profiles.transform(k_abs)).astype(complex)
    if isinstance(g, (Cuboid, Multilayer)):
        scale, (px, py, pz) = g.profiles
        val = scale * px.transform(kx) * py.transform(ky) * pz.transform(kz)
        return val.astype(complex)
    if isinstance(g, Cylinder):
        kpar, kperp = _cylinder_components(g, kx, ky, kz)
        slab, disc = g.profiles
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
    if isinstance(g, (Cuboid, Multilayer)):
        scale, (px, py, pz) = g.profiles
        (vy, dy), (vz, dz) = (py.transform_and_derivative(ky),
                              pz.transform_and_derivative(kz))
        val = scale * px.transform(kx) * (ky * vy * dz - kz * dy * vz)
        return val.astype(complex)
    if isinstance(g, Cylinder):
        # m (k . w)(F_par - (k_par / k_perp) F_perp) with w = n x x^, for
        # F = P_disc(k_perp) P_slab(k_par); P_disc'(k_perp) / k_perp
        # tends to -R^2/4 as k_perp -> 0
        kpar, kperp = _cylinder_components(g, kx, ky, kz)
        slab, disc = g.profiles
        kw = ky * g.axis[2] - kz * g.axis[1]
        safe = np.where(kperp > 0, kperp, 1.0)
        (fd, dfd), (fs, dfs) = (disc.transform_and_derivative(kperp),
                                slab.transform_and_derivative(kpar))
        fp_over_kperp = np.where(kperp > 0, dfd / safe, -g.R * g.R / 4.0)
        val = g.m * kw * (fd * dfs - kpar * fp_over_kperp * fs)
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
