"""CSL spectral quantities for rigid bodies.

The white collapse-force spectrum along x is

    S_FF = (hbar^2 lambda rC^3 / pi^{3/2} m0^2)
           * integral dk |mu_tilde(k)|^2 e^{-k^2 rC^2} k_x^2

and every other quantity here (two-body variant, torque spectrum,
temperature shift, free-expansion spread, heating rate) derives from it.
The k-space integral is reduced as far as each geometry allows: fully
closed-form Gaussian pair kernels for point lattices, separable 1D
integrals for Cartesian and cylindrical bodies, a single radial integral
for spheres, and the generic 3D quadrature otherwise.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import CONSTANTS, PhysicalConstants
from .geometry import (Cuboid, Cylinder, MassGeometry, Multilayer, Point,
                       PointLattice, Sphere, TwoBody, form_factor,
                       form_factor_angular_derivative,
                       multilayer_stack_transform)
from .quadrature import QuadratureSpec, integrate_1d, integrate_k3
from .special import jinc, jinc_prime, sinc, sinc_prime, sphere_kernel

__all__ = [
    "CollapseParams", "ColoredNoiseModel", "SpectralValue",
    "csl_force_spectrum", "csl_force_spectrum_two_body",
    "csl_torque_spectrum", "apply_colored_filter",
    "csl_temperature_shift", "csl_temperature_shift_rot",
    "free_expansion_spread", "heating_rate",
    "force_pair_kernel_sum", "two_body_pair_kernel_sum",
    "torque_pair_kernel_sum",
]


@dataclass(frozen=True)
class ColoredNoiseModel:
    """Multiplicative spectral filter f(omega) on the white spectrum.

    family "white" is the identity; "lorentzian_cutoff" is
    f(omega) = omega_c^2 / (omega_c^2 + omega^2), the one-parameter
    exponentially-correlated family (f(0) = 1, f <= 1).
    """

    family: str = "white"
    omega_c: Optional[float] = None

    def __post_init__(self):
        if self.family not in ("white", "lorentzian_cutoff"):
            raise ValueError(f"unknown colored-noise family {self.family!r}")
        if self.family == "lorentzian_cutoff":
            if self.omega_c is None or not self.omega_c > 0:
                raise ValueError("lorentzian_cutoff requires omega_c > 0")

    def filter(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.family == "white":
            return np.ones_like(omega)
        oc2 = self.omega_c ** 2
        return oc2 / (oc2 + omega * omega)


@dataclass(frozen=True)
class CollapseParams:
    """Collapse rate lam (1/s), correlation length rC (m), optional
    colored-noise filter."""

    lam: float
    rC: float
    colored: Optional[ColoredNoiseModel] = None

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative, "
                             f"got {self.lam}")
        if not 0 < self.rC < np.inf:
            raise ValueError(f"rC must be finite and positive, got {self.rC}")


class SpectralValue(float):
    """A float spectral density carrying a quadrature error estimate."""

    def __new__(cls, value, error=0.0):
        obj = super().__new__(cls, value)
        obj.error = float(error)
        return obj


def _prefactor(p, consts):
    return consts.hbar ** 2 * p.lam * p.rC ** 3 / (
        math.pi ** 1.5 * consts.m0 ** 2)


# ---------------------------------------------------------------------------
# closed-form Gaussian pair kernels (point lattices; also the oracles)

_TILE = 512


def _pair_sum(positions, masses, kernel):
    """sum_ij m_i m_j kernel_ij over all ordered pairs of points.

    The sum runs over square tiles of at most _TILE x _TILE pairs.
    Every kernel is symmetric under i <-> j, so only tiles on or above
    the block diagonal are evaluated and those off the diagonal count
    twice: N^2/2 kernel evaluations, with memory fixed by the tile size
    whatever N is.  kernel(i, j, dx, dy, dz) receives the row and column
    slices of the tile and the 2D coordinate differences x_i - x_j etc.,
    and returns the tile's kernel matrix.  Each tile is reduced by
    einsum, which uses no BLAS, so the value does not depend on the BLAS
    thread count.
    """
    x, y, z = positions.T
    n = masses.size
    total = 0.0
    for i0 in range(0, n, _TILE):
        i = slice(i0, i0 + _TILE)
        for j0 in range(i0, n, _TILE):
            j = slice(j0, j0 + _TILE)
            dx = x[i, None] - x[None, j]
            dy = y[i, None] - y[None, j]
            dz = z[i, None] - z[None, j]
            s = float(np.einsum("i,j,ij->", masses[i], masses[j],
                                kernel(i, j, dx, dy, dz)))
            total += s if j0 == i0 else 2.0 * s
    return total


def _as_lattice(positions, masses):
    return (np.atleast_2d(np.asarray(positions, dtype=float)),
            np.atleast_1d(np.asarray(masses, dtype=float)))


def force_pair_kernel_sum(positions, masses, rC):
    """sum_ij m_i m_j (1 - d_x^2/2rC^2) e^{-d^2/4rC^2} / (2 rC^2).

    This is the k-space integral of the force spectrum carried out
    analytically for point masses; multiply by hbar^2 lam / m0^2 to get
    S_FF.
    """
    positions, masses = _as_lattice(positions, masses)
    inv2rc2 = 1.0 / (2.0 * rC * rC)

    def kernel(i, j, dx, dy, dz):
        dx2 = dx * dx
        d2 = dx2 + dy * dy + dz * dz
        return inv2rc2 * (1.0 - dx2 * inv2rc2) * np.exp(-d2 * inv2rc2 / 2.0)

    return _pair_sum(positions, masses, kernel)


def two_body_pair_kernel_sum(positions, masses, rC, a):
    """Differential-pair kernel for two identical units separated by a
    along x: K(d) - [K(d + a x) + K(d - a x)] / 2 summed over unit pairs."""
    positions, masses = _as_lattice(positions, masses)
    inv2rc2 = 1.0 / (2.0 * rC * rC)

    def k(dx, rho2):
        dx2 = dx * dx
        return inv2rc2 * (1.0 - dx2 * inv2rc2) \
            * np.exp(-(dx2 + rho2) * inv2rc2 / 2.0)

    def kernel(i, j, dx, dy, dz):
        rho2 = dy * dy + dz * dz
        return k(dx, rho2) - 0.5 * (k(dx + a, rho2) + k(dx - a, rho2))

    return _pair_sum(positions, masses, kernel)


def torque_pair_kernel_sum(positions, masses, rC):
    """Analytic pair sum for the rotational (about x) spectrum.

    Equals the k-space torque integral for point masses; multiply by
    hbar^2 lam / m0^2 to get the torque spectral density.
    """
    positions, masses = _as_lattice(positions, masses)
    a = rC * rC
    half_a = 1.0 / (2.0 * a)
    quarter_a2 = 1.0 / (4.0 * a * a)
    y = positions[:, 1]
    z = positions[:, 2]

    def kernel(i, j, dx, dy, dz):
        d2 = dx * dx + dy * dy + dz * dz
        gauss = np.exp(-d2 / (4.0 * a))
        yi, zi = y[i, None], z[i, None]
        yj, zj = y[None, j], z[None, j]
        return gauss * (zi * zj * (half_a - dy * dy * quarter_a2)
                        + yi * yj * (half_a - dz * dz * quarter_a2)
                        + (zi * yj + yi * zj) * dy * dz * quarter_a2)

    return _pair_sum(positions, masses, kernel)


# ---------------------------------------------------------------------------
# separable 1D building blocks

def _gauss_1d(f, rC, spec, length_scale=None, weight_power=0):
    """2 * integral_0^K k^weight_power f(k) e^{-k^2 rC^2} dk."""
    kmax = spec.cutoff_factor / rC
    width = np.pi / length_scale if length_scale else None

    def integrand(k):
        val = np.asarray(f(k), dtype=float)
        if weight_power:
            val = val * k ** weight_power
        return val * np.exp(-(k * rC) ** 2)

    val, err = integrate_1d(integrand, 0.0, kmax, spec.rel_tol, spec.abs_tol,
                            spec.max_evals, max_panel_width=width)
    return 2.0 * val, 2.0 * err


def _sinc_sq_gauss(L, rC, weight_power=0):
    """Closed form of 2 int_0^inf k^w sinc^2(kL/2) e^{-k^2 rC^2} dk.

    Writing sinc^2(kL/2) = 2 (1 - cos kL) / (k L)^2 reduces both moments
    (w = 0, 2) to Gaussian cosine integrals; series expansions take over
    when L << rC to avoid cancellation.  Returns (value, error).
    """
    x = L / (2.0 * rC)
    sqrt_pi = math.sqrt(math.pi)
    if weight_power == 2:
        if x < 1e-2:
            core = x * x * (1.0 - x * x / 2.0 + x ** 4 / 6.0)
        else:
            core = 1.0 - math.exp(-x * x)
        val = (4.0 / L ** 2) * (sqrt_pi / (2.0 * rC)) * core
    elif weight_power == 0:
        if x < 1e-2:
            core = x * x * (1.0 - x * x / 6.0 + x ** 4 / 30.0)
        else:
            core = sqrt_pi * x * math.erf(x) + math.exp(-x * x) - 1.0
        val = (4.0 / L ** 2) * (math.pi / 2.0) * (2.0 * rC / sqrt_pi) * core
    else:
        raise ValueError("weight_power must be 0 or 2")
    return val, abs(val) * 1e-14


def _two_body_x_gauss(L, a, rC):
    """Closed form of 2 int_0^inf k^2 sinc^2(kL/2) (1 - cos ak)
    e^{-k^2 rC^2} dk, the along-separation factor of a differential
    cuboid pair.  Expanding the cosine product gives pure Gaussian
    cosine integrals."""

    def E(c):
        return math.exp(-(c / (2.0 * rC)) ** 2)

    b2 = rC * rC
    if a < 2e-4 * rC:
        # leading order in a, avoids cancellation of the O(1) terms
        bracket = (a * a / (4.0 * b2)) \
            * (1.0 - (1.0 - L * L / (2.0 * b2)) * E(L))
    else:
        bracket = 1.0 - E(L) - E(a) + 0.5 * E(L + a) + 0.5 * E(abs(L - a))
    val = (4.0 / L ** 2) * (math.sqrt(math.pi) / (2.0 * rC)) * bracket
    return val, abs(val) * 1e-12


def _radial_1d(f, rC, spec, length_scale=None, radial_power=1):
    """integral_0^K k^radial_power f(k) e^{-k^2 rC^2} dk (no factor 2)."""
    kmax = spec.cutoff_factor / rC
    width = np.pi / length_scale if length_scale else None

    def integrand(k):
        return np.asarray(f(k), dtype=float) * k ** radial_power \
            * np.exp(-(k * rC) ** 2)

    return integrate_1d(integrand, 0.0, kmax, spec.rel_tol, spec.abs_tol,
                        spec.max_evals, max_panel_width=width)


def _combine_product(factors):
    """Multiply (value, error) pairs, first-order error propagation."""
    value = 1.0
    rel_err = 0.0
    for v, e in factors:
        if v == 0.0:
            return 0.0, abs(e)
        rel_err += abs(e / v)
        value *= v
    return value, abs(value) * rel_err


def _multilayer_axis_factors(g):
    """Per-axis 1D |transform|^2 factors of a Multilayer, matching the
    axis mapping used in geometry.form_factor."""
    n = g.stacking_axis
    others = [axis for axis in "xyz" if axis != n]
    lengths = {others[0]: g.Lx, others[1]: g.Ly}
    cross = g.Lx * g.Ly

    factors = {}
    scales = {}
    for axis in "xyz":
        if axis == n:
            factors[axis] = lambda k, g=g, cross=cross: \
                np.abs(multilayer_stack_transform(g, k) * cross) ** 2
            scales[axis] = g.stack_thickness
        else:
            L = lengths[axis]
            factors[axis] = lambda k, L=L: sinc(k * L / 2.0) ** 2
            scales[axis] = L
    return factors, scales


# ---------------------------------------------------------------------------
# force spectrum

def csl_force_spectrum(g, p, spec=None, consts=CONSTANTS, method="auto"):
    """White CSL force spectral density along x, in N^2 s.

    method: "auto" picks the closed form / most-reduced quadrature per
    geometry; "quadrature" forces a quadrature evaluation (used to
    cross-check the closed forms).
    """
    if isinstance(g, TwoBody):
        raise TypeError("use csl_force_spectrum_two_body for TwoBody")
    if spec is None:
        spec = QuadratureSpec()
    if p.lam == 0.0:
        return SpectralValue(0.0)

    pref = _prefactor(p, consts)
    rC = p.rC

    if method == "auto":
        if isinstance(g, Point):
            val = consts.hbar ** 2 * p.lam * g.m ** 2 / (
                2.0 * consts.m0 ** 2 * rC * rC)
            return SpectralValue(val)
        if isinstance(g, PointLattice):
            ksum = force_pair_kernel_sum(g.positions, g.masses, rC)
            val = consts.hbar ** 2 * p.lam / consts.m0 ** 2 * ksum
            return SpectralValue(val)

    if isinstance(g, (Point, Sphere)):
        m = g.total_mass
        R = g.R if isinstance(g, Sphere) else 0.0

        def iso(k):
            mu = m * sphere_kernel(k * R) if R else np.full_like(k, m)
            return mu * mu * k * k / 3.0

        def f3(k):
            return iso(k) * np.exp(-(k * rC) ** 2)

        val, err = integrate_k3(f3, rC, spec, symmetry="isotropic",
                                oscillation_scale=2.0 * R or None)
        return SpectralValue(pref * val, pref * err)

    if isinstance(g, PointLattice):
        # quadrature route over the discrete transform, full 3D
        def f(kx, ky, kz):
            k = np.stack([kx, ky, kz], axis=-1)
            mu = form_factor(g, k)
            k2 = kx * kx + ky * ky + kz * kz
            return np.abs(mu) ** 2 * np.exp(-k2 * rC * rC) * kx * kx

        val, err = integrate_k3(f, rC, spec, symmetry="none",
                                oscillation_scale=g.largest_dimension or None)
        return SpectralValue(pref * val, pref * err)

    if isinstance(g, Cuboid):
        m = g.m
        if method == "auto":
            fx, ex = _sinc_sq_gauss(g.Lx, rC, weight_power=2)
            fy, ey = _sinc_sq_gauss(g.Ly, rC)
            fz, ez = _sinc_sq_gauss(g.Lz, rC)
        else:
            fx, ex = _gauss_1d(lambda k: sinc(k * g.Lx / 2.0) ** 2, rC, spec,
                               g.Lx, weight_power=2)
            fy, ey = _gauss_1d(lambda k: sinc(k * g.Ly / 2.0) ** 2, rC, spec,
                               g.Ly)
            fz, ez = _gauss_1d(lambda k: sinc(k * g.Lz / 2.0) ** 2, rC, spec,
                               g.Lz)
        val, err = _combine_product([(fx, ex), (fy, ey), (fz, ez)])
        return SpectralValue(pref * m * m * val, pref * m * m * err)

    if isinstance(g, Multilayer):
        factors, scales = _multilayer_axis_factors(g)
        n = g.stacking_axis
        others = [axis for axis in "xyz" if axis != n]
        lengths = {others[0]: g.Lx, others[1]: g.Ly}
        parts = []
        for axis in "xyz":
            wp = 2 if axis == "x" else 0
            if axis != n and method == "auto":
                parts.append(_sinc_sq_gauss(lengths[axis], rC,
                                            weight_power=wp))
            else:
                parts.append(_gauss_1d(factors[axis], rC, spec, scales[axis],
                                       weight_power=wp))
        val, err = _combine_product(parts)
        return SpectralValue(pref * val, pref * err)

    if isinstance(g, Cylinder):
        # decompose k_x^2 = kpar^2 cos^2(alpha) + kperp^2 sin^2(alpha)/2
        # after the phi average, alpha the angle between axis and x
        m = g.m
        cos_a = float(np.dot(g.axis_vector, [1.0, 0.0, 0.0]))
        cos2, sin2 = cos_a * cos_a, 1.0 - cos_a * cos_a

        def par2(k):
            return sinc(k * g.L / 2.0) ** 2

        def perp2(k):
            return 2.0 * np.pi * k * jinc(k * g.R) ** 2

        terms = []
        if cos2 > 0:
            if method == "auto":
                ipar, epar = _sinc_sq_gauss(g.L, rC, weight_power=2)
            else:
                ipar, epar = _gauss_1d(par2, rC, spec, g.L, weight_power=2)
            iperp, eperp = _radial_1d(lambda k: 2.0 * np.pi * jinc(k * g.R) ** 2,
                                      rC, spec, 2.0 * g.R, radial_power=1)
            v, e = _combine_product([(ipar, epar), (iperp, eperp)])
            terms.append((cos2 * v, cos2 * e))
        if sin2 > 0:
            if method == "auto":
                ipar, epar = _sinc_sq_gauss(g.L, rC)
            else:
                ipar, epar = _gauss_1d(par2, rC, spec, g.L)
            iperp, eperp = _radial_1d(lambda k: 2.0 * np.pi * jinc(k * g.R) ** 2,
                                      rC, spec, 2.0 * g.R, radial_power=3)
            v, e = _combine_product([(ipar, epar), (iperp, eperp)])
            terms.append((0.5 * sin2 * v, 0.5 * sin2 * e))
        val = sum(t[0] for t in terms)
        err = sum(t[1] for t in terms)
        return SpectralValue(pref * m * m * val, pref * m * m * err)

    raise TypeError(f"unsupported geometry {type(g).__name__}")


def csl_force_spectrum_two_body(g, p, spec=None, consts=CONSTANTS):
    """Differential CSL force spectrum of two units separated by a along x.

    Evaluates (hbar^2 lam rC^3 / 2 pi^{3/2} m0^2) *
    integral |mu_unit|^2 e^{-k^2 rC^2} k_x^2 |1 - e^{i a k_x}|^2 dk; the
    squared phase factor makes the spectrum vanish at a = 0 and reduce to
    the single-unit value for a >> rC.
    """
    if not isinstance(g, TwoBody):
        raise TypeError("csl_force_spectrum_two_body needs a TwoBody geometry")
    if spec is None:
        spec = QuadratureSpec()
    if p.lam == 0.0 or g.a == 0.0:
        return SpectralValue(0.0)

    unit = g.unit
    a = g.a
    rC = p.rC
    pref = _prefactor(p, consts)

    if isinstance(unit, (Point, PointLattice)):
        if isinstance(unit, Point):
            positions = np.zeros((1, 3))
            masses = np.array([unit.m])
        else:
            positions, masses = unit.positions, unit.masses
        ksum = two_body_pair_kernel_sum(positions, masses, rC, a)
        val = consts.hbar ** 2 * p.lam / consts.m0 ** 2 * ksum
        return SpectralValue(val)

    # far-separated regime: cos(a k_x) oscillates much faster than any
    # structure of the envelope, so its integral is negligible (relative
    # size ~ max(rC, L) / a) and the differential spectrum saturates at
    # the single-unit value
    if a > 1e7 * max(rC, unit.largest_dimension):
        return csl_force_spectrum(unit, p, spec=spec, consts=consts)

    if isinstance(unit, (Cuboid, Multilayer)):
        if isinstance(unit, Cuboid):
            sep_len = unit.Lx
            trans = [_sinc_sq_gauss(unit.Ly, rC), _sinc_sq_gauss(unit.Lz, rC)]
            msq = unit.m ** 2
        elif unit.stacking_axis != "x":
            # stack axis transverse to the separation; the x factor is a
            # plain slab profile
            factors, scales = _multilayer_axis_factors(unit)
            n = unit.stacking_axis
            others = [axis for axis in "xyz" if axis != n]
            lengths = {others[0]: unit.Lx, others[1]: unit.Ly}
            sep_len = lengths["x"]
            trans = []
            for axis in "yz":
                if axis == n:
                    trans.append(_gauss_1d(factors[axis], rC, spec,
                                           scales[axis]))
                else:
                    trans.append(_sinc_sq_gauss(lengths[axis], rC))
            msq = 1.0
        else:
            # stack along the separation: quadrature on the oscillatory
            # product of the stack transform and 1 - cos(a k)
            factors, scales = _multilayer_axis_factors(unit)

            def fx(k):
                return factors["x"](k) * (1.0 - np.cos(a * k))

            sx = max(scales["x"], a)
            ix, exx = _gauss_1d(fx, rC, spec, sx, weight_power=2)
            iy, ey = _sinc_sq_gauss(unit.Lx, rC)
            iz, ez = _sinc_sq_gauss(unit.Ly, rC)
            val, err = _combine_product([(ix, exx), (iy, ey), (iz, ez)])
            return SpectralValue(pref * val, pref * err)

        ix, exx = _two_body_x_gauss(sep_len, a, rC)
        val, err = _combine_product([(ix, exx)] + trans)
        return SpectralValue(pref * msq * val, pref * msq * err)

    if isinstance(unit, Sphere) or (
            isinstance(unit, Cylinder)
            and abs(np.dot(unit.axis_vector, [1.0, 0.0, 0.0])) > 1.0 - 1e-12):
        # axisymmetric about x: integrate in (kperp, kpar=x) coordinates
        m = unit.total_mass

        def mu_sq(kperp, kpar):
            if isinstance(unit, Sphere):
                kk = np.sqrt(kperp * kperp + kpar * kpar)
                mu = m * sphere_kernel(kk * unit.R)
            else:
                mu = m * jinc(kperp * unit.R) * sinc(kpar * unit.L / 2.0)
            return mu * mu

        def f(kperp, kpar):
            k2 = kperp * kperp + kpar * kpar
            return mu_sq(kperp, kpar) * np.exp(-k2 * rC * rC) \
                * kpar * kpar * (1.0 - np.cos(a * kpar))

        osc = max(unit.largest_dimension, a)
        val, err = integrate_k3(f, rC, spec, symmetry="axial",
                                oscillation_scale=osc)
        return SpectralValue(pref * val, pref * err)

    # generic 3D fallback
    def f3(kx, ky, kz):
        k = np.stack([kx, ky, kz], axis=-1)
        mu = form_factor(unit, k)
        k2 = kx * kx + ky * ky + kz * kz
        return np.abs(mu) ** 2 * np.exp(-k2 * rC * rC) * kx * kx \
            * (1.0 - np.cos(a * kx))

    osc = max(unit.largest_dimension, a)
    val, err = integrate_k3(f3, rC, spec, symmetry="none",
                            oscillation_scale=osc)
    return SpectralValue(pref * val, pref * err)


# ---------------------------------------------------------------------------
# torque spectrum (rotation about x)

def csl_torque_spectrum(g, p, spec=None, consts=CONSTANTS, method="auto"):
    """CSL torque spectral density about the x axis, in N^2 m^2 s.

    Vanishes identically for spherically symmetric bodies and for
    cylinders spinning about their own symmetry axis.
    """
    if isinstance(g, TwoBody):
        raise TypeError("torque spectrum of a TwoBody pair is not defined")
    if spec is None:
        spec = QuadratureSpec()
    if p.lam == 0.0:
        return SpectralValue(0.0)

    pref = _prefactor(p, consts)
    rC = p.rC

    if isinstance(g, (Point, Sphere)) and method == "auto":
        return SpectralValue(0.0)

    if isinstance(g, PointLattice) and method == "auto":
        ksum = torque_pair_kernel_sum(g.positions, g.masses, rC)
        val = consts.hbar ** 2 * p.lam / consts.m0 ** 2 * ksum
        return SpectralValue(val)

    if isinstance(g, Cylinder) and method == "auto":
        cos_a = abs(float(np.dot(g.axis_vector, [1.0, 0.0, 0.0])))
        if cos_a > 1.0 - 1e-12:
            return SpectralValue(0.0)   # spinning about the symmetry axis
        if cos_a < 1e-12:
            return _cylinder_torque_transverse(g, p, spec, consts)

    if isinstance(g, Cuboid) and method == "auto":
        return _cuboid_torque(g, p, spec, consts)

    def f3(kx, ky, kz):
        k = np.stack([kx, ky, kz], axis=-1)
        deriv = form_factor_angular_derivative(g, k, rc_hint=rC)
        k2 = kx * kx + ky * ky + kz * kz
        return np.abs(deriv) ** 2 * np.exp(-k2 * rC * rC)

    val, err = integrate_k3(f3, rC, spec, symmetry="none",
                            oscillation_scale=g.largest_dimension or None)
    return SpectralValue(pref * val, pref * err)


def _cylinder_torque_transverse(g, p, spec, consts):
    """Cylinder with symmetry axis perpendicular to the rotation (x) axis.

    With f = jinc(kperp R), gz = sinc(kz L/2) the phi-averaged squared
    angular derivative separates into three 1D x 1D products.
    """
    pref = _prefactor(p, consts)
    rC = p.rC
    m, R, L = g.m, g.R, g.L

    def f(k):
        return jinc(k * R)

    def fp(k):
        return R * jinc_prime(k * R)

    def gz(k):
        return sinc(k * L / 2.0)

    def gp(k):
        return (L / 2.0) * sinc_prime(k * L / 2.0)

    # T1: kperp^3 f^2 x gp^2 ; T2: kperp f'^2 x kz^2 g^2 ;
    # T3: -2 kperp^2 f f' x kz g g'
    p1a, e1a = _radial_1d(lambda k: f(k) ** 2, rC, spec, 2 * R, radial_power=3)
    p1b, e1b = _gauss_1d(lambda k: gp(k) ** 2, rC, spec, L)
    p2a, e2a = _radial_1d(lambda k: fp(k) ** 2, rC, spec, 2 * R, radial_power=1)
    p2b, e2b = _gauss_1d(lambda k: gz(k) ** 2, rC, spec, L, weight_power=2)
    p3a, e3a = _radial_1d(lambda k: f(k) * fp(k), rC, spec, 2 * R,
                          radial_power=2)
    p3b, e3b = _gauss_1d(lambda k: k * gz(k) * gp(k), rC, spec, L)

    total = p1a * p1b + p2a * p2b - 2.0 * p3a * p3b
    err = (abs(e1a * p1b) + abs(p1a * e1b) + abs(e2a * p2b) + abs(p2a * e2b)
           + 2.0 * (abs(e3a * p3b) + abs(p3a * e3b)))
    val = pref * m * m * np.pi * total
    return SpectralValue(val, pref * m * m * np.pi * err)


def _cuboid_torque(g, p, spec, consts):
    """Separable torque integral for an axis-aligned cuboid."""
    pref = _prefactor(p, consts)
    rC = p.rC
    m = g.m

    def s(L):
        return lambda k: sinc(k * L / 2.0)

    def ds(L):
        return lambda k: (L / 2.0) * sinc_prime(k * L / 2.0)

    sx, sy, sz = s(g.Lx), s(g.Ly), s(g.Lz)
    dy, dz = ds(g.Ly), ds(g.Lz)

    x0, ex0 = _gauss_1d(lambda k: sx(k) ** 2, rC, spec, g.Lx)
    t1y, e1y = _gauss_1d(lambda k: sy(k) ** 2, rC, spec, g.Ly, weight_power=2)
    t1z, e1z = _gauss_1d(lambda k: dz(k) ** 2, rC, spec, g.Lz)
    t2y, e2y = _gauss_1d(lambda k: dy(k) ** 2, rC, spec, g.Ly)
    t2z, e2z = _gauss_1d(lambda k: sz(k) ** 2, rC, spec, g.Lz, weight_power=2)
    t3y, e3y = _gauss_1d(lambda k: k * sy(k) * dy(k), rC, spec, g.Ly)
    t3z, e3z = _gauss_1d(lambda k: k * sz(k) * dz(k), rC, spec, g.Lz)

    inner = t1y * t1z + t2y * t2z - 2.0 * t3y * t3z
    err_inner = (abs(e1y * t1z) + abs(t1y * e1z) + abs(e2y * t2z)
                 + abs(t2y * e2z) + 2.0 * (abs(e3y * t3z) + abs(t3y * e3z)))
    val = pref * m * m * x0 * inner
    err = pref * m * m * (abs(ex0 * inner) + abs(x0) * err_inner)
    return SpectralValue(val, err)


# ---------------------------------------------------------------------------
# derived quantities

def apply_colored_filter(S, model, omega):
    """Scale a white spectral density by the colored-noise filter."""
    if omega is None:
        raise ValueError("omega required")
    if np.any(np.asarray(omega) < 0):
        raise ValueError("omega must be nonnegative")
    if model is None:
        return S
    return S * model.filter(omega)


def csl_temperature_shift(S_FF, m, gamma, consts=CONSTANTS):
    """Equilibrium temperature increase S_FF / (2 m gamma kB), in K.

    gamma = 0 is rejected: the shift diverges without dissipation.
    """
    if not m > 0:
        raise ValueError("m must be positive")
    if not gamma > 0:
        raise ValueError("temperature shift diverges as gamma -> 0; "
                         "gamma must be positive")
    return S_FF / (2.0 * m * gamma * consts.kB)


def csl_temperature_shift_rot(S_rot, D_phi, consts=CONSTANTS):
    """Rotational analogue: S_rot / (2 kB D_phi), D_phi the rotational
    damping rate."""
    if not D_phi > 0:
        raise ValueError("D_phi must be positive")
    return S_rot / (2.0 * consts.kB * D_phi)


def free_expansion_spread(p, t, qm_term=0.0, consts=CONSTANTS):
    """3D position spread <r^2>(t) of a free point particle, in m^2.

    qm_term is the quantum-mechanical contribution; the collapse noise
    adds lam hbar^2 t^3 / (2 m0^2 rC^2).  The per-axis collapse share is
    one third of the added term.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return qm_term + p.lam * consts.hbar ** 2 * t ** 3 / (
        2.0 * consts.m0 ** 2 * p.rC ** 2)


def heating_rate(g, p, spec=None, consts=CONSTANTS):
    """Secular temperature drift of a free body, in K/year.

    Each axis gains energy at S_FF / 2m; with <E> = (3/2) kB T the three
    isotropic axes give dT/dt = S_FF / (m kB).
    """
    if isinstance(g, TwoBody):
        raise TypeError("heating rate of a TwoBody pair is not defined")
    if p.lam == 0.0:
        return 0.0
    S = csl_force_spectrum(g, p, spec=spec, consts=consts)
    rate_per_s = S / (g.total_mass * consts.kB)
    return rate_per_s * consts.seconds_per_year
