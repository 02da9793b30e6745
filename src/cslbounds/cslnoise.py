"""CSL spectral quantities for rigid bodies.

The white collapse-force spectrum along x is

    S_FF = (hbar^2 lambda rC^3 / pi^{3/2} m0^2)
           * integral dk |mu_tilde(k)|^2 e^{-k^2 rC^2} k_x^2

and every other quantity here (two-body variant, torque spectrum,
temperature shift, free-expansion spread, heating rate) derives from it.
The k-space integral is reduced as far as each geometry allows: fully
closed-form Gaussian pair kernels for point lattices; for Cuboid and
Multilayer (any stacking axis) a product of Gaussian moments of their
three 1D axis profiles, in force, two-body and torque alike; sums of
products of the moments of a slab and a disc profile for cylinders at
any tilt (all profile moments come from _profile_moment); one radial
integral for spheres.  The generic 3D quadrature serves only
point lattices and torque under method="quadrature".  README.md
tabulates the route of each geometry and channel.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constants import CONSTANTS
from .geometry import (AxisProfile, Cylinder, DiscProfile, Point,
                       PointLattice, Sphere, TwoBody, _check_positive,
                       form_factor, form_factor_angular_derivative,
                       separable_profiles)
from .quadrature import QuadratureSpec, integrate_1d, integrate_k3
from .special import (bessel_j1, one_minus_j0, ring_cos2_kernel,
                      shell_cos2_kernel, sphere_kernel)
from .special import sinc  # noqa: F401  perfbench's tracer test wraps it here

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
            if self.omega_c is None or not 0 < self.omega_c < np.inf:
                raise ValueError("lorentzian_cutoff requires a finite "
                                 "omega_c > 0")

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
#
# With c = 1/(2 rC^2), every pair kernel is c times a polynomial in the
# coordinate differences times G = e^{-c d^2/2}: (1 - c dx^2) G for the
# force, the same at dx and dx -+ a for the two-body pair, and
# (y_i y_j + z_i z_j - c (z_i dy - y_i dz)^2) G for the torque.  The
# factor c is applied once to the finished sum.

_TILE = 128
_EXP_FLOOR = -700.0


def _gaussian(d2, scale, keep):
    """e^{-scale d2}, written over d2; keep is a boolean scratch array.

    Exponents below _EXP_FLOOR give exactly 0: they are clamped to it, so
    that no exp returns a subnormal (about 100x slower than a normal
    result), and the clamped entries are multiplied by 0.  With x the
    exponent's magnitude, a dropped force or two-body term is at most
    2x e^{-x} times c, and a dropped torque term at most (2x + 1) e^{-x}
    times c r_i r_j (r the distance from the x axis), so below 1.4e-301
    of the scale of a diagonal term for x > 700.  Clamping without the
    zeroing would leave e^{-700} times a polynomial with no bound.
    """
    np.multiply(d2, -scale, out=d2)
    np.greater_equal(d2, _EXP_FLOOR, out=keep)
    np.maximum(d2, _EXP_FLOOR, out=d2)
    np.exp(d2, out=d2)
    np.multiply(d2, keep, out=d2)
    return d2


def _pair_sum(lat, kernel):
    """sum_ij m_i m_j K_ij over all ordered pairs of points of lat.

    The sum runs over square tiles of at most _TILE x _TILE pairs, in
    tile order.  Every kernel is symmetric under i <-> j, so only tiles
    on or above the block diagonal are evaluated and those off the
    diagonal count twice: N^2/2 kernel evaluations in a fixed workspace
    of seven tile-sized arrays, whatever N is.  Each tile's differences
    x_i - x_j etc. are taken in physical coordinates, exact for nearby
    points however far the lattice sits from the origin, and
    rho2 = dy^2 + dz^2 is formed once.  kernel(i, j, tile, keep) receives
    the row and column slices, tile = (dx, dy, dz, rho2, w0, w1, w2) (the
    last three scratch; dy and dz may be overwritten once read) and a
    boolean scratch array, and returns the tile's kernel matrix.  Each
    tile is reduced by two einsum matrix-vector products, which use no
    BLAS, so the value does not depend on the BLAS thread count.
    """
    x, y, z = (np.ascontiguousarray(c) for c in lat.positions.T)
    masses = lat.masses
    n = masses.size
    work = np.empty((7, _TILE, _TILE))
    keep = np.empty((_TILE, _TILE), dtype=bool)
    total = 0.0
    for i0 in range(0, n, _TILE):
        i = slice(i0, i0 + _TILE)
        ni = min(_TILE, n - i0)
        for j0 in range(i0, n, _TILE):
            j = slice(j0, j0 + _TILE)
            nj = min(_TILE, n - j0)
            tile = work[:, :ni, :nj]
            dx, dy, dz, rho2, w0 = tile[:5]
            np.subtract(x[i, None], x[None, j], out=dx)
            np.subtract(y[i, None], y[None, j], out=dy)
            np.subtract(z[i, None], z[None, j], out=dz)
            np.square(dy, out=rho2)
            np.square(dz, out=w0)
            rho2 += w0
            k = kernel(i, j, tile, keep[:ni, :nj])
            s = float(np.einsum("i,i->", masses[i],
                                np.einsum("ij,j->i", k, masses[j])))
            total += s if j0 == i0 else 2.0 * s
    return total


def _force_kernel(dx, rho2, c, keep, out, u):
    """(1 - c dx^2) e^{-c (dx^2 + rho2) / 2} into out; u is scratch."""
    np.square(dx, out=u)
    np.add(u, rho2, out=out)
    _gaussian(out, 0.5 * c, keep)
    np.multiply(u, -c, out=u)
    u += 1.0
    out *= u
    return out


def _as_lattice(positions, masses, rC):
    """The points as a PointLattice, which checks them, after checking
    rC."""
    _check_positive(rC=rC)
    return PointLattice(positions, masses)


def force_pair_kernel_sum(positions, masses, rC):
    """sum_ij m_i m_j (1 - d_x^2/2rC^2) e^{-d^2/4rC^2} / (2 rC^2).

    This is the k-space integral of the force spectrum carried out
    analytically for point masses; multiply by hbar^2 lam / m0^2 to get
    S_FF.  Raises ValueError for a non-positive or non-finite rC and for
    positions and masses PointLattice would reject.
    """
    lat = _as_lattice(positions, masses, rC)
    c = 1.0 / (2.0 * rC * rC)

    def kernel(i, j, tile, keep):
        dx, _, _, rho2, w0, w1, _ = tile
        return _force_kernel(dx, rho2, c, keep, w0, w1)

    return c * _pair_sum(lat, kernel)


def two_body_pair_kernel_sum(positions, masses, rC, a):
    """Differential-pair kernel for two identical units separated by a
    along x: K(d) - [K(d + a x) + K(d - a x)] / 2 summed over unit pairs.

    Raises ValueError as force_pair_kernel_sum does, and for a separation
    TwoBody would reject.
    """
    lat = _as_lattice(positions, masses, rC)
    TwoBody(lat, a)   # checks the separation
    c = 1.0 / (2.0 * rC * rC)

    def kernel(i, j, tile, keep):
        # dy and dz are free once rho2 is formed: they hold dx +- a
        dx, dy, dz, rho2, k0, kpm, u = tile
        _force_kernel(dx, rho2, c, keep, k0, u)
        np.add(dx, a, out=dy)
        _force_kernel(dy, rho2, c, keep, kpm, u)
        np.subtract(dx, a, out=dz)
        kpm += _force_kernel(dz, rho2, c, keep, dy, u)
        kpm *= 0.5
        k0 -= kpm
        return k0

    return c * _pair_sum(lat, kernel)


def torque_pair_kernel_sum(positions, masses, rC):
    """Analytic pair sum for the rotational (about x) spectrum.

    Equals the k-space torque integral for point masses; multiply by
    hbar^2 lam / m0^2 to get the torque spectral density.  The kernel
    z_i z_j (h - q dy^2) + y_i y_j (h - q dz^2) + (z_i y_j + y_i z_j) q dy dz
    with h = 1/2rC^2 and q = 1/4rC^4 is evaluated as
    h (y_i y_j + z_i z_j) - q (z_i dy - y_i dz)^2, whose last term uses the
    exact differences and so does not cancel at large offsets as
    y_i z_j - z_i y_j would.  Raises ValueError as force_pair_kernel_sum
    does.
    """
    lat = _as_lattice(positions, masses, rC)
    c = 1.0 / (2.0 * rC * rC)
    y = np.ascontiguousarray(lat.positions[:, 1])
    z = np.ascontiguousarray(lat.positions[:, 2])

    def kernel(i, j, tile, keep):
        dx, dy, dz, rho2, g, w, p = tile
        np.square(dx, out=g)
        g += rho2
        _gaussian(g, 0.5 * c, keep)
        np.multiply(dy, z[i, None], out=w)
        np.multiply(dz, y[i, None], out=p)
        w -= p
        w *= w
        w *= c
        np.multiply(y[i, None], y[None, j], out=p)
        np.multiply(z[i, None], z[None, j], out=dy)
        p += dy
        p -= w
        p *= g
        return p

    return c * _pair_sum(lat, kernel)


# ---------------------------------------------------------------------------
# separable 1D building blocks

def _gauss_1d(f, rC, spec, length_scale=None, weight_power=0):
    """2 * integral_0^K k^weight_power f(k) e^{-k^2 rC^2} dk: the whole k
    line for an even integrand, twice a radial integral."""
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


# (-1)^{n+1} / (n! (2n - 1)) for n = 18 .. 1: the series in x^2 of
# sqrt(pi) x erf(x) + e^{-x^2} - 1, to double precision for x < 1
_M0_SERIES = tuple((-1) ** (n + 1) / (math.factorial(n) * (2 * n - 1))
                   for n in range(18, 0, -1))


def _sinc_sq_gauss(L, rC, weight_power=0):
    """Closed form of 2 int_0^inf k^w sinc^2(kL/2) e^{-k^2 rC^2} dk.

    Writing sinc^2(kL/2) = 2 (1 - cos kL) / (k L)^2 reduces both moments
    (w = 0, 2) to Gaussian cosine integrals.  With x = L / 2rC the w = 2
    core is 1 - e^{-x^2} and the w = 0 core sqrt(pi) x erf(x) + e^{-x^2}
    - 1, which below x = 1 is summed as its alternating series
    (_M0_SERIES) to avoid cancellation.
    Returns (value, error).
    """
    x = L / (2.0 * rC)
    sqrt_pi = math.sqrt(math.pi)
    if weight_power == 2:
        val = (4.0 / L ** 2) * (sqrt_pi / (2.0 * rC)) * -math.expm1(-x * x)
    elif weight_power == 0:
        if x < 1.0:
            core = 0.0
            for c in _M0_SERIES:
                core = core * x * x + c
            core *= x * x
        else:
            core = sqrt_pi * x * math.erf(x) + math.exp(-x * x) - 1.0
        val = (4.0 / L ** 2) * (math.pi / 2.0) * (2.0 * rC / sqrt_pi) * core
    else:
        raise ValueError("weight_power must be 0 or 2")
    return val, abs(val) * 1e-14


def _two_body_x_gauss(L, a, rC):
    """Closed form of 2 int_0^inf k^2 sinc^2(kL/2) (1 - cos ak)
    e^{-k^2 rC^2} dk, the along-separation factor of a differential
    cuboid pair.  Expanding the cosine product gives Gaussian cosine
    integrals; with u = L / 2rC and v = a / 2rC their sum is
    (1 - e^{-u^2}) (1 - e^{-v^2}) + e^{-(u - v)^2} (1 - e^{-2uv})^2 / 2,
    two nonnegative terms, so no regime suffers cancellation."""
    u = L / (2.0 * rC)
    v = a / (2.0 * rC)
    bracket = math.expm1(-u * u) * math.expm1(-v * v) \
        + 0.5 * math.exp(-(u - v) ** 2) * math.expm1(-2.0 * u * v) ** 2
    val = (4.0 / L ** 2) * (math.sqrt(math.pi) / (2.0 * rC)) * bracket
    return val, abs(val) * 1e-14


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


def _one_minus_cos(x):
    """1 - cos x, written 2 sin^2(x/2) to keep its precision near 0."""
    return 2.0 * np.sin(x / 2.0) ** 2


def _profile_moment(prof, kind, rC, spec, closed_form=True, h=None, s=0.0,
                    abs_tol=0.0):
    """Gaussian moment of a profile P, optionally times a separation
    kernel h(s k).

    kind: "M0", "M1", "M2" int k^n |P|^2, "D0" int |P'|^2 and "C1"
    int k Re(P P'*), each weighted by e^{-k^2 rC^2}.  An AxisProfile is
    integrated over the whole k line, a DiscProfile over its k plane
    (int 2 pi k dk, returned without the factor pi, so its weight gains
    one power of k).  The density is real, so every integrand is even
    and the imaginary part of P P'* integrates to zero.  A slab's M0 and
    M2, and its M2 with h = 1 - cos (the two-body factor along the
    separation), have closed forms, used when closed_form is set; every
    other moment is one 1D quadrature, with an absolute target of at
    least abs_tol for moments that change sign.  Returns (value, error).
    """
    if closed_form and isinstance(prof, AxisProfile) and prof.layers is None:
        if kind == "M2" and h is _one_minus_cos:
            return _two_body_x_gauss(prof.length, s, rC)
        if kind in ("M0", "M2") and h is None:
            return _sinc_sq_gauss(prof.length, rC,
                                  weight_power=2 if kind == "M2" else 0)
    plane = isinstance(prof, DiscProfile)
    power = {"M1": 1, "M2": 2, "C1": plane}.get(kind, 0) + plane

    def f(k):
        if kind == "D0":
            return np.abs(prof.derivative(k)) ** 2
        if kind == "C1":   # on a line the k multiplies inside the product
            return np.real((1.0 if plane else k) * prof.transform(k)
                           * np.conj(prof.derivative(k)))
        return np.abs(prof.transform(k)) ** 2

    if abs_tol > spec.abs_tol:
        spec = replace(spec, abs_tol=abs_tol)
    return _gauss_1d(f if h is None else lambda k: f(k) * h(s * k), rC, spec,
                     max(prof.length, s), power)


def _torque_bracket(py, pz, rC, spec, closed_form=True):
    """M2_y D0_z + D0_y M2_z - 2 C1_y C1_z: the torque integral across
    the rotation (x) axis of a body whose transform there is the product
    of the profiles py and pz, with first-order error propagation.

    The products cancel at leading order in (size / rC)^2 when rC is
    large.  When that leaves an error above spec.rel_tol of the result,
    the moments are evaluated once more with every 1D tolerance
    tightened by the cancellation, provided that asks for no less than
    1e-11.  Returns (value, error).
    """
    def bracket(s):
        (a1, e1), (b1, f1), (a2, e2), (b2, f2), (a3, e3), (b3, f3) = (
            _profile_moment(prof, kind, rC, s, closed_form)
            for prof, kind in ((py, "M2"), (pz, "D0"), (py, "D0"),
                               (pz, "M2"), (py, "C1"), (pz, "C1")))
        return (a1 * b1 + a2 * b2 - 2.0 * a3 * b3,
                abs(e1 * b1) + abs(a1 * f1) + abs(e2 * b2) + abs(a2 * f2)
                + 2.0 * (abs(e3 * b3) + abs(a3 * f3)),
                abs(a1 * b1) + abs(a2 * b2) + 2.0 * abs(a3 * b3))

    value, err, size = bracket(spec)
    if err <= spec.rel_tol * abs(value):
        return value, err
    tight = spec.rel_tol * abs(value) / size if size else 0.0
    if tight < 1e-11:
        return value, err
    return bracket(replace(spec, rel_tol=tight))[:2]


def _separable_spectrum(sep, channel, p, spec, consts, closed_form=True,
                        a=0.0):
    """Spectrum of a body with mu_tilde = scale Px Py Pz (see
    geometry.separable_profiles) as a product of 1D profile moments:

        force     M2_x M0_y M0_z
        two_body  T_x M0_y M0_z, T = M2 with h = 1 - cos(a k)
        torque    M0_x (M2_y D0_z + D0_y M2_z - 2 C1_y C1_z)
    """
    scale, (px, py, pz) = sep
    rC = p.rC
    if channel == "torque":
        factors = [_profile_moment(px, "M0", rC, spec, closed_form),
                   _torque_bracket(py, pz, rC, spec, closed_form)]
    else:
        h = _one_minus_cos if channel == "two_body" else None
        factors = [_profile_moment(px, "M2", rC, spec, closed_form, h, a)] \
            + [_profile_moment(prof, "M0", rC, spec, closed_form)
               for prof in (py, pz)]
    val, err = _combine_product(factors)
    pref = _prefactor(p, consts)
    return SpectralValue(pref * scale * scale * val,
                         pref * scale * scale * err)


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
        R = g.R if isinstance(g, Sphere) else 0.0

        def f3(k):
            mu = g.m * sphere_kernel(k * R) if R else np.full_like(k, g.m)
            return mu * mu * k * k / 3.0 * np.exp(-(k * rC) ** 2)

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

    sep = separable_profiles(g)
    if sep is not None:
        return _separable_spectrum(sep, "force", p, spec, consts,
                                   closed_form=method == "auto")

    if isinstance(g, Cylinder):
        return _cylinder_spectrum(g, p, spec, consts, None, method == "auto")

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
            unit = PointLattice(np.zeros((1, 3)), np.array([unit.m]))
        ksum = two_body_pair_kernel_sum(unit.positions, unit.masses, rC, a)
        val = consts.hbar ** 2 * p.lam / consts.m0 ** 2 * ksum
        return SpectralValue(val)

    saturated = a >= _saturation_separation(unit, rC)
    if saturated and not isinstance(unit, Sphere):
        return csl_force_spectrum(unit, p, spec=spec, consts=consts)

    sep = separable_profiles(unit)
    if sep is not None:
        return _separable_spectrum(sep, "two_body", p, spec, consts, a=a)

    if isinstance(unit, Cylinder):
        return _cylinder_spectrum(unit, p, spec, consts, a)
    # <k_x^2 (1 - cos a k_x)> over directions is k^2 (1 - j0(ak) +
    # 2 j2(ak)) / 3, which leaves one radial integral; saturated, the
    # bracket is 1 and the integral the single-sphere force
    shell, s = (np.ones_like, 0.0) if saturated else (shell_cos2_kernel, a)
    val, err = _gauss_1d(lambda k: 2.0 * np.pi / 3.0 * shell(s * k)
                         * sphere_kernel(k * unit.R) ** 2, rC, spec,
                         max(2.0 * unit.R, s), weight_power=4)
    scale = pref * unit.m * unit.m
    return SpectralValue(scale * val, scale * err)


def _saturation_separation(unit, rC):
    """Separation from which a two-body spectrum equals the single-unit
    force spectrum to 1e-12 of its value: X + c rC, with X the unit's
    extent along x and c = sqrt(8 ln(6 sqrt(pi) m^3 / 1e-12)),
    m = max(1, 2 X / (pi rC)); c = 15.5 up to X = pi rC / 2, then
    growing like sqrt(24 ln m) (c = 20 at X = 1200 rC).

    Derivation.  The dropped cross term is the single-unit integrand
    times cos(a k_x).  With g the Gaussian of variance rC^2 per axis,
    e^{-k^2 rC^2} = |g~|^2, so by Parseval both are sums over the lines
    (y, z) along x of the autocorrelation of f = q * g1' (g1 the x factor
    of g) at lag a and at lag 0, where q >= 0 is the density smoothed
    over y and z by g, supported on an interval of length X; it suffices
    to bound each line's ratio.  With Q = int q, the cross term is
    int int q(u) q(v) C(a + u - v) du dv, C = -G'' the autocorrelation of
    g1', G(t) = e^{-t^2/4rC^2} / (2 rC sqrt(pi)); for d = a - X >= sqrt(6)
    rC, |C(t)| <= G(d) d^2 / 4rC^4 for every t >= d.  The lag-0 term is
    int |q~|^2 k^2 e^{-k^2 rC^2} dk / 2 pi with |q~(k)| >= Q cos(kX/2);
    over |k| <= K = min(pi / 2X, 1 / rC), where cos^2 >= 1/2 and the
    Gaussian >= 1/e, it is at least Q^2 K^3 / (6 pi e).  The ratio is
    then at most 3 e sqrt(pi) m^3 y e^{-y} <= 6 sqrt(pi) m^3 e^{-y/2},
    y = d^2 / 4rC^2, which is below 1e-12 once d >= c rC.
    """
    if isinstance(unit, Sphere):
        extent = 2.0 * unit.R
    elif isinstance(unit, Cylinder):
        extent = abs(unit.axis[0]) * unit.L \
            + 2.0 * unit.R * math.hypot(unit.axis[1], unit.axis[2])
    else:
        sep = separable_profiles(unit)
        if sep is None:
            raise TypeError(f"unsupported geometry {type(unit).__name__}")
        extent = sep[1][0].length
    log_m = math.log(max(1.0, 2.0 * extent / (math.pi * rC)))
    return extent + rC * math.sqrt(
        8.0 * (math.log(6.0 * math.sqrt(math.pi) / 1e-12) + 3.0 * log_m))


def _cylinder_spectrum(g, p, spec, consts, a=None, closed_form=True):
    """Spectrum of a cylinder at any tilt, F = jinc(k_perp R) sinc(k_par
    L/2): force (a None) or two-body (separation a), each a sum of
    products of moments Mn of its slab profile and Qn of its disc
    profile (_profile_moment).  With c, s the cosine and sine of the
    tilt to x, the phi average (README.md) gives c^2 M2 Q0 + s^2 M0 Q2 / 2
    for the force and c^2 [T Q0 + (M2 - T) Q0m] + s^2 [P0m Q2 / 2 +
    (M0 - P0m) Q2h] + 2 c s P1s Q1J1 for the two-body, where T, P0m, P1s
    are M2, M0 times 1 - cos(a c k) and M1 times sin(a c k), and Q0m,
    Q2h, Q1J1 are Q0 times 1 - J0(a s k), Q2 times the ring kernel
    1/2 - J0 + J1/x and Q1 times J1(a s k).  P1s and Q1J1 alone change
    sign; bounded by Cauchy-Schwarz (sin^2 <= 2 (1 - cos), J1^2 <=
    1 - J0), they get an absolute target set by the other terms.
    """
    rC = p.rC
    c, s = abs(g.axis[0]), math.hypot(g.axis[1], g.axis[2])
    ac, as_ = (a or 0.0) * c, (a or 0.0) * s
    slab, disc = AxisProfile(g.L), DiscProfile(g.R)

    def moment(prof, kind, h=None, abs_tol=0.0):
        return _profile_moment(prof, kind, rC, spec, closed_form, h,
                               ac if prof is slab else as_, abs_tol)

    m0, m2, q0, q2 = (moment(slab, "M0"), moment(slab, "M2"),
                      moment(disc, "M0"), moment(disc, "M2"))
    if a is None:
        terms = [(c * c, m2, q0), (s * s / 2.0, m0, q2)]
    else:
        t, p0m = moment(slab, "M2", _one_minus_cos), \
            moment(slab, "M0", _one_minus_cos)
        q0m, q2h = moment(disc, "M0", one_minus_j0), \
            moment(disc, "M2", ring_cos2_kernel)
        terms = [(c * c, t, q0), (c * c, (m2[0] - t[0], m2[1] + t[1]), q0m),
                 (s * s / 2.0, p0m, q2),
                 (s * s, (m0[0] - p0m[0], m0[1] + p0m[1]), q2h)]
        if c * s > 0.0:
            nonneg = max(sum(w * x[0] * y[0] for w, x, y in terms), 0.0)
            target = spec.rel_tol * nonneg / (8.0 * c * s)
            p1s = moment(slab, "M1", np.sin,
                         target / math.sqrt(q2[0] * q0m[0]))
            q1j1 = moment(disc, "M1", bessel_j1,
                          target / math.sqrt(2.0 * m2[0] * p0m[0]))
            terms.append((2.0 * c * s, p1s, q1j1))
    products = [(w, _combine_product([x, y])) for w, x, y in terms]
    scale = _prefactor(p, consts) * g.m * g.m * np.pi
    return SpectralValue(scale * sum(w * v for w, (v, _) in products),
                         scale * sum(w * e for w, (_, e) in products))


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
        # |(x^ x k) . grad mu| = |k . (n x x^)| |F_par - k_par F_perp /
        # k_perp|: sin^2 of the tilt times the value for an axis normal to
        # x, the torque bracket of the disc and slab profiles halved by
        # the phi average; the slab's M2 is integrated like its D0 and C1
        sin2 = g.axis[1] ** 2 + g.axis[2] ** 2   # 0 spinning about the axis
        total, err = _torque_bracket(DiscProfile(g.R), AxisProfile(g.L), rC,
                                     spec, closed_form=False)
        scale = pref * g.m * g.m * np.pi
        return SpectralValue(sin2 * (scale * (0.5 * total)),
                             sin2 * (scale * (0.5 * err)))

    sep = separable_profiles(g)
    if sep is not None and method == "auto":
        return _separable_spectrum(sep, "torque", p, spec, consts)

    def f3(kx, ky, kz):
        k = np.stack([kx, ky, kz], axis=-1)
        deriv = form_factor_angular_derivative(g, k)
        k2 = kx * kx + ky * ky + kz * kz
        return np.abs(deriv) ** 2 * np.exp(-k2 * rC * rC)

    val, err = integrate_k3(f3, rC, spec, symmetry="none",
                            oscillation_scale=g.largest_dimension or None)
    return SpectralValue(pref * val, pref * err)


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
