"""The generic 3D k-space quadrature: an oracle for the reduced routes.

integrate_ball integrates f(kx, ky, kz) over the ball |k| <=
cutoff_factor / rC, with no symmetry assumed: an adaptive radial
integral (cslbounds.quadrature.integrate_1d) of angular averages from a
Gauss-Legendre x periodic-trapezoid product rule whose order is doubled
until converged.  force, two_body and torque evaluate the three spectra
of any body from its form factor (geometry.form_factor and
form_factor_angular_derivative) over the full ball: slow, but
independent of every route in cslnoise, which reduces each body to 1D
moments, pair sums or one radial integral first.

broadcast_sums evaluates a point lattice's three pair sums by the
kernels' textbook formulas over full rows of pairs, every ordered pair
once, and pair_scales gives the scales their errors are measured in:
the reference for cslnoise's tiled pair sums, which skip far tile pairs.
"""

import functools
import math

import numpy as np

from cslbounds import (Cuboid, Cylinder, Multilayer, PointLattice,
                       QuadratureSpec, Sphere, cslnoise)
from cslbounds.geometry import form_factor, form_factor_angular_derivative
from cslbounds.quadrature import NonConvergence, integrate_1d


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Read-only Gauss-Legendre nodes and weights of order n on [-1, 1]
    (a dense eigenvalue solve, so computed once per order)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def angular_average(f, r, rel_tol):
    """Mean of f over the sphere at each radius in r, by order doubling.

    Gauss-Legendre in cos(theta) crossed with a uniform (hence spectrally
    accurate, periodic) grid in phi, evaluated over chunks of radii, so
    that memory stays fixed.  Raises NonConvergence, carrying the
    averages, if order 512 has not converged.
    """
    r = np.asarray(r, dtype=float)
    prev = None
    n = 16
    while True:
        ct, wt = _gauss_legendre(n)
        st = np.sqrt(1.0 - ct * ct)[:, None]
        phi = np.arange(n) * (2.0 * np.pi / n)
        ux, uy = st * np.cos(phi), st * np.sin(phi)
        uz = np.broadcast_to(ct[:, None], ux.shape)
        avg = np.empty_like(r)
        step = max(1, (1 << 18) // (n * n))   # 2 MiB per float array
        for i in range(0, r.size, step):
            rr = r[i:i + step, None, None]
            vals = f(rr * ux, rr * uy, rr * uz)
            avg[i:i + step] = np.einsum("ijk,j->i", vals, wt) / (2.0 * n)
        if prev is not None:
            change = np.max(np.abs(avg - prev))
            target = 0.3 * rel_tol * (np.max(np.abs(avg)) or 1.0)
            if change <= target:
                return avg
            if n >= 512:
                raise NonConvergence(f"angular average unconverged at "
                                     f"order {n}", avg, change)
        prev = avg
        n *= 2


def integrate_ball(f, rC, spec=None, oscillation_scale=None):
    """Integrate f(kx, ky, kz) over the ball |k| <= cutoff_factor / rC.

    oscillation_scale: largest body dimension L; radial panels are then
    started at half the period of the fastest sin(kL/2)^2 factor.
    Returns (value, error_estimate).
    """
    if spec is None:
        spec = QuadratureSpec()
    width = None
    if oscillation_scale is not None and oscillation_scale > 0:
        width = np.pi / oscillation_scale

    def radial(k):
        return 4.0 * np.pi * k * k * angular_average(f, k, spec.rel_tol)

    return integrate_1d(radial, 0.0, spec.cutoff_factor / rC, spec.rel_tol,
                        spec.abs_tol, spec.max_evals, max_panel_width=width)


def size(g):
    """The largest dimension of g: a sphere's diameter, a box's longest
    side, the longer of a cylinder's diameter and length, the widest
    span of a lattice along x, y or z; 0 for a point.  It sizes the
    oracle's radial panels and the scale tests draw rC and a from."""
    if isinstance(g, Sphere):
        return 2.0 * g.R
    if isinstance(g, Cuboid):
        return max(g.Lx, g.Ly, g.Lz)
    if isinstance(g, Cylinder):
        return max(2.0 * g.R, g.L)
    if isinstance(g, Multilayer):
        return max(g.Lx, g.Ly, g.stack_thickness)
    if isinstance(g, PointLattice) and g.masses.size > 1:
        return float(np.max(np.ptp(g.positions, axis=0)))
    return 0.0


def _spectrum(f3, p, spec, scale):
    val, err = integrate_ball(f3, p.rC, spec, scale or None)
    pref = cslnoise._prefactor(p)
    return cslnoise.SpectralValue(pref * val, pref * err)


def force(g, p, spec=None):
    """The force spectrum of g over the full 3D ball."""
    def f3(kx, ky, kz):
        k = np.stack([kx, ky, kz], axis=-1)
        k2 = kx * kx + ky * ky + kz * kz
        return np.abs(form_factor(g, k)) ** 2 * np.exp(-k2 * p.rC * p.rC) \
            * kx * kx

    return _spectrum(f3, p, spec, size(g))


def two_body(g, p, a, spec=None):
    """The two-body spectrum of two copies of g separated by a along x,
    over the full 3D ball."""
    def f3(kx, ky, kz):
        k = np.stack([kx, ky, kz], axis=-1)
        k2 = kx * kx + ky * ky + kz * kz
        return np.abs(form_factor(g, k)) ** 2 * np.exp(-k2 * p.rC ** 2) \
            * kx * kx * (1.0 - np.cos(a * kx))

    return _spectrum(f3, p, spec, max(size(g), a))


def torque(g, p, spec=None):
    """The torque spectrum of g about x over the full 3D ball."""
    def f3(kx, ky, kz):
        k = np.stack([kx, ky, kz], axis=-1)
        k2 = kx * kx + ky * ky + kz * kz
        return np.abs(form_factor_angular_derivative(g, k)) ** 2 \
            * np.exp(-k2 * p.rC * p.rC)

    return _spectrum(f3, p, spec, size(g))


# ---------------------------------------------------------------------------
# point-lattice pair sums by full-row broadcast, no tiles and no skipping

def broadcast_pair_sum(pos, m, kernel):
    """Reference pair sum: (512, N, 3) difference blocks over full rows,
    every ordered pair evaluated once; each block's terms are summed
    pairwise (np.sum), so the sum's rounding stays near eps log2(N^2)
    of the sum of their absolute values."""
    parts = []
    for start in range(0, len(m), 512):
        sl = slice(start, start + 512)
        d = pos[sl, None, :] - pos[None, :, :]
        parts.append(float(np.sum(m[sl, None] * m * kernel(sl, d))))
    return math.fsum(parts)


def broadcast_force_kernel(d, rC):
    c = 1.0 / (2.0 * rC * rC)
    d2 = np.einsum("ijk,ijk->ij", d, d)
    return c * (1.0 - d[..., 0] ** 2 * c) * np.exp(-d2 * c / 2.0)


def broadcast_sums(pos, m, rC, a):
    """(force, torque, two-body) sums by the broadcast formulas."""
    shift = np.array([a, 0.0, 0.0])
    y, z = pos[:, 1], pos[:, 2]
    q = 1.0 / (4.0 * rC ** 4)

    def torque(sl, d):
        yi, zi = y[sl, None], z[sl, None]
        gauss = np.exp(-np.einsum("ijk,ijk->ij", d, d) / (4.0 * rC * rC))
        dy, dz = d[..., 1], d[..., 2]
        return gauss * (zi * z * (0.5 / rC ** 2 - dy * dy * q)
                        + yi * y * (0.5 / rC ** 2 - dz * dz * q)
                        + (zi * y + yi * z) * dy * dz * q)

    def two_body(sl, d):
        return broadcast_force_kernel(d, rC) - 0.5 * (
            broadcast_force_kernel(d + shift, rC)
            + broadcast_force_kernel(d - shift, rC))

    return (broadcast_pair_sum(pos, m, lambda sl, d:
                               broadcast_force_kernel(d, rC)),
            broadcast_pair_sum(pos, m, torque),
            broadcast_pair_sum(pos, m, two_body))


def pair_scales(pos, m, rC):
    """{"force", "torque", "two_body"}: c (sum m)^2, times R_max^2 for
    the torque (R_max the largest distance from the x axis), which bound
    the sums of the absolute values of each sum's terms up to a factor
    of order one; the tiled sums' skipped terms stay below 1e-16 of
    them."""
    force = float(np.sum(m)) ** 2 / (2.0 * rC * rC)
    r_max = float(np.max(np.hypot(pos[:, 1], pos[:, 2])))
    return {"force": force, "torque": force * r_max * r_max,
            "two_body": force}
