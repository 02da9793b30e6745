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
"""

import functools

import numpy as np

from cslbounds import CONSTANTS, QuadratureSpec, cslnoise
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


def _spectrum(f3, p, spec, scale):
    val, err = integrate_ball(f3, p.rC, spec, scale or None)
    pref = cslnoise._prefactor(p, CONSTANTS)
    return cslnoise.SpectralValue(pref * val, pref * err)


def force(g, p, spec=None):
    """The force spectrum of g over the full 3D ball."""
    def f3(kx, ky, kz):
        k = np.stack([kx, ky, kz], axis=-1)
        k2 = kx * kx + ky * ky + kz * kz
        return np.abs(form_factor(g, k)) ** 2 * np.exp(-k2 * p.rC * p.rC) \
            * kx * kx

    return _spectrum(f3, p, spec, g.largest_dimension)


def two_body(g, p, a, spec=None):
    """The two-body spectrum of two copies of g separated by a along x,
    over the full 3D ball."""
    def f3(kx, ky, kz):
        k = np.stack([kx, ky, kz], axis=-1)
        k2 = kx * kx + ky * ky + kz * kz
        return np.abs(form_factor(g, k)) ** 2 * np.exp(-k2 * p.rC ** 2) \
            * kx * kx * (1.0 - np.cos(a * kx))

    return _spectrum(f3, p, spec, max(g.largest_dimension, a))


def torque(g, p, spec=None):
    """The torque spectrum of g about x over the full 3D ball."""
    def f3(kx, ky, kz):
        k = np.stack([kx, ky, kz], axis=-1)
        k2 = kx * kx + ky * ky + kz * kz
        return np.abs(form_factor_angular_derivative(g, k)) ** 2 \
            * np.exp(-k2 * p.rC * p.rC)

    return _spectrum(f3, p, spec, g.largest_dimension)
