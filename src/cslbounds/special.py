"""Special functions needed by the form factors.

J0 and J1 come from scipy.special (Cephes-based ufuncs); bessel_j1 is a
thin wrapper that keeps the scalar-in / scalar-out behavior of the rest
of this module.  scipy.special is imported by the Bessel helpers on
their first call, not here: it takes longer to import than the rest of
the package, and commands that evaluate no Bessel function never load it.

sinc-style helpers and the two-body averages of 1 - cos carry series
fallbacks near zero to avoid cancellation.
"""

from math import factorial

import numpy as np


def bessel_j1(x):
    """Bessel function of the first kind, order one.

    Accepts scalars or arrays; returns the same shape (a numpy float for
    a scalar).
    """
    import scipy.special
    return scipy.special.j1(np.asarray(x, dtype=float))


def sinc(x):
    """sin(x)/x with the removable singularity handled by a series.

    Below |x| < 1e-4 the 3-term Taylor series is exact to double precision
    and avoids the 0/0 evaluation.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)   # dummy to keep the division finite
    x2 = x * x
    series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return np.where(small, series, np.sin(xs) / xs)


def sinc_prime(x):
    """d/dx [sin(x)/x] = (cos(x) - sinc(x))/x, series below |x| < 1e-4."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    x2 = x * x
    series = -x / 3.0 + x * x2 / 30.0
    return np.where(small, series, (np.cos(xs) - np.sin(xs) / xs) / xs)


def jinc(x):
    """2 J1(x)/x, the circular-aperture kernel; equals 1 at x = 0.

    Series below |x| < 1e-4: 1 - x^2/8 + x^4/192.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    x2 = x * x
    series = 1.0 - x2 / 8.0 + x2 * x2 / 192.0
    return np.where(small, series, 2.0 * bessel_j1(xs) / xs)


def jinc_prime(x):
    """d/dx [2 J1(x)/x] = 2 (x J0(x) - 2 J1(x)) / x^2.

    Uses J1' = J0 - J1/x; series below |x| < 1e-4: -x/4 + x^3/48.
    """
    import scipy.special
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    series = -x / 4.0 + x ** 3 / 48.0
    full = 2.0 * (xs * scipy.special.j0(xs) - 2.0 * bessel_j1(xs)) / (xs * xs)
    return np.where(small, series, full)


def sphere_kernel(u):
    """3 (sin u - u cos u) / u^3, the homogeneous-sphere kernel; 1 at u = 0.

    Series below |u| < 1e-3: 1 - u^2/10 + u^4/280.
    """
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-3
    us = np.where(small, 1.0, u)
    u2 = u * u
    series = 1.0 - u2 / 10.0 + u2 * u2 / 280.0
    full = 3.0 * (np.sin(us) - us * np.cos(us)) / us ** 3
    return np.where(small, series, full)


def _series_below_1(x, coef, t_scale, full):
    """sum_{k=1}^{10} coef(k) (t_scale x^2)^k below |x| < 1, full(x) above."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1.0
    t = t_scale * x * x
    series = np.zeros_like(t)
    for k in range(10, 0, -1):
        series = (series + coef(k)) * t
    return np.where(small, series, full(np.where(small, 1.0, x)))


def one_minus_j0(x):
    """1 - J0(x) = <1 - cos(x cos phi)> over phi in [0, 2 pi)."""
    import scipy.special
    return _series_below_1(x, lambda k: (-1) ** (k + 1) / factorial(k) ** 2,
                           0.25, lambda xs: 1.0 - scipy.special.j0(xs))


def ring_cos2_kernel(x):
    """1/2 - J0(x) + J1(x)/x = <cos^2 phi (1 - cos(x cos phi))>."""
    import scipy.special
    return _series_below_1(
        x, lambda k: (-1) ** (k + 1) * (k + 0.5)
        / (factorial(k) * factorial(k + 1)), 0.25,
        lambda xs: 0.5 - scipy.special.j0(xs) + scipy.special.j1(xs) / xs)


def shell_cos2_kernel(x):
    """1 - j0(x) + 2 j2(x) = 3 <u^2 (1 - cos(x u))> over the unit sphere,
    u the cosine to a fixed axis; 3 x^2 / 10 - x^4 / 56 + ... ."""
    import scipy.special
    return _series_below_1(
        x, lambda k: (-1) ** (k + 1) * 6 * (k + 1) * (2 * k + 1)
        / factorial(2 * k + 3), 1.0,
        lambda xs: 1.0 - scipy.special.spherical_jn(0, xs)
        + 2.0 * scipy.special.spherical_jn(2, xs))
