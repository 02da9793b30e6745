"""Special functions needed by the form factors.

J0 and J1 come from scipy.special (Cephes-based ufuncs); bessel_j1 is a
thin wrapper that keeps the scalar-in / scalar-out behavior of the rest
of this module.

sinc-style helpers carry series fallbacks near zero to avoid cancellation.
"""

import numpy as np
from scipy.special import j0 as _j0
from scipy.special import j1 as _j1


def bessel_j1(x):
    """Bessel function of the first kind, order one.

    Accepts scalars or arrays; returns the same shape (a numpy float for
    a scalar).
    """
    return _j1(np.asarray(x, dtype=float))


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
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    series = -x / 4.0 + x ** 3 / 48.0
    full = 2.0 * (xs * _j0(xs) - 2.0 * bessel_j1(xs)) / (xs * xs)
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
