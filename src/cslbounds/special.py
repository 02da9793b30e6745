"""Special functions needed by the form factors.

J0 and J1 come from scipy.special (Cephes-based ufuncs), J1 always
through bessel_j1, a wrapper that keeps the scalar-in / scalar-out
behavior of this module; the spherical j0 and j2 are sinc and
sphere_kernel - sinc.  scipy.special is imported by the Bessel helpers
on their first call, not here: it takes longer to import than the rest
of the package, and commands that evaluate no Bessel function skip it.

sinc-style helpers and the two-body averages of 1 - cos carry series
fallbacks near zero to avoid cancellation.  Each computes its generic
formula over the whole array in place, then overwrites the small
arguments with the series (_patch).  An array of any layout gives, for
each element, the bits of that element evaluated alone.
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


def _small(x, limit):
    """The mask |x| < limit, or None where no entry is that small."""
    small = np.abs(x) < limit
    return small if np.count_nonzero(small) else None


def _patch(out, x, small, series):
    """Overwrite the entries of out where the mask small (from _small) is
    set by series(x) there.

    The generic formulas below are evaluated over the whole array, in
    place into out, with their 0/0 at x = 0 silenced; each element then
    holds the branch its own mask picks, with the bits it has when
    evaluated alone as a Python float.
    """
    if small is not None:
        out[small] = series(x[small])
    return out


def _sinc_series(x):
    x2 = x * x
    return 1.0 - x2 / 6.0 + x2 * x2 / 120.0


def sinc(x):
    """sin(x)/x with the removable singularity handled by a series.

    Below |x| < 1e-4 the 3-term Taylor series is exact to double precision
    and replaces the 0/0 at x = 0.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(x, out=np.empty_like(x))
        out /= x
    return _patch(out, x, _small(x, 1e-4), _sinc_series)


def _sinc_prime_series(x):
    return -x / 3.0 + x * (x * x) / 30.0


def sinc_pair(x):
    """(sinc(x), sinc'(x)) with sin(x)/x computed once: sinc' = (cos(x) -
    sinc(x))/x, series below |x| < 1e-4 for both."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.sin(x, out=np.empty_like(x))
        value /= x
        slope = np.cos(x, out=np.empty_like(x))
        slope -= value
        slope /= x
    small = _small(x, 1e-4)
    return (_patch(value, x, small, _sinc_series),
            _patch(slope, x, small, _sinc_prime_series))


def sinc_prime(x):
    """d/dx [sin(x)/x] = (cos(x) - sinc(x))/x, series below |x| < 1e-4."""
    return sinc_pair(x)[1]


def _jinc_series(x):
    x2 = x * x
    return 1.0 - x2 / 8.0 + x2 * x2 / 192.0


def jinc(x):
    """2 J1(x)/x, the circular-aperture kernel; equals 1 at x = 0.

    Series below |x| < 1e-4: 1 - x^2/8 + x^4/192.
    """
    x = np.asarray(x, dtype=float)
    out = np.asarray(bessel_j1(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        out *= 2.0
        out /= x
    return _patch(out, x, _small(x, 1e-4), _jinc_series)


def _jinc_prime_series(x):
    return -x / 4.0 + x ** 3 / 48.0


def jinc_pair(x):
    """(jinc(x), jinc'(x)) with J1 computed once: jinc' = d/dx [2 J1(x)/x]
    = 2 (x J0(x) - 2 J1(x)) / x^2 by J1' = J0 - J1/x; series below
    |x| < 1e-4 for both (jinc' -x/4 + x^3/48)."""
    import scipy.special
    x = np.asarray(x, dtype=float)
    value = np.asarray(bessel_j1(x))
    value *= 2.0
    slope = scipy.special.j0(x, out=np.empty_like(x))
    slope *= x
    slope -= value
    slope *= 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        slope /= np.multiply(x, x)
        value /= x
    small = _small(x, 1e-4)
    return (_patch(value, x, small, _jinc_series),
            _patch(slope, x, small, _jinc_prime_series))


def jinc_prime(x):
    """d/dx [2 J1(x)/x], series below |x| < 1e-4."""
    return jinc_pair(x)[1]


def _sphere_series(u):
    u2 = u * u
    return 1.0 - u2 / 10.0 + u2 * u2 / 280.0


def _sphere_far(u):
    return 3.0 * (np.sin(u) / u - np.cos(u)) / u / u


def sphere_kernel(u):
    """3 (sin u - u cos u) / u^3, the homogeneous-sphere kernel; 1 at u = 0.

    Series below |u| < 1e-3: 1 - u^2/10 + u^4/280.  From |u| >= 1e100,
    short of u^3's overflow at 5.6e102, 3 (sin u / u - cos u) / u / u,
    which underflows to 0 where the formula would give inf/inf.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.cos(u, out=np.empty_like(u))
        out *= u
        tmp = np.sin(u, out=np.empty_like(u))
        np.subtract(tmp, out, out=out)
        out *= 3.0
        out /= np.power(u, 3, out=tmp)
    far = np.abs(u) >= 1e100
    _patch(out, u, far if np.count_nonzero(far) else None, _sphere_far)
    return _patch(out, u, _small(u, 1e-3), _sphere_series)


def _series_below_1(x, coef, t_scale, full):
    """sum_{k=1}^{10} coef(k) (t_scale x^2)^k below |x| < 1, full(x) above."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 at x = 0
        out = np.asarray(full(x))

    def series(xs):
        t = t_scale * xs * xs
        total = np.zeros_like(t)
        for k in range(10, 0, -1):
            total += coef(k)
            total *= t
        return total

    return _patch(out, x, _small(x, 1.0), series)


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
        lambda xs: 0.5 - scipy.special.j0(xs) + bessel_j1(xs) / xs)


def shell_cos2_kernel(x):
    """1 - j0(x) + 2 j2(x) = 3 <u^2 (1 - cos(x u))> over the unit sphere,
    u the cosine to a fixed axis; 3 x^2 / 10 - x^4 / 56 + ... .  Above
    |x| >= 1, 1 - 3 sinc(x) + 2 sphere_kernel(|x|): |x| since
    sphere_kernel is even only to rounding."""
    return _series_below_1(
        x, lambda k: (-1) ** (k + 1) * 6 * (k + 1) * (2 * k + 1)
        / factorial(2 * k + 3), 1.0,
        lambda xs: 1.0 - 3.0 * sinc(xs) + 2.0 * sphere_kernel(np.abs(xs)))
