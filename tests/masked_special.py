"""The special-function kernels in their masked np.where form: both the
series and the generic formula (at a dummy argument 1 where the series
applies) over the whole array.  cslbounds.special computes the same
operations per element in place; the tests compare the two bit for bit.
"""

from math import factorial

import numpy as np
import scipy.special


def sinc(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    x2 = x * x
    series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return np.where(small, series, np.sin(xs) / xs)


def sinc_prime(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    x2 = x * x
    series = -x / 3.0 + x * x2 / 30.0
    return np.where(small, series, (np.cos(xs) - np.sin(xs) / xs) / xs)


def jinc(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    x2 = x * x
    series = 1.0 - x2 / 8.0 + x2 * x2 / 192.0
    return np.where(small, series, 2.0 * scipy.special.j1(xs) / xs)


def jinc_prime(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    series = -x / 4.0 + x ** 3 / 48.0
    full = 2.0 * (xs * scipy.special.j0(xs) - 2.0 * scipy.special.j1(xs)) \
        / (xs * xs)
    return np.where(small, series, full)


def sphere_kernel(u):
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-3
    us = np.where(small, 1.0, u)
    u2 = u * u
    series = 1.0 - u2 / 10.0 + u2 * u2 / 280.0
    full = 3.0 * (np.sin(us) - us * np.cos(us)) / us ** 3
    return np.where(small, series, full)


def _series_below_1(x, coef, t_scale, full):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1.0
    t = t_scale * x * x
    series = np.zeros_like(t)
    for k in range(10, 0, -1):
        series = (series + coef(k)) * t
    return np.where(small, series, full(np.where(small, 1.0, x)))


def one_minus_j0(x):
    return _series_below_1(x, lambda k: (-1) ** (k + 1) / factorial(k) ** 2,
                           0.25, lambda xs: 1.0 - scipy.special.j0(xs))


def ring_cos2_kernel(x):
    return _series_below_1(
        x, lambda k: (-1) ** (k + 1) * (k + 0.5)
        / (factorial(k) * factorial(k + 1)), 0.25,
        lambda xs: 0.5 - scipy.special.j0(xs) + scipy.special.j1(xs) / xs)


def shell_cos2_kernel(x):
    return _series_below_1(
        x, lambda k: (-1) ** (k + 1) * 6 * (k + 1) * (2 * k + 1)
        / factorial(2 * k + 3), 1.0,
        lambda xs: 1.0 - 3.0 * sinc(xs) + 2.0 * sphere_kernel(np.abs(xs)))


KERNELS = ("sinc", "sinc_prime", "jinc", "jinc_prime", "sphere_kernel",
           "one_minus_j0", "ring_cos2_kernel", "shell_cos2_kernel")


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so -0.0 != 0.0 and a
    NaN equals only the same NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype == np.float64 \
        and np.array_equal(a.view(np.int64), b.view(np.int64))
