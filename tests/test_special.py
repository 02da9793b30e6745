"""Dual-route checks of the small special-function kernels."""

import math

import numpy as np
import pytest
from scipy.special import j0

from cslbounds.special import (bessel_j1, jinc, jinc_prime, one_minus_j0,
                               ring_cos2_kernel, shell_cos2_kernel, sinc,
                               sinc_prime, sphere_kernel)


def j1_series(x, terms=40):
    """Ascending series J1(x) = sum_m (-1)^m (x/2)^{2m+1} / (m! (m+1)!).

    Independent oracle for the rational approximation; converges for the
    |x| <= 20 range it is used on.
    """
    total = 0.0
    term = x / 2.0
    for m in range(terms):
        total += term
        term *= -(x / 2.0) ** 2 / ((m + 1) * (m + 2))
    return total


def test_j1_reference_values():
    # handbook values
    assert bessel_j1(1.0) == pytest.approx(0.4400505857449335, abs=1e-12)
    assert bessel_j1(10.0) == pytest.approx(0.04347274616886144, abs=1e-10)
    assert bessel_j1(0.0) == 0.0


def test_j1_matches_ascending_series():
    # range limited to |x| <= 12 where the alternating series itself
    # keeps ~12 digits (its peak terms grow like (x/2)^{2m+1}/m!(m+1)!)
    xs = np.linspace(-12.0, 12.0, 4001)
    got = bessel_j1(xs)
    want = np.array([j1_series(float(x)) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-10


def test_j1_large_argument_against_scipy_recurrence():
    # for |x| beyond the series range, check the derivative recurrence
    # J1'(x) = J0(x) - J1(x)/x via central differences
    xs = np.linspace(5.0, 1e4, 997)
    h = 1e-5
    fd = (bessel_j1(xs + h) - bessel_j1(xs - h)) / (2.0 * h)
    rec = j0(xs) - bessel_j1(xs) / xs
    assert np.max(np.abs(fd - rec)) < 1e-6


def test_j1_odd_symmetry():
    xs = np.linspace(0.1, 30.0, 500)
    assert np.allclose(bessel_j1(-xs), -bessel_j1(xs), rtol=0, atol=1e-15)


def test_sinc_small_and_generic():
    assert sinc(0.0) == 1.0
    x = 1e-9
    assert sinc(x) == pytest.approx(1.0 - x * x / 6.0, rel=1e-15, abs=0.0)
    x = 2.3
    assert sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-14, abs=0.0)


def test_sinc_prime_matches_finite_difference():
    xs = np.concatenate([np.linspace(-8, 8, 801), [1e-10, -1e-10]])
    h = 1e-6
    fd = (sinc(xs + h) - sinc(xs - h)) / (2.0 * h)
    assert np.max(np.abs(sinc_prime(xs) - fd)) < 1e-8


def test_jinc_values_and_series():
    assert jinc(0.0) == 1.0
    x = 1e-5
    assert jinc(x) == pytest.approx(1.0 - x * x / 8.0, rel=1e-12, abs=0.0)
    x = 3.7
    assert jinc(x) == pytest.approx(2.0 * bessel_j1(x) / x, rel=1e-14, abs=0.0)
    # first zero of J1 at 3.8317...
    assert jinc(3.8317059702075125) == pytest.approx(0.0, abs=1e-12)


def test_jinc_prime_matches_finite_difference():
    xs = np.concatenate([np.linspace(-10, 10, 901), [1e-9]])
    h = 1e-6
    fd = (jinc(xs + h) - jinc(xs - h)) / (2.0 * h)
    assert np.max(np.abs(jinc_prime(xs) - fd)) < 1e-8


def test_sphere_kernel_series_and_generic():
    assert sphere_kernel(0.0) == 1.0
    u = 1e-5
    assert sphere_kernel(u) == pytest.approx(1.0 - u * u / 10.0, rel=1e-12,
                                             abs=0.0)
    u = 4.2
    want = 3.0 * (math.sin(u) - u * math.cos(u)) / u ** 3
    assert sphere_kernel(u) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_sphere_kernel_is_even_and_bounded():
    us = np.linspace(-40, 40, 2001)
    vals = sphere_kernel(us)
    assert np.allclose(vals, sphere_kernel(-us), atol=1e-15)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def _mp_kernels():
    import mpmath as mp
    half = mp.mpf(1) / 2
    return mp, {
        one_minus_j0: lambda x: 1 - mp.besselj(0, x),
        ring_cos2_kernel: lambda x: half - mp.besselj(0, x)
        + mp.besselj(1, x) / x,
        # j0 = sin x / x, j2 = sqrt(pi / 2x) J_{5/2}(x)
        shell_cos2_kernel: lambda x: 1 - mp.sin(x) / x
        + 2 * mp.sqrt(mp.pi / (2 * x)) * mp.besselj(mp.mpf(5) / 2, x),
    }


@pytest.mark.parametrize("name", ["one_minus_j0", "ring_cos2_kernel",
                                  "shell_cos2_kernel"])
def test_small_argument_kernels_match_mpmath(name):
    """Each kernel against 50-digit mpmath on both sides of its series
    switch at |x| = 1, from deep in the series range to large x.  The
    oracle's working precision grows with the cancellation, x^-2."""
    mp, oracles = _mp_kernels()
    kernel = {f.__name__: f for f in oracles}[name]
    rng = np.random.default_rng(["one_minus_j0", "ring_cos2_kernel",
                                 "shell_cos2_kernel"].index(name))
    xs = np.concatenate([
        10.0 ** rng.uniform(-8, 2, 300),
        1.0 + rng.uniform(-0.05, 0.05, 100),
        [1.0, np.nextafter(1.0, 0.0), 1e-150, 0.5, 2.0]])
    got = kernel(xs)
    for x, g in zip(xs, got):
        with mp.workdps(50 + int(max(0.0, -2.0 * math.log10(x)))):
            want = oracles[kernel](mp.mpf(float(x)))
        assert abs(g - want) <= 1e-14 * abs(want), (x, g, want)
    assert np.array_equal(kernel(-xs), got)
    assert kernel(0.0) == 0.0
