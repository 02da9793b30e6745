"""Dual-route checks of the small special-function kernels."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import j0

import masked_special as masked
from cslbounds import special
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


@pytest.mark.filterwarnings("error")
def test_sphere_kernel_finite_and_quiet_at_huge_arguments():
    """Where u^3 overflows, from |u| = 5.6e102 to the largest float, the
    kernel is finite, within its envelope 3 / u^2, and warns nothing."""
    us = np.array([6e102, -6e102, 1e200, -1e200, 7e307, -7e307,
                   np.finfo(float).max, -np.finfo(float).max])
    for got in (sphere_kernel(us), [sphere_kernel(u) for u in us]):
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got) <= 3.0 / us / us)


def test_sphere_kernel_bits_unchanged_below_1e100():
    """On 10^5 log-spaced u in [1e-8, 1e12], past every argument the
    library reaches, and just below 1e100, where the large-argument form
    takes over, the kernel is its masked series-and-formula form bit for
    bit."""
    u = np.append(np.logspace(-8.0, 12.0, 100_000), np.nextafter(1e100, 0.0))
    with np.errstate(over="ignore"):   # the masked form's series at 1e100
        want = masked.sphere_kernel(u)
    assert masked.same_bits(sphere_kernel(u), want)


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


# ---------------------------------------------------------------------------
# in-place kernels against their masked np.where form (masked_special.py)

def _probe_arguments(seed):
    """Exact zeros, both sides of every series switch (1e-4, 1e-3, 1),
    generic and large arguments, all with both signs."""
    rng = np.random.default_rng(seed)
    edges = []
    for t in (1e-4, 1e-3, 1.0):
        edges += [t, np.nextafter(t, 0.0), np.nextafter(t, 2.0 * t)]
        edges += list(t * (1.0 + rng.uniform(-1e-3, 1e-3, 8)))
    x = np.concatenate([
        [0.0, 5e-324, 1e-300], edges, rng.uniform(0.0, 12.0, 200),
        10.0 ** rng.uniform(-9.0, 2.0, 200),
        10.0 ** rng.uniform(2.0, 12.0, 40), [1e15, 1e30, 1e90]])
    x = np.concatenate([x, -x])
    return x[rng.permutation(x.size)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", masked.KERNELS)
def test_kernels_bit_identical_to_masked_form(name):
    new, masked_form = getattr(special, name), getattr(masked, name)

    def old(x):
        # the masked form also sums its series at large x, where x^4
        # overflows; the in-place kernels warn about nothing here
        with np.errstate(over="ignore"):
            return masked_form(x)

    x = _probe_arguments(masked.KERNELS.index(name))
    assert masked.same_bits(new(x), old(x))
    grid = x[:600].reshape(20, 30)
    assert masked.same_bits(new(grid), old(grid))
    assert masked.same_bits(new(grid.T), old(grid.T))   # strided
    for v in (0.0, -0.0, 1e-4, np.nextafter(1e-4, 0.0), 1e-3, 1.0, -2.5,
              1e6):
        assert masked.same_bits(new(v), old(v)), v
        assert masked.same_bits(new(np.float64(v)), old(np.float64(v))), v
        assert masked.same_bits(new(np.array(v)), old(np.array(v))), v


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", masked.KERNELS)
def test_kernels_warn_nothing_at_zero(name):
    """The generic formulas divide 0 by 0 at x = 0 before the series
    replaces them; that stays silent even when warnings are errors."""
    kernel = getattr(special, name)
    for x in (0.0, -0.0, np.zeros(4), np.array([[0.0, 2.0], [-0.0, 1e-5]])):
        assert np.all(np.isfinite(kernel(x)))


@pytest.mark.filterwarnings("error")
def test_shell_kernel_quiet_past_sphere_kernel_overflow():
    """Past |x| = 5.6e102 sphere_kernel's u^3 overflows; the shell kernel
    built on it stays 1 to double precision and warns nothing, as it did
    when it came from scipy's spherical_jn."""
    x = np.array([1e103, -1e200, 1e300])
    assert np.array_equal(shell_cos2_kernel(x), np.ones(3))


def test_kernels_leave_their_argument_alone():
    x = _probe_arguments(99)
    before = x.copy()
    for name in masked.KERNELS:
        getattr(special, name)(x)
    assert masked.same_bits(x, before)


# ---------------------------------------------------------------------------
# what the library asks of scipy.special

def test_library_takes_six_functions_from_scipy_special():
    """The library's scipy.special names, as `from scipy.special import`
    or `scipy.special.<name>`, are exactly these six: the spherical
    Bessel functions are sinc and sphere_kernel, e^{-x} I_n is i0e or
    i1e, and no _ive wraps scipy's ive."""
    names, defined = set(), set()
    for path in Path(special.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "scipy.special":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) \
                    and ast.unparse(node.value) == "scipy.special":
                names.add(node.attr)
            elif isinstance(node, ast.FunctionDef):
                defined.add(node.name)
    assert names == {"j0", "j1", "erf", "erfc", "i0e", "i1e"}
    assert "_ive" not in defined


def test_sphere_two_body_leaves_scipy_special_unloaded():
    """An unsaturated sphere two-body spectrum, whose integrand is the
    shell kernel, loads no scipy.special: j0 and j2 are sinc and
    sphere_kernel - sinc."""
    code = (
        "import sys\n"
        "from cslbounds import (CollapseParams, Sphere, TwoBody,\n"
        "                       csl_force_spectrum_two_body)\n"
        "s = csl_force_spectrum_two_body(TwoBody(Sphere(1e-12, 5e-7), 1e-6),"
        " CollapseParams(1e-16, 1e-7))\n"
        "print(float(s) > 0, 'scipy.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "True False\n"
