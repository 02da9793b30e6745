"""Dual-route checks of the small special-function kernels."""

import ast
import functools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import j0

from cslbounds import special
from cslbounds.special import (bessel_j1, jinc, jinc_prime, one_minus_j0,
                               ring_cos2_kernel, shell_cos2_kernel, sinc,
                               sinc_prime, sphere_kernel)
from oracles import KERNELS, one_by_one, same_bits


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


@functools.lru_cache(maxsize=None)
def _mp_kernels_at(a):
    """Each kernel at x = a > 0 from its defining formula in mpmath, at
    50 digits plus four per decade of a below 1: the shell kernel, with
    j0 = sinc and j2 = sphere_kernel - sinc, cancels x^2 twice."""
    import mpmath as mp
    with mp.workdps(50 + int(max(0.0, -4.0 * math.log10(a)))):
        x = mp.mpf(a)
        sin, cos, j0, j1 = mp.sin(x), mp.cos(x), mp.besselj(0, x), \
            mp.besselj(1, x)
        sinc, sphere = sin / x, 3 * (sin - x * cos) / x ** 3
        return dict(zip(KERNELS, map(float, (
            sinc, (cos - sinc) / x, 2 * j1 / x, 2 * (x * j0 - 2 * j1) / x / x,
            sphere, 1 - j0, 1 / mp.mpf(2) - j0 + j1 / x,
            1 - 3 * sinc + 2 * sphere))))


@pytest.mark.parametrize("name", ["one_minus_j0", "ring_cos2_kernel",
                                  "shell_cos2_kernel"])
def test_small_argument_kernels_match_mpmath(name):
    """Each kernel against 50-digit mpmath on both sides of its series
    switch at |x| = 1, from deep in the series range to large x."""
    kernel = getattr(special, name)
    rng = np.random.default_rng(["one_minus_j0", "ring_cos2_kernel",
                                 "shell_cos2_kernel"].index(name))
    xs = np.concatenate([
        10.0 ** rng.uniform(-8, 2, 300),
        1.0 + rng.uniform(-0.05, 0.05, 100),
        [1.0, np.nextafter(1.0, 0.0), 1e-150, 0.5, 2.0]])
    got = kernel(xs)
    for x, g in zip(xs.tolist(), got):
        want = _mp_kernels_at(x)[name]
        assert abs(g - want) <= 1e-14 * abs(want), (x, g, want)
    assert np.array_equal(kernel(-xs), got)
    assert kernel(0.0) == 0.0


# ---------------------------------------------------------------------------
# the kernels on arrays: their masked form, bit for bit, and truth

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
@pytest.mark.parametrize("name", KERNELS)
def test_kernels_bit_identical_to_masked_form(name):
    """A kernel's masked form is each element evaluated alone, as a
    Python float, on the branch its own mask picks (the series below the
    switch, the formula above): an array of 0 to 2 dimensions, C-ordered
    or transposed, gives those bits, and so do numpy scalars."""
    kernel = getattr(special, name)
    x = _probe_arguments(KERNELS.index(name))
    grid = x[:600].reshape(20, 30)
    for arr in (x, grid, grid.T):   # the transpose is strided
        assert same_bits(kernel(arr), one_by_one(kernel, arr))
    for v in (0.0, -0.0, 1e-4, np.nextafter(1e-4, 0.0), 1e-3, 1.0, -2.5,
              1e6):
        for arg in (np.float64(v), np.array(v)):
            assert same_bits(kernel(arg), one_by_one(kernel, v)), v


# (switch, {power: coefficient}) of each kernel's series below |x| < switch
SERIES = {
    "sinc": (1e-4, {0: 1.0, 2: 1 / 6, 4: 1 / 120}),
    "sinc_prime": (1e-4, {1: 1 / 3, 3: 1 / 30}),
    "jinc": (1e-4, {0: 1.0, 2: 1 / 8, 4: 1 / 192}),
    "jinc_prime": (1e-4, {1: 1 / 4, 3: 1 / 48}),
    "sphere_kernel": (1e-3, {0: 1.0, 2: 1 / 10, 4: 1 / 280}),
    "one_minus_j0": (1.0, {2 * k: 1 / (math.factorial(k) ** 2 * 4 ** k)
                           for k in range(1, 11)}),
    "ring_cos2_kernel": (1.0, {2 * k: (k + 0.5) / (
        math.factorial(k) * math.factorial(k + 1) * 4 ** k)
        for k in range(1, 11)}),
    "shell_cos2_kernel": (1.0, {2 * k: 6 * (k + 1) * (2 * k + 1)
                                / math.factorial(2 * k + 3)
                                for k in range(1, 11)}),
}
# c of each kernel's bound, c eps times its summed term magnitudes:
# twice the largest ratio on the probe arguments, 1.0 (sphere_kernel 2.0)
ACCURACY = {"sinc": 2, "sinc_prime": 2, "jinc": 2, "jinc_prime": 2,
            "sphere_kernel": 4, "one_minus_j0": 2, "ring_cos2_kernel": 2,
            "shell_cos2_kernel": 2}


def _kernel_terms(name, a):
    """The summed magnitudes of the terms of the kernel's formula at
    |x| = a: its series below the switch, else its generic formula
    (sphere_kernel's from 1e100 on).  scipy's J0 and J1 count 1 up to 5,
    where they are rational forms, and above sqrt(2 / pi a) (1 + a): the
    asymptotic form's amplitude, and its phase a - (2n + 1) pi / 4,
    whose rounding grows with a."""
    s, c = np.abs(np.sin(a)), np.abs(np.cos(a))
    b = np.where(a <= 5.0, 1.0, np.sqrt(2.0 / (np.pi * a)) * (1.0 + a))
    sphere = np.where(a < 1e100, 3 * (s + a * c) / a ** 3,
                      3 * (s / a + c) / a / a)
    formula = {"sinc": s / a, "sinc_prime": (c + s / a) / a,
               "jinc": 2 * b / a, "jinc_prime": 2 * (a + 2) * b / (a * a),
               "sphere_kernel": sphere, "one_minus_j0": 1 + b,
               "ring_cos2_kernel": 0.5 + b + b / a,
               "shell_cos2_kernel": 1 + 3 * s / a + 2 * sphere}[name]
    switch, series = SERIES[name]
    return np.where(a < switch, sum(c * a ** p for p, c in series.items()),
                    formula)


@pytest.mark.parametrize("name", KERNELS)
def test_kernels_match_mpmath(name):
    """Each kernel within c eps of 50-digit mpmath on the probe arguments,
    eps times the summed magnitudes of its formula's terms (ACCURACY);
    the sphere kernel also on log-spaced u up to 1e12, past every
    argument the library reaches, and just below 1e100, where its
    large-argument form takes over.  At x = 0 each is its limit."""
    x = _probe_arguments(0)
    if name == "sphere_kernel":
        x = np.concatenate([x, np.logspace(-8.0, 12.0, 401),
                            [np.nextafter(1e100, 0.0)]])
    got = getattr(special, name)(x)
    odd = name in ("sinc_prime", "jinc_prime")
    want = np.array([_mp_kernels_at(abs(v))[name] * (-1.0 if odd and v < 0
                                                     else 1.0)
                     if v else float(name in ("sinc", "jinc",
                                              "sphere_kernel"))
                     for v in x.tolist()])
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = ACCURACY[name] * 2.0 ** -52 * _kernel_terms(name, a)
    bound[a == 0.0] = 0.0
    assert np.all(np.abs(got - want) <= bound), \
        np.max(np.abs(got - want) / bound)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", KERNELS)
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
    for name in KERNELS:
        getattr(special, name)(x)
    assert same_bits(x, before)


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
