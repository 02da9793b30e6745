"""Closed-form Gaussian profile moments against 50-digit mpmath and the
1D quadrature oracle.

Seeded random slabs, layer stacks of 1 to 6 layers (half of them off
their centre of mass, which a profile re-centres: the centre of mass is
its only frame) and discs, with rC from 1e-3 to 1e3 times the body,
exercise both closed-form regimes (the 1/rC^2 series for bodies shorter
than rC, the edge-pair sums otherwise) and the separation kernels at
separations from 1e-2 to 30 times the body.

The rows (kind, kernel) asked of one profile at one rC and separation
come as one request, whose closed forms share their passes whatever
kernels the rows mix; each must equal, bit for bit, the same moment
computed one kind at a time (tests/per_kind_moments.py), and the
profile data they read is built once per body, never per rC.

The mpmath oracle is written independently of the library's formulas:
it sums over pairs of layers the four corner values of a mixed second
antiderivative, in 50-digit arithmetic where no cancellation matters,
takes C1 from the k-space identity C1 = rC^2 M2 - M0 / 2, and the disc
moments from their Bessel-function forms; the antiderivatives are
themselves checked by numerical differentiation.  The disc's kernel
moments (Q0m, Q2h, Q1J1) are checked against their Laguerre series in
50-digit arithmetic, itself checked against the k-plane integral.
"""

import collections
import math
import time

import mpmath as mp
import numpy as np
import pytest
import scipy.special

import per_kind_moments
from cslbounds import (CollapseParams, Cuboid, Cylinder, ExperimentRecord,
                       Multilayer, Point, PointLattice, QuadratureSpec,
                       Sphere, TwoBody,
                       csl_force_spectrum, csl_force_spectrum_two_body,
                       csl_torque_spectrum, exclusion_scan)
from cslbounds import cslnoise
from cslbounds.cslnoise import SpectralValue
from cslbounds.geometry import AxisProfile, DiscProfile
from cslbounds.quadrature import NonConvergence
from oracles import size

mp.mp.dps = 50
KERNELS = [("M0", None), ("M2", None), ("C1", None), ("D0", None),
           ("M0", cslnoise._one_minus_cos), ("M2", cslnoise._one_minus_cos),
           ("M1", np.sin)]
# a result below the smallest normal double, times the moment's scale,
# may read 0 with error 0
UNDERFLOW = 1e-290


def random_stack(rng, layers, off_centre):
    d = 10.0 ** rng.uniform(-7.5, -6.5, layers)
    rho = rng.uniform(1e3, 2e4, layers)
    edges = np.concatenate([[0.0], np.cumsum(d)])
    c = 0.5 * (edges[:-1] + edges[1:])
    c -= np.sum(rho * d * c) / np.sum(rho * d)
    if off_centre:
        c += rng.uniform(-2.0, 2.0) * edges[-1]
    return AxisProfile(float(edges[-1]), (d, rho, c))


def random_profiles(seed, count):
    """count (profile, rC, s) triples cycling over slab, centred stack
    and off-centre stack."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i % 3 == 0:
            prof = AxisProfile(10.0 ** rng.uniform(-7, -5))
        else:
            prof = random_stack(rng, int(rng.integers(1, 7)), i % 3 == 2)
        rC = prof.length * 10.0 ** rng.uniform(-3, 3)
        s = prof.length * 10.0 ** rng.uniform(-2, 1.5)
        out.append((prof, rC, s))
    return out


def _kernels(rC, s):
    """Second antiderivatives K2 (K2'' = K) of the translation-invariant
    kernels, in mpmath."""
    sqrt_pi = mp.sqrt(mp.pi)

    def gauss(u):
        return sqrt_pi / rC * mp.exp(-(u / (2 * rC)) ** 2)

    def m0(u):   # K = G
        z = u / (2 * rC)
        return 2 * mp.pi * rC * (z * mp.erf(z) + mp.exp(-z * z) / sqrt_pi)

    def m2(u):   # K = -G''
        return -gauss(u)

    return {
        ("M0", None): m0,
        ("M2", None): m2,
        ("M0", "cos"): lambda u: m0(u) - (m0(u + s) + m0(u - s)) / 2,
        ("M2", "cos"): lambda u: m2(u) - (m2(u + s) + m2(u - s)) / 2,
        # K = -G'(u + s); erfc keeps the digits of a shifted tail
        ("M1", "sin"): lambda u: mp.pi * mp.erfc((u + s) / (2 * rC)),
    }, gauss


def _d0_potential(rC):
    """Phi(x, x') with d^2 Phi / dx dx' = x x' G(x - x')."""
    sqrt_pi = mp.sqrt(mp.pi)
    m0 = _kernels(rC, 0)[0][("M0", None)]

    def phi(x, y):
        z = (x - y) / (2 * rC)
        h = 4 * mp.pi * rC ** 3 / 3 * ((1 - 2 * z * z) * mp.exp(-z * z)
                                       / sqrt_pi - 2 * z ** 3 * mp.erf(z))
        return -x * y * m0(x - y) + h
    return phi


def layer_stack(prof):
    """(thickness, density, centre) per layer of an AxisProfile; a slab
    is one layer of density 1/L at 0."""
    if prof.layers is None:
        return [prof.length], [1.0 / prof.length], [0.0]
    return prof.layers


def _tag(h):
    return {None: None, cslnoise._one_minus_cos: "cos", np.sin: "sin"}[h]


def oracle(prof, kind, rC, h=None, s=0.0):
    """The moment as a 50-digit sum over pairs of layers of the four
    corner values of a mixed second antiderivative of its kernel, with
    the layers centred on their centre of mass, the profile's frame, in
    the same arithmetic."""
    rC, s = mp.mpf(rC), mp.mpf(s)
    if kind == "C1":
        return rC ** 2 * oracle(prof, "M2", rC) - oracle(prof, "M0", rC) / 2
    if kind == "D0":
        phi = _d0_potential(rC)
    else:
        k2 = _kernels(rC, s)[0][(kind, _tag(h))]
        even = {}   # every K2 but the sine kernel's is even in u

        def phi(x, y):
            u = x - y
            if h is np.sin:
                return -k2(u)
            if abs(u) not in even:
                even[abs(u)] = k2(abs(u))
            return -even[abs(u)]
    d, rho, c = ([mp.mpf(v) for v in a] for a in layer_stack(prof))
    cbar = mp.fsum(r * t * x for t, r, x in zip(d, rho, c)) \
        / mp.fsum(r * t for t, r in zip(d, rho))
    layers = [(ci - cbar - di / 2, ci - cbar + di / 2, ri)
              for di, ri, ci in zip(d, rho, c)]
    total = mp.mpf(0)
    for a, b, r in layers:
        for a2, b2, r2 in layers:
            total += r * r2 * (phi(b, b2) - phi(b, a2) - phi(a, b2)
                               + phi(a, a2))
    return total


def disc_oracle(R, kind, rC):
    R, rC = mp.mpf(R), mp.mpf(rC)
    x = R * R / (2 * rC * rC)
    if kind == "M2":
        return 4 / (R * R * rC * rC) * mp.exp(-x) * mp.besseli(1, x)
    return 4 / (R * R) * (1 - mp.exp(-x) * (mp.besseli(0, x)
                                            + mp.besseli(1, x)))


def test_oracle_antiderivatives():
    """The oracle's potentials differentiate back to their kernels."""
    rC, s = mp.mpf("3e-7"), mp.mpf("5e-7")
    k2s, gauss = _kernels(rC, s)
    kernels = {
        ("M0", None): gauss,
        ("M2", None): lambda u: -mp.diff(gauss, u, 2),
        ("M1", "sin"): lambda u: -mp.diff(gauss, u + s),
    }
    for key, kernel in kernels.items():
        for u in (mp.mpf("-4e-7"), mp.mpf("1e-7"), mp.mpf("9e-7")):
            assert mp.almosteq(mp.diff(k2s[key], u, 2), kernel(u),
                               rel_eps=mp.mpf(10) ** -30)
    phi = _d0_potential(rC)
    for x, y in ((1e-7, -2e-7), (4e-7, 3.5e-7), (-6e-7, 8e-7)):
        x, y = mp.mpf(x), mp.mpf(y)
        assert mp.almosteq(mp.diff(phi, (x, y), (1, 1)),
                           x * y * gauss(x - y), rel_eps=mp.mpf(10) ** -30)


def test_disc_oracle_is_the_k_plane_integral():
    R, rC = mp.mpf("1e-7"), mp.mpf("2e-7")
    with mp.workdps(30):
        for kind, p in (("M0", 1), ("M2", 3)):
            want = 2 * mp.quad(lambda k: k ** p * (
                2 * mp.besselj(1, k * R) / (k * R)) ** 2
                * mp.exp(-(k * rC) ** 2), [0, 1 / rC, 4 / rC, 10 / rC])
            assert mp.almosteq(disc_oracle(R, kind, rC), want,
                               rel_eps=mp.mpf(10) ** -25)


def assert_within(value, error, exact, what):
    miss = abs(mp.mpf(value) - exact)
    assert miss <= error + UNDERFLOW, (what, value, error, float(exact))
    # well conditioned, so the reported error is also tight
    assert error <= 1e-8 * abs(float(exact)) + UNDERFLOW, \
        (what, value, error, float(exact))


def test_axis_moments_match_mpmath():
    """150 slabs and stacks, every kind of moment with every kernel, all
    in one request: each closed form lies within its reported error of
    the 50-digit value."""
    for prof, rC, s in random_profiles(11, 150):
        moments = cslnoise._closed_moment(prof, KERNELS, rC, s)
        for (kind, h), (value, error) in zip(KERNELS, moments, strict=True):
            assert_within(value, error, oracle(prof, kind, rC, h, s),
                          (prof, rC, s, kind, _tag(h)))


def test_disc_moments_match_mpmath():
    """100 random discs with rC from 1e-3 to 1e3 times R, on both sides
    of x = R^2 / 2rC^2 = 0.1, below which Q0 is the series of jinc^2:
    Q0 and Q2 lie within their reported error of the 50-digit value."""
    rng = np.random.default_rng(12)
    series = 0
    for R in 10.0 ** rng.uniform(-7, -5, 100):
        rC = R * 10.0 ** rng.uniform(-3, 3)
        series += R * R / (2.0 * rC * rC) < 0.1
        moments = cslnoise._disc_moment(DiscProfile(R), KERNELS[:2], rC, 0.0)
        for kind, (value, error) in zip(("M0", "M2"), moments, strict=True):
            assert_within(value, error, disc_oracle(R, kind, rC),
                          (R, rC, kind))
    assert 10 <= series <= 90, series


def test_disc_moments_past_ive_range_match_mpmath():
    """x = R^2 / 2rC^2 from 1e8 to 1e12, across the 2^30 above which
    scipy's ive returns NaN (i0e and i1e, which the library calls, stay
    finite): Q0 and Q2 stay within their reported error of the 50-digit
    value."""
    R = 1e-3
    for x in np.geomspace(1e8, 1e12, 17):
        rC = R / np.sqrt(2.0 * x)
        moments = cslnoise._disc_moment(DiscProfile(R), KERNELS[:2], rC, 0.0)
        for kind, (value, error) in zip(("M0", "M2"), moments, strict=True):
            assert np.isfinite(value) and np.isfinite(error)
            assert_within(value, error, disc_oracle(R, kind, rC),
                          (R, rC, kind))


def disc_kernel_oracle(R, kind, rC, s):
    """A disc's M0 or M2 times 1 - cos, or M1 times sin, averaged over
    its plane (Q0m, Q2h, Q1J1), as their Laguerre series in 50-digit
    arithmetic.  With x = R^2 / rC^2, u = s^2 / 4rC^2, E_j^(a) = e^{-u}
    L_j^(a)(u) and c_j = (-1)^j (2j+2)! / (4^j j! (j+2)! ((j+1)!)^2) the
    coefficients of jinc^2, the sum over j of c_j x^j times j! (1 - E_j),
    (j+1)! (1/2 - E_{j+1}) + j! E_j^(1) / 2 or j! E_j^(1) / 2, times
    rC^-2, rC^-4 or s rC^-4, summed until the terms fall below 1e-45 of
    the largest."""
    R, rC, s = mp.mpf(R), mp.mpf(rC), mp.mpf(s)
    x, u = (R / rC) ** 2, (s / (2 * rC)) ** 2
    decay = mp.exp(-u)
    lag0, lag1 = [mp.mpf(1), 1 - u], [mp.mpf(1), 2 - u]
    total = largest = mp.mpf(0)
    j = 0
    while True:
        k = len(lag0) - 1   # L_{j+1} and L_{j+1}^(1) by their recurrences
        lag0.append(((2 * k + 1 - u) * lag0[k] - k * lag0[k - 1]) / (k + 1))
        lag1.append(((2 * k + 2 - u) * lag1[k] - (k + 1) * lag1[k - 1])
                    / (k + 1))
        fact = mp.factorial(j)
        c = (-1) ** j * mp.factorial(2 * j + 2) / (
            4 ** j * fact * mp.factorial(j + 2) * mp.factorial(j + 1) ** 2)
        if kind == "M0":
            bracket = fact * (1 - decay * lag0[j])
        elif kind == "M2":
            bracket = fact * (j + 1) * (mp.mpf(1) / 2 - decay * lag0[j + 1]) \
                + fact / 2 * decay * lag1[j]
        else:
            bracket = fact / 2 * decay * lag1[j]
        term = c * x ** j * bracket
        total += term
        largest = max(largest, abs(term))
        if j > 3 * x + 10 and abs(term) <= mp.mpf(10) ** -45 * largest:
            break
        j += 1
    return total * {"M0": rC ** -2, "M2": rC ** -4, "M1": s * rC ** -4}[kind]


def test_disc_kernel_oracle_is_the_k_plane_integral():
    """At R = 3.3 rC and s = 4 rC the oracle's series equals 2 int k^p
    jinc^2(kR) K(sk) e^{-k^2 rC^2} dk with the kernels K of _cylinder:
    1 - J0 (p = 1), the ring kernel 1/2 - J0 + J1/x (p = 3) and J1
    (p = 2)."""
    R, rC, s = mp.mpf("3.3"), mp.mpf(1), mp.mpf(4)
    kernels = {
        "M0": (1, lambda z: 1 - mp.besselj(0, z)),
        "M2": (3, lambda z: mp.mpf(1) / 2 - mp.besselj(0, z)
               + mp.besselj(1, z) / z),
        "M1": (2, lambda z: mp.besselj(1, z)),
    }
    for kind, (p, kernel) in kernels.items():
        with mp.workdps(20):
            want = 2 * mp.quad(lambda k: k ** p * kernel(s * k) * (
                2 * mp.besselj(1, k * R) / (k * R)) ** 2
                * mp.exp(-(k * rC) ** 2), mp.linspace(0, 12 / rC, 60))
        assert mp.almosteq(disc_kernel_oracle(R, kind, rC, s), want,
                           rel_eps=mp.mpf(10) ** -18), kind


def test_disc_kernel_moments_match_mpmath():
    """240 random discs with R/rC from 1e-3 to the series' reach of 3.5
    and s/rC from 1e-4 to 60, on both sides of the small-u switch (every
    bracket summed as its series in u, some of each, all by the Laguerre
    recurrence): Q0m, Q2h and Q1J1 lie within their reported error of
    the 50-digit series.  Q0m and Q2h report at most 2e-7 of their
    value, and Q1J1, whose error is absolute, at most 1e-8 of its
    Cauchy-Schwarz bound sqrt(Q2 Q0m)."""
    rng = np.random.default_rng(23)
    sides = collections.Counter()
    for R in 10.0 ** rng.uniform(-7, -5, 240):
        rC = R / 10.0 ** rng.uniform(-3, math.log10(3.5))
        s = rC * 10.0 ** rng.uniform(-4, math.log10(60))
        u = (s / (2.0 * rC)) ** 2   # terms j with (j + 1) u <= 1 are series
        sides["series" if u <= 1 / 73 else "recurrence" if u > 1 else
              "both"] += 1
        moments = cslnoise._closed_moment(DiscProfile(R), KERNELS[4:], rC, s)
        exact = {kind: disc_kernel_oracle(R, kind, rC, s)
                 for kind in ("M0", "M2", "M1")}
        q2 = cslnoise._disc_moment(DiscProfile(R), KERNELS[1:2], rC,
                                   0.0)[0][0]
        for kind, (value, error) in zip(exact, moments, strict=True):
            what = (R, rC, s, kind, value, error, float(exact[kind]))
            assert abs(mp.mpf(value) - exact[kind]) <= error, what
            if kind == "M1":
                assert error <= 1e-8 * math.sqrt(q2 * float(exact["M0"])), \
                    what
            else:
                assert error <= 2e-7 * float(exact[kind]), what
    assert len(sides) == 3, sides


def laguerre_terms(x):
    """The number of terms n the disc kernels' Laguerre series sums at
    x = R^2 / rC^2, by its stopping rule (_disc_kernel_moment) run on
    terms computed here as far as it asks, not on the module's tables:
    the first n >= 1 at which the term ratio x (2n + 3) / 2 (n + 1)
    (n + 2) is at most 1/2 and 2^60 (n + 2)^2 |c_n n!| x^n is at most
    sum_{j<n} |c_j j!| x^j."""
    total, n = 0.0, 0
    while True:
        weight = math.comb(2 * n + 2, n + 1) / (
            4 ** n * math.factorial(n + 2)) * x ** n
        if n and x * (2 * n + 3) <= (n + 1) * (n + 2) \
                and 2.0 ** 60 * (n + 2) ** 2 * weight <= total:
            return n
        total += weight
        n += 1


def test_disc_kernel_series_fits_its_tables_at_the_reach(monkeypatch):
    """At the largest R to which _closed_pass gives the disc kernels'
    series, R = 3.5 rC as the floats compare, for 300 random rC, the
    series sums as many terms as its stopping rule asks (laguerre_terms,
    57 or 58), and that is at most the _LAGUERRE_TERMS its tables hold:
    a reach past them fails here."""
    terms = []

    def spy(u, g, n, orig=cslnoise._laguerre_scaled):
        terms.append(n)
        return orig(u, g, n)

    monkeypatch.setattr(cslnoise, "_laguerre_scaled", spy)
    rng = np.random.default_rng(25)
    for rC in 10.0 ** rng.uniform(-9, -3, 300):
        R = cslnoise._DISC_KERNEL_REACH * rC
        assert [cslnoise._closed_pass(DiscProfile(r), "M0",
                                      cslnoise._one_minus_cos, rC, 0.0)
                for r in (R, np.nextafter(R, np.inf))] \
            == [cslnoise._disc_kernel_moment, None]
        # at s = 10 rC every term takes the recurrences, to term n
        cslnoise._closed_moment(DiscProfile(R), KERNELS[4:], rC, 10.0 * rC)
        want = laguerre_terms(R * R / (rC * rC))
        assert terms[-1] == want <= cslnoise._LAGUERRE_TERMS, (rC, want)
    assert set(terms) <= {57, 58}, collections.Counter(terms)


def quadrature(prof, kind, rC, spec, h=None, s=0.0):
    """The 1D quadrature oracle's value and error; where it stops short
    of its tolerance (C1 and D0 at rC far above the body, where sinc'
    rounds, and M1 times sin at separations far beyond rC, where the
    moment is a tiny remainder) its last estimate and error bound."""
    try:
        [moment] = cslnoise._profile_moment(prof, ((kind, h),), rC, spec,
                                            False, s)
        return moment
    except NonConvergence as exc:
        return exc.estimate, exc.error


def test_closed_forms_match_quadrature():
    """Every closed form agrees with its 1D quadrature at rel_tol 1e-12
    within the sum of both reported errors.  Below rC ~ 0.03 times the
    body the quadrature's own rounding over its many panels keeps it
    from reaching 1e-12, so these rC start there."""
    spec = QuadratureSpec(rel_tol=1e-12, max_evals=100_000)
    rng = np.random.default_rng(13)
    cases = [(p, p.length * 10.0 ** rng.uniform(-1.5, 3), s)
             for p, _, s in random_profiles(14, 18)]
    for prof, rC, s in cases:
        for kind, h in KERNELS:
            [got] = cslnoise._profile_moment(prof, ((kind, h),), rC, spec,
                                             True, s)
            want = quadrature(prof, kind, rC, spec, h, s)
            assert abs(got[0] - want[0]) <= got[1] + want[1], \
                (prof, rC, s, kind, _tag(h), got, want)
    for R in 10.0 ** rng.uniform(-7, -5, 12):
        rC = R * 10.0 ** rng.uniform(-1.5, 3)
        for kind in ("M0", "M2"):
            [got] = cslnoise._profile_moment(DiscProfile(R),
                                             ((kind, None),), rC, spec)
            want = quadrature(DiscProfile(R), kind, rC, spec)
            assert abs(got[0] - want[0]) <= got[1] + want[1], \
                (R, rC, kind, got, want)


def test_moments_do_not_depend_on_the_frame():
    """60 random stacks of 1 to 6 layers, each also with its layer
    centres shifted by up to 2 lengths: a profile's only frame is its
    centre of mass, so every closed form of the shifted stack, D0
    included, agrees with the centred one within the sum of their
    reported errors, at rC from 1e-3 to 1e3 times the stack and any
    separation; so does D0 by quadrature (closed_form=False), on every
    fifth stack, at rC from 0.1 to 100 times it."""
    rng = np.random.default_rng(26)
    spec = QuadratureSpec()
    for i in range(60):
        prof = random_stack(rng, int(rng.integers(1, 7)), False)
        d, rho, c = prof.layers
        shifted = AxisProfile(prof.length, (
            d, rho, c + rng.uniform(-2.0, 2.0) * prof.length))
        rC = prof.length * 10.0 ** rng.uniform(-3, 3)
        s = prof.length * 10.0 ** rng.uniform(-2, 1.5)
        for row, a, b in zip(KERNELS,
                             cslnoise._closed_moment(prof, KERNELS, rC, s),
                             cslnoise._closed_moment(shifted, KERNELS, rC, s),
                             strict=True):
            assert abs(a[0] - b[0]) <= a[1] + b[1] + UNDERFLOW, \
                (prof, shifted, rC, s, row, a, b)
        if i % 5 == 0:
            rC = prof.length * 10.0 ** rng.uniform(-1, 2)
            a, b = (quadrature(p, "D0", rC, spec) for p in (prof, shifted))
            assert abs(a[0] - b[0]) <= a[1] + b[1], (prof, shifted, rC, a, b)


# an 8-point lattice of unequal masses, off the origin, for the sweeps
SWEEP_LATTICE = PointLattice(
    np.random.default_rng(30).uniform(-1e-6, 2e-6, (8, 3)),
    np.random.default_rng(31).uniform(1e-16, 1e-15, 8))


def test_torque_scale_sweep_is_finite():
    """The torque rows of item 10's scale sweep: a Cuboid, a cube,
    Multilayers stacked along x, y and z, an 8-point PointLattice and a
    Sphere (exactly 0), at size / rC from 1e-6 to 1e9, one point per
    decade, each return a finite value with a finite error, the whole
    sweep within 1 s.  How far the torque cancels at large rC (item 3)
    is not asserted: the cube's, and that of an x-stack with a square
    cross-section (Lx = Ly), whose relative error reaches 2e2 at
    size / rC <= 1e-4."""
    bodies = [Cuboid(1e-12, 1e-6, 2e-6, 3e-6), Cuboid(1e-12, 1e-6, 1e-6, 1e-6)]
    bodies += [Multilayer(5, 2e-7, 3e-7, 19300.0, 2330.0, 1e-6, 2e-6, axis)
               for axis in "xyz"]
    bodies += [SWEEP_LATTICE, Sphere(1e-12, 1e-6)]
    start = time.perf_counter()
    for g in bodies:
        for t in range(-6, 10):
            rC = size(g) / 10.0 ** t
            torque = csl_torque_spectrum(g, CollapseParams(1.0, rC))
            assert math.isfinite(torque) and math.isfinite(torque.error), \
                (g, rC, torque, torque.error)
    assert time.perf_counter() - start < 1.0


def test_force_and_two_body_scale_sweep_is_finite():
    """The force and two-body rows of item 10's scale sweep that finish
    fast: a Cuboid, Multilayers stacked along x, y and z, Cylinders
    along x, along y and tilted, a Point and an 8-point PointLattice, at
    size / rC from 1e-6 to 1e9, one point per decade, with the two-body
    at a = 3 size (unsaturated, then saturated along the sweep) and at
    a = size / 2, each return a finite value with a finite error, the
    whole sweep within 1 s.  A point has no size: it takes 1 um.  The
    cylinders along y and tilted take a = size / 2 only up to size / rC
    = 1e3: past the disc kernels' reach (R = 3.5 rC) those are
    quadratures.

    Cells measured to stall are left out (item 10's open defects; times
    on one core of a 2 vCPU Xeon):
    - the unsaturated two-body of these cylinders along y or tilted at
      a = R: 0.02-0.04 s at size / rC = 1e4, 2.1-2.4 s at 1e6, and
      NonConvergence after 15-16 s (5.4e7 evaluations) at 1e7;
    - the saturated two-body of Sphere(1e-12, 1e-6) at a = 3 size: 2.0 s
      at R / rC = 1e6, and NonConvergence after 9.9 s at 1e9 (item 2);
    - the tilted Cylinder(0.1, 1e-3, 1e-2) torque at rC = 1e-9:
      NonConvergence after 17 s (55,180,590 evaluations)."""
    bodies = [Cuboid(1e-12, 1e-6, 2e-6, 3e-6)]
    bodies += [Multilayer(5, 2e-7, 3e-7, 19300.0, 2330.0, 1e-6, 2e-6, axis)
               for axis in "xyz"]
    bodies += [Cylinder(1e-14, 5e-7, 2e-6, axis)
               for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0))]
    bodies += [Point(1e-15), SWEEP_LATTICE]
    start = time.perf_counter()
    for g in bodies:
        transverse = isinstance(g, Cylinder) and g.axis[0] != 1.0
        scale = size(g) or 1e-6
        for t in range(-6, 10):
            rC = scale / 10.0 ** t
            p = CollapseParams(1.0, rC)
            spectra = [csl_force_spectrum(g, p), csl_force_spectrum_two_body(
                TwoBody(g, 3.0 * scale), p)]
            if not (transverse and t > 3):
                spectra.append(csl_force_spectrum_two_body(
                    TwoBody(g, scale / 2.0), p))
            for value in spectra:
                assert math.isfinite(value) and math.isfinite(value.error), \
                    (g, rC, value, value.error)
    assert time.perf_counter() - start < 1.0


def random_bodies(seed, count):
    rng = np.random.default_rng(seed)
    bodies = []
    for i in range(count):
        if i % 3 == 0:
            g = Cuboid(1e-12, *10.0 ** rng.uniform(-6.7, -5.7, 3))
        elif i % 3 == 1:
            d1, d2 = 10.0 ** rng.uniform(-7.3, -6.7, 2)
            g = Multilayer(int(rng.integers(1, 7)), d1, d2,
                           rng.uniform(1e4, 2e4), rng.uniform(1e3, 5e3),
                           *10.0 ** rng.uniform(-6.5, -5.7, 2),
                           "xyz"[i % 9 // 3])
        else:
            g = Cylinder(1e-14, 10.0 ** rng.uniform(-7, -6),
                         10.0 ** rng.uniform(-6.7, -5.7),
                         tuple(rng.normal(size=3)))
        t = rng.uniform(-1, 2)
        rC = size(g) * 10.0 ** t
        if isinstance(g, Cylinder):   # R / rC on alternate sides of 3.5
            beyond = i // 3 % 2 == 1
            rC = g.R / 3.5 * 10.0 ** ((-t - 1) / 6 if beyond else t + 1)
        bodies.append((g, rC, size(g) * 10.0 ** rng.uniform(-1, 1)))
    return bodies


def test_spectra_match_the_quadrature_route():
    """Force, two-body and torque spectra of random Cuboids and
    Multilayers, and force and two-body spectra of random Cylinders (R
    from 3.5e-3 to 10 times rC, on both sides of the disc kernels'
    R = 3.5 rC switch), agree with the same products of 1D moments by
    quadrature within the sum of their reported errors."""
    spec = QuadratureSpec(rel_tol=1e-10)
    for g, rC, a in random_bodies(15, 18):
        p = CollapseParams(1.0, rC)
        pairs = [(csl_force_spectrum(g, p, spec),
                  csl_force_spectrum(g, p, spec, method="quadrature"))]
        two_body = csl_force_spectrum_two_body(TwoBody(g, a), p, spec)
        if isinstance(g, Cylinder):
            pairs.append((two_body, SpectralValue(*cslnoise._cylinder(
                g, "two_body", p, spec, False, a))))
        else:
            pairs += [
                (two_body, SpectralValue(*cslnoise._separable(
                    g, "two_body", p, spec, False, a))),
                (csl_torque_spectrum(g, p, spec),
                 csl_torque_spectrum(g, p, spec, method="quadrature"))]
        for got, want in pairs:
            assert abs(float(got) - float(want)) <= got.error + want.error \
                + 1e-12 * abs(float(want)), (g, rC, a, got, want)


@pytest.mark.parametrize("rC", [1e-9, 1e-7, 1e-6, 1e-5, 1e-3])
def test_auto_routes_make_no_1d_quadrature(rC, monkeypatch):
    """Under method="auto", the force, two-body and torque spectra of
    Cuboids and Multilayers stacked along x, y and z, the force spectrum
    of a Cylinder at any tilt, and the two-body spectrum of a Cylinder
    along x, along y or tilted with R up to 3.5 rC (the disc kernels'
    Laguerre series; at rC = 1e-9 R is exactly 3.5 rC), are closed forms
    throughout."""
    def forbidden(*args, **kwargs):
        raise AssertionError("integrate_1d called")

    monkeypatch.setattr(cslnoise, "integrate_1d", forbidden)
    p = CollapseParams(1.0, rC)
    separable = [Cuboid(1e-12, 1e-6, 2e-6, 3e-6)] + [
        Multilayer(5, 2e-7, 3e-7, 19300.0, 2330.0, 1e-6, 2e-6, axis)
        for axis in "xyz"]
    for g in separable:
        for a in (3e-7, 3e-6, 1.0):
            assert float(csl_force_spectrum_two_body(TwoBody(g, a), p)) > 0
        assert float(csl_force_spectrum(g, p)) > 0
        assert float(csl_torque_spectrum(g, p)) > 0
    for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, 0.4, 0.866),
                 (0.0, 0.6, 0.8)):
        assert float(csl_force_spectrum(Cylinder(1e-14, 1e-7, 1e-6, axis),
                                        p)) > 0
    for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, 0.4, 0.866)):
        unit = Cylinder(1e-14, min(1e-7, 3.5 * rC), 1e-6, axis)
        for a in (3e-7, 3e-6, 1.0):
            assert float(csl_force_spectrum_two_body(TwoBody(unit, a), p)) > 0


def test_disc_kernels_are_not_keyed_on_the_bessel_functions(monkeypatch):
    """Pass-through wrappers on cslnoise's bessel_j1, one_minus_j0 and
    ring_cos2_kernel, set as perfbench's tracer sets its wrappers, leave
    a tilted cylinder two-body bit for bit as it was, value and error.
    At R = rC and 3.3 rC the closed forms call none of them; at 5 rC,
    past the series' reach, the quadrature calls each of them through
    its wrapper."""
    g = TwoBody(Cylinder(1e-14, 1e-7, 1e-6, (0.3, 0.4, 0.866)), 3e-7)
    names = ("bessel_j1", "one_minus_j0", "ring_cos2_kernel")

    def spectrum(rC):
        s = csl_force_spectrum_two_body(g, CollapseParams(1.0, rC))
        return float(s).hex(), s.error.hex()

    points = {1e-7: False, 1e-7 / 3.3: False, 2e-8: True}
    before = {rC: spectrum(rC) for rC in points}
    calls = collections.Counter()
    for name in names:
        def wrapper(x, orig=getattr(cslnoise, name), name=name):
            calls[name] += 1
            return orig(x)
        monkeypatch.setattr(cslnoise, name, wrapper)
    for rC, integrated in points.items():
        calls.clear()
        assert spectrum(rC) == before[rC], rC
        assert set(calls) == (set(names) if integrated else set()), \
            (rC, calls)


def test_nonconvergence_carries_the_whole_moment():
    """A NonConvergence from the quadrature carries the estimate and
    error of the whole moment, not of its half line k >= 0: a slab C1 far
    below rC, where sinc' rounds and rel_tol 1e-12 is out of reach, lies
    within its error of the closed form."""
    prof, rC = AxisProfile(4.59e-6), 1.13e-3
    [(exact, exact_err)] = cslnoise._closed_moment(prof, (("C1", None),),
                                                   rC, 0.0)
    spec = QuadratureSpec(rel_tol=1e-12, max_evals=100_000)
    with pytest.raises(NonConvergence) as info:
        cslnoise._profile_moment(prof, (("C1", None),), rC, spec,
                                 closed_form=False)
    exc = info.value
    assert abs(exc.estimate - exact) <= exc.error + exact_err
    assert exc.error < 1e-9 * abs(exact)


def hexed(moments):
    """Each (value, error) as the exact hex of its floats; None stays."""
    return [None if m is None else tuple(float(x).hex() for x in m)
            for m in moments]


# the kinds with a closed form per separation kernel
CLOSED = {None: ("M0", "M2", "C1", "D0"),
          cslnoise._one_minus_cos: ("M0", "M2"), np.sin: ("M1",)}
# and one kind more for each, which has none and must read None
ASKED = {None: CLOSED[None] + ("M1",),
         cslnoise._one_minus_cos: ("M0", "C1", "M2"), np.sin: ("M0", "M1")}
# every row of ASKED, in one request that mixes the kernels
ROWS = tuple((kind, h) for h, kinds in ASKED.items() for kind in kinds)
# the rows a cylinder two-body asks of its slab and of its disc
ROUTE_ROWS = ((("M0", None), ("M2", None), ("M2", cslnoise._one_minus_cos),
               ("M0", cslnoise._one_minus_cos), ("M1", np.sin)),
              (("M0", None), ("M2", None), ("M0", cslnoise._one_minus_cos),
               ("M2", cslnoise._one_minus_cos), ("M1", np.sin)))


def requests(rng):
    """Requests that mix kernels: every row of ROWS, the routes'
    requests, five random rows in random order, and each row alone."""
    shuffled = tuple(ROWS[i] for i in rng.permutation(len(ROWS))[:5])
    return [ROWS, *ROUTE_ROWS, shuffled] + [(row,) for row in ROWS]


def switch_cases(seed, count):
    """(profile, rC, s) over slabs, centred and off-centre stacks of 1 to
    6 layers: rC below, at and above the extent (the edge-sum/series
    switch), each with s below, near and above rC^2 / extent (where a
    separation kernel's series gives way to its shifted edge part)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i % 3 == 0:
            prof = AxisProfile(10.0 ** rng.uniform(-7, -5))
        else:
            prof = random_stack(rng, int(rng.integers(1, 7)), i % 3 == 2)
        extent = prof.layer_data.extent
        for rC in (extent * 10.0 ** rng.uniform(-3, 0), extent,
                   extent * 10.0 ** rng.uniform(0, 1.5)):
            knee = rC * rC / extent
            for s in (knee * 10.0 ** rng.uniform(-2, 0), knee,
                      knee * 10.0 ** rng.uniform(0, 2)):
                out.append((prof, rC, s))
    return out


def test_one_pass_equals_the_per_kind_moments():
    """Every row of a request that mixes kinds and kernels, in any order,
    equals the per-kind closed form bit for bit, value and error,
    through _closed_moment, where a slab's plain M0 and M2 keep their
    one-slab formula, and a row with no closed form reads None."""
    rng = np.random.default_rng(24)
    routes = collections.Counter()
    for prof, rC, s in switch_cases(21, 30):
        extent = prof.layer_data.extent
        routes[extent <= rC, s * extent <= rC * rC] += 1
        for rows in requests(rng):
            want = [per_kind_moments._closed_moment(prof, k, rC, h, s)
                    for k, h in rows]
            got = cslnoise._closed_moment(prof, rows, rC, s)
            assert hexed(got) == hexed(want), (prof, rC, s, rows)
    assert len(routes) == 4, routes   # every side of both switches


def test_one_pass_disc_equals_the_per_kind_moments():
    """Disc Q0 and Q2 together, in either order, and each alone, at
    x = R^2 / 2rC^2 below and above the Q0 series' 0.1 and past the 2^30
    where ive gives way to i0e and i1e: bit for bit the per-kind ones.
    In requests that mix kernels, at separations 0 and 3R, the plain M0
    and M2 are closed forms everywhere, and M0 and M2 times 1 - cos and
    M1 times sin up to R = 3.5 rC (x = 6.125), each the same alone or
    asked with the others; every other moment is left to quadrature
    (None)."""
    rng = np.random.default_rng(22)
    R = 1e-6
    xs = np.concatenate([10.0 ** rng.uniform(-4, -1, 6), [0.1],
                         10.0 ** rng.uniform(-1, 3, 6), [2.0 ** 30],
                         10.0 ** rng.uniform(9.5, 12, 4)])
    for x in xs:
        rC = R / math.sqrt(2.0 * x)
        for kinds in (("M0", "M2"), ("M2", "M0"), ("M0",), ("M2",)):
            want = [per_kind_moments._disc_moment(R, k, rC) for k in kinds]
            assert hexed(cslnoise._disc_moment(
                DiscProfile(R), [(k, None) for k in kinds], rC, 0.0)) \
                == hexed(want), (x, kinds)
        for s in (0.0, 3.0 * R):
            for rows in requests(rng):
                want = [per_kind_moments._closed_moment(DiscProfile(R), k,
                                                        rC, h, s)
                        for k, h in rows]
                got = cslnoise._closed_moment(DiscProfile(R), rows, rC, s)
                assert hexed(got) == hexed(want), (x, s, rows)
                closed = sum(k in ("M0", "M2") if h is None else
                             x <= 6.125 and k in CLOSED[h] for k, h in rows)
                assert sum(m is not None for m in got) == closed, (x, rows)


def counting(func, key, counts):
    def spy(*args, **kwargs):
        counts[key] += 1
        return func(*args, **kwargs)
    return spy


def test_profile_data_built_once_per_body(monkeypatch):
    """41-point force, two-body and torque scans of one fresh Multilayer,
    on both closed-form routes, build its layer stack and profiles once
    and each profile's layer and edge data once: none of them is built
    per point.  So do 12-point scans of one fresh tilted Cylinder, whose
    slab's layer and edge data only its two-body reads.  The moments are
    not memoized: a second spectrum at the same rC evaluates its erf
    terms (edge sums) or central moments (series) again.  The stack's
    arrays are read-only."""
    builds = collections.Counter()
    for owner, name in ((Multilayer, "_stack"), (Multilayer, "profiles"),
                        (Cylinder, "profiles"),
                        (AxisProfile, "layer_data"),
                        (AxisProfile, "edge_data")):
        prop = owner.__dict__[name]

        def spy(obj, func=prop.func, name=name):
            builds[name, id(obj)] += 1
            return func(obj)
        monkeypatch.setattr(prop, "func", spy)
    g = Multilayer(6, 2e-7, 3e-7, 19300.0, 2330.0, 1e-5, 1e-5, "z")
    cyl = Cylinder(1e-14, 1e-7, 1e-6, (0.3, 0.4, 0.8))
    stack, (slab, _) = g.profiles[1][2], cyl.profiles
    band = (1e3, 1e4)
    for body, points, a in ((g, 41, 5e-6),   # the stack is 1.5e-6 long
                            (cyl, 12, 1e-6)):
        grid = np.logspace(-9, -4, points)
        for rec in (ExperimentRecord("force", body, "force", 1e-30, band),
                    ExperimentRecord("two_body", TwoBody(body, a),
                                     "force_two_body", 1e-30, band),
                    ExperimentRecord("torque", body, "torque", 1e-40, band)):
            assert set(exclusion_scan(rec, grid).status) == {"ok"}, rec
    assert set(builds.values()) == {1}, builds
    assert sum(name == "_stack" for name, _ in builds) == 1
    assert sum(name == "profiles" for name, _ in builds) == 2
    assert ("edge_data", id(stack)) in builds
    assert ("layer_data", id(slab)) in builds
    assert ("edge_data", id(slab)) in builds
    assert sum(name == "layer_data" for name, _ in builds) == 4

    calls = collections.Counter()
    monkeypatch.setattr(scipy.special, "erf",
                        counting(scipy.special.erf, "erf", calls))
    monkeypatch.setattr(cslnoise, "_egf_moments",
                        counting(cslnoise._egf_moments, "series", calls))
    for rC, key in ((1e-7, "erf"), (1e-5, "series")):
        p = CollapseParams(1.0, rC)
        first = csl_force_spectrum(g, p)
        once = calls[key]
        second = csl_force_spectrum(g, p)
        assert once > 0 and calls[key] == 2 * once, (rC, calls)
        assert float(first) == float(second)

    for array in g.layers() + tuple(stack.layer_data[:3]) \
            + tuple(stack.edge_data):
        with pytest.raises(ValueError):
            array[0] = 1.0
