"""Collapse-noise spectra against closed forms, pair-sum oracles and
scaling laws."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cslbounds
from cslbounds import (CONSTANTS, GRW_LAMBDA, GRW_RC, CollapseParams,
                       ColoredNoiseModel, Cuboid, Cylinder, Multilayer,
                       Point, PointLattice, QuadratureSpec, Sphere, TwoBody,
                       apply_colored_filter, csl_force_spectrum,
                       csl_force_spectrum_two_body, csl_temperature_shift,
                       csl_temperature_shift_rot, csl_torque_spectrum,
                       free_expansion_spread, heating_rate)
from cslbounds.cslnoise import (force_pair_kernel_sum, torque_pair_kernel_sum,
                                two_body_pair_kernel_sum)
from lattices import cuboid_lattice, cylinder_lattice
import oracles

GRW = CollapseParams(GRW_LAMBDA, GRW_RC)


def test_point_mass_closed_form():
    s = csl_force_spectrum(Point(CONSTANTS.m0), GRW)
    assert float(s) == pytest.approx(5.560608586053407e-71, rel=1e-14, abs=0.0)
    # and the quadrature route reproduces it
    q = csl_force_spectrum(Point(CONSTANTS.m0), GRW, method="quadrature")
    assert float(q) == pytest.approx(float(s), rel=1e-6, abs=0.0)


def test_pair_kernel_reproduces_single_point():
    pos = np.zeros((1, 3))
    m = np.array([CONSTANTS.m0])
    ksum = force_pair_kernel_sum(pos, m, GRW_RC)
    val = CONSTANTS.hbar ** 2 * GRW_LAMBDA / CONSTANTS.m0 ** 2 * ksum
    assert val == pytest.approx(5.560608586053407e-71, rel=1e-14, abs=0.0)


def test_pair_kernel_two_points_hand_formula():
    # two equal points separated by d along x:
    # sum = m^2 [2 * 1/(2rC^2) + 2 * (1/(2rC^2))(1 - d^2/(2rC^2)) e^{-d^2/4rC^2}]
    rC = 1e-7
    d = 1.3e-7
    m = 2.5e-20
    pos = np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]])
    got = force_pair_kernel_sum(pos, np.array([m, m]), rC)
    diag = 2.0 * m * m / (2.0 * rC ** 2)
    cross = 2.0 * m * m * (1.0 / (2.0 * rC ** 2)) \
        * (1.0 - d * d / (2.0 * rC ** 2)) * math.exp(-d * d / (4.0 * rC ** 2))
    assert got == pytest.approx(diag + cross, rel=1e-13, abs=0.0)


def test_torque_kernel_two_points_hand_formula():
    # two points offset along y at height z0: kernel terms
    # z_i z_j (1/2rC^2 - d_y^2/4rC^4) for d_z = 0; each point alone
    # contributes (y^2 + z^2) / 2rC^2, its squared distance from the axis
    rC = 1e-7
    m = 1e-20
    z0 = 5e-8
    dy = 8e-8
    pos = np.array([[0.0, 0.0, z0], [0.0, dy, z0]])
    got = torque_pair_kernel_sum(pos, np.array([m, m]), rC)
    diag = m * m * (2.0 * z0 * z0 + dy * dy) * (1.0 / (2.0 * rC ** 2))
    cross = 2.0 * m * m * z0 * z0 \
        * (1.0 / (2.0 * rC ** 2) - dy * dy / (4.0 * rC ** 4)) \
        * math.exp(-dy * dy / (4.0 * rC ** 2))
    assert got == pytest.approx(diag + cross, rel=1e-13, abs=0.0)


def test_sphere_coherent_limit():
    # rC >> R: the sphere responds as a point of the same mass
    m = 1e-12
    R = 5e-7
    for factor in (100.0, 1000.0):
        p = CollapseParams(GRW_LAMBDA, factor * R)
        s_sphere = float(csl_force_spectrum(Sphere(m, R), p))
        s_point = float(csl_force_spectrum(Point(m), p))
        assert abs(s_sphere - s_point) / s_point < 1e-2


def test_mass_squared_scaling():
    p = CollapseParams(GRW_LAMBDA, 2e-7)
    base = float(csl_force_spectrum(Sphere(1e-13, 5e-7), p))
    for factor in (2.0, 10.0, 100.0):
        s = float(csl_force_spectrum(Sphere(factor * 1e-13, 5e-7), p))
        assert s == pytest.approx(factor ** 2 * base, rel=2e-6, abs=0.0)


def test_lambda_linearity():
    g = Cuboid(1e-12, 1e-6, 2e-6, 0.5e-6)
    s1 = float(csl_force_spectrum(g, CollapseParams(1e-16, 1e-7)))
    s9 = float(csl_force_spectrum(g, CollapseParams(9e-16, 1e-7)))
    assert s9 == pytest.approx(9.0 * s1, rel=1e-12, abs=0.0)
    assert float(csl_force_spectrum(g, CollapseParams(0.0, 1e-7))) == 0.0


@pytest.mark.parametrize("g", [
    Cuboid(1e-12, 1.2e-6, 0.8e-6, 0.6e-6),
    Cylinder(1e-13, 2e-7, 1e-6),
    Cylinder(1e-13, 2e-7, 1e-6, axis=(1.0, 0.0, 0.0)),
])
def test_continuum_vs_lattice_oracle(g):
    """Midpoint lattices must converge to the continuum value."""
    p = CollapseParams(GRW_LAMBDA, 1.5e-7)
    want = float(csl_force_spectrum(g, p))
    if isinstance(g, Cylinder):
        lat = cylinder_lattice(g, 20)
    else:
        lat = cuboid_lattice(g, 20)
    got = float(csl_force_spectrum(lat, p))
    assert abs(got - want) / want < 1e-2


def test_lattice_convergence_order():
    # halving the cell size must shrink the error by at least ~2x
    g = Cuboid(1e-12, 1e-6, 1e-6, 1e-6)
    p = CollapseParams(GRW_LAMBDA, 1.5e-7)
    want = float(csl_force_spectrum(g, p))
    errs = []
    for n in (8, 16):
        got = float(csl_force_spectrum(cuboid_lattice(g, n), p))
        errs.append(abs(got - want) / want)
    assert errs[1] < errs[0] / 2.0


def test_two_body_limits():
    unit = Point(1e-15)
    p = CollapseParams(GRW_LAMBDA, GRW_RC)
    s_single = float(csl_force_spectrum(unit, p))
    assert float(csl_force_spectrum_two_body(TwoBody(unit, 0.0), p)) == 0.0
    far = float(csl_force_spectrum_two_body(TwoBody(unit, 1e-3), p))
    assert far == pytest.approx(s_single, rel=1e-9, abs=0.0)
    near = float(csl_force_spectrum_two_body(TwoBody(unit, 1e-9), p))
    assert near < 1e-3 * s_single


def test_two_body_point_kernel_hand_value():
    # integrand weight (1 - cos a k_x): for a point pair the closed form
    # is (m/m0)^2 hbar^2 lam / (2 rC^2) * (1 - (1 - a^2/2rC^2) e^{-a^2/4rC^2})
    a = GRW_RC
    p = CollapseParams(GRW_LAMBDA, GRW_RC)
    got = float(csl_force_spectrum_two_body(TwoBody(Point(CONSTANTS.m0), a),
                                            p))
    x = a * a / (GRW_RC * GRW_RC)
    want = CONSTANTS.hbar ** 2 * GRW_LAMBDA / (2.0 * GRW_RC ** 2) \
        * (1.0 - (1.0 - x / 2.0) * math.exp(-x / 4.0))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_two_body_cuboid_matches_quadrature_route():
    unit = Cuboid(1e-12, 1e-6, 1e-6, 1e-6)
    p = CollapseParams(GRW_LAMBDA, 3e-7)
    for a in (5e-7, 2e-6, 1e-5):
        closed = float(csl_force_spectrum_two_body(TwoBody(unit, a), p))
        # oracle: lattice pair-kernel with the separation applied
        lat = cuboid_lattice(unit, 14)
        ksum = two_body_pair_kernel_sum(lat.positions, lat.masses, p.rC, a)
        oracle = CONSTANTS.hbar ** 2 * p.lam / CONSTANTS.m0 ** 2 * ksum
        assert closed == pytest.approx(oracle, rel=2e-2, abs=0.0)


def test_torque_exact_zeros():
    p = CollapseParams(GRW_LAMBDA, 1.5e-7)
    assert float(csl_torque_spectrum(Sphere(1e-12, 5e-7), p)) == 0.0
    spinning = Cylinder(1e-13, 2e-7, 1e-6, axis=(1.0, 0.0, 0.0))
    assert float(csl_torque_spectrum(spinning, p)) == 0.0


def test_torque_cylinder_vs_lattice_oracle():
    g = Cylinder(1e-13, 2e-7, 1e-6)
    p = CollapseParams(GRW_LAMBDA, 1.5e-7)
    want = float(csl_torque_spectrum(g, p))
    lat = cylinder_lattice(g, 20)
    got = float(csl_torque_spectrum(lat, p))
    assert abs(got - want) / want < 2e-2


def test_torque_cuboid_vs_lattice_oracle():
    g = Cuboid(1e-12, 1.0e-6, 0.7e-6, 0.4e-6)
    p = CollapseParams(GRW_LAMBDA, 1.5e-7)
    want = float(csl_torque_spectrum(g, p))
    got = float(csl_torque_spectrum(cuboid_lattice(g, 18), p))
    assert abs(got - want) / want < 2e-2


@pytest.mark.parametrize("seed", range(2))
def test_pair_sums_match_the_generic_3d_oracle(seed):
    """A lattice's exact pair sums, which have no quadrature route,
    against the generic 3D integral of its form factor: force, two-body
    and torque of a few random points, with rC near their spacing."""
    rng = np.random.default_rng([41, seed])
    lat = PointLattice(rng.uniform(-5e-7, 5e-7, (5, 3)),
                       rng.uniform(1e-15, 2e-15, 5))
    p = CollapseParams(1.0, 10.0 ** rng.uniform(-6.7, -6.2))
    a = 10.0 ** rng.uniform(-7, -6)
    spec = QuadratureSpec()
    for got, want in (
            (csl_force_spectrum(lat, p), oracles.force(lat, p)),
            (csl_force_spectrum_two_body(TwoBody(lat, a), p),
             oracles.two_body(lat, p, a)),
            (csl_torque_spectrum(lat, p), oracles.torque(lat, p))):
        assert abs(float(got) - float(want)) <= \
            spec.rel_tol * abs(float(want)) + want.error


def test_colored_filter_properties():
    white = ColoredNoiseModel("white")
    assert white.filter(0.0) == 1.0
    assert white.filter(1e12) == 1.0

    lor = ColoredNoiseModel("lorentzian_cutoff", omega_c=1e4)
    assert lor.filter(0.0) == 1.0
    assert lor.filter(1e4) == pytest.approx(0.5, rel=1e-14, abs=0.0)
    assert lor.filter(1e8) < 1e-7
    # monotone decreasing in |omega|
    ws = np.logspace(0, 9, 50)
    fs = lor.filter(ws)
    assert np.all(np.diff(fs) < 0)

    s = apply_colored_filter(2.0, lor, np.array([0.0, 1e4]))
    assert s[0] == pytest.approx(2.0)
    assert s[1] == pytest.approx(1.0)
    assert apply_colored_filter(2.0, None, 1e4) == 2.0

    with pytest.raises(ValueError):
        ColoredNoiseModel("pink")
    with pytest.raises(ValueError):
        ColoredNoiseModel("lorentzian_cutoff")
    for bad in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite omega_c"):
            ColoredNoiseModel("lorentzian_cutoff", omega_c=bad)


def test_temperature_shift_value_and_validation():
    s = 1.7554433359650133e-43   # sphere m = 1e-12 kg, R = 0.5 um at GRW
    got = csl_temperature_shift(s, 1e-12, 0.1)
    assert got == pytest.approx(s / (2.0 * 1e-12 * 0.1 * CONSTANTS.kB),
                                rel=1e-14, abs=0.0)
    assert got == pytest.approx(6.357312162486675e-08, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        csl_temperature_shift(s, 1e-12, 0.0)
    rot = csl_temperature_shift_rot(1e-50, 1e-3)
    assert rot == pytest.approx(1e-50 / (2.0 * CONSTANTS.kB * 1e-3),
                                rel=1e-14, abs=0.0)


def test_free_expansion_spread():
    qm = 3e-18
    got = free_expansion_spread(GRW, 1.0, qm_term=qm)
    extra = GRW_LAMBDA * CONSTANTS.hbar ** 2 \
        / (2.0 * CONSTANTS.m0 ** 2 * GRW_RC ** 2)
    assert got == pytest.approx(qm + extra, rel=1e-14, abs=0.0)
    # cubic in time
    r = free_expansion_spread(GRW, 2.0) / free_expansion_spread(GRW, 1.0)
    assert r == pytest.approx(8.0, rel=1e-14, abs=0.0)


def test_heating_rate_hydrogen_scale():
    rate = heating_rate(Point(CONSTANTS.m0), GRW)
    assert rate == pytest.approx(7.598812437525786e-14, rel=1e-10, abs=0.0)


def test_spectral_value_carries_error():
    s = csl_force_spectrum(Sphere(1e-12, 5e-7), GRW)
    assert float(s) > 0
    assert s.error >= 0
    assert s.error < 1e-4 * float(s)


# ---------------------------------------------------------------------------
# pair sums against the full-row broadcast formulas

def broadcast_pair_sum(pos, m, kernel):
    """Reference pair sum: (512, N, 3) difference blocks over full rows,
    every ordered pair evaluated once."""
    total = 0.0
    for start in range(0, len(m), 512):
        sl = slice(start, start + 512)
        d = pos[sl, None, :] - pos[None, :, :]
        total += float(np.einsum("i,j,ij->", m[sl], m, kernel(sl, d)))
    return total


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


@pytest.mark.parametrize("offset", [0.0, 1e-3, 1.0])
@pytest.mark.parametrize("n", [1, 127, 128, 129, 257, 511, 512, 513, 1500])
def test_pair_sums_match_broadcast_formulas(n, offset):
    """Upper-triangle tiles agree with the full broadcast on random
    lattices on both sides of the 128-point tile; the offset matters for
    the torque, which is not translation-invariant."""
    rng = np.random.default_rng([n, int(offset * 1e3)])
    rC = 10.0 ** rng.uniform(-9.0, -5.0)
    extent = rC * 10.0 ** rng.uniform(-0.5, 1.0)
    a = rC * 10.0 ** rng.uniform(-0.5, 0.5)
    pos = rng.uniform(-extent / 2.0, extent / 2.0, (n, 3)) \
        + offset * np.array([1.0, -0.6, 0.8])
    m = 1e-20 * rng.uniform(0.5, 1.5, n)
    want_f, want_t, want_tb = broadcast_sums(pos, m, rC, a)
    # abs=0: the sums lie far below approx's default abs of 1e-12
    assert force_pair_kernel_sum(pos, m, rC) == pytest.approx(
        want_f, rel=1e-12, abs=0.0)
    assert torque_pair_kernel_sum(pos, m, rC) == pytest.approx(
        want_t, rel=1e-12, abs=0.0)
    assert two_body_pair_kernel_sum(pos, m, rC, a) == pytest.approx(
        want_tb, rel=1e-10, abs=0.0)


def test_pair_sums_match_broadcast_formulas_past_the_underflow():
    """A lattice 100 rC wide with a = 80 rC: the exponents of far pairs,
    and of the shifted two-body terms, fall below -700, where the tiles
    set the Gaussian to exactly 0 instead of a subnormal."""
    rng = np.random.default_rng(97)
    rC, n = 1e-7, 400
    a = 80.0 * rC
    pos = rng.uniform(-50.0 * rC, 50.0 * rC, (n, 3))
    m = 1e-20 * rng.uniform(0.5, 1.5, n)
    d = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", d, d)
    assert np.any(d2 / (4.0 * rC * rC) > 700.0)
    assert np.any(((d[..., 0] + a) ** 2 + d2 - d[..., 0] ** 2)
                  / (4.0 * rC * rC) > 700.0)
    want_f, want_t, want_tb = broadcast_sums(pos, m, rC, a)
    assert force_pair_kernel_sum(pos, m, rC) == pytest.approx(
        want_f, rel=1e-12, abs=0.0)
    assert torque_pair_kernel_sum(pos, m, rC) == pytest.approx(
        want_t, rel=1e-12, abs=0.0)
    assert two_body_pair_kernel_sum(pos, m, rC, a) == pytest.approx(
        want_tb, rel=1e-10, abs=0.0)


PAIR_SUMS = {
    "force": lambda pos, m, rC, a: force_pair_kernel_sum(pos, m, rC),
    "torque": lambda pos, m, rC, a: torque_pair_kernel_sum(pos, m, rC),
    "two_body": two_body_pair_kernel_sum,
}


@pytest.mark.parametrize("which", sorted(PAIR_SUMS))
@pytest.mark.parametrize("rC", [0.0, -1e-7, np.nan, np.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_pair_sums_reject_bad_rC(which, rC):
    # were: ZeroDivisionError, a positive sum, nan and 0.0
    pos = np.zeros((2, 3))
    with pytest.raises(ValueError, match="rC"):
        PAIR_SUMS[which](pos, np.ones(2), rC, 1e-7)


@pytest.mark.parametrize("which", sorted(PAIR_SUMS))
def test_pair_sums_reject_mismatched_lattice(which):
    # was a broadcast error from inside einsum
    with pytest.raises(ValueError, match="positions"):
        PAIR_SUMS[which](np.zeros((3, 3)), np.ones(2), 1e-7, 1e-7)


@pytest.mark.parametrize("a", [np.nan, np.inf, -1e-7])
def test_two_body_pair_sum_rejects_bad_separation(a):
    # a NaN separation returned nan
    with pytest.raises(ValueError, match="separation a"):
        two_body_pair_kernel_sum(np.zeros((2, 3)), np.ones(2), 1e-7, a)


def test_two_body_point_matches_broadcast_formula():
    rC, a = 1e-7, 1.7e-7
    got = float(csl_force_spectrum_two_body(TwoBody(Point(CONSTANTS.m0), a),
                                            CollapseParams(GRW_LAMBDA, rC)))
    ksum = broadcast_sums(np.zeros((1, 3)), np.array([CONSTANTS.m0]),
                          rC, a)[2]
    want = CONSTANTS.hbar ** 2 * GRW_LAMBDA / CONSTANTS.m0 ** 2 * ksum
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_pair_sum_independent_of_blas_threads():
    """2000-point force, torque and two-body sums are bit-identical with
    one and two BLAS threads."""
    code = ("import numpy as np\n"
            "from cslbounds.cslnoise import (force_pair_kernel_sum,\n"
            "    torque_pair_kernel_sum, two_body_pair_kernel_sum)\n"
            "rng = np.random.default_rng(11)\n"
            "pos = rng.uniform(-5e-7, 5e-7, (2000, 3))\n"
            "m = 1e-20 * rng.uniform(0.5, 1.5, 2000)\n"
            "print(repr(force_pair_kernel_sum(pos, m, 1e-7)))\n"
            "print(repr(torque_pair_kernel_sum(pos, m, 1e-7)))\n"
            "print(repr(two_body_pair_kernel_sum(pos, m, 1e-7, 3e-7)))\n")
    src = str(Path(cslbounds.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(proc.stdout)
    assert out[0] == out[1]
    assert all(float(v) > 0.0 for v in out[0].split())


@pytest.mark.parametrize("lam, rC", [
    (np.nan, 1e-7), (np.inf, 1e-7), (1e-16, np.nan), (1e-16, np.inf),
], ids=["nan_lam", "inf_lam", "nan_rC", "inf_rC"])
def test_collapse_params_reject_non_finite(lam, rC):
    # a NaN lambda would otherwise give a NaN spectrum
    with pytest.raises(ValueError, match="finite"):
        CollapseParams(lam, rC)


@pytest.mark.parametrize("method", ["Auto", "exact", "", None])
def test_unknown_method_rejected(method):
    """Only "auto" and "quadrature" name a route; anything else used to
    fall through to the quadrature oracle."""
    p = CollapseParams(1.0, 1e-7)
    g = Cuboid(1e-12, 1e-6, 2e-6, 3e-6)
    with pytest.raises(ValueError, match="method"):
        csl_force_spectrum(g, p, method=method)
    with pytest.raises(ValueError, match="method"):
        csl_torque_spectrum(g, p, method=method)


def test_combine_product_scales_a_zero_factors_error():
    """A zero factor's error is carried through the other factors."""
    combine = cslbounds.cslnoise._combine_product
    assert combine([(0.0, 1e-3), (2.0, 0.0)]) == (0.0, 2e-3)
    assert combine([(3.0, 0.0), (0.0, 1e-3), (-2.0, 1.0)]) == (0.0, 6e-3)
    # two zero factors leave no first-order error
    assert combine([(0.0, 1e-3), (0.0, 1e-3)]) == (0.0, 0.0)
    value, err = combine([(2.0, 1e-3), (4.0, 2e-3)])
    assert value == 8.0 and err == pytest.approx(8.0 * (5e-4 + 5e-4))

