"""Seeded randomized differential tests of the reduced routes: Cuboid
and Multilayer force, two-body and torque spectra as products of 1D
profile moments, cylinder two-body and torque at any tilt as sums of
products of 1D moments, and the sphere two-body spectrum as one radial
integral, each checked against an independent route."""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslbounds import (CONSTANTS, CollapseParams, Cuboid, Cylinder,
                       Multilayer, QuadratureSpec, Sphere,
                       TwoBody,
                       csl_force_spectrum, csl_force_spectrum_two_body,
                       csl_torque_spectrum)
from cslbounds import cslnoise
from cslbounds.cslnoise import torque_pair_kernel_sum
from cslbounds.geometry import AxisProfile, DiscProfile
from cslbounds.quadrature import NonConvergence
from cslbounds.special import one_minus_j0
from lattices import multilayer_lattice
from oracles import size, torque as oracle_torque, two_body as oracle_two_body

SHAPES = ["cuboid", "x", "y", "z"]
# cylinders along x, along y and along two random axes
CYLINDERS = ["cyl_x", "cyl_y", "cyl_tilt", "cyl_tilt2"]
SPEC = QuadratureSpec()


def random_body(shape, rng):
    """A random Cuboid, Sphere or Cylinder, or a two-material Multilayer
    stacked along shape; every size lies between 0.2 and 2 um."""
    if shape == "cuboid":
        return Cuboid(10.0 ** rng.uniform(-14, -11),
                      *10.0 ** rng.uniform(-6.7, -5.7, 3))
    if shape == "sphere":
        return Sphere(10.0 ** rng.uniform(-14, -11),
                      10.0 ** rng.uniform(-7, -6))
    if shape in CYLINDERS:
        axis = {"cyl_x": (1.0, 0.0, 0.0), "cyl_y": (0.0, 1.0, 0.0)}.get(
            shape, tuple(rng.normal(size=3)))
        return Cylinder(10.0 ** rng.uniform(-14, -11),
                        10.0 ** rng.uniform(-7, -6),
                        10.0 ** rng.uniform(-6.7, -5.7), axis)
    d1, d2 = 10.0 ** rng.uniform(-7.3, -6.7, 2)
    return Multilayer(int(rng.integers(2, 7)), d1, d2,
                      rng.uniform(1e4, 2e4), rng.uniform(1e3, 5e3),
                      *10.0 ** rng.uniform(-6.5, -5.7, 2), shape)


def sides(g):
    """Extents along x, y and z: a Multilayer's cross-section Lx x Ly
    lies, in that order, on the two axes other than its stacking axis."""
    if isinstance(g, Cuboid):
        return g.Lx, g.Ly, g.Lz
    cross = iter((g.Lx, g.Ly))
    return tuple(g.stack_thickness if axis == g.stacking_axis
                 else next(cross) for axis in "xyz")


def assert_agree(got, want, rel_tol):
    """|got - want| within rel_tol plus both reported errors."""
    bound = rel_tol * abs(float(want)) + got.error + want.error
    assert abs(float(got) - float(want)) <= bound, (float(got), float(want))


@pytest.mark.parametrize("shape", SHAPES)
def test_force_matches_quadrature_route(shape):
    """Closed-form slab moments against 1D quadrature of every moment."""
    rng = np.random.default_rng([21, SHAPES.index(shape)])
    for _ in range(4):
        g = random_body(shape, rng)
        p = CollapseParams(1.0, 10.0 ** rng.uniform(-9, -4))
        assert_agree(csl_force_spectrum(g, p),
                     csl_force_spectrum(g, p, method="quadrature"),
                     SPEC.rel_tol)


@pytest.mark.parametrize("shape", SHAPES + CYLINDERS)
def test_torque_matches_generic_3d_route(shape):
    """Products of 1D moments, and for a cylinder sin^2 of its tilt times
    the transverse value, against the generic 3D oracle."""
    rng = np.random.default_rng([22, (SHAPES + CYLINDERS).index(shape)])
    g = random_body(shape, rng)
    p = CollapseParams(1.0, 10.0 ** rng.uniform(np.log10(3e-7), -5.5))
    assert_agree(csl_torque_spectrum(g, p), oracle_torque(g, p), SPEC.rel_tol)


@pytest.mark.parametrize("shape", SHAPES + ["sphere"] + CYLINDERS)
def test_two_body_matches_generic_3d_integral(shape):
    rng = np.random.default_rng([23, (SHAPES + ["sphere"]
                                      + CYLINDERS).index(shape)])
    g = random_body(shape, rng)
    p = CollapseParams(1.0, 10.0 ** rng.uniform(np.log10(3e-7), -5.5))
    a = size(g) * 10.0 ** rng.uniform(-1, 0.5)
    assert_agree(csl_force_spectrum_two_body(TwoBody(g, a), p),
                 oracle_two_body(g, p, a), SPEC.rel_tol)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_equal_density_multilayer_equals_cuboid(axis):
    """An equal-density stack is a homogeneous block: its quadrature
    moments must reproduce the slab's closed forms.

    While rC stays below the body's size the three channels agree to
    1e-12.  Above it the three torque products cancel to (size / rC)^2
    of their size, which magnifies rounding differences between the
    stack and slab transforms (2.5e-12 seen at rC = 7 x size); there the
    torque must agree within the reported errors.
    """
    rng = np.random.default_rng([24, "xyz".index(axis)])
    spec = QuadratureSpec(rel_tol=1e-10)
    for _ in range(20):
        rho = rng.uniform(1e3, 2e4)
        d1, d2 = 10.0 ** rng.uniform(-7.5, -6.5, 2)
        ml = Multilayer(int(rng.integers(1, 9)), d1, d2, rho, rho,
                        *10.0 ** rng.uniform(-7, -5.5, 2), axis)
        cub = Cuboid(ml.total_mass, *sides(ml))
        p = CollapseParams(1.0, 10.0 ** rng.uniform(-8.5, -5))
        a = 10.0 ** rng.uniform(-8, -5)
        for spectrum in (
                lambda g: csl_force_spectrum(g, p, spec),
                lambda g: csl_force_spectrum_two_body(TwoBody(g, a), p,
                                                      spec)):
            assert float(spectrum(ml)) == pytest.approx(
                float(spectrum(cub)), rel=1e-12, abs=0.0)
        t_ml = csl_torque_spectrum(ml, p, spec)
        t_cub = csl_torque_spectrum(cub, p, spec)
        if p.rC <= size(ml):
            assert float(t_ml) == pytest.approx(float(t_cub), rel=1e-12,
                                                abs=0.0)
        else:
            assert_agree(t_ml, t_cub, 1e-12)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_multilayer_torque_matches_lattice_oracle(axis):
    rng = np.random.default_rng([25, "xyz".index(axis)])
    d1, d2 = 10.0 ** rng.uniform(-6.8, -6.5, 2)
    g = Multilayer(4, d1, d2, 19300.0, rng.uniform(1e3, 5e3),
                   *10.0 ** rng.uniform(-6.2, -5.9, 2), axis)
    lat = multilayer_lattice(g, 16, 4)
    assert lat.total_mass == pytest.approx(g.total_mass, rel=1e-12, abs=0.0)
    p = CollapseParams(1.0, 10.0 ** rng.uniform(np.log10(2e-7), -6.3))
    want = float(csl_torque_spectrum(g, p))
    ksum = torque_pair_kernel_sum(lat.positions, lat.masses, p.rC)
    got = CONSTANTS.hbar ** 2 * p.lam / CONSTANTS.m0 ** 2 * ksum
    assert abs(got - want) / want < 2e-2


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_multilayer_torque_avoids_generic_3d(axis, monkeypatch):
    """Every stacking axis takes the separable route, down to rC = 1e-7,
    where the generic 3D route ran out of memory."""
    def no_3d(*args, **kwargs):
        raise AssertionError("generic 3D route taken")

    monkeypatch.setattr(cslnoise, "integrate_k3", no_3d)
    g = Multilayer(4, 2e-7, 3e-7, 19300.0, 2330.0, 1e-6, 1e-6, axis)
    for rC in (1e-7, 3e-7, 1e-6, 3e-6):
        s = csl_torque_spectrum(g, CollapseParams(1.0, rC))
        assert np.isfinite(float(s)) and float(s) > 0.0


@pytest.mark.parametrize("seed", range(3))
def test_tilted_cylinder_torque_matches_quadrature_over_random_tilts(seed):
    """Random axes, sizes and rC: the auto torque (sin^2 of the tilt
    times the transverse product) against the generic 3D oracle."""
    rng = np.random.default_rng([26, seed])
    for _ in range(2):
        g = random_body("cyl_tilt", rng)
        p = CollapseParams(1.0, 10.0 ** rng.uniform(np.log10(3e-7), -5.5))
        auto = csl_torque_spectrum(g, p)
        assert float(auto) > 0.0
        assert_agree(auto, oracle_torque(g, p), SPEC.rel_tol)


@pytest.mark.parametrize("seed", range(3))
def test_tilted_cylinder_two_body_over_random_tilts(seed):
    """Random axes, sizes, separations and rC down to 2e-7: the sum of
    products of 1D moments against the generic 3D integral."""
    rng = np.random.default_rng([27, seed])
    for _ in range(2):
        g = random_body("cyl_tilt", rng)
        p = CollapseParams(1.0, 10.0 ** rng.uniform(np.log10(2e-7), -5.5))
        a = size(g) * 10.0 ** rng.uniform(-1, 0.5)
        assert_agree(csl_force_spectrum_two_body(TwoBody(g, a), p),
                     oracle_two_body(g, p, a), SPEC.rel_tol)


def test_cylinder_and_sphere_channels_avoid_integrate_k3(monkeypatch):
    """Sphere (saturated too) and cylinder two-body spectra at any axis,
    and cylinder torque at any tilt, never reach integrate_k3, down to
    rC = 1e-8, where the generic 3D route ran out of memory."""
    def no_k3(*args, **kwargs):
        raise AssertionError("integrate_k3 called")

    monkeypatch.setattr(cslnoise, "integrate_k3", no_k3)
    cylinders = [Cylinder(1e-14, 1e-7, 1e-6, axis)
                 for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                              (0.3, 0.4, 0.866), (0.0, 0.6, 0.8))]
    for rC in (1e-8, 1e-7, 1e-6, 1e-5):
        p = CollapseParams(1.0, rC)
        for unit in [Sphere(1e-12, 5e-7)] + cylinders:
            s = csl_force_spectrum_two_body(TwoBody(unit, 3e-6), p)
            assert np.isfinite(float(s)) and float(s) > 0.0
        saturated = csl_force_spectrum_two_body(
            TwoBody(Sphere(1e-12, 5e-7), 1.0), p)
        assert np.isfinite(float(saturated)) and float(saturated) > 0.0
        for g in cylinders[1:]:
            s = csl_torque_spectrum(g, p)
            assert np.isfinite(float(s)) and float(s) > 0.0
        assert float(csl_torque_spectrum(cylinders[0], p)) == 0.0


def test_product_routes_integrate_only_inside_profile_moment(monkeypatch):
    """Every 1D integral of the force, two-body and torque spectra of a
    Cuboid, a Multilayer and a Cylinder (along x, along y, tilted), and
    of the sphere two-body spectrum, saturated or not, is a profile
    moment: integrate_1d is only ever called from inside
    _profile_moment.  More than 100 moments are integrated, counting each
    row of a call that integrates several moments of one profile."""
    from cslbounds import quadrature
    moments = []

    def checked(orig):
        def integrate_1d(*args, **kwargs):
            frame, callers = sys._getframe(1), []
            while frame is not None:
                callers.append(frame.f_code.co_name)
                frame = frame.f_back
            assert "_profile_moment" in callers, callers
            result = orig(*args, **kwargs)
            moments.extend([callers[0]] * (
                len(result) if isinstance(result, list) else 1))
            return result
        return integrate_1d

    monkeypatch.setattr(cslnoise, "integrate_1d",
                        checked(cslnoise.integrate_1d))
    monkeypatch.setattr(quadrature, "integrate_1d",
                        checked(quadrature.integrate_1d))
    bodies = [Cuboid(1e-12, 1e-6, 2e-6, 3e-6),
              Multilayer(4, 2e-7, 3e-7, 19300.0, 2330.0, 1e-6, 2e-6, "x"),
              Multilayer(4, 2e-7, 3e-7, 19300.0, 2330.0, 1e-6, 2e-6, "z")]
    bodies += [Cylinder(1e-14, 1e-7, 1e-6, axis)
               for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                            (0.3, 0.4, 0.866))]
    for rC in (1e-7, 1e-6, 1e-5):
        p = CollapseParams(1.0, rC)
        for g in bodies:
            csl_force_spectrum(g, p)
            csl_force_spectrum(g, p, method="quadrature")
            csl_force_spectrum_two_body(TwoBody(g, 3e-6), p)
            csl_torque_spectrum(g, p)
        for a in (3e-6, 1.0):
            csl_force_spectrum_two_body(TwoBody(Sphere(1e-12, 5e-7), a), p)
    assert len(moments) > 100


@st.composite
def grouped_moments(draw):
    """(profile, kinds, rC, spec, closed_form, h, s): a slab, a layer
    stack of 1 to 6 layers or a disc, with rC from 1e-3 to 1e3 times the
    body, rel_tol down to 1e-11 (so that rows refine) and budgets small
    enough that some rows run out; half carry a separation kernel, and
    half allow closed forms, which mix with quadrature rows."""
    shape = draw(st.sampled_from(["slab", "stack", "disc"]))
    if shape == "slab":
        prof = AxisProfile(10.0 ** draw(st.floats(-7.0, -5.0)))
    elif shape == "stack":
        g = Multilayer(draw(st.integers(1, 6)),
                       *10.0 ** np.array(draw(st.tuples(
                           st.floats(-7.5, -6.5), st.floats(-7.5, -6.5)))),
                       19300.0, 2330.0, 1e-6, 1e-6, "x")
        prof = AxisProfile(g.stack_thickness, g.layers())
    else:
        prof = DiscProfile(10.0 ** draw(st.floats(-7.5, -5.5)))
    kinds = tuple(draw(st.lists(st.sampled_from(["M0", "M1", "M2", "D0",
                                                  "C1"]),
                                min_size=1, max_size=5, unique=True)))
    rC = prof.length * 10.0 ** draw(st.floats(-3.0, 3.0))
    spec = QuadratureSpec(rel_tol=10.0 ** draw(st.floats(-11.0, -5.0)),
                          max_evals=draw(st.sampled_from([3_000, 300_000])))
    h, s = None, 0.0
    if draw(st.booleans()):
        h = cslnoise._one_minus_cos if shape != "disc" else one_minus_j0
        s = prof.length * 10.0 ** draw(st.floats(-2.0, 1.5))
    return prof, kinds, rC, spec, draw(st.booleans()), h, s


def moment_or_failure(*args, **kwargs):
    """_profile_moment's result, or the estimate and error of the
    NonConvergence it raises."""
    try:
        return cslnoise._profile_moment(*args, **kwargs)
    except NonConvergence as exc:
        return "NonConvergence", exc.estimate, exc.error


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(grouped_moments())
def test_grouped_moments_equal_lone_moments_bit_for_bit(case):
    """Every row of a grouped moment, closed form or quadrature, equals
    the moment of its kind alone, value and error, compared with == on
    the floats; the group raises the NonConvergence of its first
    quadrature row that raises one, with that row's estimate and
    error."""
    prof, kinds, rC, spec, closed_form, h, s = case
    lone = [moment_or_failure(prof, kind, rC, spec, closed_form, h, s)
            for kind in kinds]
    failed = [row for row in lone if row[0] == "NonConvergence"]
    grouped = moment_or_failure(prof, kinds, rC, spec, closed_form, h, s)
    assert grouped == (failed[0] if failed else lone)


def test_cylinder_torque_point_makes_two_integrate_1d_calls(monkeypatch):
    """The torque of a cylinder across x integrates M2, D0 and C1 of its
    disc in one integrate_1d call and of its slab in another."""
    calls, original = [], cslnoise.integrate_1d

    def counting(f, *args, **kwargs):
        rows = original(f, *args, **kwargs)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(cslnoise, "integrate_1d", counting)
    g = Cylinder(1e-14, 1e-7, 1e-6, (0.0, 1.0, 0.0))
    assert float(csl_torque_spectrum(g, CollapseParams(1.0, 1e-7))) > 0.0
    assert calls == [3, 3]


FAR_UNIT = Multilayer(5, 2e-7, 3e-7, 19300.0, 2330.0, 1e-6, 1.5e-6, "x")


def test_far_two_body_multilayer_saturates():
    """A 1 m baseline at rC = 1e-9 is the single-unit force: the bound is
    ok, not NonConvergence after 1e8 evaluations of 1 - cos(a k)."""
    from cslbounds import ExperimentRecord, lambda_upper_bound
    p = CollapseParams(1.0, 1e-9)
    got = csl_force_spectrum_two_body(TwoBody(FAR_UNIT, 1.0), p)
    want = csl_force_spectrum(FAR_UNIT, p)
    assert abs(float(got) - float(want)) <= SPEC.rel_tol * float(want)
    rec = ExperimentRecord("far", TwoBody(FAR_UNIT, 1.0),
                           "force_two_body", 1e-30, (1.0, 2.0))
    lam, rel_err = lambda_upper_bound(rec, 1e-9)
    assert lam > 0.0 and rel_err <= SPEC.rel_tol


@pytest.mark.parametrize("unit, extent", [
    (FAR_UNIT, FAR_UNIT.stack_thickness), (Sphere(1e-12, 5e-7), 1e-6),
    (Cuboid(1e-12, 4e-7, 1e-6, 2e-6), 4e-7),
    (Cylinder(1e-14, 1e-7, 1e-6, (0.0, 1.0, 0.0)), 2e-7),
    (Cylinder(1e-14, 1e-7, 1e-6, (0.3, 0.5, 0.66 ** 0.5)),
     0.3 * 1e-6 + 2e-7 * (1.0 - 0.3 ** 2) ** 0.5)],
    ids=["multilayer_x", "sphere", "cuboid", "cylinder_y", "tilted_cylinder"])
@pytest.mark.parametrize("rC", [1e-8, 1e-7, 1e-6])
def test_two_body_saturation_threshold(unit, extent, rC, monkeypatch):
    """Just past the saturation separation of the unit's extent along x,
    the two-body route (forced by an infinite threshold) agrees with the
    saturated single-unit value to its 1e-12 bound plus the reported
    quadrature errors."""
    spec = QuadratureSpec(rel_tol=1e-10)
    p = CollapseParams(1.0, rC)
    a = cslnoise._saturation_separation(extent, rC) * (1.0 + 1e-4)
    saturated = csl_force_spectrum_two_body(TwoBody(unit, a), p, spec)
    single = csl_force_spectrum(unit, p, spec)
    assert abs(float(saturated) - float(single)) <= \
        1e-12 * float(single) + saturated.error + single.error
    monkeypatch.setattr(cslnoise, "_saturation_separation",
                        lambda extent, rC: np.inf)
    full = csl_force_spectrum_two_body(TwoBody(unit, a), p, spec)
    assert abs(float(full) - float(saturated)) <= \
        1e-12 * float(saturated) + full.error + saturated.error


def spy_on_kernels(monkeypatch):
    """Spy on cslnoise._profile_moment; returns the list of the
    separation kernels h its calls carry, None for none."""
    kernels, moment = [], cslnoise._profile_moment

    def spy(prof, kind, rC, spec, closed_form=True, h=None, *args):
        kernels.append(h)
        return moment(prof, kind, rC, spec, closed_form, h, *args)

    monkeypatch.setattr(cslnoise, "_profile_moment", spy)
    return kernels


def test_saturation_separation_extents(monkeypatch):
    """Each two-body route switches to the single-unit force at X + c rC,
    X the unit's extent along x and c at least 15.5: just below it some
    moment carries a separation kernel, just above it none does."""
    rC = 1e-6
    c_min = np.sqrt(8.0 * np.log(6.0 * np.sqrt(np.pi) / 1e-12))
    assert c_min == pytest.approx(15.49, abs=0.01)
    kernels = spy_on_kernels(monkeypatch)
    cases = [(Cuboid(1.0, 1e-7, 2.0, 3.0), 1e-7),
             (Multilayer(3, 1e-7, 2e-7, 1.0, 2.0, 5.0, 6.0, "x"), 4e-7),
             (Multilayer(3, 1e-7, 2e-7, 1.0, 2.0, 1e-7, 6.0, "y"), 1e-7),
             (Sphere(1.0, 1e-7), 2e-7),
             (Cylinder(1.0, 1e-7, 3e-7, (1.0, 0.0, 0.0)), 3e-7),
             (Cylinder(1.0, 1e-7, 3.0, (0.0, 1.0, 0.0)), 2e-7),
             (Cylinder(1.0, 1e-7, 3e-7, (0.6, 0.8, 0.0)),
              0.6 * 3e-7 + 0.8 * 2e-7)]
    p = CollapseParams(1.0, rC)
    for unit, extent in cases:
        threshold = extent + c_min * rC
        for factor, switched in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
            kernels.clear()
            csl_force_spectrum_two_body(TwoBody(unit, threshold * factor), p)
            assert kernels and all(h is None for h in kernels) == switched, \
                (unit, factor)


def test_space_two_body_config_saturates(monkeypatch):
    """The shipped space_two_body scan is the single-unit force at every
    rC, so its exclusion.csv does not depend on the two-body routes."""
    from cslbounds.config import load_config
    from cslbounds.exclusion import exclusion_scan

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    _, inputs = load_config(os.path.join(root, "configs",
                                         "space_two_body.ini"))
    (rec, grid), = inputs.experiments
    kernels = spy_on_kernels(monkeypatch)
    curve = exclusion_scan(rec, grid[::10], inputs.quadrature)
    assert set(curve.status) == {"ok"}
    assert kernels and all(h is None for h in kernels), \
        "two-body route taken"
