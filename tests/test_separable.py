"""Seeded randomized differential tests of the reduced routes: Cuboid
and Multilayer force, two-body and torque spectra as products of 1D
profile moments, cylinder two-body and torque at any tilt as sums of
products of 1D moments, and the sphere two-body spectrum as one radial
integral, each checked against an independent route."""

import collections
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslbounds import (CONSTANTS, CollapseParams, Cuboid, Cylinder,
                       Multilayer, QuadratureSpec, Sphere,
                       TwoBody,
                       csl_force_spectrum, csl_force_spectrum_two_body,
                       csl_torque_spectrum)
from cslbounds import cslnoise, geometry
from cslbounds.cslnoise import torque_pair_kernel_sum
from cslbounds.geometry import AxisProfile, BallProfile, DiscProfile
from cslbounds.quadrature import NonConvergence, integrate_1d
from cslbounds.special import bessel_j1, one_minus_j0, ring_cos2_kernel
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
    _profile_moment, past R = 3.5 rC too, where a cylinder two-body's
    disc kernels are integrated.  More than 100 moments are integrated,
    counting each row of a call that integrates several moments of one
    profile."""
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
    for g in bodies[3:]:   # R = 5 rC: the disc kernels are integrated
        csl_force_spectrum_two_body(TwoBody(g, 3e-7),
                                    CollapseParams(1.0, 2e-8))
    assert len(moments) > 100


# a request's kernels: none, 1 - cos and sin (on a disc averaged over
# its plane)
KERNELS = (None, cslnoise._one_minus_cos, np.sin)
KINDS = ("M0", "M1", "M2", "D0", "C1")


@st.composite
def grouped_moments(draw):
    """(profile, rows, rC, spec, closed_form, s): a slab, a layer stack
    of 1 to 6 layers or a disc, with rC from 1e-3 to 1e3 times the body,
    rel_tol down to 1e-11 (so that rows refine) and budgets small enough
    that some rows run out.  The request mixes kernels, as the routes'
    do: its rows are drawn from every kind times none, 1 - cos and sin,
    and half allow closed forms, which mix with quadrature rows."""
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
    rows = tuple(draw(st.lists(st.tuples(st.sampled_from(KINDS),
                                         st.sampled_from(KERNELS)),
                               min_size=1, max_size=6, unique=True)))
    rC = prof.length * 10.0 ** draw(st.floats(-3.0, 3.0))
    spec = QuadratureSpec(rel_tol=10.0 ** draw(st.floats(-11.0, -5.0)),
                          max_evals=draw(st.sampled_from([3_000, 300_000])))
    s = 0.0
    if any(h is not None for _, h in rows):
        s = prof.length * 10.0 ** draw(st.floats(-2.0, 1.5))
    return prof, rows, rC, spec, draw(st.booleans()), s


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
    """Every row of a request that mixes kinds and kernels, closed form
    or quadrature, equals the same row asked alone, value and error,
    compared with == on the floats; the request raises the
    NonConvergence of its first row that raises one alone, with that
    row's estimate and error."""
    prof, rows, rC, spec, closed_form, s = case
    lone = [moment_or_failure(prof, (row,), rC, spec, closed_form, s)
            for row in rows]
    failed = [row for row in lone if row[0] == "NonConvergence"]
    grouped = moment_or_failure(prof, rows, rC, spec, closed_form, s)
    assert grouped == (failed[0] if failed else [row for row, in lone])


def disc_kernel(kind, h):
    """A disc's average of h(x cos phi) cos^n phi over its plane, n the
    power of k_x in kind, for h = 1 - cos and sin."""
    zero = np.zeros_like
    if h is cslnoise._one_minus_cos:
        return {"M1": zero, "M2": ring_cos2_kernel}.get(kind, one_minus_j0)
    return bessel_j1 if kind == "M1" else zero


def elementwise_integrand(prof, rows, rC, s):
    """_profile_moment's integrand written as complex elementwise
    expressions, |P|^2, |P'|^2 and Re(k P P'*) times each factor in a
    new array, for every profile alike; a disc's kernel is h averaged
    over its plane (disc_kernel)."""
    line = prof.dims == 1
    powers = [{"M1": 1, "M2": 2, "C1": not line}.get(name, 0)
              + prof.dims - 1 for name, _ in rows]
    slope = any(name in ("D0", "C1") for name, _ in rows)

    def integrand(k):
        p, dp = prof.transform_and_derivative(k) if slope \
            else (prof.transform(k), None)
        weight = 2.0 * np.exp(-np.square(k * rC))
        vals = []
        for (name, h), power in zip(rows, powers):
            if name == "D0":
                val = np.square(np.abs(dp))
            elif name == "C1":
                val = np.real((k if line else 1.0) * p * np.conj(dp))
            else:
                val = np.square(np.abs(p))
            if h is not None:
                kernel = disc_kernel(name, h) if prof.dims == 2 else h
                val = val * kernel(s * k)
            if power:
                val = val * k ** power
            vals.append(weight * val)
        return vals
    return integrand


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grouped_moments())
def test_quadrature_moments_equal_the_elementwise_integrand(case):
    """The quadrature moments of a slab, a layer stack (complex
    transform) or a disc, and of a ball, equal bit for bit the integrals
    of the same integrand written elementwise: the in-place weight and
    scaling, the real products of a real transform, the shared powers of
    k and kernels change no bit, value, error or NonConvergence.  Every
    kind is asked, each with a kernel of the drawn request in turn."""
    prof, rows, rC, spec, _, s = case
    kernels = [h for _, h in rows]
    for prof, kinds in ((prof, KINDS),
                        (BallProfile(prof.length / 2.0), KINDS[:3])):
        asked = tuple((kind, kernels[i % len(kernels)])
                      for i, kind in enumerate(kinds))
        try:
            want = integrate_1d(
                elementwise_integrand(prof, asked, rC, s), 0.0,
                spec.cutoff_factor / rC, spec.rel_tol, spec.abs_tol,
                spec.max_evals, max_panel_width=np.pi / max(prof.length, s))
        except NonConvergence as exc:
            want = "NonConvergence", exc.estimate, exc.error
        got = moment_or_failure(prof, asked, rC, spec, False, s)
        assert repr(got) == repr(want)


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


def test_cylinder_torque_calls_as_often_as_its_slowest_row(monkeypatch):
    """At rC = 1e-6, where the moments refine for several rounds, each of
    a cylinder torque point's two integrate_1d calls evaluates its
    integrand as many times as its row with the most rounds needs alone,
    1 + its rounds, and not once per round of every row."""
    calls, lone, original = [], [], cslnoise.integrate_1d

    def counting(f, *args, **kwargs):
        def count(points, g):
            def wrapper(x):
                points.append(x.size)
                return g(x)
            return wrapper
        points = []
        rows = original(count(points, f), *args, **kwargs)
        calls.append(len(points))
        lone.append([])
        for r in range(len(rows)):
            alone = []
            original(count(alone, lambda x, r=r: f(x)[r]), *args, **kwargs)
            lone[-1].append(len(alone))
        return rows

    monkeypatch.setattr(cslnoise, "integrate_1d", counting)
    g = Cylinder(1e-14, 1e-7, 1e-6, (0.0, 1.0, 0.0))
    assert float(csl_torque_spectrum(g, CollapseParams(1.0, 1e-6))) > 0.0
    assert len(calls) == 2
    assert calls == [max(n) for n in lone]
    assert all(sum(n) - len(n) + 1 > max(n) > 1 for n in lone)


@pytest.mark.parametrize("closed_form", [True, False])
def test_cylinder_two_body_at_vanishing_separation(closed_form):
    """At a <= 1e-200 a tilted cylinder's P0m and Q0m underflow to 0,
    and with them a Cauchy-Schwarz bound of the P1s Q1J1 cross term: the
    term is 0 and skipped, with no 0/0 (a RuntimeWarning) in its
    quadrature target, under either method."""
    g = Cylinder(1e-14, 1e-7, 1e-6, axis=(0.3, 0.4, 0.866))
    p = CollapseParams(1.0, 1e-7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (1e-200, 1e-250, 5e-324):
            s = cslnoise._cylinder(g, "two_body", p, SPEC, closed_form, a)
            assert 0.0 <= float(s) < np.inf and 0.0 <= s.error < np.inf, a


@pytest.mark.parametrize("rC, a, auto_calls", [
    (1e-6, 1e-6, {"_hermite_shifted": 1, "_egf_moments": 1,
                  "_disc_kernel_moment": 1}),
    (2e-8, 3e-7, {"_axis_edges": 1, "integrate_1d": 2})],
    ids=["R_0.1rC", "R_5rC"])
def test_cylinder_two_body_asks_each_profile_once(rC, a, auto_calls,
                                                  monkeypatch):
    """A tilted cylinder two-body point asks each profile for all its
    moments in one request.  Under auto at rC = a = 1e-6 the slab's
    1 - cos and sin series share one Hermite table and one set of
    central moments, and the disc's three kernel moments one Laguerre
    set-up, each built once.  At R = 5 rC (a = 3e-7) the slab's kernel
    rows, sin included, share one edge-pair pass, and the disc's Q0m and
    Q2h are one integrate_1d call before Q1J1, whose Cauchy-Schwarz
    target comes from the other rows.  Under quadrature the point makes
    four integrate_1d calls: one per profile, then P1s and Q1J1."""
    calls = collections.Counter()
    for name in ("_hermite_shifted", "_egf_moments", "_disc_kernel_moment",
                 "_axis_edges", "integrate_1d"):
        def spy(*args, orig=getattr(cslnoise, name), name=name, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(cslnoise, name, spy)
    g = TwoBody(Cylinder(1e-14, 1e-7, 1e-6, axis=(0.3, 0.4, 0.866)), a)
    p = CollapseParams(1.0, rC)
    auto = csl_force_spectrum_two_body(g, p)
    assert calls == auto_calls
    calls.clear()
    quad = cslnoise._cylinder(g.unit, "two_body", p, SPEC, False, g.a)
    assert calls == {"integrate_1d": 4}
    assert_agree(auto, quad, SPEC.rel_tol)


def test_cylinder_two_body_raises_in_request_order(monkeypatch):
    """Under quadrature the slab's request is integrated before the
    disc's, and a point raises the NonConvergence of the first failing
    row of the first failing request: with the slab's 1 - cos rows and
    every disc row NaN, the slab's request raises and the disc is never
    asked, although its plain rows would fail too."""
    def nan(x):
        return np.full_like(x, np.nan)
    monkeypatch.setattr(cslnoise, "_one_minus_cos", nan)
    monkeypatch.setattr(geometry, "jinc", nan)
    outcomes = []

    def spy(*args, orig=cslnoise.integrate_1d, **kwargs):
        try:
            result = orig(*args, **kwargs)
        except NonConvergence:
            outcomes.append("raised")
            raise
        outcomes.append(len(result))
        return result
    monkeypatch.setattr(cslnoise, "integrate_1d", spy)
    g = TwoBody(Cylinder(1e-14, 1e-7, 1e-6, axis=(0.3, 0.4, 0.866)), 1e-6)
    with pytest.raises(NonConvergence, match="not finite"):
        cslnoise._cylinder(g.unit, "two_body", CollapseParams(1.0, 1e-6),
                           SPEC, False, g.a)
    assert outcomes == ["raised"]


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
    separation kernels h its requests' rows carry, None for none."""
    kernels, moment = [], cslnoise._profile_moment

    def spy(prof, rows, *args):
        kernels.extend(h for _, h in rows)
        return moment(prof, rows, *args)

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
