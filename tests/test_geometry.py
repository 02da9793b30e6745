"""Form factors against their defining integral and basic identities."""

from dataclasses import replace

import numpy as np
import pytest

from cslbounds.geometry import (AxisProfile, Cuboid, Cylinder, Multilayer,
                                Point, PointLattice, Sphere, TwoBody,
                                TwoBodyFormFactorError,
                                _angular_derivative_analytic, _unit,
                                form_factor,
                                form_factor_angular_derivative)
from cslbounds.special import sinc, sinc_prime

ALL_SHAPES = [
    Point(1e-15),
    Sphere(1e-12, 5e-7),
    Cuboid(2e-12, 1e-6, 2e-6, 0.5e-6),
    Cylinder(1e-13, 2e-7, 1e-6),
    Cylinder(1e-13, 2e-7, 1e-6, axis=(1.0, 0.0, 0.0)),
    Multilayer(6, 1e-7, 2e-7, 19300.0, 2000.0, 1e-6, 1.5e-6),
    PointLattice(np.array([[0.0, 0.0, 0.0], [1e-7, -2e-7, 3e-7]]),
                 np.array([1e-18, 2e-18])),
]


@pytest.mark.parametrize("g", ALL_SHAPES)
def test_zero_wavevector_gives_total_mass(g):
    val = form_factor(g, np.zeros(3))
    assert val == pytest.approx(g.total_mass, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("g", ALL_SHAPES)
def test_reality_symmetry(g):
    rng = np.random.default_rng(7)
    ks = rng.normal(scale=1e7, size=(50, 3))
    assert np.allclose(form_factor(g, -ks), np.conj(form_factor(g, ks)),
                       rtol=1e-12, atol=0)


def test_linearity_in_mass():
    k = np.array([3e6, -1e6, 2e6])
    a = form_factor(Sphere(1e-12, 5e-7), k)
    b = form_factor(Sphere(5e-12, 5e-7), k)
    assert b == pytest.approx(5.0 * a, rel=1e-14, abs=0.0)


def test_cuboid_sinc_zero():
    L = 1e-6
    g = Cuboid(1e-12, L, L, L)
    k = np.array([2.0 * np.pi / L, 0.0, 0.0])
    assert abs(form_factor(g, k)) < 1e-12 * g.m


def test_sphere_against_real_space_riemann_sum():
    # 64^3 midpoint rule over the bounding cube of the sphere
    R = 5e-7
    g = Sphere(1e-12, R)
    n = 64
    edges = np.linspace(-R, R, n + 1)
    c = 0.5 * (edges[:-1] + edges[1:])
    X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
    inside = X ** 2 + Y ** 2 + Z ** 2 <= R ** 2
    cell = (2.0 * R / n) ** 3
    rho = g.m / (4.0 / 3.0 * np.pi * R ** 3)
    for k in [np.array([2e6, 0.0, 0.0]), np.array([1e6, 1e6, -2e6])]:
        phase = k[0] * X + k[1] * Y + k[2] * Z
        riemann = rho * cell * np.sum(np.exp(1j * phase[inside]))
        exact = form_factor(g, k)
        assert abs(riemann - exact) / g.m < 1e-3


def test_cylinder_against_real_space_riemann_sum():
    R, L = 2e-7, 1e-6
    g = Cylinder(1e-13, R, L)
    n = 80
    cx = np.linspace(-R, R, n + 1)
    cx = 0.5 * (cx[:-1] + cx[1:])
    cz = np.linspace(-L / 2, L / 2, n + 1)
    cz = 0.5 * (cz[:-1] + cz[1:])
    X, Y, Z = np.meshgrid(cx, cx, cz, indexing="ij")
    inside = X ** 2 + Y ** 2 <= R ** 2
    cell = (2.0 * R / n) ** 2 * (L / n)
    rho = g.m / (np.pi * R ** 2 * L)
    k = np.array([3e6, -2e6, 4e6])
    phase = k[0] * X + k[1] * Y + k[2] * Z
    riemann = rho * cell * np.sum(np.exp(1j * phase[inside]))
    assert abs(riemann - form_factor(g, k)) / g.m < 2e-3


def test_multilayer_mass_identity_and_limit():
    g = Multilayer(6, 1e-7, 2e-7, 19300.0, 2000.0, 1e-6, 1.5e-6)
    ds = [1e-7 if i % 2 == 0 else 2e-7 for i in range(6)]
    rhos = [19300.0 if i % 2 == 0 else 2000.0 for i in range(6)]
    want = sum(d * r for d, r in zip(ds, rhos)) * 1e-6 * 1.5e-6
    assert g.total_mass == pytest.approx(want, rel=1e-14, abs=0.0)

    # equal densities degenerate to a cuboid of the same dimensions
    eq = Multilayer(6, 1e-7, 2e-7, 5000.0, 5000.0, 1e-6, 1.5e-6)
    cub = Cuboid(eq.total_mass, 1e-6, 1.5e-6, eq.stack_thickness)
    rng = np.random.default_rng(3)
    ks = rng.normal(scale=5e6, size=(40, 3))
    assert np.allclose(form_factor(eq, ks), form_factor(cub, ks),
                       rtol=1e-10, atol=1e-25)


@pytest.mark.parametrize("g", [
    Cuboid(2e-12, 1e-6, 2e-6, 0.5e-6),
    Cylinder(1e-13, 2e-7, 1e-6),
    PointLattice(np.array([[0.0, 1e-7, 0.0], [2e-7, -1e-7, 3e-7]]),
                 np.array([1e-18, 2e-18])),
    # tilted cylinders: the analytic derivative holds along any axis
    Cylinder(1e-13, 2e-7, 1e-6, axis=(1.0, 1.0, 0.0)),
    Cylinder(1e-13, 3e-7, 5e-7, axis=(0.3, 0.4, 0.866)),
    Cylinder(1e-13, 1e-7, 2e-6,
             axis=tuple(np.random.default_rng(12).normal(size=3))),
])
def test_angular_derivative_matches_finite_difference(g):
    rng = np.random.default_rng(11)
    ks = rng.normal(scale=3e6, size=(100, 3))
    analytic = form_factor_angular_derivative(g, ks)

    h = 1e-6 * np.linalg.norm(ks, axis=-1)

    def mu(dy, dz):
        kk = ks.copy()
        kk[:, 1] += dy
        kk[:, 2] += dz
        return form_factor(g, kk)

    fd = (ks[:, 1] * (mu(0.0, h) - mu(0.0, -h)) / (2.0 * h)
          - ks[:, 2] * (mu(h, 0.0) - mu(-h, 0.0)) / (2.0 * h))
    scale = np.max(np.abs(analytic)) + g.total_mass * 1e-7
    assert np.max(np.abs(analytic - fd)) / scale < 1e-5


def test_angular_derivative_vanishes_for_spheres():
    g = Sphere(1e-12, 5e-7)
    rng = np.random.default_rng(5)
    ks = rng.normal(scale=3e6, size=(20, 3))
    assert np.all(form_factor_angular_derivative(g, ks) == 0.0)


def test_tilted_cylinder_angular_derivative_on_and_off_axis():
    """The analytic derivative of a tilted cylinder stays finite where
    k_perp = 0 (k along the axis, and k = 0), where it vanishes because
    k . (n x x^) = 0 there; and it vanishes everywhere for a cylinder
    along x, which spins about its own symmetry axis."""
    g = Cylinder(1e-13, 2e-7, 1e-6, axis=(1.0, 1.0, 0.0))
    n = np.asarray(g.axis)
    k = np.array([3e6 * n, np.zeros(3), [2e6, 1e6, -3e6]])
    val = form_factor_angular_derivative(g, k)
    assert np.all(np.isfinite(val))
    assert np.all(val[:2] == 0.0) and val[2] != 0.0
    rod = Cylinder(1e-13, 2e-7, 1e-6, axis=(1.0, 0.0, 0.0))
    ks = np.random.default_rng(13).normal(scale=3e6, size=(50, 3))
    assert np.all(form_factor_angular_derivative(rod, ks) == 0.0)


def test_two_body_form_factor_is_a_type_error():
    tb = TwoBody(Point(1e-15), 1e-6)
    with pytest.raises(TwoBodyFormFactorError):
        form_factor(tb, np.zeros(3))
    with pytest.raises(ValueError):
        TwoBody(tb, 1e-6)
    with pytest.raises(ValueError):
        TwoBody(Point(1e-15), -1.0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        Sphere(-1.0, 1e-7)
    with pytest.raises(ValueError):
        Cylinder(1e-12, 1e-7, 1e-6, axis=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Multilayer(0, 1e-7, 1e-7, 1.0, 1.0, 1e-6, 1e-6)
    with pytest.raises(ValueError):
        PointLattice(np.zeros((2, 3)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        form_factor(Point(1.0), np.zeros(4))
    with pytest.raises(ValueError):
        form_factor(Point(1.0), np.array([np.inf, 0.0, 0.0]))


@pytest.mark.parametrize("pos, m", [
    ([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]], [1.0, 1.0]),
    ([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]], [1.0, 1.0]),
    ([[0.0, 0.0, 0.0], [1e-7, 0.0, 0.0]], [1.0, np.nan]),
    ([[0.0, 0.0, 0.0], [1e-7, 0.0, 0.0]], [1.0, np.inf]),
], ids=["nan_position", "inf_position", "nan_mass", "inf_mass"])
def test_point_lattice_rejects_non_finite(pos, m):
    # a non-finite lattice would otherwise give a NaN or inf spectrum
    with pytest.raises(ValueError, match="finite"):
        PointLattice(np.array(pos), np.array(m))


def test_point_lattice_rejects_no_points():
    # an empty lattice would otherwise fail inside the force spectrum's
    # tile ordering with a numpy reduction error
    with pytest.raises(ValueError, match="at least one point"):
        PointLattice(np.empty((0, 3)), np.empty(0))


@pytest.mark.parametrize("make", [
    lambda: Sphere(np.inf, 1e-7),
    lambda: Sphere(1e-12, np.nan),
    lambda: Cuboid(1e-12, np.inf, 1e-6, 1e-6),
    lambda: Point(1e200),
    lambda: Sphere(1e200, 1e-6),
    lambda: Cuboid(1e200, 1e-6, 1e-6, 1e-6),
    lambda: Cylinder(1e200, 1e-7, 1e-6),
    lambda: Multilayer(3, 1e-7, 1e-7, 1e300, 1e300, 1e10, 1e10),
    lambda: Multilayer(2, 1e100, 1e100, 1e100, 1e100, 1.0, 1.0),
    lambda: Multilayer(2, 1e10, 1e10, 1e290, 1e290, 1e-200, 1e-200),
    lambda: Multilayer(2, 1e-200, 1e-200, 1e-200, 1e-200, 1.0, 1.0),
    lambda: PointLattice(np.zeros((2, 3)), np.array([1e200, 1e200])),
    lambda: PointLattice(np.zeros((2, 3)), np.array([1e308, 1e308])),
], ids=["sphere_inf_mass", "sphere_nan_radius", "cuboid_inf_lx",
        "point_mass_square_overflows", "sphere_mass_square_overflows",
        "cuboid_mass_square_overflows", "cylinder_mass_square_overflows",
        "multilayer_mass_overflows", "multilayer_mass_square_overflows",
        "multilayer_offsets_overflow", "multilayer_masses_underflow",
        "lattice_mass_square_overflows", "lattice_mass_overflows"])
def test_shapes_reject_non_finite(make):
    # a mass whose square overflows gave an infinite force and a
    # "degenerate" bound, or an overflow warning, not a ValueError
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("axis", [
    (np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0), (1.0, 2.0), (1.0, 0.0, 0.0, 0.0),
], ids=["nan_axis", "inf_axis", "two_components", "four_components"])
def test_cylinder_rejects_bad_axis(axis):
    # a NaN or infinite axis used to give a NaN or zero axis, and a short
    # one an IndexError in the first form factor
    with pytest.raises(ValueError, match="axis"):
        Cylinder(1e-14, 1e-7, 1e-6, axis)


DIAGONAL = tuple(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))


@pytest.mark.parametrize("axis, unit", [
    ((1e-320, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((0.0, 0.0, -1e-310), (0.0, 0.0, -1.0)),
    ((1e-160, 1e-160, 0.0), DIAGONAL),
    ((1e308, 1e308, 0.0), DIAGONAL),
], ids=["subnormal", "subnormal_negative", "underflowing_squares",
        "overflowing_norm"])
def test_cylinder_normalizes_extreme_axes(axis, unit):
    # squares that underflow or overflow used to reject the first, second
    # and fourth axes and put the third 5.6e-6 off the diagonal
    assert Cylinder(1e-14, 1e-7, 1e-6, axis).axis == unit


@pytest.mark.parametrize("axis", [
    (0.3, -0.4, 1.2), (3e-150, 3e-150, 0.0), (3e149, 3e149, 0.0),
    (1e-100, 0.0, -2e-100),
])
def test_cylinder_axis_in_range_keeps_its_bits(axis):
    v = np.array(axis)
    assert Cylinder(1e-14, 1e-7, 1e-6, axis).axis \
        == tuple(v / np.linalg.norm(v))


def test_cylinder_axis_is_a_fixed_point_of_its_normalization():
    # the unit axis used to be divided again by its norm, which reads
    # 1 +- 1 ulp, so that replace(c) != c for about a third of all axes;
    # its entries are Python floats (they were np.float64, which numpy 2
    # prints as np.float64(...) in the repr), of the same values
    rng = np.random.default_rng(1)
    for axis in rng.normal(size=(2000, 3)):
        c = Cylinder(1e-14, 1e-7, 1e-6, tuple(axis))
        assert replace(c) == c, axis
        assert [type(n) for n in c.axis] == [float] * 3
        assert c.axis == tuple(_unit(axis)), axis
        assert hash(c.axis) == hash(tuple(_unit(axis)))
    c = Cylinder(1e-14, 1e-7, 1e-6, axis=(1, 1, 1))
    assert repr(c) == ("Cylinder(m=1e-14, R=1e-07, L=1e-06, axis=("
                       "0.5773502691896258, 0.5773502691896258, "
                       "0.5773502691896258))")


@pytest.mark.parametrize("count", [2.5, np.inf, np.nan, "3"],
                         ids=["fraction", "inf", "nan", "string"])
def test_multilayer_rejects_non_integer_layer_count(count):
    # these used to construct and fail later with a TypeError
    with pytest.raises(ValueError, match="layer_count"):
        Multilayer(count, 1e-7, 1e-7, 1.0, 1.0, 1e-6, 1e-6)


def test_multilayer_takes_an_integer_of_any_type():
    g = Multilayer(np.int64(3), 1e-7, 2e-7, 1.0, 2.0, 1e-6, 1e-6)
    assert type(g.layer_count) is int and g.layer_count == 3
    assert g.layers()[0].size == 3


@pytest.mark.parametrize("a", [np.nan, np.inf], ids=["nan_a", "inf_a"])
def test_two_body_rejects_non_finite_separation(a):
    # a NaN or infinite separation would otherwise give a NaN spectrum
    with pytest.raises(ValueError, match="finite"):
        TwoBody(Point(1.0), a)


@pytest.mark.parametrize("shape", ["cuboid", "x", "y", "z"])
def test_separable_angular_derivative_matches_central_differences(shape):
    """Cuboid and Multilayer (each stacking axis) have an analytic angular
    derivative; central differences of form_factor check it."""
    rng = np.random.default_rng(["cuboid", "x", "y", "z"].index(shape))
    if shape == "cuboid":
        g = Cuboid(1e-12, *10.0 ** rng.uniform(-6.7, -5.7, 3))
    else:
        d1, d2 = 10.0 ** rng.uniform(-7.3, -6.7, 2)
        g = Multilayer(int(rng.integers(2, 7)), d1, d2,
                       rng.uniform(1e4, 2e4), rng.uniform(1e3, 5e3),
                       *10.0 ** rng.uniform(-6.5, -5.7, 2), shape)
    ks = rng.normal(scale=3e6, size=(200, 3))
    analytic = form_factor_angular_derivative(g, ks)
    assert _angular_derivative_analytic(g, *ks.T) is not None

    h = 1e-6 * np.linalg.norm(ks, axis=-1)

    def mu(dy, dz):
        return form_factor(g, ks + np.stack([0.0 * h, dy, dz], axis=-1))

    fd = (ks[:, 1] * (mu(0.0 * h, h) - mu(0.0 * h, -h)) / (2.0 * h)
          - ks[:, 2] * (mu(h, 0.0 * h) - mu(-h, 0.0 * h)) / (2.0 * h))
    scale = np.max(np.abs(analytic)) + g.total_mass * 1e-7
    assert np.max(np.abs(analytic - fd)) / scale < 1e-5


def per_layer_transform(layers, k):
    """A layer stack's P(k), one sinc per layer."""
    out = np.zeros(np.shape(k), dtype=complex)
    for d, rho, c in zip(*layers):
        out += rho * d * sinc(k * d / 2.0) * np.exp(1j * k * c)
    return out


def per_layer_derivative(layers, k):
    """A layer stack's dP/dk, one sinc and one sinc' per layer."""
    out = np.zeros(np.shape(k), dtype=complex)
    for d, rho, c in zip(*layers):
        out += rho * d * ((d / 2.0) * sinc_prime(k * d / 2.0)
                          + 1j * c * sinc(k * d / 2.0)) * np.exp(1j * k * c)
    return out


@pytest.mark.parametrize("n", [1, 2, 5, 6])
@pytest.mark.parametrize("d2", [1e-7, 2.3e-7])
def test_layer_stack_transform_matches_per_layer_loop(n, d2):
    """One sinc and sinc' per distinct thickness gives the per-layer sums
    over the layers centred on their centre of mass (layer_data) bit for
    bit, with equal (d1 = d2) and alternating thicknesses; the transform
    shared with the derivative equals the transform alone."""
    g = Multilayer(n, 1e-7, d2, 19300.0, 2330.0, 1e-6, 1e-6, "x")
    prof = AxisProfile(g.stack_thickness, g.layers())
    half, rho, gamma = prof.layer_data[:3]
    layers = (2.0 * half, rho, gamma)
    k = np.concatenate([[0.0, 1e-3], np.linspace(-8e8, 8e8, 1001)])
    for kk in (k, k[:1000].reshape(40, 25)):
        value, slope = prof.transform_and_derivative(kk)
        want = per_layer_transform(layers, kk)
        for got, want in ((prof.transform(kk), want), (value, want),
                          (slope, per_layer_derivative(layers, kk))):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
