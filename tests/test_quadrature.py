"""Adaptive Gauss-Kronrod integrator against known integrals."""

import math

import numpy as np
import pytest

from cslbounds.quadrature import (NonConvergence, QuadratureSpec,
                                  integrate_1d, integrate_k3)
from oracles import angular_average, integrate_ball


def test_polynomial_is_exact():
    val, err = integrate_1d(lambda x: 3.0 * x ** 2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-14, abs=0.0)
    assert err <= 1e-12


def test_gaussian_moment_1d():
    # int_0^inf x^2 e^{-x^2} dx = sqrt(pi)/4, truncated at 10
    val, _ = integrate_1d(lambda x: x * x * np.exp(-x * x), 0.0, 10.0,
                          rel_tol=1e-10)
    assert val == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-10)


def test_oscillatory_with_panel_cap():
    # int_0^2pi sin^2(50 x) dx = pi; needs the panel width cap
    val, _ = integrate_1d(lambda x: np.sin(50.0 * x) ** 2, 0.0,
                          2.0 * math.pi, rel_tol=1e-9,
                          max_panel_width=math.pi / 50.0)
    assert val == pytest.approx(math.pi, rel=1e-9)


def test_zero_integrand_returns_zero():
    val, err = integrate_1d(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert val == 0.0
    assert err == 0.0


def test_linearity_in_integrand():
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    v1, _ = integrate_1d(f, 0.0, 5.0, rel_tol=1e-10)
    v7, _ = integrate_1d(lambda x: 7.0 * f(x), 0.0, 5.0, rel_tol=1e-10)
    assert v7 == pytest.approx(7.0 * v1, rel=2e-10)


def test_nonconvergence_raises_with_estimate():
    # integrable singularity with a tiny evaluation budget
    f = lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-300)
    with pytest.raises(NonConvergence) as exc:
        integrate_1d(f, 0.0, 1.0, rel_tol=1e-12, max_evals=500)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.error > 0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1e-6)
    with pytest.raises(ValueError):
        QuadratureSpec(cutoff_factor=2.0)


@pytest.mark.parametrize("kwargs", [
    {"cutoff_factor": math.inf}, {"cutoff_factor": math.nan},
    {"abs_tol": -1.0}, {"abs_tol": math.inf}, {"rel_tol": math.inf},
    {"rel_tol": math.nan}, {"max_evals": math.inf}, {"max_evals": math.nan},
    {"max_evals": 14}])
def test_spec_rejects_non_finite_or_negative(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_k3_isotropic_gaussian_moment():
    # int d^3k e^{-k^2 rC^2} k_x^2 with angular average k^2/3:
    # = (1/3) * 4pi int k^4 e^{-k^2 rC^2} dk = pi^{3/2} / (2 rC^5)
    rC = 0.7
    f = lambda k: (k * k / 3.0) * np.exp(-(k * rC) ** 2)
    val, _ = integrate_k3(f, rC, symmetry="isotropic")
    assert val == pytest.approx(math.pi ** 1.5 / (2.0 * rC ** 5), rel=1e-6)


def test_k3_symmetry_routes_agree():
    # the same integrand through the isotropic route and the generic 3D
    # oracle
    rC = 1.0
    want = math.pi ** 1.5 / (2.0 * rC ** 5)

    def f_iso(k):
        return np.exp(-(k * rC) ** 2) * k * k / 3.0

    val_iso, _ = integrate_k3(f_iso, rC, symmetry="isotropic")
    assert val_iso == pytest.approx(want, rel=1e-6)

    def f3(kx, ky, kz):
        k2 = kx * kx + ky * ky + kz * kz
        return np.exp(-k2 * rC * rC) * kx * kx

    val_3d, _ = integrate_ball(f3, rC)
    assert val_3d == pytest.approx(want, rel=1e-5)


def test_axial_symmetry_tag_is_gone():
    """The only symmetry is "isotropic": the axial and generic 3D tags
    are rejected."""
    for tag in ("axial", "none"):
        with pytest.raises(ValueError, match="symmetry"):
            integrate_k3(lambda k: k * 0.0, 1.0, symmetry=tag)


def test_angular_average_chunks_match_one_radius_at_a_time():
    """Enough radii to span several chunks at every order: each average
    equals the one computed alone, and the exact mean r^2 / 3 of kx^2."""
    rng = np.random.default_rng(31)
    r = rng.uniform(0.1, 5.0, 3000)

    def f(kx, ky, kz):
        return kx * kx * (1.0 + 0.1 * np.cos(kz))

    avg = angular_average(lambda kx, ky, kz: kx * kx, r, 1e-8)
    assert np.allclose(avg, r * r / 3.0, rtol=1e-12, atol=0.0)
    together = angular_average(f, r, 1e-8)
    alone = [angular_average(f, r[i:i + 1], 1e-8)[0]
             for i in (0, 1000, 2999)]
    assert together[[0, 1000, 2999]] == pytest.approx(alone, rel=1e-12,
                                                       abs=0.0)


def test_rough_angular_integrand_raises_nonconvergence():
    """An angular structure finer than order 512 resolves must raise,
    carrying the last averages and their change, not return them."""
    def rough(kx, ky, kz):
        return 1.0 + np.cos(3000.0 * kx)

    with pytest.raises(NonConvergence) as exc:
        angular_average(rough, np.array([1.0, 2.0]), 1e-6)
    assert np.all(np.isfinite(exc.value.estimate))
    assert exc.value.error > 0


def test_k3_cutoff_insensitivity():
    rC = 0.5
    f = lambda k: (k * k / 3.0) * np.exp(-(k * rC) ** 2)
    v8, _ = integrate_k3(f, rC, QuadratureSpec(cutoff_factor=8.0),
                         symmetry="isotropic")
    v16, _ = integrate_k3(f, rC, QuadratureSpec(cutoff_factor=16.0),
                          symmetry="isotropic")
    assert abs(v16 - v8) / v8 < 1e-10


def test_determinism():
    f = lambda x: np.sin(x) * np.exp(-0.1 * x)
    a = integrate_1d(f, 0.0, 30.0, rel_tol=1e-9)
    b = integrate_1d(f, 0.0, 30.0, rel_tol=1e-9)
    assert a == b


def counted(f, points):
    """f, adding the number of nodes of each evaluation to points."""
    def wrapper(x):
        points.append(x.size)
        return f(x)
    return wrapper


STACK = (lambda x: np.sin(50.0 * x) ** 2,
         lambda x: x * x * np.exp(-x * x),
         lambda x: np.exp(-x) * np.cos(3.0 * x))


def test_stacked_rows_equal_lone_integrals():
    """Each row of a stacked integrand gives the value and error of its
    integrand alone, bit for bit, after refinement rounds of different
    counts; the first panels are evaluated once for the whole stack and
    every later round for the one row refining."""
    kwargs = dict(rel_tol=1e-11, max_panel_width=2.0)
    lone, lone_points = [], []
    for g in STACK:
        points = []
        lone.append(integrate_1d(counted(g, points), 0.0, 6.0, **kwargs))
        lone_points.append(points)
    points = []
    rows = integrate_1d(counted(lambda x: [g(x) for g in STACK], points),
                        0.0, 6.0, **kwargs)
    assert rows == lone
    assert all(len(p) > 1 for p in lone_points)
    first = lone_points[0][0]
    assert points == [first] + [n for p in lone_points for n in p[1:]]


def test_stacked_row_out_of_budget_raises_its_own_estimate():
    """A row that runs out of max_evals raises NonConvergence with the
    estimate and error of its integrand alone; the rows before it
    converge on the same budget."""
    smooth = lambda x: np.exp(-x)
    singular = lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-300)
    kwargs = dict(rel_tol=1e-12, max_evals=500)
    with pytest.raises(NonConvergence) as alone:
        integrate_1d(singular, 0.0, 1.0, **kwargs)
    integrate_1d(smooth, 0.0, 1.0, **kwargs)
    with pytest.raises(NonConvergence) as stacked:
        integrate_1d(lambda x: [smooth(x), singular(x)], 0.0, 1.0,
                     **kwargs)
    assert stacked.value.estimate == alone.value.estimate
    assert stacked.value.error == alone.value.error


def test_empty_interval_integrates_every_row_to_zero():
    assert integrate_1d(np.sin, 1.0, 1.0) == (0.0, 0.0)
    assert integrate_1d(lambda x: [x, x * x], 2.0, 1.0) \
        == [(0.0, 0.0), (0.0, 0.0)]
