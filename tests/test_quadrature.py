"""Adaptive Gauss-Kronrod integrator against known integrals."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cslbounds
from cslbounds.quadrature import (NonConvergence, QuadratureSpec,
                                  integrate_1d, integrate_k3)
import lockstep_reference
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


def lockstep_schedule(lone_points):
    """The node counts of a stack's integrand calls, given the node counts
    of each row's calls alone: the first panels once, then in round t
    one call whose size is the sum of the lone round-t sizes of the rows
    still refining."""
    rounds = max(len(p) for p in lone_points)
    return [lone_points[0][0]] + [sum(p[t] for p in lone_points if t < len(p))
                                  for t in range(1, rounds)]


def lone_and_stacked(rows, a, b, **kwargs):
    """(lone results, stacked results, node counts of each row's calls
    alone, node counts of the stack's calls)."""
    lone, lone_points = [], []
    for g in rows:
        points = []
        lone.append(integrate_1d(counted(g, points), a, b, **kwargs))
        lone_points.append(points)
    points = []
    stacked = integrate_1d(counted(lambda x: [g(x) for g in rows], points),
                           a, b, **kwargs)
    return lone, stacked, lone_points, points


def test_stacked_rows_equal_lone_integrals():
    """Each row of a stacked integrand gives the value and error of its
    integrand alone, bit for bit, after refinement rounds of different
    counts; the first panels are evaluated once for the whole stack, and
    each later round once for every row still refining."""
    lone, rows, lone_points, points = lone_and_stacked(
        STACK, 0.0, 6.0, rel_tol=1e-11, max_panel_width=2.0)
    assert rows == lone
    assert len({len(p) for p in lone_points}) == len(STACK)
    assert points == lockstep_schedule(lone_points)


def seeded_stack(seed):
    """2 to 4 random damped oscillations and a random tolerance."""
    rng = np.random.default_rng(seed)
    params = rng.uniform([0.5, 0.1, 1.0], [3.0, 2.0, 40.0],
                         size=(rng.integers(2, 5), 3))
    rows = [lambda x, a=a, b=b, c=c: a * np.exp(-b * x) * np.cos(c * x) ** 2
            for a, b, c in params]
    return rows, 10.0 ** rng.uniform(-12.0, -8.0)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_stacks_equal_lone_integrals(seed):
    """Stacks of 2 to 4 random damped oscillations at a random tolerance:
    every row equals its lone integral bit for bit, and the stack makes
    the lockstep schedule of integrand calls, as many as its row with
    the most rounds."""
    rows, rel_tol = seeded_stack(seed)
    lone, stacked, lone_points, points = lone_and_stacked(
        rows, 0.0, 6.0, rel_tol=rel_tol, max_panel_width=2.0)
    assert [(v.hex(), e.hex()) for v, e in stacked] \
        == [(v.hex(), e.hex()) for v, e in lone]
    assert len({len(p) for p in lone_points}) > 1
    assert points == lockstep_schedule(lone_points)
    assert len(points) == max(len(p) for p in lone_points)


# converges after 23 calls of one-panel rounds; runs out of 3000
# evaluations after 7 calls of doubling rounds; after 36 calls; raises at
# its first call
KINK = lambda x: np.sqrt(np.abs(x - 0.3))
FAST_FAIL = lambda x: np.sin(2000.0 * x) ** 2
SLOW_FAIL = lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-300)
NAN_ROW = lambda x: np.where(x > 0.5, np.nan, 1.0)


def outcome(g, points, **kwargs):
    """integrate_1d's value and error, or the estimate, error and message
    of the NonConvergence it raises, floats as float.hex (NaN included);
    adds the node counts of its calls to points."""
    try:
        return tuple(x.hex() for x in integrate_1d(counted(g, points), 0.0,
                                                   6.0, **kwargs))
    except NonConvergence as exc:
        return exc.estimate.hex(), exc.error.hex(), str(exc)


@pytest.mark.parametrize("rows, raising", [
    ((KINK, FAST_FAIL), 1), ((KINK, NAN_ROW), 1), ((SLOW_FAIL, FAST_FAIL), 0),
    ((KINK, SLOW_FAIL, FAST_FAIL), 1)])
def test_lockstep_raises_the_first_failing_rows_own_nonconvergence(
        rows, raising):
    """Rows fail while an earlier row still refines, by running out of
    max_evals or meeting a NaN: the stack raises the NonConvergence of
    its first failing row, with the estimate, error and message of that
    row alone, after every row before it is done."""
    kwargs = dict(rel_tol=1e-12, max_evals=3000, max_panel_width=2.0)
    lone_points = [[] for _ in rows]
    lone = [outcome(g, p, **kwargs) for g, p in zip(rows, lone_points)]
    assert all(len(r) == 2 for r in lone[:raising])
    assert len(lone[raising]) == 3
    # a later row fails in an earlier round than an earlier row finishes
    assert min(len(p) for p in lone_points[1:]) < len(lone_points[0])
    points = []
    stacked = outcome(lambda x: [g(x) for g in rows], points, **kwargs)
    assert stacked == lone[raising]
    assert len(points) == max(len(p) for p in lone_points[:raising + 1])


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


def hexed(integrate, f, a, b, **kwargs):
    """integrate's values and errors as float.hex, one pair per row, or
    the estimate, error and message of the NonConvergence it raises."""
    try:
        out = integrate(f, a, b, **kwargs)
    except NonConvergence as exc:
        return exc.estimate.hex(), exc.error.hex(), str(exc)
    return [(v.hex(), e.hex()) for v, e in
            (out if isinstance(out, list) else [out])]


def assert_as_lockstep_reference(rows, a, b, **kwargs):
    """Each row alone and the stack of them give the bits, and raise the
    NonConvergence bits and messages, of the generator-per-row lockstep
    (tests/lockstep_reference.py), and make the same integrand calls."""
    cases = [(g,) for g in rows] + [tuple(rows)]
    for stack in cases:
        f = stack[0] if len(stack) == 1 else \
            lambda x, stack=stack: [g(x) for g in stack]
        got, want = [], []
        assert hexed(integrate_1d, counted(f, got), a, b, **kwargs) \
            == hexed(lockstep_reference.integrate_1d, counted(f, want), a,
                     b, **kwargs)
        assert got == want


def test_stack_matches_lockstep_reference():
    assert_as_lockstep_reference(STACK, 0.0, 6.0, rel_tol=1e-11,
                                 max_panel_width=2.0)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_stacks_match_lockstep_reference(seed):
    rows, rel_tol = seeded_stack(seed)
    assert_as_lockstep_reference(rows, 0.0, 6.0, rel_tol=rel_tol,
                                 max_panel_width=2.0)


@pytest.mark.parametrize("rows", [
    (KINK, FAST_FAIL), (KINK, NAN_ROW), (SLOW_FAIL, FAST_FAIL),
    (KINK, SLOW_FAIL, FAST_FAIL), (NAN_ROW, KINK)])
def test_failing_stacks_match_lockstep_reference(rows):
    assert_as_lockstep_reference(rows, 0.0, 6.0, rel_tol=1e-12,
                                 max_evals=3000, max_panel_width=2.0)


def test_step_into_one_ulp_panels_matches_lockstep_reference():
    """A step at 0.3 on [0.3 - 8 ulp, 0.3 + 8 ulp], alone and stacked,
    refines into max_evals: its 1-ulp panels split again and again, with
    midpoints that round onto an end and make zero-width panels whose
    lo ties with a neighbour's."""
    c = 0.3
    ulp = float(np.spacing(c))
    step = lambda x: np.where(x < c, 0.0, 1.0)
    rows = (step, lambda x: np.exp(-x), lambda x: 2.0 - step(x))
    assert_as_lockstep_reference(rows, c - 8 * ulp, c + 8 * ulp,
                                 rel_tol=1e-300, max_evals=20000)
    nodes = []
    with pytest.raises(NonConvergence, match="20025 evaluations"):
        integrate_1d(lambda x: nodes.append(x) or step(x), c - 8 * ulp,
                     c + 8 * ulp, rel_tol=1e-300, max_evals=20000)
    assert np.ptp(nodes[-1].reshape(-1, 15), axis=1).min() == 0.0


@pytest.mark.parametrize("a, b, width", [
    (0.0, 6.0, 6.0), (0.0, 6.0, 2.5), (0.0, 6.0, 0.7), (0.0, 6.0, 6.0 / 4096),
    (0.0, 6.0, 1e-9), (1.0, 1.0 + 4 * 2.0 ** -52, 1e-300)])
def test_panel_width_partitions_match_lockstep_reference(a, b, width):
    """1 to 4096 first panels, the last at the cap; on a 4-ulp span the
    4096 first panels are mostly zero-width, their lo tied."""
    assert_as_lockstep_reference(STACK, a, b, rel_tol=1e-12,
                                 max_panel_width=width)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0)])
def test_empty_interval_matches_lockstep_reference(a, b):
    assert_as_lockstep_reference(STACK, a, b)


def test_empty_interval_integrates_every_row_to_zero():
    assert integrate_1d(np.sin, 1.0, 1.0) == (0.0, 0.0)
    assert integrate_1d(lambda x: [x, x * x], 2.0, 1.0) \
        == [(0.0, 0.0), (0.0, 0.0)]


@pytest.mark.parametrize("a, b", [
    (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (math.nan, 1.0),
    (-1e308, 1e308)])
@pytest.mark.parametrize("width", [None, 0.5])
def test_integrate_1d_rejects_non_finite_bounds(a, b, width):
    """An infinite or NaN bound, or a span b - a that overflows, is a
    ValueError, not an OverflowError or a numpy warning."""
    with pytest.raises(ValueError, match="bounds"):
        integrate_1d(np.sin, a, b, max_panel_width=width)


@pytest.mark.parametrize("tols", [
    {"rel_tol": -1.0}, {"rel_tol": math.nan}, {"abs_tol": -1.0},
    {"abs_tol": math.nan}, {"rel_tol": 0.0, "abs_tol": 0.0},
    {"rel_tol": math.inf}])
def test_integrate_1d_rejects_tolerances_quadrature_spec_rejects(tols):
    """Negative, NaN or infinite tolerances, or both zero, are a
    ValueError at once, before any evaluation, as in QuadratureSpec."""
    with pytest.raises(ValueError, match="tol"):
        integrate_1d(np.sin, 0.0, 1.0, **tols)
    with pytest.raises(ValueError, match="tol"):
        QuadratureSpec(**tols)


@pytest.mark.parametrize("max_evals", [14, 0, -1, math.nan, math.inf])
def test_integrate_1d_rejects_max_evals_below_one_panel(max_evals):
    with pytest.raises(ValueError, match="max_evals"):
        integrate_1d(np.sin, 0.0, 1.0, max_evals=max_evals)


@pytest.mark.parametrize("width", [-1.0, 0.0, -math.inf, math.nan])
def test_integrate_1d_rejects_panel_width_not_positive(width):
    """A max_panel_width that is not positive is a ValueError, not zeros
    or a ZeroDivisionError; an infinite width is one panel."""
    with pytest.raises(ValueError, match="max_panel_width"):
        integrate_1d(np.sin, 0.0, 1.0, max_panel_width=width)
    val, _ = integrate_1d(np.sin, 0.0, 1.0, max_panel_width=math.inf)
    assert val == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)


@pytest.mark.parametrize("rC", [math.inf, math.nan, -math.inf, 0.0, -1.0])
def test_k3_rejects_rC_not_positive_and_finite(rC):
    """An rC that is not positive and finite is a ValueError; an infinite
    rC would otherwise integrate over an empty ball, to (0, 0)."""
    with pytest.raises(ValueError, match="rC"):
        integrate_k3(lambda k: np.exp(-k * k), rC)


@pytest.mark.parametrize("scale", [math.inf, math.nan, -1e-6])
def test_k3_rejects_oscillation_scale_negative_or_not_finite(scale):
    """A negative or non-finite oscillation_scale is a ValueError; 0, like
    None, starts from one panel."""
    f = lambda k: np.exp(-k * k)
    with pytest.raises(ValueError, match="oscillation_scale"):
        integrate_k3(f, 1.0, oscillation_scale=scale)
    assert integrate_k3(f, 1.0, oscillation_scale=0.0) == integrate_k3(f, 1.0)


NON_FINITE = """
import numpy as np
from cslbounds.quadrature import NonConvergence, integrate_1d
nan = lambda k: np.where(k > 0.5, np.nan, 1.0)
inf = lambda k: np.where(k > 0.5, np.inf, 1.0)
mixed = lambda k: np.where(k > 0.6, np.inf, np.where(k < 0.3, -np.inf, 1.0))
cases = [nan, inf, mixed,
         lambda k: [np.exp(-k), nan(k), inf(k)],
         lambda k: [np.exp(-k), inf(k), nan(k)]]
for f in cases:
    try:
        integrate_1d(f, 0.0, 1.0, max_evals=10000)
        print("returned")
    except NonConvergence as exc:
        print(repr(exc.estimate), repr(exc.error))
"""


def test_non_finite_integrand_raises_nonconvergence():
    """A NaN or infinite node value raises NonConvergence at once, with
    the row's estimate and error, for NaN, +inf and mixed +-inf alike; a
    stack raises for its first such row.  Run apart, with numpy warnings
    as errors, so that a loop that never ends fails on the timeout."""
    src = str(Path(cslbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", NON_FINITE],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split("\n")[:-1] == [
        "nan nan", "inf nan", "nan nan", "nan nan", "inf nan"]
