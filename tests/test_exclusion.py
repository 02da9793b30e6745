"""Budget inversion, degenerate sentinels and the scan machinery."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cslbounds
from cslbounds import exclusion
from cslbounds import (CollapseParams, ColoredNoiseModel, Cuboid, Cylinder,
                       DegenerateBound, ExperimentRecord, Multilayer, Point,
                       Sphere, TwoBody, combine_exclusions,
                       csl_force_spectrum, default_rc_grid, exclusion_scan,
                       lambda_upper_bound)


def sphere_record(budget=1e-37, **overrides):
    params = dict(name="sph", geometry=Sphere(1e-12, 5e-7), channel="force",
                  budget=budget, band=(1e3, 1e4))
    params.update(overrides)
    return ExperimentRecord(**params)


def test_bound_inverts_the_spectrum():
    rec = sphere_record()
    rC = 2e-7
    lam, rel_err = lambda_upper_bound(rec, rC)
    s_unit = float(csl_force_spectrum(rec.geometry, CollapseParams(1.0, rC)))
    assert lam == pytest.approx(rec.budget / s_unit, rel=1e-10, abs=0.0)
    assert 0 <= rel_err < 1e-4
    # saturation: at lambda = lam the model exactly spends the budget
    s_at = float(csl_force_spectrum(rec.geometry, CollapseParams(lam, rC)))
    assert s_at == pytest.approx(rec.budget, rel=1e-6, abs=0.0)


def test_bound_linear_in_budget():
    rC = 1e-7
    l1, _ = lambda_upper_bound(sphere_record(budget=1e-37), rC)
    l5, _ = lambda_upper_bound(sphere_record(budget=5e-37), rC)
    assert l5 == pytest.approx(5.0 * l1, rel=1e-12, abs=0.0)


def test_point_bound_scales_as_rc_squared():
    rec = ExperimentRecord(name="pt", geometry=Point(1e-15), channel="force",
                           budget=1e-40, band=(1.0, 10.0))
    l1, _ = lambda_upper_bound(rec, 1e-7)
    l2, _ = lambda_upper_bound(rec, 2e-7)
    assert l2 == pytest.approx(4.0 * l1, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rC", [1e-9, 3.2e-9, 1e-8])
def test_large_cylinder_force_is_finite_and_bounded(rC):
    """A 1 mm x 1 cm cylinder at rC where R^2 / 2rC^2 exceeds 2^30: a
    finite force with a finite error, and a bound."""
    g = Cylinder(0.1, 1e-3, 1e-2)
    s = csl_force_spectrum(g, CollapseParams(1.0, rC))
    assert np.isfinite(float(s)) and float(s) > 0.0
    assert np.isfinite(s.error) and s.error < 1e-12 * float(s)
    rec = ExperimentRecord(name="cyl", geometry=g, channel="force",
                           budget=1e-30, band=(1e3, 1e4))
    lam, rel_err = lambda_upper_bound(rec, rC)
    assert np.isfinite(lam) and lam > 0.0 and rel_err < 1e-12


def test_degenerate_torque_on_sphere():
    rec = ExperimentRecord(name="s", geometry=Sphere(1e-12, 5e-7),
                           channel="torque", budget=1e-50, band=(1e3, 1e4))
    with pytest.raises(DegenerateBound):
        lambda_upper_bound(rec, 1e-7)
    curve = exclusion_scan(rec, np.array([1e-8, 1e-7, 1e-6]))
    assert all(s == "degenerate" for s in curve.status)
    assert np.all(np.isnan(curve.lambda_ub))


def test_degenerate_spinning_cylinder():
    spinning = Cylinder(1e-13, 2e-7, 1e-6, axis=(1.0, 0.0, 0.0))
    rec = ExperimentRecord(name="spin", geometry=spinning, channel="torque",
                           budget=1e-50, band=(1e3, 1e4))
    with pytest.raises(DegenerateBound):
        lambda_upper_bound(rec, 1e-7)


def test_scan_and_combine():
    grid = np.logspace(-8, -5, 16)
    weak = exclusion_scan(sphere_record(budget=1e-35), grid)
    strong = exclusion_scan(sphere_record(budget=1e-37), grid)
    combined = combine_exclusions([weak, strong])
    assert np.allclose(combined.lambda_ub, strong.lambda_ub)
    assert np.allclose(combined.lambda_ub,
                       np.minimum(weak.lambda_ub, strong.lambda_ub))
    assert combined.status == tuple(["ok"] * grid.size)


def test_combine_with_degenerate_curve():
    grid = np.logspace(-8, -5, 8)
    force = exclusion_scan(sphere_record(), grid)
    torque = exclusion_scan(
        ExperimentRecord(name="s", geometry=Sphere(1e-12, 5e-7),
                         channel="torque", budget=1e-50, band=(1e3, 1e4)),
        grid)
    combined = combine_exclusions([force, torque])
    assert np.allclose(combined.lambda_ub, force.lambda_ub)


def _curve(rCs, lam, status, name="c"):
    lam = np.asarray(lam, dtype=float)
    err = np.where(np.isnan(lam), np.nan, 1e-12)
    return exclusion.ExclusionCurve(np.asarray(rCs, dtype=float), lam, err,
                                    status, name)


@pytest.mark.parametrize("status, match", [
    (("ok",), "1 entries for 3 grid points"),
    (("ok",) * 4, "4 entries for 3 grid points"),
    (("ok", "ok", "maybe"), "got 'maybe'"),
    (("ok", None, "ok"), "got None")])
def test_curve_rejects_a_status_that_does_not_fit_its_grid(status, match):
    """A status of another length than the grid, or with a word other
    than ok, degenerate and nonconvergent, is rejected at construction."""
    with pytest.raises(ValueError, match=match):
        _curve([1e-9, 1e-8, 1e-7], [1.0, 2.0, 3.0], status)


@pytest.mark.parametrize("make, match", [
    (lambda: combine_exclusions([]), "need at least one curve"),
    (lambda: exclusion.ExclusionCurve(np.array([1e-9, 1e-8]), np.ones(1),
                                      np.ones(2), ("ok", "ok"), "c"),
     "grid arrays must be equal-length 1D"),
    (lambda: _curve([1e-9, 1e-8], [1.0, 0.0], ("ok", "ok")),
     "valid bounds must be positive and finite"),
    (lambda: _curve([1e-9, 1e-8], [-1.0, 1.0], ("ok", "degenerate")),
     "valid bounds must be positive and finite"),
], ids=["combine_no_curves", "unequal_arrays", "zero_ok_bound",
        "negative_ok_bound"])
def test_curve_and_combine_reject_bad_input(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_combine_rejects_grids_below_the_default_atol():
    """Grids that differ by half their spacing at rC ~ 1e-9 m are
    different grids, although np.allclose's default atol of 1e-8 would
    accept them."""
    a = _curve([1e-9, 1e-8], [1.0, 2.0], ("ok", "ok"))
    b = _curve([5e-9, 1.5e-8], [1.0, 2.0], ("ok", "ok"))
    with pytest.raises(exclusion.GridMismatch):
        combine_exclusions([a, b])
    with pytest.raises(ValueError):   # GridMismatch is a ValueError
        combine_exclusions([a, _curve([1e-9, 1e-8, 1e-7], [1.0] * 3,
                                      ("ok",) * 3)])


def test_combine_accepts_grids_equal_to_rounding():
    grid = np.logspace(-9, -5, 5)
    a = _curve(grid, [3.0] * 5, ("ok",) * 5)
    b = _curve(grid * (1.0 + 1e-15), [1.0] * 5, ("ok",) * 5)
    assert np.array_equal(combine_exclusions([a, b]).lambda_ub, np.ones(5))
    with pytest.raises(exclusion.GridMismatch):
        combine_exclusions([a, _curve(grid * (1.0 + 1e-9), [1.0] * 5,
                                      ("ok",) * 5)])


def test_combine_all_nan_point_is_silent_and_keeps_its_reason():
    """Where no curve is ok the point reads nonconvergent if any curve
    is, else degenerate, without numpy's All-NaN RuntimeWarning."""
    import warnings
    grid = [1e-9, 1e-8, 1e-7]
    a = _curve(grid, [np.nan, np.nan, 2.0],
               ("degenerate", "nonconvergent", "ok"))
    b = _curve(grid, [np.nan, np.nan, 1.0],
               ("degenerate", "degenerate", "ok"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        combined = combine_exclusions([a, b])
    assert combined.status == ("degenerate", "nonconvergent", "ok")
    assert np.isnan(combined.lambda_ub[:2]).all()
    assert np.isnan(combined.errors[:2]).all()
    assert combined.lambda_ub[2] == 1.0 and combined.errors[2] == 1e-12


def test_colored_filter_weakens_bound():
    # band far above the cutoff: the filtered response is tiny, so the
    # allowed collapse rate is much larger
    white = sphere_record()
    colored = sphere_record(
        colored=ColoredNoiseModel("lorentzian_cutoff", omega_c=1.0))
    lw, _ = lambda_upper_bound(white, 1e-7)
    lc, _ = lambda_upper_bound(colored, 1e-7)
    assert lc > 1e3 * lw


def test_temperature_shift_channels():
    rec = sphere_record(channel="temperature_shift", budget=1e-6,
                        m=1e-12, gamma=0.1)
    lam, _ = lambda_upper_bound(rec, 1e-7)
    assert lam > 0
    # rotational readout via d_phi on a transverse cylinder
    rot = ExperimentRecord(name="rot", geometry=Cylinder(1e-13, 2e-7, 1e-6),
                           channel="temperature_shift", budget=1e-6,
                           band=(1e3, 1e4), d_phi=1e-3)
    lam_rot, _ = lambda_upper_bound(rot, 1e-7)
    assert lam_rot > 0


def test_scan_deterministic_across_workers():
    rec = ExperimentRecord(name="cyl", geometry=Cylinder(1e-13, 2e-7, 1e-6),
                           channel="torque", budget=1e-54, band=(1e3, 1e4))
    grid = np.logspace(-8, -5, 24)
    one = exclusion_scan(rec, grid, workers=1)
    four = exclusion_scan(rec, grid, workers=4)
    assert np.array_equal(one.lambda_ub, four.lambda_ub)
    assert np.array_equal(one.errors, four.errors)
    assert one.status == four.status


def test_threaded_scan_under_frequent_switching():
    """More threads than this machine's cores, switching every
    microsecond, and points on every route a cylinder scan takes: each
    point still equals the serial scan's bit for bit, so the workers
    share no temporary."""
    rec = ExperimentRecord(name="cyl", channel="torque",
                           geometry=Cylinder(1e-13, 2e-7, 1e-6,
                                             axis=(0.3, 0.4, 0.866)),
                           budget=1e-54, band=(1e3, 1e4))
    grid = np.logspace(-8, -5, 12)
    serial = exclusion_scan(rec, grid)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = exclusion_scan(rec, grid, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial.lambda_ub, threaded.lambda_ub)
    assert np.array_equal(serial.errors, threaded.errors)
    assert serial.status == threaded.status


def fresh_profile_records():
    """Records on the closed-form profile routes, each body built anew, so
    that its profiles and their layer and edge data are not built yet."""
    def stack(axis):
        return Multilayer(6, 2e-7, 3e-7, 19300.0, 2330.0, 1e-5, 1e-5, axis)

    def cylinder():
        return Cylinder(1e-14, 1e-7, 1e-6, (0.3, 0.4, 0.8))
    band = (1e3, 1e4)
    return [
        ExperimentRecord("ml_force", stack("z"), "force", 1e-30, band),
        ExperimentRecord("ml_two_body", TwoBody(stack("x"), 5e-6),
                         "force_two_body", 1e-30, band),
        ExperimentRecord("ml_torque", stack("y"), "torque", 1e-40, band),
        ExperimentRecord("cuboid_torque", Cuboid(1e-12, 1e-6, 2e-6, 3e-6),
                         "torque", 1e-40, band),
        ExperimentRecord("cyl_force", cylinder(), "force", 1e-30, band),
        ExperimentRecord("cyl_two_body", TwoBody(cylinder(), 1e-6),
                         "force_two_body", 1e-30, band),
        ExperimentRecord("cyl_torque", cylinder(), "torque", 1e-40, band)]


def test_threaded_first_use_of_fresh_bodies():
    """Fresh Multilayer, Cuboid and tilted Cylinder bodies scanned first
    by 4 threads switching every microsecond, so that several points race
    to build the same profile data (functools.cached_property takes no
    lock from Python 3.12 on): every point equals a serial scan of an
    equal, separately built body bit for bit."""
    grid = np.logspace(-9, -4, 24)   # both sides of the bodies' extents
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [exclusion_scan(rec, grid, workers=4)
                    for rec in fresh_profile_records()]
    finally:
        sys.setswitchinterval(interval)
    serial = [exclusion_scan(rec, grid) for rec in fresh_profile_records()]
    for one, four in zip(serial, threaded, strict=True):
        assert set(one.status) == {"ok"}, one.name
        assert np.array_equal(one.lambda_ub, four.lambda_ub), one.name
        assert np.array_equal(one.errors, four.errors), one.name
        assert one.status == four.status


def test_parallel_scan_imports_into_the_caller():
    """A parallel scan runs its points in threads of the calling process,
    so what they import (scipy.special, loaded by the cylinder's first
    Bessel call) is loaded once, in the caller; multiprocessing is never
    loaded."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from cslbounds import Cylinder, ExperimentRecord, "
            "exclusion_scan\n"
            "rec = ExperimentRecord(name='cyl', channel='torque',\n"
            "                       geometry=Cylinder(1e-13, 2e-7, 1e-6),\n"
            "                       budget=1e-54, band=(1e3, 1e4))\n"
            "curve = exclusion_scan(rec, np.logspace(-8, -5, 4), workers=2)\n"
            "print(curve.status, 'scipy.special' in sys.modules,\n"
            "      'multiprocessing' in sys.modules)\n")
    src = str(Path(cslbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip() == "('ok', 'ok', 'ok', 'ok') True False"


@pytest.mark.parametrize("workers, points", [(2, 5), (3, 2), (64, 3)])
def test_thread_pool_capped_at_the_grid(monkeypatch, workers, points):
    """The pool never has more threads than grid points; a recording
    stand-in for the executor runs the points in the calling thread."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(exclusion, "ThreadPoolExecutor", Recorder)
    rec = sphere_record()
    grid = np.logspace(-8, -6, points)
    curve = exclusion_scan(rec, grid, workers=workers)
    assert sizes == [min(workers, points)]
    assert np.array_equal(curve.lambda_ub,
                          exclusion_scan(rec, grid).lambda_ub)


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_calls_the_module_global_scan_point(monkeypatch, workers):
    """exclusion_scan looks _scan_point up in the module at each call, so a
    wrapper set there (the benchmark's per-point timer) sees every grid
    point once: at 1 worker in grid order, and at 2 in the pool's
    threads, whose curve is the serial one in grid order.  Which of two
    running threads enters the wrapper first is not fixed, so at 2 only
    the set of points is checked."""
    seen = []
    scan_point = exclusion._scan_point

    def wrapper(job):
        seen.append(job[1])
        return scan_point(job)

    rec = sphere_record()
    grid = np.logspace(-8, -6, 5)
    serial = exclusion_scan(rec, grid)
    monkeypatch.setattr(exclusion, "_scan_point", wrapper)
    curve = exclusion_scan(rec, grid, workers=workers)
    want = grid.tolist()
    assert (seen if workers == 1 else sorted(seen)) == want
    assert all(type(rC) is float for rC in seen)
    assert np.array_equal(curve.lambda_ub, serial.lambda_ub)
    assert curve.status == serial.status


@pytest.mark.parametrize("workers", [0, -1])
def test_scan_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        exclusion_scan(sphere_record(), np.logspace(-8, -6, 3),
                       workers=workers)


@pytest.mark.parametrize("workers", [2.5, "2", None])
def test_scan_rejects_workers_that_are_not_integers(workers):
    with pytest.raises(ValueError, match="workers must be an integer"):
        exclusion_scan(sphere_record(), np.logspace(-8, -6, 3),
                       workers=workers)


def test_scan_takes_a_numpy_integer_for_workers():
    rec, grid = sphere_record(), np.logspace(-8, -6, 3)
    two = exclusion_scan(rec, grid, workers=np.int64(2))
    one = exclusion_scan(rec, grid)
    assert np.array_equal(two.lambda_ub, one.lambda_ub)
    assert np.array_equal(two.errors, one.errors)
    assert two.status == one.status


def test_default_grid_brackets_conventional_value():
    grid = default_rc_grid()
    assert grid[0] <= 1e-7 <= grid[-1]
    assert np.all(np.diff(np.log(grid)) > 0)


@pytest.mark.parametrize("rc_min, rc_max", [
    (0.0, 1e-3), (1e-9, np.inf), (-1e-9, 1e-3), (1e-3, 1e-9), (np.nan, 1e-3)])
def test_default_grid_rejects_bad_bounds(rc_min, rc_max):
    with pytest.raises(ValueError, match="rc_min < rc_max"):
        default_rc_grid(rc_min, rc_max)


def test_record_validation():
    with pytest.raises(ValueError):
        sphere_record(budget=-1.0)
    with pytest.raises(ValueError):
        sphere_record(channel="momentum")
    with pytest.raises(ValueError):
        sphere_record(band=(10.0, 1.0))
    with pytest.raises(ValueError):
        # TwoBody requires the pair channel
        ExperimentRecord(name="x", geometry=TwoBody(Point(1.0), 1e-6),
                         channel="force", budget=1.0, band=(1.0, 2.0))
    with pytest.raises(ValueError):
        # pair channel requires TwoBody
        sphere_record(channel="force_two_body")
    with pytest.raises(ValueError):
        # temperature shift needs exactly one readout description
        sphere_record(channel="temperature_shift", m=1.0, gamma=0.1,
                      d_phi=1e-3)
    with pytest.raises(ValueError):
        sphere_record(channel="temperature_shift")


def test_scan_grid_validation():
    rec = sphere_record()
    with pytest.raises(ValueError):
        exclusion_scan(rec, np.array([1e-7]))
    with pytest.raises(ValueError):
        exclusion_scan(rec, np.array([1e-7, 1e-8]))


def test_record_rejects_infinite_budget():
    with pytest.raises(ValueError, match="finite"):
        sphere_record(budget=np.inf)


@pytest.mark.parametrize("band", [(1e3, np.inf), (np.nan, 1e4),
                                  (1e3, np.nan)],
                         ids=["inf_hi", "nan_lo", "nan_hi"])
def test_record_rejects_non_finite_band(band):
    with pytest.raises(ValueError, match="band"):
        sphere_record(band=band)


@pytest.mark.parametrize("readout", [
    dict(m=np.nan, gamma=0.1), dict(m=1e-12, gamma=np.inf),
    dict(m=-1e-12, gamma=0.1), dict(m=1e-12, gamma=0.0),
    dict(d_phi=np.nan), dict(d_phi=np.inf), dict(d_phi=0.0),
], ids=["nan_m", "inf_gamma", "negative_m", "zero_gamma", "nan_d_phi",
        "inf_d_phi", "zero_d_phi"])
def test_temperature_shift_record_rejects_bad_readout(readout):
    # these would otherwise give a NaN, infinite or negative bound
    with pytest.raises(ValueError, match="finite and positive"):
        sphere_record(channel="temperature_shift", **readout)


def test_nonconvergent_point_has_no_relative_error(monkeypatch):
    """A point whose quadrature gave up carries NaN, not the absolute
    error of the failed inner moment, in the relative-error column."""
    def give_up(*args, **kwargs):
        raise exclusion.NonConvergence("budget spent", 1e-30, 1e-31)

    monkeypatch.setattr(exclusion, "lambda_upper_bound", give_up)
    curve = exclusion_scan(sphere_record(), np.array([1e-8, 1e-7]))
    assert curve.status == ("nonconvergent", "nonconvergent")
    assert np.all(np.isnan(curve.errors))
    assert np.all(np.isnan(curve.lambda_ub))


@pytest.mark.parametrize("value, error", [(np.nan, 0.0), (1e-30, np.nan)])
def test_non_finite_spectrum_names_its_route(monkeypatch, value, error):
    """A route that returns a NaN value, or a finite value with a NaN
    error, is a defect: lambda_upper_bound and exclusion_scan raise a
    FloatingPointError that names the route, the geometry type, the
    channel and rC, instead of a degenerate or an ok point."""
    from cslbounds import cslnoise

    def broken(*args):
        return value, error

    monkeypatch.setitem(cslnoise._ROUTES, (Sphere, "force"),
                        ("radial", broken))
    rec = sphere_record()
    want = r"radial route .* Sphere force at rC = 2e-07"
    with pytest.raises(FloatingPointError, match=want):
        lambda_upper_bound(rec, 2e-7)
    with pytest.raises(FloatingPointError, match="radial route"):
        exclusion_scan(rec, np.array([1e-7, 2e-7]), workers=2)
