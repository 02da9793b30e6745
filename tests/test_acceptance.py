"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with -s to see the lines; every tolerance and runtime budget is
asserted, so a plain pytest run is the gate.
"""

import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cslbounds import (CONSTANTS, GRW_LAMBDA, GRW_RC, CollapseParams,
                       ColoredNoiseModel, Cuboid, Cylinder, ExperimentRecord,
                       Multilayer, OptomechConfig, Point, PointLattice,
                       QuadratureSpec, SimConfig, Sphere, csl_force_spectrum,
                       csl_torque_spectrum, displacement_dns, exclusion_scan,
                       free_expansion_spread, heating_rate,
                       high_temperature_limit_check, lambda_upper_bound,
                       simulate_langevin)
from cslbounds.optomech import thermal_force_term

GRW = CollapseParams(GRW_LAMBDA, GRW_RC)


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# independent lattice discretizations used as oracles

def cuboid_lattice(g, n):
    cs = []
    for L in (g.Lx, g.Ly, g.Lz):
        e = np.linspace(-L / 2.0, L / 2.0, n + 1)
        cs.append(0.5 * (e[:-1] + e[1:]))
    X, Y, Z = np.meshgrid(*cs, indexing="ij")
    pos = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    return PointLattice(pos, np.full(pos.shape[0], g.m / pos.shape[0]))


def sphere_lattice(g, n):
    re = np.linspace(0.0, g.R, n + 1)
    rmid = 0.5 * (re[:-1] + re[1:])
    cosn, cosw = leggauss(n)
    phis = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    Rg, Cg, Pg = np.meshgrid(rmid, cosn, phis, indexing="ij")
    Wr, Wc, Wp = np.meshgrid(rmid ** 2 * (re[1] - re[0]), cosw,
                             np.full(n, 2.0 * np.pi / n), indexing="ij")
    w = (Wr * Wc * Wp).ravel()
    st = np.sqrt(1.0 - Cg ** 2)
    pos = np.stack([(Rg * st * np.cos(Pg)).ravel(),
                    (Rg * st * np.sin(Pg)).ravel(),
                    (Rg * Cg).ravel()], axis=-1)
    return PointLattice(pos, g.m * w / np.sum(w))


def cylinder_lattice(g, n):
    re = np.linspace(0.0, g.R, n + 1)
    rmid = 0.5 * (re[:-1] + re[1:])
    phis = (np.arange(2 * n) + 0.5) * (2.0 * np.pi / (2 * n))
    ze = np.linspace(-g.L / 2.0, g.L / 2.0, n + 1)
    zc = 0.5 * (ze[:-1] + ze[1:])
    Rg, Pg, Zg = np.meshgrid(rmid, phis, zc, indexing="ij")
    w = (Rg * (re[1] - re[0]) * (phis[1] - phis[0]) * (ze[1] - ze[0])).ravel()
    pos = np.stack([(Rg * np.cos(Pg)).ravel(), (Rg * np.sin(Pg)).ravel(),
                    Zg.ravel()], axis=-1)
    return PointLattice(pos, g.m * w / np.sum(w))


def test_01_point_mass_closed_form():
    t0 = time.time()
    quad = float(csl_force_spectrum(Point(CONSTANTS.m0), GRW,
                                    method="quadrature"))
    elapsed = time.time() - t0
    closed = CONSTANTS.hbar ** 2 * GRW_LAMBDA / (2.0 * GRW_RC ** 2)
    rel = abs(quad - closed) / closed
    ok = rel < 1e-6 and elapsed < 1.0 and closed == pytest.approx(
        5.57e-71, rel=1e-2, abs=0.0)
    report(1, ok, f"point-mass quadrature vs closed form rel {rel:.2e}, "
           f"{elapsed:.2f} s (closed {closed:.4e} N^2 s)")


def test_02_lattice_oracle_equivalence():
    t0 = time.time()
    cases = [
        (Sphere(1e-12, 5e-7), sphere_lattice, 24),
        (Cuboid(1e-12, 1e-6, 1e-6, 1e-6), cuboid_lattice, 24),
        (Cylinder(1e-13, 2e-7, 1e-6), cylinder_lattice, 16),
    ]
    worst = 0.0
    for g, make, n in cases:
        lat = make(g, n)
        assert lat.masses.size <= 32 ** 3
        for factor in (0.1, 1.0, 10.0):
            p = CollapseParams(GRW_LAMBDA, factor * g.largest_dimension)
            want = float(csl_force_spectrum(g, p))
            got = float(csl_force_spectrum(lat, p))
            worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - t0
    ok = worst < 1e-2 and elapsed < 120.0
    report(2, ok, f"lattice vs continuum worst rel {worst:.2e} over 9 "
           f"cases (<= 32^3 points), {elapsed:.0f} s")


def test_03_free_expansion_and_monte_carlo():
    t0 = time.time()
    got = free_expansion_spread(GRW, 1.0)
    formula = GRW_LAMBDA * CONSTANTS.hbar ** 2 \
        / (2.0 * CONSTANTS.m0 ** 2 * GRW_RC ** 2)
    exact_ok = got == pytest.approx(formula, rel=1e-12, abs=0.0)
    # the reference value is quoted to three significant figures, so the
    # comparison admits half an ulp of that rounding (2.5e-3); the exact
    # formula value 1.98759e-17 rounds to it
    ref_rel = abs(got - 1.99e-17) / 1.99e-17
    ref_ok = ref_rel < 2.5e-3

    cfg = OptomechConfig(m=CONSTANTS.m0, omega_m=1.0, gamma_m=0.0, T=0.0)
    sim = SimConfig(dt=1.0 / 4096, steps=4096, trajectories=1500, seed=42)
    res = simulate_langevin(cfg, GRW, Point(CONSTANTS.m0), sim,
                            free_particle=True)
    t = res.times[res.times.size // 2:]
    msd = np.mean(res.xs[:, res.times.size // 2:] ** 2, axis=0)
    coef = float(np.sum(msd * t ** 3) / np.sum(t ** 6))
    expected = res.force_psd_total / (3.0 * CONSTANTS.m0 ** 2)
    mc_rel = abs(coef / expected - 1.0)
    elapsed = time.time() - t0
    ok = exact_ok and ref_ok and mc_rel < 0.05 and elapsed < 300.0
    report(3, ok, f"spread {got:.4e} m^2 (ref dev {ref_rel:.1e}), MC t^3 "
           f"coefficient dev {mc_rel:.1%} at {sim.trajectories} "
           f"trajectories, {elapsed:.0f} s")


def test_04_hydrogen_heating_order():
    rate = heating_rate(Point(CONSTANTS.m0), GRW)
    ok = 1e-15 <= rate <= 1e-13
    report(4, ok, f"single-nucleon heating rate {rate:.3e} K/yr in "
           "[1e-15, 1e-13]")


def test_05_v_shape():
    R = 1e-6
    rec = ExperimentRecord(name="v", geometry=Sphere(1e-11, R),
                           channel="force", budget=1e-37, band=(1e3, 1e4))
    grid = np.logspace(-8.5, -4.0, 60)
    curve = exclusion_scan(rec, grid)
    lam = curve.lambda_ub
    i_min = int(np.argmin(lam))
    rc_min = grid[i_min]
    slopes = np.sign(np.diff(np.log(lam)))
    changes = int(np.sum(np.abs(np.diff(slopes)) > 0))
    ok = 0.1 * R <= rc_min <= 10.0 * R and changes == 1
    report(5, ok, f"V-shape minimum at rC = {rc_min:.2e} m "
           f"(window [{0.1 * R:.0e}, {10 * R:.0e}]), slope sign "
           f"changes {changes}")


def test_06_mass_squared_law():
    spec = QuadratureSpec(rel_tol=1e-6)
    grid = np.logspace(-8, -5, 25)
    base = ExperimentRecord(name="m", geometry=Sphere(1e-12, 5e-7),
                            channel="force", budget=1e-37, band=(1e3, 1e4))
    dense = ExperimentRecord(name="m10", geometry=Sphere(1e-11, 5e-7),
                             channel="force", budget=1e-37, band=(1e3, 1e4))
    c1 = exclusion_scan(base, grid, spec=spec)
    c10 = exclusion_scan(dense, grid, spec=spec)
    ratio = c1.lambda_ub / c10.lambda_ub
    worst = float(np.max(np.abs(ratio - 100.0) / 100.0))
    ok = worst < 2.0 * spec.rel_tol
    report(6, ok, f"10x density tightens lambda_ub by 100 within "
           f"{worst:.2e} <= 2 relTol at all {grid.size} points")


def test_07_rotational_null(tmp_path):
    m = 1e-13
    R = 2e-7
    cyl = Cylinder(m, R, 1e-6)
    p = CollapseParams(GRW_LAMBDA, R)
    s_cyl = float(csl_torque_spectrum(cyl, p))
    s_sph = float(csl_torque_spectrum(Sphere(m, R), p))
    null_ok = s_sph <= 1e-10 * s_cyl

    from cslbounds.cli import main
    conf = tmp_path / "degenerate.ini"
    conf.write_text("""
[experiment]
name = torque_sphere
channel = torque
budget_n2m2_s = 1e-54
band_lo_khz = 1
band_hi_khz = 10
geometry_type = sphere
geometry_mass_kg = 1e-13
geometry_radius_nm = 200
rc_min_m = 1e-8
rc_max_m = 1e-6
rc_points = 8
""")
    code = main(["exclusion", "--config", str(conf), "--out",
                 str(tmp_path / "out")])
    rows = (tmp_path / "out" / "exclusion.csv").read_text().splitlines()[1:]
    sentinel_ok = code == 0 and all("degenerate" in r for r in rows)
    ok = null_ok and sentinel_ok
    report(7, ok, f"sphere torque {s_sph:.1e} <= 1e-10 x cylinder "
           f"{s_cyl:.3e}; degenerate scan exit {code} with sentinel rows")


def test_08_colored_weakening():
    band = (2.0 * np.pi * 900.0, 2.0 * np.pi * 1100.0)

    def rec(colored):
        return ExperimentRecord(name="c", geometry=Sphere(1e-12, 5e-7),
                                channel="force", budget=1e-37, band=band,
                                colored=colored)

    rC = 1e-7
    white, _ = lambda_upper_bound(rec(None), rC)
    slow, _ = lambda_upper_bound(
        rec(ColoredNoiseModel("lorentzian_cutoff", omega_c=1.0)), rC)
    fast, _ = lambda_upper_bound(
        rec(ColoredNoiseModel("lorentzian_cutoff", omega_c=1e15)), rC)
    weak = slow / white
    match = abs(fast - white) / white
    ok = weak >= 1e3 and match < 1e-3
    report(8, ok, f"1 kHz band: Omega_C = 1 rad/s weakens bound by "
           f"{weak:.1e} (>= 1e3); Omega_C = 1e15 matches white to "
           f"{match:.1e}")


def test_09_dns_limits():
    cfg = OptomechConfig(m=1e-12, omega_m=2.0 * np.pi * 3e3,
                         gamma_m=2.0 * np.pi * 200.0, T=300.0)
    g = Sphere(1e-12, 5e-7)
    omegas = np.logspace(2, 6, 400)

    # chi = 0: exactly the thermal+CSL driven mechanical Lorentzian
    got = displacement_dns(cfg, GRW, g, omegas).values
    s_csl = float(csl_force_spectrum(g, GRW))
    d2 = (cfg.omega_m ** 2 - omegas ** 2) ** 2 \
        + cfg.gamma_m ** 2 * omegas ** 2
    want = (thermal_force_term(cfg, omegas) + s_csl) / (cfg.m ** 2 * d2)
    chi_dev = float(np.max(np.abs(got - want) / want))

    # high-temperature limit at T = 300 K, omega/2pi = 1 kHz
    exact, limit = high_temperature_limit_check(cfg, GRW, g,
                                                2.0 * np.pi * 1e3)
    ht_dev = abs(exact - limit) / limit

    # CSL additivity, exact pointwise on the additive collapse component
    # (differencing full 300 K spectra would only measure cancellation
    # noise, the thermal term exceeds the CSL term by many decades)
    c1 = displacement_dns(cfg, GRW, g, omegas,
                          components=True)[1]["csl"]
    c2 = displacement_dns(cfg, CollapseParams(2.0 * GRW_LAMBDA, GRW_RC), g,
                          omegas, components=True)[1]["csl"]
    total1 = displacement_dns(cfg, GRW, g, omegas).values
    base = displacement_dns(cfg, CollapseParams(0.0, GRW_RC), g,
                            omegas).values
    add_dev = float(max(np.max(np.abs(c2 - 2.0 * c1) / c2),
                        np.max(np.abs(total1 - (base + c1))
                               / total1)))

    ok = chi_dev < 1e-12 and ht_dev < 1e-5 and add_dev < 1e-12
    report(9, ok, f"chi = 0 reduction dev {chi_dev:.1e}; high-T dev "
           f"{ht_dev:.1e}; CSL additivity dev {add_dev:.1e}")


def test_10_multilayer_enhancement():
    d = 1e-7
    n_layers = 20
    ml = Multilayer(n_layers, d, d, 19300.0, 100.0, 2e-6, 2e-6)
    cub = Cuboid(ml.total_mass, 2e-6, 2e-6, ml.stack_thickness)

    def rec(geometry):
        return ExperimentRecord(name="ml", geometry=geometry,
                                channel="force", budget=1e-37,
                                band=(1e3, 1e4))

    ratios = []
    for factor in (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0):
        rC = factor * d
        l_ml, _ = lambda_upper_bound(rec(ml), rC)
        l_cub, _ = lambda_upper_bound(rec(cub), rC)
        ratios.append(l_ml / l_cub)
    ok = all(r < 1.0 for r in ratios)
    report(10, ok, "equal-mass multilayer vs cuboid lambda_ub ratios "
           + ", ".join(f"{r:.3f}" for r in ratios)
           + " at rC/d in [1/3, 3] (all < 1)")


def test_11_performance_and_determinism():
    rec = ExperimentRecord(name="perf", geometry=Cylinder(1e-13, 2e-7, 1e-6),
                           channel="force", budget=1e-37, band=(1e3, 1e4))
    grid = np.logspace(-9, -4, 100)
    spec = QuadratureSpec(rel_tol=1e-6)
    t0 = time.time()
    four = exclusion_scan(rec, grid, spec=spec, workers=4)
    elapsed = time.time() - t0
    one = exclusion_scan(rec, grid, spec=spec, workers=1)
    two = exclusion_scan(rec, grid, spec=spec, workers=2)
    same = (np.array_equal(four.lambda_ub, one.lambda_ub)
            and np.array_equal(four.lambda_ub, two.lambda_ub)
            and four.status == one.status == two.status)
    ok = elapsed < 180.0 and same
    report(11, ok, f"100-point cylinder scan {elapsed:.1f} s on 4 workers "
           f"(< 180 s); identical across 1/2/4 workers: {same}")
