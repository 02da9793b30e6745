"""Analytic displacement spectrum limits and the Langevin Monte Carlo."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cslbounds

from cslbounds import (CONSTANTS, GRW_LAMBDA, GRW_RC, CollapseParams,
                       NonPositiveDamping, OptomechConfig, Point, SimConfig,
                       Sphere, UnstableStep, displacement_dns,
                       high_temperature_limit_check, read_trajectories,
                       simulate_langevin, write_trajectories)
from cslbounds.optomech import (BLOCK, _trajectory_noise, thermal_force_term,
                                welch)

GRW = CollapseParams(GRW_LAMBDA, GRW_RC)
SPHERE = Sphere(1e-12, 5e-7)


def lorentzian_cfg(**overrides):
    params = dict(m=1e-12, omega_m=2.0 * np.pi * 3e3,
                  gamma_m=2.0 * np.pi * 200.0, T=0.1)
    params.update(overrides)
    return OptomechConfig(**params)


def test_chi_zero_reduces_to_thermal_plus_csl():
    """With no optical coupling the spectrum is exactly the mechanical
    susceptibility driven by thermal + collapse force noise."""
    cfg = lorentzian_cfg()
    omegas = np.logspace(2, 6, 300)
    got = displacement_dns(cfg, GRW, SPHERE, omegas)

    s_csl = displacement_dns(cfg, GRW, SPHERE, omegas,
                             components=True)[1]["csl"]
    d2 = (cfg.omega_m ** 2 - omegas ** 2) ** 2 \
        + cfg.gamma_m ** 2 * omegas ** 2
    want = thermal_force_term(cfg, omegas) / (cfg.m ** 2 * d2) \
        + s_csl
    assert np.max(np.abs(got.values - want) / want) < 1e-12


def test_backaction_zero_without_drive():
    cfg = lorentzian_cfg()
    omegas = np.logspace(2, 6, 50)
    _, parts = displacement_dns(cfg, GRW, SPHERE, omegas, components=True)
    assert np.all(parts["backaction"] == 0.0)


def test_csl_additivity():
    """The collapse term adds linearly: S(lam) - S(0) scales with lam."""
    cfg = lorentzian_cfg()
    omegas = np.logspace(2, 6, 120)
    s0 = displacement_dns(cfg, CollapseParams(0.0, GRW_RC), SPHERE,
                          omegas).values
    s1 = displacement_dns(cfg, GRW, SPHERE, omegas).values
    s3 = displacement_dns(cfg, CollapseParams(3.0 * GRW_LAMBDA, GRW_RC),
                          SPHERE, omegas).values
    assert np.allclose(s3 - s0, 3.0 * (s1 - s0), rtol=1e-12)


def test_optical_spring_changes_resonance():
    cfg = lorentzian_cfg(kappa=1e5, Delta=2.0 * np.pi * 3e3, chi=1e14,
                         alpha_sq=1e6)
    omegas = np.linspace(1e3, 1e5, 20001)
    bare = displacement_dns(lorentzian_cfg(), CollapseParams(0.0, GRW_RC),
                            SPHERE, omegas).values
    driven = displacement_dns(cfg, CollapseParams(0.0, GRW_RC), SPHERE,
                              omegas).values
    # peak must move and the backaction term must be strictly positive
    assert omegas[np.argmax(driven)] != omegas[np.argmax(bare)]
    _, parts = displacement_dns(cfg, CollapseParams(0.0, GRW_RC), SPHERE,
                                omegas, components=True)
    assert np.all(parts["backaction"] > 0)


def test_anti_damping_raises():
    cfg = lorentzian_cfg(gamma_m=1e-6, kappa=1e4,
                         Delta=-2.0 * np.pi * 3e3, chi=1e15, alpha_sq=1e8)
    omegas = np.linspace(1e3, 1e5, 500)
    with pytest.raises(NonPositiveDamping):
        displacement_dns(cfg, GRW, SPHERE, omegas)


def test_high_temperature_limit():
    cfg = lorentzian_cfg(T=10.0)
    omega = 2.0 * np.pi * 3e3
    exact, limit = high_temperature_limit_check(cfg, GRW, SPHERE, omega)
    assert exact == pytest.approx(limit, rel=1e-5, abs=0.0)
    with pytest.raises(ValueError):
        high_temperature_limit_check(lorentzian_cfg(T=1e-6), GRW, SPHERE,
                                     2.0 * np.pi * 1e9)


def test_thermal_term_zero_temperature():
    cfg = lorentzian_cfg(T=0.0)
    omegas = np.array([-1e4, 0.0, 1e4])
    got = thermal_force_term(cfg, omegas)
    want = CONSTANTS.hbar * cfg.m * cfg.gamma_m * np.abs(omegas)
    assert np.allclose(got, want, rtol=1e-14)


def test_equipartition():
    """Long thermal trajectories must satisfy <x^2> = kB T / m omega_m^2."""
    cfg = lorentzian_cfg(T=0.1)
    p0 = CollapseParams(0.0, GRW_RC)
    sim = SimConfig(dt=1.5e-6, steps=131072, trajectories=24, seed=42)
    res = simulate_langevin(cfg, p0, SPHERE, sim)
    tail = res.xs[:, res.xs.shape[1] // 3:]
    got = np.mean(tail ** 2)
    want = CONSTANTS.kB * cfg.T / (cfg.m * cfg.omega_m ** 2)
    # ~tens of correlation times per trajectory, 24 trajectories
    assert got == pytest.approx(want, rel=0.1, abs=0.0)


def test_monte_carlo_matches_analytic_spectrum():
    """Welch average over many trajectories against the analytic curve,
    compared on log-spaced smoothed sub-bands."""
    cfg = lorentzian_cfg(T=0.1)
    p0 = CollapseParams(0.0, GRW_RC)
    sim = SimConfig(dt=1.5e-6, steps=65536, trajectories=200, seed=7,
                    nperseg=32768)
    res = simulate_langevin(cfg, p0, SPHERE, sim)
    om = res.spectrum.omegas
    got = res.spectrum.values
    want = displacement_dns(cfg, p0, SPHERE, om).values

    lo = cfg.omega_m / 5.0
    hi = cfg.omega_m * 5.0
    edges = np.logspace(np.log10(lo), np.log10(hi), 13)
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (om >= a) & (om < b)
        assert np.any(sel)
        ratio = np.mean(got[sel]) / np.mean(want[sel])
        assert abs(ratio - 1.0) < 0.1


def test_spectrum_variance_normalization():
    """Integral of the estimated spectrum over omega/2pi must reproduce
    the time-domain variance (double-sided convention)."""
    cfg = lorentzian_cfg(T=0.1)
    sim = SimConfig(dt=1.5e-6, steps=131072, trajectories=16, seed=3,
                    nperseg=16384)
    res = simulate_langevin(cfg, CollapseParams(0.0, GRW_RC), SPHERE, sim)
    var_t = np.mean(res.xs[:, res.xs.shape[1] // 3:] ** 2)
    # double-sided: <x^2> = 2 * int_0^inf S dw / 2pi
    var_f = 2.0 * np.trapezoid(res.spectrum.values,
                               res.spectrum.omegas) / (2.0 * np.pi)
    assert var_f == pytest.approx(var_t, rel=0.05, abs=0.0)


def test_determinism_and_trajectory_streams():
    cfg = lorentzian_cfg()
    sim = SimConfig(dt=1.5e-6, steps=4096, trajectories=3, seed=99)
    a = simulate_langevin(cfg, GRW, SPHERE, sim)
    b = simulate_langevin(cfg, GRW, SPHERE, sim)
    assert np.array_equal(a.xs, b.xs)
    # distinct per-trajectory streams
    assert not np.array_equal(a.xs[0], a.xs[1])


def per_step_oracle(noise, m, k_spring, gamma, dt):
    """The semi-implicit Euler recursion one step at a time, from rest:
    the integrator simulate_langevin propagates in blocks."""
    x = np.zeros(noise.shape[0])
    pm = np.zeros(noise.shape[0])
    xs = np.empty_like(noise)
    ps = np.empty_like(noise)
    for n in range(noise.shape[1]):
        x = x + pm / m * dt
        pm = pm + (-k_spring * x - gamma * pm) * dt + noise[:, n]
        xs[:, n] = x
        ps[:, n] = pm
    return xs, ps


@pytest.mark.parametrize("regime, zeta, trajectories, steps", [
    ("underdamped", (1e-4, 1e-1), 24, 1000),
    ("underdamped", (1e-4, 1e-1), 1, 3 * BLOCK),
    ("near_critical", (0.7, 1.4), 1, 4 * BLOCK + 77),
    ("overdamped", (3.0, 30.0), 24, BLOCK - 28),
    ("overdamped", (3.0, 30.0), 3, 2),
    ("free_particle", None, 24, 2 * BLOCK + 1),
    ("free_particle", None, 1, 50),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_integrator_matches_per_step_recursion(regime, zeta,
                                                     trajectories, steps,
                                                     seed):
    """Seeded random (m, omega_m, gamma_m, T, dt) in each damping regime,
    step counts below, at and off multiples of the block length: the
    trajectories equal the per-step recursion to 1e-12 x their RMS."""
    rng = np.random.default_rng([seed, steps, trajectories])
    m = 10.0 ** rng.uniform(-15.0, -9.0)
    omega_m = 2.0 * np.pi * 10.0 ** rng.uniform(2.0, 5.0)
    dt = 10.0 ** rng.uniform(-3.0, -1.0) / omega_m
    free = zeta is None
    gamma = 0.0 if free else 2.0 * omega_m * rng.uniform(*zeta)
    # explicit damping update stays stable: gamma dt < 2
    gamma = min(gamma, 1.0 / dt)
    cfg = OptomechConfig(m=m, omega_m=omega_m, gamma_m=gamma,
                         T=10.0 ** rng.uniform(-3.0, 2.0))
    sim = SimConfig(dt=dt, steps=steps, trajectories=trajectories,
                    seed=int(rng.integers(2 ** 63)),
                    mode="free_particle" if free else "oscillator")
    p = GRW if free else CollapseParams(0.0, GRW_RC)
    res = simulate_langevin(cfg, p, SPHERE, sim)
    noise = _trajectory_noise(sim) * np.sqrt(res.force_psd_total * dt)
    k_spring = 0.0 if free else m * omega_m ** 2
    want = per_step_oracle(noise, m, k_spring, gamma, dt)
    for got, ref in zip((res.xs, res.ps), want):
        rms = np.sqrt(np.mean(ref ** 2))
        assert rms > 0
        assert np.max(np.abs(got - ref)) <= 1e-12 * rms


def test_spectrum_estimate_memory_is_per_trajectory():
    """With the Welch estimate, the peak stays within 3.5 x one
    trajectory-sized array: the estimate works one trajectory at a
    time, so it adds little to the integrator's noise and outputs."""
    sim = SimConfig(dt=1.5e-6, steps=131072, trajectories=24, seed=42,
                    nperseg=4096)
    tracemalloc.start()
    try:
        res = simulate_langevin(lorentzian_cfg(), CollapseParams(0.0, GRW_RC),
                                SPHERE, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.spectrum is not None
    assert peak <= 3.5 * sim.trajectories * sim.steps * 8


def test_spectrum_estimate_is_the_mean_of_per_trajectory_welch():
    sim = SimConfig(dt=1.5e-6, steps=8192, trajectories=3, seed=7,
                    nperseg=1024)
    res = simulate_langevin(lorentzian_cfg(), CollapseParams(0.0, GRW_RC),
                            SPHERE, sim)
    freqs, psd = welch(res.xs, 1.0 / sim.dt, 1024)
    np.testing.assert_allclose(res.spectrum.values,
                               psd.mean(axis=0)[1:] / 2.0, rtol=1e-12)
    np.testing.assert_allclose(res.spectrum.omegas, 2.0 * np.pi * freqs[1:],
                               rtol=0.0)


def test_trajectories_independent_of_blas_threads():
    """trajectories.bin of the shipped cantilever simulation is
    bit-identical with one and two BLAS threads."""
    root = Path(cslbounds.__file__).resolve().parents[2]
    code = ("import hashlib, sys, tempfile, os\n"
            "from cslbounds import simulate_langevin, write_trajectories\n"
            "from cslbounds.config import load_config\n"
            "text, inp = load_config(sys.argv[1])\n"
            "res = simulate_langevin(inp.optomech, inp.collapse,\n"
            "                        inp.geometry, inp.simulation,\n"
            "                        spec=inp.quadrature)\n"
            "path = os.path.join(tempfile.mkdtemp(), 'traj.bin')\n"
            "write_trajectories(path, res, config_text=text)\n"
            "print(hashlib.sha256(open(path, 'rb').read()).hexdigest())\n")
    src = str(Path(cslbounds.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code,
             str(root / "configs" / "cantilever_sphere.ini")],
            env=env, capture_output=True, text=True, timeout=120,
            check=True)
        out.append(proc.stdout)
    assert out[0] == out[1]
    assert len(out[0].strip()) == 64


def test_unstable_step_raises():
    # gamma dt > 2 makes the explicit damping update divergent while the
    # oscillation itself stays resolved
    cfg = lorentzian_cfg(gamma_m=1e6)
    sim = SimConfig(dt=5e-6, steps=20000, trajectories=1, seed=1)
    with pytest.raises(UnstableStep), np.errstate(over="ignore",
                                                  invalid="ignore"):
        simulate_langevin(cfg, GRW, SPHERE, sim)


def test_resolution_validation():
    cfg = lorentzian_cfg()
    with pytest.raises(ValueError):
        simulate_langevin(cfg, GRW, SPHERE,
                          SimConfig(dt=1e-3, steps=100, trajectories=1))


@pytest.mark.parametrize("field, value", [
    ("m", np.inf), ("gamma_m", np.nan), ("T", np.inf), ("kappa", np.inf),
    ("Delta", np.nan), ("chi", -np.inf), ("alpha_sq", np.inf),
])
def test_optomech_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        lorentzian_cfg(**{field: value})


@pytest.mark.parametrize("dt", [np.nan, np.inf], ids=["nan_dt", "inf_dt"])
def test_sim_config_rejects_non_finite_dt(dt):
    with pytest.raises(ValueError, match="finite"):
        SimConfig(dt=dt, steps=100)


@pytest.mark.parametrize("field, value, match", [
    ("seed", -3, "seed"), ("seed", 2 ** 63, "seed"), ("seed", 2 ** 64, "seed"),
    ("seed", 1.0, "integer"), ("steps", 100.5, "integer"),
    ("trajectories", 2.0, "integer"), ("steps", "100", "integer"),
    ("nperseg", 64.0, "integer"), ("mode", "ballistic", "mode"),
])
def test_sim_config_rejects_bad_seeds_and_counts(field, value, match):
    with pytest.raises(ValueError, match=match):
        SimConfig(**{"dt": 1e-6, "steps": 100, field: value})


def test_sim_config_accepts_numpy_integers():
    sim = SimConfig(dt=1e-6, steps=np.int64(100), trajectories=np.int32(2),
                    seed=np.uint64(2 ** 63 - 1))
    assert (sim.steps, sim.trajectories, sim.seed) == (100, 2, 2 ** 63 - 1)
    assert type(sim.seed) is int


def test_trajectory_roundtrip(tmp_path):
    cfg = lorentzian_cfg()
    sim = SimConfig(dt=1.5e-6, steps=2048, trajectories=2, seed=5)
    res = simulate_langevin(cfg, GRW, SPHERE, sim)
    path = tmp_path / "traj.bin"
    write_trajectories(path, res, config_text="sample config")
    times, xs, ps, meta = read_trajectories(path)
    assert np.array_equal(times, res.times)
    assert np.array_equal(xs, res.xs)
    assert np.array_equal(ps, res.ps)
    assert meta["seed"] == 5
    assert meta["dt"] == pytest.approx(1.5e-6)

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 100)
    with pytest.raises(ValueError):
        read_trajectories(bad)


def small_dump(path, ntraj):
    """A dump of ntraj trajectories of 4 steps; returns its bytes."""
    times = 0.5 * np.arange(4.0)
    xs = np.arange(4.0 * ntraj).reshape(ntraj, 4)
    write_trajectories(path, SimpleNamespace(times=times, xs=xs, ps=-xs,
                                             seed=9))
    return path.read_bytes()


@pytest.mark.parametrize("ntraj", [0, 2])
def test_small_dump_roundtrip(tmp_path, ntraj):
    path = tmp_path / "traj.bin"
    small_dump(path, ntraj)
    times, xs, ps, meta = read_trajectories(path)
    assert times.tolist() == [0.0, 0.5, 1.0, 1.5]
    assert xs.shape == ps.shape == (ntraj, 4)
    assert np.array_equal(xs, np.arange(4.0 * ntraj).reshape(ntraj, 4))
    assert np.array_equal(ps, -xs)
    assert (meta["version"], meta["seed"], meta["dt"]) == (1, 9, 0.5)


# (trajectories written, edit of the file's bytes, message); without the
# header and size checks the first four raised struct.error, read
# version 7 as 1, raised numpy's broadcast error and returned a short
# times array
BAD_DUMPS = {
    "short_header": (2, lambda b: b[:20], "header of 20 bytes, needs 72"),
    "version_7": (2, lambda b: b[:8] + struct.pack("<I", 7) + b[12:],
                  "version 7, only 1 is read"),
    "truncated_x_block": (2, lambda b: b[:72 + 32 + 12],
                          "116 bytes, but 2 trajectories of 4 steps take "
                          "232"),
    "no_trajectories_truncated": (0, lambda b: b[:-8],
                                  "96 bytes, but 0 trajectories of 4 steps "
                                  "take 104"),
    "trailing_bytes": (2, lambda b: b + bytes(8),
                       "240 bytes, but 2 trajectories of 4 steps take 232"),
    "bad_magic": (2, lambda b: b"CSLTRJ02" + b[8:], "not a trajectory dump"),
}


@pytest.mark.parametrize("case", list(BAD_DUMPS))
def test_read_trajectories_rejects_bad_files(tmp_path, case):
    ntraj, edit, message = BAD_DUMPS[case]
    path = tmp_path / "traj.bin"
    path.write_bytes(edit(small_dump(path, ntraj)))
    with pytest.raises(ValueError) as err:
        read_trajectories(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("trajectories, steps, nperseg", [
    (1, 4096, 512),
    (3, 4096, 511),
    (2, 1000, 1000),
    (1, 999, 999),
    (4, 5000, 1024),
    (3, 1001, 2),
], ids=["even", "odd", "one_segment_even", "one_segment_odd",
        "partial_last_segment", "smallest_nperseg"])
def test_welch_matches_scipy(trajectories, steps, nperseg):
    """The numpy Welch estimate reproduces scipy.signal.welch with the
    settings simulate_langevin used it with; scipy.signal is imported
    here only, as the oracle."""
    from scipy.signal import welch as scipy_welch
    rng = np.random.default_rng(steps + nperseg)
    x = 1e-9 * rng.standard_normal((trajectories, steps))
    fs = 1.0 / 1.5e-6
    freqs, psd = welch(x, fs, nperseg)
    want_freqs, want = scipy_welch(x, fs=fs, window="hann", nperseg=nperseg,
                                   detrend=False, scaling="density",
                                   axis=-1)
    assert np.array_equal(freqs, want_freqs)
    assert psd.shape == want.shape
    np.testing.assert_allclose(psd, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nperseg", [-1, 0, 1, 4097])
def test_nperseg_out_of_range_rejected(nperseg):
    with pytest.raises(ValueError, match="nperseg"):
        SimConfig(dt=1.5e-6, steps=4096, trajectories=1, seed=1,
                  nperseg=nperseg)
