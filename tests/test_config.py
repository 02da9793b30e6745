"""Config parsing: unit suffixes, diagnostics and round-tripping."""

import math
from pathlib import Path

import numpy as np
import pytest

from cslbounds import (Cylinder, Multilayer, Sphere, TwoBody,
                       csl_force_spectrum, csl_torque_spectrum)
from cslbounds.config import (ConfigError, config_hash, load_config,
                              parse_inputs, serialize_inputs)

BASIC = """
[geometry]
type = sphere
mass_kg = 1e-12
radius_um = 0.5

[collapse]
lambda_per_s = 1e-16
rc_m = 1e-7
"""


def test_unit_suffix_conversion():
    inputs = parse_inputs(BASIC)
    assert isinstance(inputs.geometry, Sphere)
    assert inputs.geometry.R == pytest.approx(5e-7, abs=0.0)
    assert inputs.collapse.lam == 1e-16
    assert any("radius_um" in c for c in inputs.conversions)


def test_frequency_units_are_angular():
    text = """
[optomech]
mass_kg = 1e-12
omega_m_khz = 3.0
gamma_m_hz = 10
temperature_mk = 100
"""
    cfg = parse_inputs(text).optomech
    assert cfg.omega_m == pytest.approx(2.0 * math.pi * 3e3)
    assert cfg.gamma_m == pytest.approx(2.0 * math.pi * 10.0)
    assert cfg.T == pytest.approx(0.1)


def test_unknown_key_rejected_with_section_in_message():
    text = BASIC.replace("radius_um = 0.5",
                         "radius_um = 0.5\nradius_lightyears = 1")
    with pytest.raises(ConfigError, match=r"\[geometry\].*radius_lightyears"):
        parse_inputs(text)


def test_duplicate_units_rejected():
    text = """
[geometry]
type = sphere
mass_kg = 1e-12
radius_um = 0.5
radius_m = 5e-7
"""
    with pytest.raises(ConfigError, match="multiple units"):
        parse_inputs(text)


def test_missing_key_lists_accepted_suffixes():
    text = "[geometry]\ntype = sphere\nmass_kg = 1e-12\n"
    with pytest.raises(ConfigError, match="radius_m"):
        parse_inputs(text)


def test_non_numeric_value():
    text = "[collapse]\nlambda_per_s = fast\nrc_m = 1e-7\n"
    with pytest.raises(ConfigError, match="not a number"):
        parse_inputs(text)


def test_unknown_section():
    with pytest.raises(ConfigError, match=r"\[velocity\]"):
        parse_inputs("[velocity]\nv = 1\n")


def test_two_body_nested_unit():
    text = """
[experiment]
name = pair
channel = force_two_body
budget_n2_s = 1e-29
band_lo_rad_s = 1e-3
band_hi_rad_s = 1e-1
geometry_type = two_body
geometry_separation_m = 2.5e9
geometry_unit_type = sphere
geometry_unit_mass_kg = 2.0
geometry_unit_radius_mm = 23
"""
    rec, grid = parse_inputs(text).experiments[0]
    assert isinstance(rec.geometry, TwoBody)
    assert isinstance(rec.geometry.unit, Sphere)
    assert rec.geometry.unit.R == pytest.approx(0.023)
    assert grid is not None and grid[0] > 0


def test_multilayer_and_cylinder_geometries():
    text = """
[geometry]
type = multilayer
layer_count = 4
d1_nm = 100
d2_nm = 50
rho1_kg_m3 = 19300
rho2_g_cm3 = 2.0
lx_um = 2
ly_um = 2
stacking_axis = z
"""
    g = parse_inputs(text).geometry
    assert isinstance(g, Multilayer)
    assert g.rho2 == pytest.approx(2000.0)

    text = """
[geometry]
type = cylinder
mass_kg = 1e-14
radius_nm = 100
length_nm = 1000
axis = y
"""
    g = parse_inputs(text).geometry
    assert isinstance(g, Cylinder)
    assert g.axis == (0.0, 1.0, 0.0)


def test_grid_spacing():
    text = """
[grid]
omega_min_rad_s = 1
omega_max_rad_s = 1e3
points = 4
spacing = log
"""
    om = parse_inputs(text).omega_grid
    assert np.allclose(om, [1.0, 10.0, 100.0, 1000.0])
    with pytest.raises(ConfigError):
        parse_inputs(text.replace("points = 4", "points = 1"))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# every section, every geometry type and every channel
EVERY_SECTION = """
[geometry]
type = cylinder
mass_kg = 1e-14
radius_nm = 100
length_um = 1
axis = x

[collapse]
lambda_per_s = 1e-16
rc_m = 1e-7
colored = lorentzian_cutoff
omega_c_khz = 5

[optomech]
mass_kg = 1e-14
omega_m_khz = 3.0
gamma_m_hz = 10
temperature_uk = 300
kappa_per_s = 1e6
detuning_rad_s = -2e5
chi_rad_s_m = 1e3
intracavity_photons = 5

[grid]
omega_min_rad_s = 0
omega_max_khz = 40
points = 9
spacing = linear

[experiment:point]
name = point_force
channel = force
budget_n2_s = 1e-37
band_lo_hz = 100
band_hi_hz = 200
colored = white
geometry_type = point
geometry_mass_mg = 1e-6

[experiment:sphere]
channel = force
budget_n2_s = 1e-37
band_lo_khz = 2.9
band_hi_khz = 3.1
colored = lorentzian_cutoff
omega_c_hz = 50
geometry_type = sphere
geometry_mass_g = 1e-9
geometry_radius_um = 0.5
rc_min_nm = 1
rc_max_um = 100

[experiment:cuboid]
name = cuboid_heating
channel = temperature_shift
budget_mk = 1
band_lo_rad_s = 0
band_hi_rad_s = 1
mass_kg = 1e-12
gamma_per_s = 1e-3
geometry_type = cuboid
geometry_mass_kg = 1e-12
geometry_lx_um = 1
geometry_ly_um = 2
geometry_lz_nm = 500
rc_points = 7

[experiment:cylinder]
name = rotor
channel = temperature_shift
budget_uk = 100
band_lo_khz = 10
band_hi_khz = 30
d_phi_hz = 1e-3
geometry_type = cylinder
geometry_mass_kg = 1e-14
geometry_radius_nm = 100
geometry_length_nm = 1000
geometry_axis = y
rc_min_m = 1e-9
rc_max_m = 1e-5
rc_points = 12

[experiment:multilayer]
name = stack_torque
channel = torque
budget_n2m2_s = 1e-50
band_lo_hz = 1
band_hi_hz = 2
geometry_type = multilayer
geometry_layer_count = 5
geometry_d1_nm = 100
geometry_d2_nm = 50
geometry_rho1_g_cm3 = 19.3
geometry_rho2_kg_m3 = 2200
geometry_lx_um = 2
geometry_ly_um = 3
geometry_stacking_axis = x
rc_points = 5

[experiment:two_body]
name = stack_pair
channel = force_two_body
budget_n2_s = 1e-29
band_lo_rad_s = 1e-3
band_hi_rad_s = 1e-1
geometry_type = two_body
geometry_separation_mm = 3
geometry_unit_type = multilayer
geometry_unit_layer_count = 2
geometry_unit_d1_um = 1
geometry_unit_d2_um = 2
geometry_unit_rho1_kg_m3 = 8000
geometry_unit_rho2_kg_m3 = 2000
geometry_unit_lx_mm = 1
geometry_unit_ly_mm = 1
rc_min_m = 1e-8
rc_max_m = 1e-4
rc_points = 4

[simulation]
dt_ms = 0.005
steps = 4096
trajectories = 3
seed = 7
mode = oscillator
nperseg = 512

[quadrature]
rel_tol = 1e-8
abs_tol = 1e-60
max_evals = 100000
cutoff_factor = 9
"""

FREE_PARTICLE = BASIC + """
[simulation]
dt_us = 5
steps = 1024
trajectories = 4
seed = 9
mode = free_particle

[quadrature]
rel_tol = 1e-7
"""


@pytest.mark.parametrize("text", [
    FREE_PARTICLE, EVERY_SECTION,
    *(path.read_text() for path in sorted(CONFIGS.glob("*.ini")))],
    ids=["free_particle", "every_section",
         *(path.stem for path in sorted(CONFIGS.glob("*.ini")))])
def test_roundtrip_is_identity(text):
    inputs = parse_inputs(text)
    canonical = serialize_inputs(inputs)
    again = parse_inputs(canonical)
    assert serialize_inputs(again) == canonical
    for name in ("geometry", "collapse", "optomech", "simulation",
                 "sim_mode", "sim_nperseg", "quadrature"):
        assert getattr(again, name) == getattr(inputs, name), name
    if inputs.omega_grid is None:
        assert again.omega_grid is None
    else:
        assert np.array_equal(again.omega_grid, inputs.omega_grid)
    assert len(again.experiments) == len(inputs.experiments)
    for (rec, grid), (rec0, grid0) in zip(again.experiments,
                                          inputs.experiments):
        assert rec == rec0
        assert np.array_equal(grid, grid0)


def test_simulation_mode_is_parsed():
    assert parse_inputs(FREE_PARTICLE).sim_mode == "free_particle"


@pytest.mark.parametrize("axis", [
    (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)],
    ids=["x", "-x", "y", "-y", "z", "-z"])
def test_principal_axis_cylinder_roundtrips(axis, tmp_path):
    """A cylinder along any of the six +- principal axes serializes as its
    principal axis; the loaded body has the same force and torque
    spectra, bit for bit."""
    inputs = parse_inputs(BASIC)
    g = Cylinder(1e-14, 1e-7, 1e-6, axis=axis)
    inputs.geometry = g
    path = tmp_path / "cylinder.ini"
    path.write_text(serialize_inputs(inputs))
    _, loaded = load_config(path)
    assert loaded.geometry.axis == tuple(abs(c) for c in axis)
    for spectrum in (csl_force_spectrum, csl_torque_spectrum):
        got = spectrum(loaded.geometry, loaded.collapse)
        want = spectrum(g, inputs.collapse)
        assert (float(got), got.error) == (float(want), want.error)


def test_tilted_cylinder_does_not_serialize():
    inputs = parse_inputs(BASIC)
    inputs.geometry = Cylinder(1e-14, 1e-7, 1e-6, axis=(1.0, 1.0, 0.0))
    with pytest.raises(ConfigError, match="principal-axis"):
        serialize_inputs(inputs)


def test_config_hash_is_text_stable():
    assert config_hash(BASIC) == config_hash(BASIC)
    assert config_hash(BASIC) != config_hash(BASIC + "\n# comment\n")


def test_nperseg_out_of_range_is_a_config_error():
    text = BASIC + "\n[simulation]\ndt_us = 1.5\nsteps = 4096\n"
    assert parse_inputs(text + "nperseg = 4096\n").sim_nperseg == 4096
    for bad in (0, 1, 4097):
        with pytest.raises(ConfigError, match=r"\[simulation\] nperseg"):
            parse_inputs(text + f"nperseg = {bad}\n")


EXPERIMENT = """
[experiment]
channel = {channel}
{budget}
band_lo_khz = 1
band_hi_khz = {band_hi}
geometry_type = sphere
geometry_mass_kg = 1e-12
geometry_radius_um = 0.5
{extra}
"""


@pytest.mark.parametrize("text, section", [
    ("[optomech]\nmass_kg = inf\nomega_m_khz = 3\ngamma_m_hz = 10\n"
     "temperature_mk = 100\n", "optomech"),
    ("[optomech]\nmass_kg = 1e-12\nomega_m_khz = 3\ngamma_m_hz = nan\n"
     "temperature_mk = 100\n", "optomech"),
    ("[simulation]\ndt_us = nan\nsteps = 4096\n", "simulation"),
    ("[simulation]\ndt_us = inf\nsteps = 4096\n", "simulation"),
    ("[simulation]\ndt_us = 1.5\nsteps = 4096\nseed = -3\n", "simulation"),
    ("[simulation]\ndt_us = 1.5\nsteps = 4096\nseed = 18446744073709551616\n",
     "simulation"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="inf", extra=""), "experiment"),
    (EXPERIMENT.format(channel="temperature_shift", budget="budget_mk = 1",
                       band_hi="2", extra="mass_kg = 1e-12\n"
                       "gamma_per_s = nan"), "experiment"),
    (EXPERIMENT.format(channel="temperature_shift", budget="budget_mk = 1",
                       band_hi="2", extra="d_phi_per_s = -1e-3"),
     "experiment"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_min_m = 0"), "experiment"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_max_m = inf"), "experiment"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_min_m = -1e-9"), "experiment"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_min_m = 1e-6\nrc_max_m = 1e-7"),
     "experiment"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_points = 0"), "experiment"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_points = 1"), "experiment"),
    ("[grid]\nomega_min_rad_s = 1\nomega_max_rad_s = inf\npoints = 2\n",
     "grid"),
    ("[quadrature]\ncutoff_factor = inf\n", "quadrature"),
    ("[quadrature]\nabs_tol = -1\n", "quadrature"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="colored = lorentzian_cutoff\n"
                       "omega_c_rad_s = inf"), "experiment"),
], ids=["optomech_inf_mass", "optomech_nan_gamma", "simulation_nan_dt",
        "simulation_inf_dt", "simulation_negative_seed",
        "simulation_seed_2_64", "experiment_inf_band",
        "experiment_nan_gamma", "experiment_negative_d_phi",
        "experiment_zero_rc_min", "experiment_inf_rc_max",
        "experiment_negative_rc_min", "experiment_rc_min_above_rc_max",
        "experiment_zero_rc_points", "experiment_one_rc_point",
        "grid_inf_omega_max", "quadrature_inf_cutoff",
        "quadrature_negative_abs_tol", "experiment_inf_omega_c"])
def test_rejected_value_is_a_config_error_naming_the_section(text, section):
    with pytest.raises(ConfigError, match=rf"^\[{section}\] "):
        parse_inputs(BASIC + text)
