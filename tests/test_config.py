"""Config parsing: unit suffixes, diagnostics and pinned parsed values."""

import math
from pathlib import Path

import numpy as np
import pytest

from cslbounds import (CollapseParams, ColoredNoiseModel, Cuboid, Cylinder,
                       ExperimentRecord, Multilayer, OptomechConfig, Point,
                       QuadratureSpec, SimConfig, Sphere, TwoBody,
                       csl_force_spectrum, csl_torque_spectrum)
from cslbounds.config import (ConfigError, config_hash, load_config,
                              parse_inputs)

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
max_evals = 100000
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


def _log(lo, hi, n):
    """n points from lo to hi, log spaced: a grid's spacing = log and
    every experiment's rC grid."""
    return np.logspace(np.log10(lo), np.log10(hi), n).tolist()


# QuadratureSpec's defaults, as the shipped configs give them
DEFAULT_QUADRATURE = QuadratureSpec(1e-06, 50000000)
CANTILEVER_SPHERE = Sphere(1e-12, 5e-07)
COLLAPSE = CollapseParams(1e-16, 1e-07)

# each config's parsed inputs, in SI units, with its grids as lists
PARSED = {
    "every_section": dict(
        geometry=Cylinder(1e-14, 1.0000000000000001e-07, 1e-06,
                          axis=(1.0, 0.0, 0.0)),
        collapse=CollapseParams(1e-16, 1e-07, ColoredNoiseModel(
            "lorentzian_cutoff", 31415.92653589793)),
        optomech=OptomechConfig(1e-14, 18849.55592153876, 62.83185307179586,
                                0.0003, 1000000.0, -200000.0, 1000.0, 5.0),
        omega_grid=np.linspace(0.0, 251327.41228718343, 9).tolist(),
        experiments=[
            (ExperimentRecord(
                "point_force", Point(1e-12), "force", 1e-37,
                (628.3185307179587, 1256.6370614359173),
                colored=ColoredNoiseModel("white")),
             _log(1e-09, 0.001, 301)),
            (ExperimentRecord(
                "experiment:sphere", Sphere(1.0000000000000002e-12, 5e-07),
                "force", 1e-37, (18221.2373908208, 19477.874452256718),
                colored=ColoredNoiseModel("lorentzian_cutoff",
                                          314.1592653589793)),
             _log(1e-09, 0.0001, 251)),
            (ExperimentRecord(
                "cuboid_heating",
                Cuboid(1e-12, 1e-06, 2e-06, 5.000000000000001e-07),
                "temperature_shift", 0.001, (0.0, 1.0), m=1e-12,
                gamma=0.001),
             _log(1e-09, 0.001, 7)),
            (ExperimentRecord(
                "rotor", Cylinder(1e-14, 1.0000000000000001e-07,
                                  1.0000000000000002e-06,
                                  axis=(0.0, 1.0, 0.0)),
                "temperature_shift", 9.999999999999999e-05,
                (62831.85307179586, 188495.55921538756),
                d_phi=0.006283185307179587),
             _log(1e-09, 9.999999999999999e-06, 12)),
            (ExperimentRecord(
                "stack_torque",
                Multilayer(5, 1.0000000000000001e-07, 5.0000000000000004e-08,
                           19300.0, 2200.0, 2e-06, 3e-06, "x"),
                "torque", 1e-50, (6.283185307179586, 12.566370614359172)),
             _log(1e-09, 0.001, 5)),
            (ExperimentRecord(
                "stack_pair",
                TwoBody(Multilayer(2, 1e-06, 2e-06, 8000.0, 2000.0, 0.001,
                                   0.001, "z"), 0.003),
                "force_two_body", 1e-29, (0.001, 0.1)),
             _log(1e-08, 0.0001, 4)),
        ],
        simulation=SimConfig(5e-06, 4096, 3, 7, "oscillator", 512),
        quadrature=QuadratureSpec(1e-08, 100000)),
    "free_particle": dict(
        geometry=CANTILEVER_SPHERE, collapse=COLLAPSE, optomech=None,
        omega_grid=None, experiments=[],
        simulation=SimConfig(4.9999999999999996e-06, 1024, 4, 9,
                             "free_particle"),
        quadrature=QuadratureSpec(1e-07, 50000000)),
    "cantilever_sphere": dict(
        geometry=CANTILEVER_SPHERE, collapse=COLLAPSE,
        optomech=OptomechConfig(1e-12, 18849.55592153876, 100.0, 0.1,
                                1000000.0, 0.0, 0.0, 0.0),
        omega_grid=_log(100.0, 1000000.0, 200),
        experiments=[
            (ExperimentRecord("cantilever_sphere", CANTILEVER_SPHERE,
                              "force", 1e-37,
                              (18221.2373908208, 19477.874452256718)),
             _log(1e-09, 0.0001, 100)),
        ],
        simulation=SimConfig(4.9999999999999996e-06, 65536, 8, 12345,
                             "oscillator"),
        quadrature=DEFAULT_QUADRATURE),
    "cylinder_rotational": dict(
        geometry=None, collapse=None, optomech=None, omega_grid=None,
        experiments=[
            (ExperimentRecord(
                "cylinder_rotational",
                Cylinder(1e-14, 1.0000000000000001e-07,
                         1.0000000000000002e-06, axis=(0.0, 0.0, 1.0)),
                "temperature_shift", 0.001,
                (62831.85307179586, 188495.55921538756), d_phi=0.001),
             _log(1e-09, 9.999999999999999e-06, 100)),
        ],
        simulation=None, quadrature=DEFAULT_QUADRATURE),
    "space_two_body": dict(
        geometry=None, collapse=None, optomech=None, omega_grid=None,
        experiments=[
            (ExperimentRecord(
                "space_two_body",
                TwoBody(Cuboid(1.96, 0.046, 0.046, 0.046), 2500000000.0),
                "force_two_body", 1e-29, (0.001, 0.1)),
             _log(1e-09, 0.001, 120)),
        ],
        simulation=None, quadrature=DEFAULT_QUADRATURE),
}

# each config's conversions, in the order parse_inputs echoes them
CONVERSIONS = {
    "every_section": [
        "[geometry] radius_nm = 100 -> 1.0000000000000001e-07 (SI)",
        "[geometry] length_um = 1 -> 1e-06 (SI)",
        "[collapse] omega_c_khz = 5 -> 31415.92653589793 (SI)",
        "[optomech] omega_m_khz = 3.0 -> 18849.55592153876 (SI)",
        "[optomech] gamma_m_hz = 10 -> 62.83185307179586 (SI)",
        "[optomech] temperature_uk = 300 -> 0.0003 (SI)",
        "[grid] omega_max_khz = 40 -> 251327.41228718343 (SI)",
        "[experiment:point:geometry_*] mass_mg = 1e-6 -> 1e-12 (SI)",
        "[experiment:point] band_lo_hz = 100 -> 628.3185307179587 (SI)",
        "[experiment:point] band_hi_hz = 200 -> 1256.6370614359173 (SI)",
        "[experiment:sphere:geometry_*] mass_g = 1e-9 -> "
        "1.0000000000000002e-12 (SI)",
        "[experiment:sphere:geometry_*] radius_um = 0.5 -> 5e-07 (SI)",
        "[experiment:sphere] band_lo_khz = 2.9 -> 18221.2373908208 (SI)",
        "[experiment:sphere] band_hi_khz = 3.1 -> 19477.874452256718 (SI)",
        "[experiment:sphere] omega_c_hz = 50 -> 314.1592653589793 (SI)",
        "[experiment:sphere] rc_min_nm = 1 -> 1e-09 (SI)",
        "[experiment:sphere] rc_max_um = 100 -> 9.999999999999999e-05 (SI)",
        "[experiment:cuboid:geometry_*] lx_um = 1 -> 1e-06 (SI)",
        "[experiment:cuboid:geometry_*] ly_um = 2 -> 2e-06 (SI)",
        "[experiment:cuboid:geometry_*] lz_nm = 500 -> "
        "5.000000000000001e-07 (SI)",
        "[experiment:cuboid] budget_mk = 1 -> 0.001 (SI)",
        "[experiment:cylinder:geometry_*] radius_nm = 100 -> "
        "1.0000000000000001e-07 (SI)",
        "[experiment:cylinder:geometry_*] length_nm = 1000 -> "
        "1.0000000000000002e-06 (SI)",
        "[experiment:cylinder] budget_uk = 100 -> 9.999999999999999e-05 (SI)",
        "[experiment:cylinder] band_lo_khz = 10 -> 62831.85307179586 (SI)",
        "[experiment:cylinder] band_hi_khz = 30 -> 188495.55921538756 (SI)",
        "[experiment:cylinder] d_phi_hz = 1e-3 -> 0.006283185307179587 (SI)",
        "[experiment:multilayer:geometry_*] d1_nm = 100 -> "
        "1.0000000000000001e-07 (SI)",
        "[experiment:multilayer:geometry_*] d2_nm = 50 -> "
        "5.0000000000000004e-08 (SI)",
        "[experiment:multilayer:geometry_*] rho1_g_cm3 = 19.3 -> "
        "19300.0 (SI)",
        "[experiment:multilayer:geometry_*] lx_um = 2 -> 2e-06 (SI)",
        "[experiment:multilayer:geometry_*] ly_um = 3 -> 3e-06 (SI)",
        "[experiment:multilayer] band_lo_hz = 1 -> 6.283185307179586 (SI)",
        "[experiment:multilayer] band_hi_hz = 2 -> 12.566370614359172 (SI)",
        "[experiment:two_body:geometry_*] separation_mm = 3 -> 0.003 (SI)",
        "[experiment:two_body:geometry_*:unit_*] d1_um = 1 -> 1e-06 (SI)",
        "[experiment:two_body:geometry_*:unit_*] d2_um = 2 -> 2e-06 (SI)",
        "[experiment:two_body:geometry_*:unit_*] lx_mm = 1 -> 0.001 (SI)",
        "[experiment:two_body:geometry_*:unit_*] ly_mm = 1 -> 0.001 (SI)",
        "[simulation] dt_ms = 0.005 -> 5e-06 (SI)",
    ],
    "free_particle": [
        "[geometry] radius_um = 0.5 -> 5e-07 (SI)",
        "[simulation] dt_us = 5 -> 4.9999999999999996e-06 (SI)",
    ],
    "cantilever_sphere": [
        "[geometry] radius_um = 0.5 -> 5e-07 (SI)",
        "[optomech] omega_m_khz = 3.0 -> 18849.55592153876 (SI)",
        "[optomech] temperature_mk = 100 -> 0.1 (SI)",
        "[experiment:geometry_*] radius_um = 0.5 -> 5e-07 (SI)",
        "[experiment] band_lo_khz = 2.9 -> 18221.2373908208 (SI)",
        "[experiment] band_hi_khz = 3.1 -> 19477.874452256718 (SI)",
        "[simulation] dt_us = 5 -> 4.9999999999999996e-06 (SI)",
    ],
    "cylinder_rotational": [
        "[experiment:geometry_*] radius_nm = 100 -> "
        "1.0000000000000001e-07 (SI)",
        "[experiment:geometry_*] length_nm = 1000 -> "
        "1.0000000000000002e-06 (SI)",
        "[experiment] budget_mk = 1.0 -> 0.001 (SI)",
        "[experiment] band_lo_khz = 10 -> 62831.85307179586 (SI)",
        "[experiment] band_hi_khz = 30 -> 188495.55921538756 (SI)",
    ],
    "space_two_body": [],
}


def _grid(grid):
    return None if grid is None else grid.tolist()


@pytest.mark.parametrize("name", sorted(CONVERSIONS))
def test_canonical_text_and_conversions_are_pinned(name):
    """Each config text parses to its PARSED values, bit for bit, and its
    conversions are echoed word for word."""
    text = {"every_section": EVERY_SECTION,
            "free_particle": FREE_PARTICLE}.get(name)
    if text is None:
        text = (CONFIGS / f"{name}.ini").read_text()
    inputs = parse_inputs(text)
    assert dict(
        geometry=inputs.geometry, collapse=inputs.collapse,
        optomech=inputs.optomech, omega_grid=_grid(inputs.omega_grid),
        experiments=[(rec, _grid(grid)) for rec, grid in inputs.experiments],
        simulation=inputs.simulation, quadrature=inputs.quadrature,
    ) == PARSED[name]
    assert inputs.conversions == CONVERSIONS[name]


def test_simulation_mode_is_parsed():
    assert parse_inputs(FREE_PARTICLE).simulation.mode == "free_particle"


CYLINDER = """
[geometry]
type = cylinder
mass_kg = 1e-14
radius_m = 1e-7
length_m = 1e-6
axis = {word}

[collapse]
lambda_per_s = 1e-16
rc_m = 1e-7
"""


@pytest.mark.parametrize("word, axis", [
    ("x", (1.0, 0.0, 0.0)), ("x", (-1.0, 0.0, 0.0)),
    ("y", (0.0, 1.0, 0.0)), ("y", (0.0, -1.0, 0.0)),
    ("z", (0.0, 0.0, 1.0)), ("z", (0.0, 0.0, -1.0))],
    ids=["x", "-x", "y", "-y", "z", "-z"])
def test_principal_axis_cylinder_roundtrips(word, axis, tmp_path):
    """A config's axis = x, y or z loads as that principal axis, and a
    cylinder along either sign of it has the loaded body's force and
    torque spectra, bit for bit."""
    path = tmp_path / "cylinder.ini"
    path.write_text(CYLINDER.format(word=word))
    _, loaded = load_config(path)
    principal = tuple(abs(c) for c in axis)
    assert loaded.geometry == Cylinder(1e-14, 1e-7, 1e-6, axis=principal)
    g = Cylinder(1e-14, 1e-7, 1e-6, axis=axis)
    for spectrum in (csl_force_spectrum, csl_torque_spectrum):
        got = spectrum(loaded.geometry, loaded.collapse)
        want = spectrum(g, CollapseParams(1e-16, 1e-7))
        assert (float(got), got.error) == (float(want), want.error)


def test_config_hash_is_text_stable():
    assert config_hash(BASIC) == config_hash(BASIC)
    assert config_hash(BASIC) != config_hash(BASIC + "\n# comment\n")


def test_nperseg_out_of_range_is_a_config_error():
    text = BASIC + "\n[simulation]\ndt_us = 1.5\nsteps = 4096\n"
    assert parse_inputs(text + "nperseg = 4096\n").simulation.nperseg \
        == 4096
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


@pytest.mark.parametrize("text, section, message", [
    ("[optomech]\nmass_kg = inf\nomega_m_khz = 3\ngamma_m_hz = 10\n"
     "temperature_mk = 100\n", "optomech",
     "optomech parameters must be finite: OptomechConfig(m=inf, "
     "omega_m=18849.55592153876, gamma_m=62.83185307179586, T=0.1, "
     "kappa=1.0, Delta=0.0, chi=0.0, alpha_sq=0.0)"),
    ("[optomech]\nmass_kg = 1e-12\nomega_m_khz = 3\ngamma_m_hz = nan\n"
     "temperature_mk = 100\n", "optomech",
     "optomech parameters must be finite: OptomechConfig(m=1e-12, "
     "omega_m=18849.55592153876, gamma_m=nan, T=0.1, kappa=1.0, "
     "Delta=0.0, chi=0.0, alpha_sq=0.0)"),
    ("[simulation]\ndt_us = nan\nsteps = 4096\n", "simulation",
     "dt must be finite and positive, got nan"),
    ("[simulation]\ndt_us = inf\nsteps = 4096\n", "simulation",
     "dt must be finite and positive, got inf"),
    ("[simulation]\ndt_us = 1.5\nsteps = 4096\nseed = -3\n", "simulation",
     "seed must lie in [0, 2**63), got -3"),
    ("[simulation]\ndt_us = 1.5\nsteps = 4096\nseed = 18446744073709551616\n",
     "simulation",
     "seed must lie in [0, 2**63), got 18446744073709551616"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="inf", extra=""), "experiment",
     "band must satisfy 0 <= lo <= hi < inf, got (6283.185307179586, inf)"),
    (EXPERIMENT.format(channel="temperature_shift", budget="budget_mk = 1",
                       band_hi="2", extra="mass_kg = 1e-12\n"
                       "gamma_per_s = nan"), "experiment",
     "m, gamma and d_phi must be finite and positive"),
    (EXPERIMENT.format(channel="temperature_shift", budget="budget_mk = 1",
                       band_hi="2", extra="d_phi_per_s = -1e-3"),
     "experiment", "m, gamma and d_phi must be finite and positive"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_min_m = 0"), "experiment",
     "rc_min: need 0 < rc_min < rc_max < inf, got 0.0 and 0.001"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_max_m = inf"), "experiment",
     "rc_min: need 0 < rc_min < rc_max < inf, got 1e-09 and inf"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_min_m = -1e-9"), "experiment",
     "rc_min: need 0 < rc_min < rc_max < inf, got -1e-09 and 0.001"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_min_m = 1e-6\nrc_max_m = 1e-7"),
     "experiment",
     "rc_min: need 0 < rc_min < rc_max < inf, got 1e-06 and 1e-07"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_points = 0"), "experiment",
     "rc_points: need at least 2 points, got 0"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="rc_points = 1"), "experiment",
     "rc_points: need at least 2 points, got 1"),
    ("[grid]\nomega_min_rad_s = 1\nomega_max_rad_s = inf\npoints = 2\n",
     "grid", "need 0 <= omega_min < omega_max < inf and points >= 2"),
    ("[quadrature]\ncutoff_factor = inf\n", "quadrature",
     "cutoff_factor: unknown key"),
    ("[quadrature]\nabs_tol = -1\n", "quadrature", "abs_tol: unknown key"),
    (EXPERIMENT.format(channel="force", budget="budget_n2_s = 1e-37",
                       band_hi="2", extra="colored = lorentzian_cutoff\n"
                       "omega_c_rad_s = inf"), "experiment",
     "lorentzian_cutoff requires a finite omega_c > 0"),
], ids=["optomech_inf_mass", "optomech_nan_gamma", "simulation_nan_dt",
        "simulation_inf_dt", "simulation_negative_seed",
        "simulation_seed_2_64", "experiment_inf_band",
        "experiment_nan_gamma", "experiment_negative_d_phi",
        "experiment_zero_rc_min", "experiment_inf_rc_max",
        "experiment_negative_rc_min", "experiment_rc_min_above_rc_max",
        "experiment_zero_rc_points", "experiment_one_rc_point",
        "grid_inf_omega_max", "quadrature_inf_cutoff",
        "quadrature_negative_abs_tol", "experiment_inf_omega_c"])
def test_rejected_value_is_a_config_error_naming_the_section(text, section,
                                                           message):
    with pytest.raises(ConfigError, match=rf"^\[{section}\] ") as exc:
        parse_inputs(BASIC + text)
    assert str(exc.value) == f"[{section}] {message}"


SIMULATION = BASIC + "\n[simulation]\ndt_us = 1.5\nsteps = 4096\n"


@pytest.mark.parametrize("text, message", [
    ("[geometry]\ntype = sphere\nmass_kg = 1e-12\n",
     "[geometry] radius: missing; expected one of: radius_m, radius_mm, "
     "radius_um, radius_nm"),
    (BASIC.replace("radius_um = 0.5", "radius_um = 0.5\nradius_m = 5e-7"),
     "[geometry] radius: given in multiple units: radius_m, radius_um"),
    ("[collapse]\nlambda_per_s = fast\nrc_m = 1e-7\n",
     "[collapse] lambda_per_s: not a number: 'fast'"),
    (SIMULATION.replace("steps = 4096", "steps = 4096.5"),
     "[simulation] steps: not an integer: '4096.5'"),
    (BASIC.replace("radius_um = 0.5",
                   "radius_um = 0.5\nradius_lightyears = 1"),
     "[geometry] radius_lightyears: unknown key"),
    ("[velocity]\nv = 1\n", "unknown section [velocity]"),
    ("[geometry]\ntype = two_body\nseparation_m = 1\nunit_type = point\n"
     "unit_mass_kg = 1\n",
     "[geometry] type: two_body is valid only as an [experiment] "
     "geometry_type"),
    (SIMULATION + "nperseg = 0\n",
     "[simulation] nperseg must lie in [2, steps = 4096], got 0"),
    (SIMULATION + "nperseg = 4097\n",
     "[simulation] nperseg must lie in [2, steps = 4096], got 4097"),
    (SIMULATION + "mode = ballistic\n",
     "[simulation] mode: must be one of ['free_particle', 'oscillator'], "
     "got 'ballistic'"),
    ("[collapse]\nrc_m = 1e-7\nrc_m = 2e-7\n",
     "config syntax error: While reading from '<string>' [line  3]: option "
     "'rc_m' in section 'collapse' already exists"),
    ("[grid]\nomega_min_rad_s = 0\nomega_max_rad_s = 1e3\npoints = 5\n",
     "[grid] log spacing needs omega_min > 0"),
], ids=["missing_key", "multiple_units", "not_a_number", "not_an_integer",
        "unknown_key", "unknown_section", "two_body_geometry",
        "nperseg_zero", "nperseg_above_steps", "unknown_mode",
        "syntax_error", "log_grid_from_zero"])
def test_config_error_message_is_pinned(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_inputs(text)
    assert str(exc.value) == message
