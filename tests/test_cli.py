"""End-to-end checks of the command-line interface and its contracts."""

import csv
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import cslbounds
from cslbounds import read_trajectories
from cslbounds.cli import main

SPECTRUM_CONF = """
[geometry]
type = sphere
mass_kg = 1e-12
radius_um = 0.5

[collapse]
lambda_per_s = 1e-16
rc_m = 1e-7

[optomech]
mass_kg = 1e-12
omega_m_khz = 3.0
gamma_m_per_s = 100
temperature_mk = 100

[grid]
omega_min_rad_s = 1e2
omega_max_rad_s = 1e6
points = 40
spacing = log
"""

EXCLUSION_CONF = """
[experiment]
name = demo
channel = force
budget_n2_s = 1e-37
band_lo_khz = 2.9
band_hi_khz = 3.1
geometry_type = sphere
geometry_mass_kg = 1e-12
geometry_radius_um = 0.5
rc_min_m = 1e-8
rc_max_m = 1e-5
rc_points = 12
"""

DEGENERATE_CONF = EXCLUSION_CONF.replace(
    "channel = force", "channel = torque").replace(
    "budget_n2_s", "budget_n2m2_s")

SIM_CONF = SPECTRUM_CONF + """
[simulation]
dt_us = 1.5
steps = 8192
trajectories = 2
seed = 11
mode = oscillator
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_pointcheck_passes(capsys):
    assert main(["pointcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_pointcheck_zero_lambda(capsys):
    assert main(["pointcheck", "--lam", "0", "--rc", "1e-7"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("flags, lam, rc", [
    (["--lam", "0", "--rc", "1e-3"], 0.0, 1e-3),
    (["--rc", "1e-6"], 1e-16, 1e-6),
    (["--lam", "4e-16"], 4e-16, 1e-7),
])
def test_pointcheck_flags_win_over_config(tmp_path, capsys, flags, lam, rc):
    # the config's [collapse] gives lambda = 1e-16 /s and rC = 1e-7 m; a
    # flag replaces only its own value
    conf = write(tmp_path, "c.ini", SPECTRUM_CONF)
    assert main(["pointcheck", "--config", conf] + flags) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    spread = cslbounds.free_expansion_spread(
        cslbounds.CollapseParams(lam, rc), 1.0)
    assert f"({spread:.6e} m^2 at t = 1 s)" in out
    assert ("both zero at lambda = 0" in out) == (lam == 0.0)


def test_spectrum_outputs(tmp_path):
    conf = write(tmp_path, "c.ini", SPECTRUM_CONF)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", conf, "--svg",
                 "--out", str(out)]) == 0
    rows = read_rows(out / "spectrum.csv")
    assert len(rows) == 40
    assert set(rows[0]) == {"omega_rad_s", "total", "backaction", "thermal",
                            "csl"}
    # no optical drive: backaction column identically zero
    assert all(float(r["backaction"]) == 0.0 for r in rows)
    for r in rows:
        total = float(r["thermal"]) + float(r["csl"]) + float(r["backaction"])
        assert float(r["total"]) == pytest.approx(total, rel=1e-12, abs=0.0)
    svg = (out / "spectrum.svg").read_text()
    assert svg.startswith("<svg")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert len(manifest["config_hash"]) == 64


def test_spectrum_one_sided_doubles(tmp_path):
    conf = write(tmp_path, "c.ini", SPECTRUM_CONF)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", conf, "--out", str(a)]) == 0
    assert main(["spectrum", "--config", conf, "--one-sided",
                 "--out", str(b)]) == 0
    ra, rb = read_rows(a / "spectrum.csv"), read_rows(b / "spectrum.csv")
    for x, y in zip(ra, rb):
        assert float(y["total"]) == pytest.approx(2.0 * float(x["total"]),
                                                  rel=1e-12, abs=0.0)


def test_spectrum_deterministic_bytes(tmp_path):
    conf = write(tmp_path, "c.ini", SPECTRUM_CONF)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["spectrum", "--config", conf, "--out", str(a)])
    main(["spectrum", "--config", conf, "--out", str(b)])
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_exclusion_rejects_threads_below_one(tmp_path, capsys, threads):
    conf = write(tmp_path, "c.ini", EXCLUSION_CONF)
    out = tmp_path / "out"
    assert main(["exclusion", "--config", conf, "--threads", threads,
                 "--out", str(out)]) == 2
    assert not (out / "exclusion.csv").exists()
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_exclusion_outputs_and_thread_independence(tmp_path):
    conf = write(tmp_path, "c.ini", EXCLUSION_CONF)
    one, four = tmp_path / "t1", tmp_path / "t4"
    assert main(["exclusion", "--config", conf, "--threads", "1",
                 "--out", str(one)]) == 0
    assert main(["exclusion", "--config", conf, "--threads", "4",
                 "--out", str(four)]) == 0
    data = (one / "exclusion.csv").read_bytes()
    assert data == (four / "exclusion.csv").read_bytes()
    rows = read_rows(one / "exclusion.csv")
    assert len(rows) == 12
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["lambda_ub_per_s"]) > 0 for r in rows)


def test_exclusion_degenerate_rows_are_sentinels(tmp_path):
    conf = write(tmp_path, "c.ini", DEGENERATE_CONF)
    out = tmp_path / "out"
    assert main(["exclusion", "--config", conf, "--svg",
                 "--out", str(out)]) == 0
    rows = read_rows(out / "exclusion.csv")
    assert all(r["status"] == "degenerate" for r in rows)
    # numeric fields empty, never nan/inf text
    assert all(r["lambda_ub_per_s"] == "" for r in rows)
    assert "nan" not in (out / "exclusion.csv").read_text().lower()


def test_exclusion_svg_escapes_its_text(tmp_path):
    """An experiment name is any config word; one with & and < must still
    give well-formed XML, with the shaded excluded region drawn and the
    label text as written."""
    conf = write(tmp_path, "c.ini",
                 EXCLUSION_CONF.replace("name = demo", "name = a & <b>"))
    out = tmp_path / "out"
    assert main(["exclusion", "--config", conf, "--svg",
                 "--out", str(out)]) == 0
    assert all(r["status"] == "ok"
               for r in read_rows(out / "exclusion.csv"))
    root = ET.parse(out / "exclusion.svg").getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polygon")) == 1
    assert "a & <b>" in [t.text for t in root.iter(f"{ns}text")]


def test_exclusion_csv_quotes_a_name_with_a_comma_or_a_quote(tmp_path):
    """An experiment name holding a comma and quotes is one quoted cell:
    a CSV reader reads every row back as five fields and the name as
    written."""
    name = 'sphere, 1 um "test"'
    conf = write(tmp_path, "c.ini",
                 EXCLUSION_CONF.replace("name = demo", "name = " + name))
    out = tmp_path / "out"
    assert main(["exclusion", "--config", conf, "--out", str(out)]) == 0
    with open(out / "exclusion.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 5 and len(rows) == 12
    assert all(len(row) == 5 and row[0] == name for row in rows)


def test_exclusion_combined_curve(tmp_path):
    two = EXCLUSION_CONF.replace("[experiment]", "[experiment:a]") + \
        EXCLUSION_CONF.replace("[experiment]", "[experiment:b]").replace(
            "budget_n2_s = 1e-37", "budget_n2_s = 1e-35").replace(
            "name = demo", "name = demo2")
    conf = write(tmp_path, "c.ini", two)
    out = tmp_path / "out"
    assert main(["exclusion", "--config", conf, "--svg",
                 "--out", str(out)]) == 0
    combined = read_rows(out / "exclusion_combined.csv")
    strong = [r for r in read_rows(out / "exclusion.csv")
              if r["experiment"] == "demo"]
    for c, s in zip(combined, strong):
        assert float(c["lambda_ub_per_s"]) == pytest.approx(
            float(s["lambda_ub_per_s"]), rel=1e-12, abs=0.0)
    # the plot shades each experiment and draws the combined curve
    root = ET.parse(out / "exclusion.svg").getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polygon")) == 2
    assert "combined" in [t.text for t in root.iter(f"{ns}text")]


def test_exclusion_no_combined_curve_across_grids(tmp_path):
    """Two experiments whose rC grids differ by a few percent at
    rC <= 1e-5 m (well inside np.allclose's default atol) write their
    own rows but no combined curve."""
    two = EXCLUSION_CONF.replace("[experiment]", "[experiment:a]") + \
        EXCLUSION_CONF.replace("[experiment]", "[experiment:b]").replace(
            "rc_min_m = 1e-8", "rc_min_m = 1.05e-8").replace(
            "name = demo", "name = demo2")
    conf = write(tmp_path, "c.ini", two)
    out = tmp_path / "out"
    assert main(["exclusion", "--config", conf, "--out", str(out)]) == 0
    assert len(read_rows(out / "exclusion.csv")) == 24
    assert not (out / "exclusion_combined.csv").exists()


def test_simulate_outputs(tmp_path):
    conf = write(tmp_path, "c.ini", SIM_CONF)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", conf, "--out", str(a)]) == 0
    assert main(["simulate", "--config", conf, "--out", str(b)]) == 0
    assert (a / "trajectories.bin").read_bytes() == \
        (b / "trajectories.bin").read_bytes()
    times, xs, ps, meta = read_trajectories(a / "trajectories.bin")
    assert xs.shape == (2, 8192)
    assert meta["seed"] == 11
    summary = json.loads((a / "summary.json").read_text())
    assert summary["mode"] == "oscillator"
    assert summary["force_psd_total_n2_s"] > 0
    assert (a / "spectrum_estimate.csv").exists()


def test_simulate_free_particle_summary(tmp_path):
    """A free particle under white force noise S has <x^2>(t) = S t^3 /
    3 m^2: the summary's expected cubic coefficient is that, and its fit
    on the second half of 64 trajectories lands within a factor of 2 of
    it at this seed (0.63 to 1.28 of it over seeds 0-19)."""
    conf = write(tmp_path, "c.ini", SIM_CONF.replace(
        "mode = oscillator", "mode = free_particle").replace(
        "trajectories = 2", "trajectories = 64").replace(
        "steps = 8192", "steps = 1024"))
    assert main(["simulate", "--config", conf,
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["mode"] == "free_particle"
    expected = summary["cubic_coefficient_expected_m2_s3"]
    assert expected == summary["force_psd_total_n2_s"] / (3.0 * 1e-12 ** 2)
    fit = summary["cubic_coefficient_fit_m2_s3"]
    assert np.isfinite(fit) and fit > 0
    assert 0.5 < fit / expected < 2.0


def test_config_error_exit_code(tmp_path, capsys):
    conf = write(tmp_path, "bad.ini", "[geometry]\ntype = dodecahedron\n")
    assert main(["spectrum", "--config", conf,
                 "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["spectrum", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["spectrum", "exclusion", "simulate"])
def test_config_is_required_but_for_pointcheck(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in \
        capsys.readouterr().err


def test_missing_section_exit_code(tmp_path):
    conf = write(tmp_path, "c.ini", "[collapse]\nlambda_per_s = 1e-16\n"
                 "rc_m = 1e-7\n")
    assert main(["spectrum", "--config", conf, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, text, code, message", [
    ("exclusion", SPECTRUM_CONF, 2, "missing required section [experiment]"),
    ("spectrum", SPECTRUM_CONF.replace("rc_m = 1e-7", "rc_m = 1e-5")
     + "[quadrature]\nmax_evals = 15\n", 3, "quadrature did not converge"),
    ("spectrum", SPECTRUM_CONF + "[quadrature]\nmax_evals = 15\n", 3,
     "quadrature did not converge"),
    ("spectrum", SPECTRUM_CONF + "[quadrature]\ncutoff_factor = 8.0\n", 2,
     "[quadrature] cutoff_factor: unknown key"),
    ("spectrum", SPECTRUM_CONF + "[quadrature]\nabs_tol = 0.0\n", 2,
     "[quadrature] abs_tol: unknown key"),
], ids=["exclusion_without_experiment", "nonconvergent_spectrum",
        "nonconvergent_spectrum_capped_first_panels",
        "quadrature_cutoff_factor", "quadrature_abs_tol"])
def test_exit_code_and_message(tmp_path, capsys, command, text, code,
                               message):
    """A missing [experiment] and a key [quadrature] does not have exit 2,
    and a quadrature out of evaluations exits 3, each naming its cause:
    at rC = 20 R a sphere's radial integral starts as one panel, which
    max_evals = 15 does not let it split, and at rC = R / 5, where it
    would start as 26 panels, max_evals = 15 allows only one."""
    conf = write(tmp_path, "c.ini", text)
    assert main([command, "--config", conf, "--out", str(tmp_path)]) == code
    assert message in capsys.readouterr().err


def test_unstable_simulation_exit_code(tmp_path):
    conf = write(tmp_path, "c.ini", SIM_CONF.replace(
        "gamma_m_per_s = 100", "gamma_m_per_s = 2e6"))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", conf,
                     "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("value, error", [(np.nan, 0.0), (1e-30, np.nan)])
def test_non_finite_spectrum_exit_code(tmp_path, capsys, monkeypatch,
                                       value, error):
    """An exclusion scan whose route returns a value or error that is
    not finite exits with code 3, a numerical failure, and names the
    route."""
    from cslbounds import cslnoise
    monkeypatch.setitem(cslnoise._ROUTES, (cslbounds.Sphere, "force"),
                        ("radial", lambda *args: (value, error)))
    conf = write(tmp_path, "c.ini", EXCLUSION_CONF)
    assert main(["exclusion", "--config", conf,
                 "--out", str(tmp_path / "out")]) == 3
    assert "error: radial route" in capsys.readouterr().err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "cslbounds.cli",
                           "pointcheck"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


MODULES = ["cslbounds"] + sorted(
    f"cslbounds.{m.name}" for m in pkgutil.iter_modules(cslbounds.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    """A public name that is removed cannot stay listed in __all__."""
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(mod, name)] == []


def test_import_leaves_scipy_signal_and_stats_unloaded(tmp_path):
    """The runtime needs numpy only until a Bessel function is evaluated:
    scipy.signal and the scipy.stats it pulls in would add about 0.6 s to
    every command, and scipy.special about 0.3 s.  The spectrum and
    simulate commands on the shipped cantilever config evaluate none; the
    first jinc call loads scipy.special."""
    config = Path(cslbounds.__file__).resolve().parents[2] / "configs" \
        / "cantilever_sphere.ini"
    code = ("import sys\n"
            "import cslbounds.cli\n"
            "def loaded():\n"
            "    names = ('scipy.signal', 'scipy.stats', 'scipy.special')\n"
            "    return sorted(n for n in names if n in sys.modules)\n"
            "print(loaded())\n"
            "for cmd in ('spectrum', 'simulate'):\n"
            "    assert cslbounds.cli.main([cmd, '--config', sys.argv[1],\n"
            "                               '--out', sys.argv[2]]) == 0\n"
            "print(loaded())\n"
            "cslbounds.special.jinc(1.0)\n"
            "print(loaded())\n")
    src = str(Path(cslbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(config),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split("\n") == ["[]", "[]", "['scipy.special']", ""]


@pytest.mark.parametrize("seed", ["-3", str(2 ** 64)])
def test_bad_simulation_seed_is_a_config_error(tmp_path, capsys, seed):
    """A seed outside [0, 2^63) is rejected before anything is simulated
    or written."""
    conf = write(tmp_path, "c.ini", SIM_CONF.replace("seed = 11",
                                                      f"seed = {seed}"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 2
    assert "[simulation] seed" in capsys.readouterr().err
    assert not (out / "trajectories.bin").exists()


@pytest.mark.parametrize("command", ["spectrum", "simulate"])
def test_two_body_geometry_section_is_a_config_error(tmp_path, capsys,
                                                     command):
    """[geometry] holds the one body of spectrum and simulate; a pair
    there is rejected at parse time (exit 2), naming the section."""
    text = SIM_CONF.replace(
        "type = sphere\nmass_kg = 1e-12\nradius_um = 0.5\n",
        "type = two_body\nseparation_m = 1e-5\nunit_type = sphere\n"
        "unit_mass_kg = 1e-12\nunit_radius_um = 0.5\n")
    assert "two_body" in text
    conf = write(tmp_path, "c.ini", text)
    assert main([command, "--config", conf, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "[geometry]" in err and "two_body" in err
