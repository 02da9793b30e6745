"""Flat key-value configuration files with units in the key names.

The format is INI (configparser) with one section per concern:

    [geometry]
    type = sphere
    mass_kg = 1e-12
    radius_um = 1.0

    [collapse]
    lambda_per_s = 1e-16
    rc_m = 1e-7

Every numeric key carries its unit as a suffix; convenience units (hz,
mk, um, ...) are converted to SI at parse time and the conversions are
echoed into the run manifest.  Unknown keys in a known section are
rejected, which catches most unit typos.
"""

import hashlib
from dataclasses import dataclass, field
from math import pi
from typing import Optional

import numpy as np

from .cslnoise import CollapseParams, ColoredNoiseModel
from .exclusion import ExperimentRecord, default_rc_grid
from .geometry import (Cuboid, Cylinder, MassGeometry, Multilayer, Point,
                       Sphere, TwoBody)
from .optomech import OptomechConfig, SimConfig
from .quadrature import QuadratureSpec

__all__ = ["ConfigError", "RunInputs", "load_config", "parse_inputs",
           "serialize_inputs", "config_hash"]


class ConfigError(ValueError):
    """Invalid configuration; message carries section and key."""


# unit-suffix tables: suffix -> factor to SI
_LENGTH = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_MASS = {"kg": 1.0, "g": 1e-3, "mg": 1e-6}
_DENSITY = {"kg_m3": 1.0, "g_cm3": 1e3}
_ANGFREQ = {"rad_s": 1.0, "hz": 2.0 * pi, "khz": 2.0e3 * pi,
            "mhz": 2.0e6 * pi}
_RATE = {"per_s": 1.0, "hz": 2.0 * pi}
_TEMP = {"k": 1.0, "mk": 1e-3, "uk": 1e-6}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6}
_PSD_FORCE = {"n2_s": 1.0}
_PSD_TORQUE = {"n2m2_s": 1.0}
_NONE = {"": 1.0}


class _Section:
    """One config section with typed, unit-suffixed accessors."""

    def __init__(self, name, mapping, conversions):
        self.name = name
        self._map = dict(mapping)
        self._seen = set()
        self._conversions = conversions

    def _fail(self, key, why):
        raise ConfigError(f"[{self.name}] {key}: {why}")

    def quantity(self, base, units, required=True, default=None):
        hits = []
        for suffix, factor in units.items():
            key = f"{base}_{suffix}" if suffix else base
            if key in self._map:
                hits.append((key, factor))
        if not hits:
            if required:
                unit_list = ", ".join(
                    (f"{base}_{s}" if s else base) for s in units)
                self._fail(base, f"missing; expected one of: {unit_list}")
            return default
        if len(hits) > 1:
            self._fail(base, "given in multiple units: "
                       + ", ".join(k for k, _ in hits))
        key, factor = hits[0]
        self._seen.add(key)
        raw = self._map[key]
        try:
            value = float(raw)
        except ValueError:
            self._fail(key, f"not a number: {raw!r}")
        if factor != 1.0:
            self._conversions.append(
                f"[{self.name}] {key} = {raw} -> {value * factor!r} (SI)")
        return value * factor

    def integer(self, key, required=True, default=None):
        if key not in self._map:
            if required:
                self._fail(key, "missing")
            return default
        self._seen.add(key)
        try:
            return int(self._map[key])
        except ValueError:
            self._fail(key, f"not an integer: {self._map[key]!r}")

    def word(self, key, choices=None, required=True, default=None):
        if key not in self._map:
            if required:
                self._fail(key, "missing")
            return default
        self._seen.add(key)
        value = self._map[key].strip()
        if choices and value not in choices:
            self._fail(key, f"must be one of {sorted(choices)}, got {value!r}")
        return value

    def reject_unknown(self):
        unknown = set(self._map) - self._seen
        if unknown:
            self._fail(sorted(unknown)[0], "unknown key")

    def subsection(self, prefix):
        sub = {k[len(prefix):]: v for k, v in self._map.items()
               if k.startswith(prefix)}
        self._seen.update(k for k in self._map if k.startswith(prefix))
        return _Section(f"{self.name}:{prefix}*", sub, self._conversions)


def _parse_geometry(sec):
    kind = sec.word("type", choices={"point", "sphere", "cuboid", "cylinder",
                                     "multilayer", "two_body"})
    if kind == "point":
        g = Point(sec.quantity("mass", _MASS))
    elif kind == "sphere":
        g = Sphere(sec.quantity("mass", _MASS),
                   sec.quantity("radius", _LENGTH))
    elif kind == "cuboid":
        g = Cuboid(sec.quantity("mass", _MASS),
                   sec.quantity("lx", _LENGTH),
                   sec.quantity("ly", _LENGTH),
                   sec.quantity("lz", _LENGTH))
    elif kind == "cylinder":
        axis = sec.word("axis", choices={"x", "y", "z"}, required=False,
                        default="z")
        axes = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0),
                "z": (0.0, 0.0, 1.0)}
        g = Cylinder(sec.quantity("mass", _MASS),
                     sec.quantity("radius", _LENGTH),
                     sec.quantity("length", _LENGTH), axis=axes[axis])
    elif kind == "multilayer":
        g = Multilayer(sec.integer("layer_count"),
                       sec.quantity("d1", _LENGTH),
                       sec.quantity("d2", _LENGTH),
                       sec.quantity("rho1", _DENSITY),
                       sec.quantity("rho2", _DENSITY),
                       sec.quantity("lx", _LENGTH),
                       sec.quantity("ly", _LENGTH),
                       sec.word("stacking_axis", choices={"x", "y", "z"},
                                required=False, default="z"))
    else:
        a = sec.quantity("separation", _LENGTH)
        unit = _parse_geometry(sec.subsection("unit_"))
        g = TwoBody(unit, a)
    return g


def _parse_colored(sec):
    family = sec.word("colored", choices={"white", "lorentzian_cutoff"},
                      required=False)
    if family is None or family == "white":
        # consume an omega_c given alongside an explicit white choice
        sec.quantity("omega_c", _ANGFREQ, required=False)
        return None if family is None else ColoredNoiseModel("white")
    return ColoredNoiseModel(family, sec.quantity("omega_c", _ANGFREQ))


def _parse_collapse(sec):
    lam = sec.quantity("lambda", _RATE)
    rc = sec.quantity("rc", _LENGTH)
    return CollapseParams(lam, rc, _parse_colored(sec))


def _parse_optomech(sec):
    return OptomechConfig(
        m=sec.quantity("mass", _MASS),
        omega_m=sec.quantity("omega_m", _ANGFREQ),
        gamma_m=sec.quantity("gamma_m", _RATE),
        T=sec.quantity("temperature", _TEMP),
        kappa=sec.quantity("kappa", _RATE, required=False, default=1.0),
        Delta=sec.quantity("detuning", _ANGFREQ, required=False, default=0.0),
        chi=sec.quantity("chi", {"rad_s_m": 1.0}, required=False,
                         default=0.0),
        alpha_sq=sec.quantity("intracavity_photons", _NONE, required=False,
                              default=0.0),
    )


def _parse_grid(sec):
    lo = sec.quantity("omega_min", _ANGFREQ)
    hi = sec.quantity("omega_max", _ANGFREQ)
    n = sec.integer("points")
    spacing = sec.word("spacing", choices={"log", "linear"}, required=False,
                       default="log")
    if not (0 <= lo < hi < np.inf) or n < 2:
        raise ConfigError("[grid] need 0 <= omega_min < omega_max < inf and "
                          "points >= 2")
    if spacing == "log":
        if lo <= 0:
            raise ConfigError("[grid] log spacing needs omega_min > 0")
        return np.logspace(np.log10(lo), np.log10(hi), n)
    return np.linspace(lo, hi, n)


def _parse_experiment(sec, name):
    geometry = _parse_geometry(sec.subsection("geometry_"))
    channel = sec.word("channel", choices={"force", "force_two_body",
                                           "torque", "temperature_shift"})
    if channel == "temperature_shift":
        budget = sec.quantity("budget", _TEMP)
    elif channel == "torque":
        budget = sec.quantity("budget", _PSD_TORQUE)
    else:
        budget = sec.quantity("budget", _PSD_FORCE)
    band = (sec.quantity("band_lo", _ANGFREQ),
            sec.quantity("band_hi", _ANGFREQ))
    rec = ExperimentRecord(
        name=sec.word("name", required=False, default=name),
        geometry=geometry, channel=channel, budget=budget, band=band,
        colored=_parse_colored(sec),
        m=sec.quantity("mass", _MASS, required=False),
        gamma=sec.quantity("gamma", _RATE, required=False),
        d_phi=sec.quantity("d_phi", _RATE, required=False),
    )
    rc_min = sec.quantity("rc_min", _LENGTH, required=False, default=1e-9)
    rc_max = sec.quantity("rc_max", _LENGTH, required=False, default=1e-3)
    n = sec.integer("rc_points", required=False)
    if not 0 < rc_min < rc_max < np.inf:
        sec._fail("rc_min", "need 0 < rc_min < rc_max < inf, got "
                  f"{rc_min!r} and {rc_max!r}")
    if n is not None and n < 2:
        sec._fail("rc_points", f"need at least 2 points, got {n}")
    if n is None:
        grid = default_rc_grid(rc_min, rc_max)
    else:
        grid = np.logspace(np.log10(rc_min), np.log10(rc_max), n)
    return rec, grid


def _parse_simulation(sec):
    sim = SimConfig(
        dt=sec.quantity("dt", _TIME),
        steps=sec.integer("steps"),
        trajectories=sec.integer("trajectories", required=False, default=1),
        seed=sec.integer("seed", required=False, default=0),
    )
    mode = sec.word("mode", choices={"oscillator", "free_particle"},
                    required=False, default="oscillator")
    nperseg = sec.integer("nperseg", required=False)
    if nperseg is not None:
        sim.validate_nperseg(nperseg)
    return sim, mode, nperseg


def _parse_quadrature(sec):
    return QuadratureSpec(
        rel_tol=sec.quantity("rel_tol", _NONE, required=False,
                             default=1e-6),
        abs_tol=sec.quantity("abs_tol", _NONE, required=False, default=0.0),
        max_evals=sec.integer("max_evals", required=False,
                              default=50_000_000),
        cutoff_factor=sec.quantity("cutoff_factor", _NONE, required=False,
                                   default=8.0),
    )


@dataclass
class RunInputs:
    geometry: Optional[MassGeometry] = None
    collapse: Optional[CollapseParams] = None
    optomech: Optional[OptomechConfig] = None
    omega_grid: Optional[np.ndarray] = None
    experiments: list = field(default_factory=list)   # (record, rc_grid)
    simulation: Optional[SimConfig] = None
    sim_mode: str = "oscillator"
    sim_nperseg: Optional[int] = None
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    conversions: list = field(default_factory=list)


def load_config(path):
    """Read a config file; returns (text, parsed RunInputs)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return text, parse_inputs(text)


def parse_inputs(text):
    import configparser
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    inputs = RunInputs()
    conv = inputs.conversions
    try:
        for name in cp.sections():
            sec = _Section(name, cp[name], conv)
            if name == "geometry":
                inputs.geometry = _parse_geometry(sec)
                if isinstance(inputs.geometry, TwoBody):
                    sec._fail("type", "two_body is valid only as an "
                              "[experiment] geometry_type")
            elif name == "collapse":
                inputs.collapse = _parse_collapse(sec)
            elif name == "optomech":
                inputs.optomech = _parse_optomech(sec)
            elif name == "grid":
                inputs.omega_grid = _parse_grid(sec)
            elif name == "experiment" or name.startswith("experiment:"):
                inputs.experiments.append(_parse_experiment(sec, name))
            elif name == "simulation":
                inputs.simulation, inputs.sim_mode, inputs.sim_nperseg = \
                    _parse_simulation(sec)
            elif name == "quadrature":
                inputs.quadrature = _parse_quadrature(sec)
            else:
                raise ConfigError(f"unknown section [{name}]")
            sec.reject_unknown()
    except ConfigError:
        raise
    except ValueError as exc:   # a constructor rejected a value
        raise ConfigError(f"[{name}] {exc}") from exc
    return inputs


def config_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# canonical serialization (SI units, sorted keys): parse -> serialize ->
# parse is the identity on all fields

def _geometry_lines(g, prefix=""):
    if isinstance(g, Point):
        return [f"{prefix}type = point", f"{prefix}mass_kg = {g.m!r}"]
    if isinstance(g, Sphere):
        return [f"{prefix}type = sphere", f"{prefix}mass_kg = {g.m!r}",
                f"{prefix}radius_m = {g.R!r}"]
    if isinstance(g, Cuboid):
        return [f"{prefix}type = cuboid", f"{prefix}mass_kg = {g.m!r}",
                f"{prefix}lx_m = {g.Lx!r}", f"{prefix}ly_m = {g.Ly!r}",
                f"{prefix}lz_m = {g.Lz!r}"]
    if isinstance(g, Cylinder):
        axis = {(1.0, 0.0, 0.0): "x", (0.0, 1.0, 0.0): "y",
                (0.0, 0.0, 1.0): "z"}.get(g.axis)
        if axis is None:
            raise ConfigError("only principal-axis cylinders serialize")
        return [f"{prefix}type = cylinder", f"{prefix}mass_kg = {g.m!r}",
                f"{prefix}radius_m = {g.R!r}", f"{prefix}length_m = {g.L!r}",
                f"{prefix}axis = {axis}"]
    if isinstance(g, Multilayer):
        return [f"{prefix}type = multilayer",
                f"{prefix}layer_count = {g.layer_count}",
                f"{prefix}d1_m = {g.d1!r}", f"{prefix}d2_m = {g.d2!r}",
                f"{prefix}rho1_kg_m3 = {g.rho1!r}",
                f"{prefix}rho2_kg_m3 = {g.rho2!r}",
                f"{prefix}lx_m = {g.Lx!r}", f"{prefix}ly_m = {g.Ly!r}",
                f"{prefix}stacking_axis = {g.stacking_axis}"]
    if isinstance(g, TwoBody):
        return ([f"{prefix}type = two_body",
                 f"{prefix}separation_m = {g.a!r}"]
                + _geometry_lines(g.unit, prefix=f"{prefix}unit_"))
    raise ConfigError(f"geometry {type(g).__name__} has no config form")


def _colored_lines(colored):
    if colored is None:
        return []
    lines = [f"colored = {colored.family}"]
    if colored.omega_c is not None:
        lines.append(f"omega_c_rad_s = {colored.omega_c!r}")
    return lines


def serialize_inputs(inputs):
    blocks = []
    if inputs.geometry is not None:
        blocks.append("[geometry]\n" + "\n".join(
            _geometry_lines(inputs.geometry)))
    if inputs.collapse is not None:
        p = inputs.collapse
        lines = [f"lambda_per_s = {p.lam!r}", f"rc_m = {p.rC!r}"]
        lines += _colored_lines(p.colored)
        blocks.append("[collapse]\n" + "\n".join(lines))
    if inputs.optomech is not None:
        c = inputs.optomech
        blocks.append("[optomech]\n" + "\n".join([
            f"mass_kg = {c.m!r}", f"omega_m_rad_s = {c.omega_m!r}",
            f"gamma_m_per_s = {c.gamma_m!r}", f"temperature_k = {c.T!r}",
            f"kappa_per_s = {c.kappa!r}", f"detuning_rad_s = {c.Delta!r}",
            f"chi_rad_s_m = {c.chi!r}",
            f"intracavity_photons = {c.alpha_sq!r}"]))
    if inputs.omega_grid is not None:
        om = inputs.omega_grid
        ratios = np.diff(np.log(om)) if om[0] > 0 else None
        spacing = "log" if ratios is not None and np.allclose(
            ratios, ratios[0]) else "linear"
        blocks.append("[grid]\n" + "\n".join([
            f"omega_min_rad_s = {float(om[0])!r}",
            f"omega_max_rad_s = {float(om[-1])!r}",
            f"points = {om.size}", f"spacing = {spacing}"]))
    for i, (rec, grid) in enumerate(inputs.experiments):
        lines = [f"name = {rec.name}", f"channel = {rec.channel}"]
        unit = {"force": "n2_s", "force_two_body": "n2_s",
                "torque": "n2m2_s", "temperature_shift": "k"}[rec.channel]
        lines.append(f"budget_{unit} = {rec.budget!r}")
        lines += [f"band_lo_rad_s = {rec.band[0]!r}",
                  f"band_hi_rad_s = {rec.band[1]!r}"]
        lines += _colored_lines(rec.colored)
        if rec.m is not None:
            lines.append(f"mass_kg = {rec.m!r}")
        if rec.gamma is not None:
            lines.append(f"gamma_per_s = {rec.gamma!r}")
        if rec.d_phi is not None:
            lines.append(f"d_phi_per_s = {rec.d_phi!r}")
        lines += _geometry_lines(rec.geometry, prefix="geometry_")
        if grid is not None:
            lines += [f"rc_min_m = {float(grid[0])!r}",
                      f"rc_max_m = {float(grid[-1])!r}",
                      f"rc_points = {grid.size}"]
        blocks.append(f"[experiment:{i}]\n" + "\n".join(lines))
    if inputs.simulation is not None:
        s = inputs.simulation
        lines = [f"dt_s = {s.dt!r}", f"steps = {s.steps}",
                 f"trajectories = {s.trajectories}", f"seed = {s.seed}",
                 f"mode = {inputs.sim_mode}"]
        if inputs.sim_nperseg is not None:
            lines.append(f"nperseg = {inputs.sim_nperseg}")
        blocks.append("[simulation]\n" + "\n".join(lines))
    q = inputs.quadrature
    blocks.append("[quadrature]\n" + "\n".join([
        f"rel_tol = {q.rel_tol!r}", f"abs_tol = {q.abs_tol!r}",
        f"max_evals = {q.max_evals}",
        f"cutoff_factor = {q.cutoff_factor!r}"]))
    return "\n\n".join(blocks) + "\n"
