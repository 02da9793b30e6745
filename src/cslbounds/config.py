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

The field tables below declare the keys, and `_SECTIONS` maps each section
to its RunInputs field and the reader that parses it.
"""

import hashlib
from dataclasses import dataclass, field
from math import pi
from types import FunctionType
from typing import Optional

import numpy as np

from .cslnoise import CollapseParams, ColoredNoiseModel
from .exclusion import ExperimentRecord, default_rc_grid
from .geometry import (Cuboid, Cylinder, MassGeometry, Multilayer, Point,
                       Sphere, TwoBody)
from .optomech import OptomechConfig, SimConfig
from .quadrature import QuadratureSpec

__all__ = ["ConfigError", "RunInputs", "load_config", "parse_inputs",
           "config_hash"]


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
_NONE = {"": 1.0}

_REQUIRED = object()   # the default of a key that must be given


def _key(base, suffix):
    return f"{base}_{suffix}" if suffix else base


class _Section:
    """One config section with a typed, unit-suffixed accessor."""

    def __init__(self, name, mapping, conversions):
        self.name = name
        self._map = dict(mapping)
        self._seen = set()
        self._conversions = conversions

    def _fail(self, key, why):
        raise ConfigError(f"[{self.name}] {key}: {why}")

    def value(self, base, kind, default=_REQUIRED):
        """The value of key base, default when it is absent.  kind is a
        unit table (a float, in SI), int, or the allowed words (None: any)."""
        units = kind if isinstance(kind, dict) else _NONE
        hits = [(_key(base, suffix), factor)
                for suffix, factor in units.items()
                if _key(base, suffix) in self._map]
        if not hits:
            if default is _REQUIRED:
                self._fail(base, "missing" if units is not kind else
                           "missing; expected one of: "
                           + ", ".join(_key(base, s) for s in units))
            return default
        if len(hits) > 1:
            self._fail(base, "given in multiple units: "
                       + ", ".join(k for k, _ in hits))
        key, factor = hits[0]
        self._seen.add(key)
        raw = self._map[key]
        if units is not kind and kind is not int:   # a word
            if kind and raw.strip() not in kind:
                self._fail(key, f"must be one of {sorted(kind)}, got "
                           f"{raw.strip()!r}")
            return raw.strip()
        try:
            value = (int if kind is int else float)(raw)
        except ValueError:
            self._fail(key, f"not {'an integer' if kind is int else 'a number'}"
                       f": {raw!r}")
        if factor == 1.0:
            return value
        self._conversions.append(
            f"[{self.name}] {key} = {raw} -> {value * factor!r} (SI)")
        return value * factor

    def reject_unknown(self):
        unknown = set(self._map) - self._seen
        if unknown:
            self._fail(sorted(unknown)[0], "unknown key")

    def subsection(self, prefix):
        sub = {k[len(prefix):]: v for k, v in self._map.items()
               if k.startswith(prefix)}
        self._seen.update(k for k in self._map if k.startswith(prefix))
        return _Section(f"{self.name}:{prefix}*", sub, self._conversions)


# ---------------------------------------------------------------------------
# field tables: one row (attribute, key base, kind[, default]) per key.
# kind is a unit table (a float quantity), int, or the allowed words (None:
# any word).  A row without a default is required.  A kind or default
# that is a function is called with the values read before it; such a
# default returns _REQUIRED to make its key required.  Rows are parsed in
# table order.

def _read(sec, rows):
    """Parse the rows' keys from sec; returns {attribute: value}."""
    values = {}
    for attr, base, kind, *default in rows:
        default = default[0] if default else _REQUIRED
        if isinstance(kind, FunctionType):
            kind = kind(values)
        if isinstance(default, FunctionType):
            default = default(values)
        values[attr] = sec.value(base, kind, default)
    return values


_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
_MASS_ROW = ("m", "mass", _MASS)
_RADIUS = ("R", "radius", _LENGTH)
_LX = ("Lx", "lx", _LENGTH)
_LY = ("Ly", "ly", _LENGTH)
# geometry type -> (class, rows); a cylinder's axis word maps through
# _AXES, and a two_body's unit is a geometry under the _UNIT_PREFIX
_GEOMETRIES = {
    "point": (Point, (_MASS_ROW,)),
    "sphere": (Sphere, (_MASS_ROW, _RADIUS)),
    "cuboid": (Cuboid, (_MASS_ROW, _LX, _LY, ("Lz", "lz", _LENGTH))),
    "cylinder": (Cylinder, (_MASS_ROW, _RADIUS,
                            ("L", "length", _LENGTH),
                            ("axis", "axis", tuple(_AXES), "z"))),
    "multilayer": (Multilayer, (("layer_count", "layer_count", int),
                                ("d1", "d1", _LENGTH),
                                ("d2", "d2", _LENGTH),
                                ("rho1", "rho1", _DENSITY),
                                ("rho2", "rho2", _DENSITY),
                                _LX, _LY,
                                ("stacking_axis", "stacking_axis",
                                 tuple(_AXES), "z"))),
    "two_body": (TwoBody, (("a", "separation", _LENGTH),)),
}
_TYPE = (("type", "type", tuple(_GEOMETRIES)),)
_UNIT_PREFIX = "unit_"

# an omega_c beside no or a white family is read and dropped
_COLORED = (("family", "colored", ("white", "lorentzian_cutoff"), None),
            ("omega_c", "omega_c", _ANGFREQ, lambda v: _REQUIRED
             if v["family"] == "lorentzian_cutoff" else None))
_COLLAPSE = (("lam", "lambda", _RATE), ("rC", "rc", _LENGTH)) + _COLORED
_OPTOMECH = (_MASS_ROW,
             ("omega_m", "omega_m", _ANGFREQ),
             ("gamma_m", "gamma_m", _RATE),
             ("T", "temperature", _TEMP),
             ("kappa", "kappa", _RATE, 1.0),
             ("Delta", "detuning", _ANGFREQ, 0.0),
             ("chi", "chi", {"rad_s_m": 1.0}, 0.0),
             ("alpha_sq", "intracavity_photons", _NONE, 0.0))
_GRID = (("lo", "omega_min", _ANGFREQ),
         ("hi", "omega_max", _ANGFREQ),
         ("n", "points", int),
         ("spacing", "spacing", ("log", "linear"), "log"))
# channel -> the unit table of its budget
_BUDGET = {"force": {"n2_s": 1.0}, "force_two_body": {"n2_s": 1.0},
           "torque": {"n2m2_s": 1.0}, "temperature_shift": _TEMP}
# an experiment's geometry sits under the _GEOMETRY_PREFIX; a missing name
# defaults to the section name
_GEOMETRY_PREFIX = "geometry_"
_EXPERIMENT = ((("name", "name", None, None),
                ("channel", "channel", tuple(_BUDGET)),
                ("budget", "budget", lambda v: _BUDGET[v["channel"]]),
                ("band_lo", "band_lo", _ANGFREQ),
                ("band_hi", "band_hi", _ANGFREQ))
               + _COLORED
               + (("m", "mass", _MASS, None),
                  ("gamma", "gamma", _RATE, None),
                  ("d_phi", "d_phi", _RATE, None)))
_RC_GRID = (("lo", "rc_min", _LENGTH, 1e-9),
            ("hi", "rc_max", _LENGTH, 1e-3),
            ("n", "rc_points", int, None))
_SIMULATION = (("dt", "dt", _TIME),
               ("steps", "steps", int),
               ("trajectories", "trajectories", int, 1),
               ("seed", "seed", int, 0),
               ("mode", "mode", ("oscillator", "free_particle"),
                "oscillator"),
               ("nperseg", "nperseg", int, None))
_QUADRATURE = (("rel_tol", "rel_tol", _NONE, 1e-6),
               ("abs_tol", "abs_tol", _NONE, 0.0),
               ("max_evals", "max_evals", int, 50_000_000),
               ("cutoff_factor", "cutoff_factor", _NONE, 8.0))


def _colored(values):
    """values with any _COLORED entries replaced by their model under
    "colored": None without a family."""
    if "family" in values:
        family, omega_c = values.pop("family"), values.pop("omega_c")
        values["colored"] = None if family is None else ColoredNoiseModel(
            family, None if family == "white" else omega_c)
    return values


def _parse_geometry(sec):
    cls, rows = _GEOMETRIES[_read(sec, _TYPE)["type"]]
    values = _read(sec, rows)
    if cls is Cylinder:
        values["axis"] = _AXES[values["axis"]]
    elif cls is TwoBody:
        values["unit"] = _parse_geometry(sec.subsection(_UNIT_PREFIX))
    return cls(**values)


# ---------------------------------------------------------------------------
# sections: read parses one _Section to its RunInputs value

def _read_geometry(sec):
    g = _parse_geometry(sec)
    if isinstance(g, TwoBody):
        sec._fail("type", "two_body is valid only as an [experiment] "
                  "geometry_type")
    return g


def _read_grid(sec):
    lo, hi, n, spacing = _read(sec, _GRID).values()
    if not (0 <= lo < hi < np.inf) or n < 2:
        raise ConfigError("[grid] need 0 <= omega_min < omega_max < inf and "
                          "points >= 2")
    if spacing == "linear":
        return np.linspace(lo, hi, n)
    if lo <= 0:
        raise ConfigError("[grid] log spacing needs omega_min > 0")
    return np.logspace(np.log10(lo), np.log10(hi), n)


def _read_experiment(sec):
    """One (record, rC grid)."""
    # the geometry comes first, so its conversions are echoed first
    geometry = _parse_geometry(sec.subsection(_GEOMETRY_PREFIX))
    values = _colored(_read(sec, _EXPERIMENT))
    if values["name"] is None:
        values["name"] = sec.name
    band = (values.pop("band_lo"), values.pop("band_hi"))
    rec = ExperimentRecord(geometry=geometry, band=band, **values)
    rc_min, rc_max, n = _read(sec, _RC_GRID).values()
    if not 0 < rc_min < rc_max < np.inf:
        sec._fail("rc_min", "need 0 < rc_min < rc_max < inf, got "
                  f"{rc_min!r} and {rc_max!r}")
    if n is None:
        return rec, default_rc_grid(rc_min, rc_max)
    if n < 2:
        sec._fail("rc_points", f"need at least 2 points, got {n}")
    return rec, np.logspace(np.log10(rc_min), np.log10(rc_max), n)


def _object(attr, cls, rows):
    """The _SECTIONS entry of a section that is one cls, in rows."""
    return attr, lambda sec: cls(**_colored(_read(sec, rows)))


# section name -> (RunInputs field, read); a section named
# experiment:<tag> is an experiment, appended to the list
_SECTIONS = {
    "geometry": ("geometry", _read_geometry),
    "collapse": _object("collapse", CollapseParams, _COLLAPSE),
    "optomech": _object("optomech", OptomechConfig, _OPTOMECH),
    "grid": ("omega_grid", _read_grid),
    "experiment": ("experiments", _read_experiment),
    "simulation": _object("simulation", SimConfig, _SIMULATION),
    "quadrature": _object("quadrature", QuadratureSpec, _QUADRATURE),
}


@dataclass
class RunInputs:
    geometry: Optional[MassGeometry] = None
    collapse: Optional[CollapseParams] = None
    optomech: Optional[OptomechConfig] = None
    omega_grid: Optional[np.ndarray] = None
    experiments: list = field(default_factory=list)   # (record, rc_grid)
    simulation: Optional[SimConfig] = None
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
    try:
        for name in cp.sections():
            sec = _Section(name, cp[name], inputs.conversions)
            section = ("experiment" if name.startswith("experiment:")
                       else name)
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]")
            attr, read = _SECTIONS[section]
            if attr == "experiments":   # the one section that repeats
                inputs.experiments.append(read(sec))
            else:
                setattr(inputs, attr, read(sec))
            sec.reject_unknown()
    except ConfigError:
        raise
    except ValueError as exc:   # a constructor rejected a value
        raise ConfigError(f"[{name}] {exc}") from exc
    return inputs


def config_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
