"""Inversion of experimental noise budgets into collapse-parameter bounds.

Every CSL spectral quantity is exactly linear in the collapse rate, so an
experiment whose unexplained noise budget is B constrains

    lambda_ub(rC) = B / S(rC; lambda = 1)

for PSD budgets, and via the temperature-shift relation for thermometric
budgets.  Scanning rC on a log grid yields the exclusion curve; the
pointwise minimum over experiments is the combined bound.
"""

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cslnoise import (CollapseParams, ColoredNoiseModel, apply_colored_filter,
                       csl_force_spectrum, csl_force_spectrum_two_body,
                       csl_temperature_shift, csl_temperature_shift_rot,
                       csl_torque_spectrum)
from .geometry import MassGeometry, TwoBody
from .quadrature import NonConvergence

__all__ = [
    "ExperimentRecord", "ExclusionCurve", "DegenerateBound",
    "lambda_upper_bound", "exclusion_scan", "combine_exclusions",
    "GridMismatch", "default_rc_grid",
]

CHANNELS = ("force", "force_two_body", "torque", "temperature_shift")
RC_POINTS_PER_DECADE = 50   # the density of default_rc_grid


class DegenerateBound(RuntimeError):
    """The CSL response vanishes for this geometry/channel at this rC;
    the experiment places no bound."""


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment's geometry, readout channel and noise budget.

    budget units: N^2 s (force channels), N^2 m^2 s (torque) or K
    (temperature_shift).  For temperature_shift budgets supply the
    mechanical (m, gamma) pair, or d_phi for a rotational readout.
    band is the analysis band [omega_lo, omega_hi] in rad/s; colored
    filters are evaluated at its midpoint.
    """

    name: str
    geometry: MassGeometry
    channel: str
    budget: float
    band: tuple
    colored: Optional[ColoredNoiseModel] = None
    m: Optional[float] = None
    gamma: Optional[float] = None
    d_phi: Optional[float] = None

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if not 0 < self.budget < np.inf:
            raise ValueError("budget must be finite and positive")
        lo, hi = self.band
        if not 0 <= lo <= hi < np.inf:
            raise ValueError(f"band must satisfy 0 <= lo <= hi < inf, got "
                             f"{self.band}")
        two_body = isinstance(self.geometry, TwoBody)
        if two_body != (self.channel == "force_two_body"):
            raise ValueError("TwoBody geometry and the force_two_body "
                             "channel must be used together")
        if self.channel == "temperature_shift":
            rotational = self.d_phi is not None
            mechanical = self.m is not None and self.gamma is not None
            if rotational == mechanical:
                raise ValueError("temperature_shift budgets need either "
                                 "(m, gamma) or d_phi, not both")
            if not all(0 < v < np.inf for v in (self.m, self.gamma, self.d_phi)
                       if v is not None):
                raise ValueError("m, gamma and d_phi must be finite and "
                                 "positive")

    @property
    def band_midpoint(self):
        return 0.5 * (self.band[0] + self.band[1])


@dataclass(frozen=True)
class ExclusionCurve:
    """lambda upper bound per rC grid point.

    Points without a bound carry NaN in lambda_ub and errors; the status
    list says why ("ok", "degenerate", "nonconvergent").
    """

    rCs: np.ndarray
    lambda_ub: np.ndarray
    errors: np.ndarray
    status: tuple
    experiment: str

    def __post_init__(self):
        rCs = np.asarray(self.rCs, dtype=float)
        lam = np.asarray(self.lambda_ub, dtype=float)
        err = np.asarray(self.errors, dtype=float)
        if not (rCs.shape == lam.shape == err.shape) or rCs.ndim != 1:
            raise ValueError("grid arrays must be equal-length 1D")
        ok = np.array([s == "ok" for s in self.status])
        if np.any(~np.isfinite(lam[ok])) or np.any(lam[ok] <= 0):
            raise ValueError("valid bounds must be positive and finite")
        object.__setattr__(self, "rCs", rCs)
        object.__setattr__(self, "lambda_ub", lam)
        object.__setattr__(self, "errors", err)
        object.__setattr__(self, "status", tuple(self.status))


def default_rc_grid(rc_min=1e-9, rc_max=1e-3):
    """Log-spaced rC grid bracketing the conventional rC = 1e-7 m."""
    if not 0 < rc_min < rc_max < np.inf:
        raise ValueError("need 0 < rc_min < rc_max < inf, got "
                         f"{rc_min!r} and {rc_max!r}")
    decades = np.log10(rc_max / rc_min)
    n = max(2, int(round(decades * RC_POINTS_PER_DECADE)) + 1)
    return np.logspace(np.log10(rc_min), np.log10(rc_max), n)


def _unit_spectrum(rec, rC, spec):
    """Channel spectral quantity at lambda = 1, colored filter applied at
    the band midpoint.  Returns (value, quadrature error)."""
    p = CollapseParams(1.0, rC)
    if rec.channel == "force_two_body":
        s = csl_force_spectrum_two_body(rec.geometry, p, spec)
    elif rec.channel == "torque" or (
            rec.channel == "temperature_shift" and rec.d_phi is not None):
        s = csl_torque_spectrum(rec.geometry, p, spec)
    else:
        s = csl_force_spectrum(rec.geometry, p, spec)
    if rec.colored is not None:
        f = float(rec.colored.filter(rec.band_midpoint))
        return float(s) * f, s.error * f
    return float(s), s.error


def lambda_upper_bound(rec, rC, spec=None):
    """Largest collapse rate compatible with the budget at this rC.

    Returns (lambda_ub, relative quadrature error).  Raises
    DegenerateBound when the unit-rate response underflows (for example
    the torque channel on a sphere) or its error does not resolve it; a
    route's FloatingPointError (a spectrum not finite) passes through.
    """
    s_unit, err = _unit_spectrum(rec, rC, spec)
    if s_unit <= 0 or (err > 0 and err >= s_unit):
        raise DegenerateBound(
            f"{rec.name}: no resolvable CSL response at rC = {rC:g} m")

    if rec.channel != "temperature_shift":
        response = s_unit
    elif rec.d_phi is not None:
        response = csl_temperature_shift_rot(s_unit, rec.d_phi)
    else:
        response = csl_temperature_shift(s_unit, rec.m, rec.gamma)
    lam = rec.budget / response if response > 0 else np.inf
    if not math.isfinite(lam) or lam <= 0:
        raise DegenerateBound(
            f"{rec.name}: bound not finite at rC = {rC:g} m")
    return lam, err / s_unit


def _scan_point(args):
    """(lambda_ub, relative error, status); NaN and NaN without a bound."""
    rec, rC, spec = args
    try:
        lam, rel_err = lambda_upper_bound(rec, rC, spec)
        return lam, rel_err, "ok"
    except DegenerateBound:
        return np.nan, np.nan, "degenerate"
    except NonConvergence:
        return np.nan, np.nan, "nonconvergent"


def exclusion_scan(rec, rCs=None, spec=None, workers=1):
    """Map lambda_upper_bound over an rC grid.

    Per-point failures are recorded in the curve status and the scan
    continues; partial curves are valid outputs.  workers > 1 evaluates
    grid points in a pool of at most that many threads (numpy and scipy
    release the GIL in their array kernels); results are merged in grid
    order, so the output does not depend on the worker count.
    """
    try:
        workers = operator.index(workers)
    except TypeError:
        raise ValueError(f"workers must be an integer, got "
                         f"{workers!r}") from None
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if rCs is None:
        rCs = default_rc_grid()
    rCs = np.asarray(rCs, dtype=float)
    if rCs.size < 2:
        raise ValueError("grid needs at least 2 points")
    if np.any(np.diff(rCs) <= 0):
        raise ValueError("grid must be increasing")

    # each point gets its rC as a Python float, so that its whole
    # spectrum is plain float arithmetic, not numpy scalars'
    jobs = [(rec, rC, spec) for rC in rCs.tolist()]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_scan_point, jobs))
    else:
        results = [_scan_point(job) for job in jobs]

    lam = np.array([r[0] for r in results])
    err = np.array([r[1] for r in results])
    status = tuple(r[2] for r in results)
    return ExclusionCurve(rCs, lam, err, status, rec.name)


class GridMismatch(ValueError):
    """Curves passed to combine_exclusions do not share one rC grid."""


# rC grids match when every point agrees to this relative tolerance (and
# no absolute one: rC itself is often below 1e-8 m)
_GRID_RTOL = 1e-12


def combine_exclusions(curves):
    """Pointwise minimum bound over experiments sharing an rC grid.

    Raises GridMismatch when the grids differ in length or in any point
    by more than _GRID_RTOL relative.  A point is "ok" when any curve is
    ok there, else "nonconvergent" when any curve is, else "degenerate";
    its bound and error are those of the smallest ok bound.
    """
    if not curves:
        raise ValueError("need at least one curve")
    base = curves[0]
    for c in curves[1:]:
        if c.rCs.shape != base.rCs.shape or not np.allclose(
                c.rCs, base.rCs, rtol=_GRID_RTOL, atol=0.0):
            raise GridMismatch("curves must share the rC grid")
    stacked = np.vstack([c.lambda_ub for c in curves])
    errs = np.vstack([c.errors for c in curves])
    ok = np.array([[s == "ok" for s in c.status] for c in curves])
    bounds = np.where(ok, stacked, np.inf)
    idx = np.argmin(bounds, axis=0)
    cols = np.arange(base.rCs.size)
    any_ok = ok.any(axis=0)
    lam = np.where(any_ok, stacked[idx, cols], np.nan)
    err = np.where(any_ok, errs[idx, cols], np.nan)
    nonconvergent = np.array([[s == "nonconvergent" for s in c.status]
                              for c in curves]).any(axis=0)
    status = tuple("ok" if good else "nonconvergent" if nc else "degenerate"
                   for good, nc in zip(any_ok, nonconvergent))
    name = "min(" + ", ".join(c.experiment for c in curves) + ")"
    return ExclusionCurve(base.rCs, lam, err, status, name)
