"""Displacement noise spectrum of a driven cavity-mechanics system and a
time-domain Langevin Monte Carlo validator.

The analytic spectrum is

    S_x(w) = 2 hbar^2 |alpha|^2 kappa chi^2 / (m^2 (kappa^2+(Delta-w)^2) |d|^2)
           + [hbar m gamma_m w coth(hbar w / 2 kB T) + S_FF f(w)] / (m^2 |d|^2)

with |d(w)|^2 = (w_eff^2(w) - w^2)^2 + gamma_eff^2(w) w^2.  The effective
frequency and damping are the standard linearized-optomechanics result
(default_effective_model), which reduces exactly to (omega_m, gamma_m)
when chi or |alpha|^2 vanishes.

The Monte Carlo integrates the mechanical-only Langevin equations
(cavity adiabatically eliminated) with semi-implicit Euler steps,
propagated in blocks, and estimates the displacement spectrum with a
Welch periodogram normalized to the same double-sided convention:
<x^2> = integral S_x(w) dw / 2pi.
"""

import hashlib
import operator
import os
import struct
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .constants import CONSTANTS
from .cslnoise import apply_colored_filter, csl_force_spectrum, \
    csl_temperature_shift

__all__ = [
    "OptomechConfig", "NoiseSpectrum", "SimConfig", "SimulationResult",
    "NonPositiveDamping", "UnstableStep",
    "displacement_dns", "high_temperature_limit_check", "simulate_langevin",
    "write_trajectories", "read_trajectories",
]


class NonPositiveDamping(RuntimeError):
    """Effective damping went nonpositive somewhere on the grid (optical
    anti-damping instability)."""


class UnstableStep(RuntimeError):
    """Trajectory blew up; the time step is too large for the dynamics."""


@dataclass(frozen=True)
class OptomechConfig:
    """Mechanical and optical parameters of the readout.

    chi couples the mechanical position to the cavity (rad/(s m));
    alpha_sq is the intracavity photon number.
    """

    m: float
    omega_m: float
    gamma_m: float
    T: float
    kappa: float = 1.0
    Delta: float = 0.0
    chi: float = 0.0
    alpha_sq: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError(f"optomech parameters must be finite: {self}")
        if not (self.m > 0 and self.omega_m > 0 and self.kappa > 0):
            raise ValueError("m, omega_m, kappa must be positive")
        if self.gamma_m < 0 or self.T < 0 or self.alpha_sq < 0:
            raise ValueError("gamma_m, T, alpha_sq must be nonnegative")


@dataclass(frozen=True)
class NoiseSpectrum:
    """Frequency grid with double-sided displacement spectral density
    values (m^2 s)."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omegas.shape != values.shape or omegas.ndim != 1:
            raise ValueError("omegas and values must be equal-length 1D")
        if np.any(np.diff(omegas) <= 0):
            raise ValueError("omegas must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("spectral densities must be nonnegative")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SimConfig:
    """Settings of a Langevin run: time step dt [s], steps per trajectory,
    trajectory count and seed.  mode "free_particle" drops the restoring
    force and damping (the free-expansion configuration); nperseg is the
    Welch segment length, None for min(steps, 4096)."""

    dt: float
    steps: int
    trajectories: int = 1
    seed: int = 0
    mode: str = "oscillator"
    nperseg: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        for name in ("steps", "trajectories", "seed") + (
                () if self.nperseg is None else ("nperseg",)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{value!r}") from None
        if not 0 <= self.seed < 2 ** 63:
            raise ValueError(f"seed must lie in [0, 2**63), got {self.seed}")
        if self.steps < 2 or self.trajectories < 1:
            raise ValueError("need steps >= 2 and trajectories >= 1")
        if self.mode not in ("oscillator", "free_particle"):
            raise ValueError("mode must be oscillator or free_particle, got "
                             f"{self.mode!r}")
        if self.nperseg is not None and not 2 <= self.nperseg <= self.steps:
            raise ValueError(f"nperseg must lie in [2, steps = {self.steps}]"
                             f", got {self.nperseg}")

    def validate_resolution(self, omega_m):
        if self.dt * omega_m >= 0.1:
            raise ValueError("dt * omega_m must stay below 0.1")


def _ucothu(u):
    """u coth u, stable at 0 (series) and at large u (saturates to u)."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    small = au < 1e-4
    us = np.where(small, 1.0, u)
    series = 1.0 + u * u / 3.0
    with np.errstate(over="ignore"):
        full = np.where(au < 350.0, us / np.tanh(us), au)
    return np.where(small, series, full)


def thermal_force_term(cfg, omega):
    """hbar m gamma_m w coth(hbar w / 2 kB T); continuous at w = 0 and
    valid at T = 0, where it degenerates to hbar m gamma_m |w|."""
    omega = np.asarray(omega, dtype=float)
    if cfg.T == 0.0:
        return CONSTANTS.hbar * cfg.m * cfg.gamma_m * np.abs(omega)
    u = CONSTANTS.hbar * omega / (2.0 * CONSTANTS.kB * cfg.T)
    return 2.0 * cfg.m * cfg.gamma_m * CONSTANTS.kB * cfg.T * _ucothu(u)


def default_effective_model(cfg, omega):
    """Standard linearized-optomechanics effective frequency and damping.

    With D(w) = [k^2+(w-D)^2][k^2+(w+D)^2]:
      w_eff^2 = w_m^2 - 2 hbar chi^2 |a|^2 Delta (k^2 + Delta^2 - w^2) / (m D)
      g_eff   = g_m + 4 hbar chi^2 |a|^2 Delta k / (m D)
    Reduces exactly to (w_m, g_m) when chi = 0 or |a|^2 = 0.
    """
    omega = np.asarray(omega, dtype=float)
    if cfg.chi == 0.0 or cfg.alpha_sq == 0.0:
        return (np.full_like(omega, cfg.omega_m ** 2),
                np.full_like(omega, cfg.gamma_m))
    k2 = cfg.kappa ** 2
    D = (k2 + (omega - cfg.Delta) ** 2) * (k2 + (omega + cfg.Delta) ** 2)
    coupling = CONSTANTS.hbar * cfg.chi ** 2 * cfg.alpha_sq * cfg.Delta \
        / cfg.m
    omega_eff_sq = cfg.omega_m ** 2 \
        - 2.0 * coupling * (k2 + cfg.Delta ** 2 - omega ** 2) / D
    gamma_eff = cfg.gamma_m + 4.0 * coupling * cfg.kappa / D
    return omega_eff_sq, gamma_eff


def susceptibility_denominator(cfg, omega):
    """|d(w)|^2 = (w_eff^2 - w^2)^2 + g_eff^2 w^2, with (w_eff, g_eff)
    from default_effective_model.

    Raises NonPositiveDamping if the effective damping is nonpositive
    anywhere on the grid.
    """
    omega_eff_sq, gamma_eff = default_effective_model(cfg, omega)
    if np.any(gamma_eff <= 0):
        raise NonPositiveDamping(
            "effective damping nonpositive on the grid; the configuration "
            "is optically anti-damped")
    omega = np.asarray(omega, dtype=float)
    return (omega_eff_sq - omega ** 2) ** 2 + gamma_eff ** 2 * omega ** 2


def displacement_dns(cfg, p, g, omegas, spec=None, components=False):
    """Analytic displacement noise spectrum on the given grid (m^2 s).

    The CSL force spectrum is evaluated once for (g, p) and reused across
    the grid, scaled by the colored filter where one is configured.
    With components=True also returns the {"backaction", "thermal",
    "csl"} additive parts.
    """
    omegas = np.asarray(omegas, dtype=float)
    d2 = susceptibility_denominator(cfg, omegas)
    m2 = cfg.m ** 2

    backaction = np.zeros_like(omegas)
    if cfg.chi != 0.0 and cfg.alpha_sq != 0.0:
        backaction = (2.0 * CONSTANTS.hbar ** 2 * cfg.alpha_sq * cfg.kappa
                      * cfg.chi ** 2
                      / (m2 * (cfg.kappa ** 2 + (cfg.Delta - omegas) ** 2)
                         * d2))

    s_ff = apply_colored_filter(
        float(csl_force_spectrum(g, p, spec=spec)),
        p.colored, omegas) * np.ones_like(omegas)

    thermal = thermal_force_term(cfg, omegas) / (m2 * d2)
    csl = s_ff / (m2 * d2)
    values = backaction + thermal + csl
    spectrum = NoiseSpectrum(omegas, values)
    if components:
        return spectrum, {"backaction": backaction, "thermal": thermal,
                          "csl": csl}
    return spectrum


def high_temperature_limit_check(cfg, p, g, omega, spec=None):
    """Force-noise numerator: exact coth form vs its high-T limit
    2 m gamma_m kB (T + dT_CSL).  Valid for hbar w / 2 kB T < 1e-3."""
    if cfg.T <= 0:
        raise ValueError("high-T check needs T > 0")
    u = CONSTANTS.hbar * omega / (2.0 * CONSTANTS.kB * cfg.T)
    if not u < 1e-3:
        raise ValueError("outside the high-temperature regime")
    s_ff = float(csl_force_spectrum(g, p, spec=spec))
    exact = float(thermal_force_term(cfg, omega)) + s_ff
    dT = csl_temperature_shift(s_ff, cfg.m, cfg.gamma_m) \
        if cfg.gamma_m > 0 else 0.0
    limit = 2.0 * cfg.m * cfg.gamma_m * CONSTANTS.kB * (cfg.T + dT)
    return exact, limit


@dataclass(frozen=True)
class SimulationResult:
    times: np.ndarray
    xs: np.ndarray    # (trajectories, steps)
    ps: np.ndarray
    spectrum: NoiseSpectrum
    seed: int
    force_psd_total: float


def welch(x, fs, nperseg):
    """One-sided Welch (1967) power spectral density of each row of x.

    Periodic Hann window, 50 % overlap, no detrend, density scaling
    (per Hz) and the mean over segments: the estimate of
    scipy.signal.welch(x, fs, "hann", nperseg, detrend=False).  A
    trailing partial segment is dropped.  Returns (freqs, psd).
    """
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    step = nperseg - nperseg // 2
    segments = np.lib.stride_tricks.sliding_window_view(
        x, nperseg, axis=-1)[..., ::step, :]
    spec = np.fft.rfft(segments * win, axis=-1)
    psd = np.mean(spec.real ** 2 + spec.imag ** 2, axis=-2) \
        / (fs * np.sum(win ** 2))
    # fold negative frequencies: double all bins but DC and (even
    # nperseg) Nyquist
    psd[..., 1:(nperseg + 1) // 2] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def _trajectory_noise(sim):
    """Unit-variance normal increments, one counter-based Philox stream
    per (seed, trajectory index)."""
    draws = np.empty((sim.trajectories, sim.steps))
    for i in range(sim.trajectories):
        gen = np.random.Generator(np.random.Philox(key=[sim.seed, i]))
        gen.standard_normal(out=draws[i])
    return draws


# steps per block of the propagated recursion (see _propagate)
BLOCK = 128


def _unit_responses(m, k_spring, gamma, dt, steps):
    """The per-step recursion run from the unit starts (x, p) = (1, 0)
    and (0, 1): h[j] is the 2 x 2 map A^j of j steps, j = 0..steps,
    rows (x, p), columns the start."""
    h = np.empty((steps + 1, 2, 2))
    h[0] = np.eye(2)
    x = np.array([1.0, 0.0])
    pm = np.array([0.0, 1.0])
    for j in range(1, steps + 1):
        x = x + pm / m * dt
        pm = pm + (-k_spring * x - gamma * pm) * dt
        h[j] = x, pm
    return h


def _propagate(noise, m, k_spring, gamma, dt):
    """Semi-implicit Euler from rest, propagated BLOCK steps at a time.

    The step x += p/m dt, p += (-k x - gamma p) dt + noise is the linear
    map s -> A s + e_p noise, so inside a block the state is its start
    state through A^j plus the noise through the kick response A^d e_p.
    The kick responses of all blocks are one product with the
    triangular Toeplitz matrix of A^d e_p, written straight into the
    (trajectories, steps) outputs; a loop over blocks then carries the
    block-end states.  Equal to the per-step recursion up to
    rounding.  Overwrites noise.  Returns (xs, ps).
    """
    xs = np.empty_like(noise)
    ps = np.empty_like(noise)
    n_traj, steps = noise.shape
    h = _unit_responses(m, k_spring, gamma, dt, min(steps, BLOCK))
    # kick[i, j] = A^(j-i) e_p: response at block step j to noise at i
    lag = np.arange(h.shape[0] - 1)
    lag = lag[None, :] - lag[:, None]
    kick = np.where(lag[..., None] >= 0, h[np.maximum(lag, 0), :, 1], 0.0)

    # (trajectories, blocks, block length) views: the whole blocks, then
    # a shorter last block
    full = steps - steps % BLOCK
    pieces = [tuple(a[:, :full].reshape(n_traj, -1, BLOCK)
                    for a in (noise, xs, ps))] if full else []
    if full < steps:
        pieces.append(tuple(a[:, None, full:] for a in (noise, xs, ps)))
    start = np.zeros((n_traj, 2))
    for noise3, xs3, ps3 in pieces:
        n_blocks, length = noise3.shape[1:]
        np.matmul(noise3, kick[:length, :length, 0], out=xs3)
        np.matmul(noise3, kick[:length, :length, 1], out=ps3)
        # each block starts where the last one ended: its forced end
        # plus its own start carried through A^length
        forced_ends = np.stack([xs3[:, :, -1], ps3[:, :, -1]], axis=-1)
        starts = np.empty_like(forced_ends)
        for b in range(n_blocks):
            starts[:, b] = start
            start = forced_ends[:, b] + start @ h[length].T
        # noise is spent: reuse it for the homogeneous part
        np.matmul(starts, h[1:length + 1, 0, :].T, out=noise3)
        xs3 += noise3
        np.matmul(starts, h[1:length + 1, 1, :].T, out=noise3)
        ps3 += noise3
    return xs, ps


def simulate_langevin(cfg, p, g, sim, spec=None):
    """Semi-implicit Euler integration of the mechanical-only Langevin
    system, from rest, with the settings of the SimConfig sim.

    dx = (p/m) dt
    dp = (-m w_m^2 x - g_m p) dt + dW,   S_W = 2 m g_m kB T + S_FF (white)

    sim.mode "free_particle" drops the restoring force and damping (the
    free-expansion configuration).  Returns trajectories and the
    Welch-averaged displacement spectrum, over segments of sim.nperseg
    steps, in the double-sided convention of displacement_dns.
    """
    if p.colored is not None and p.colored.family != "white":
        raise ValueError("the Monte Carlo validator supports white CSL only")
    free_particle = sim.mode == "free_particle"
    if not free_particle:
        sim.validate_resolution(cfg.omega_m)

    m = cfg.m
    omega_m = 0.0 if free_particle else cfg.omega_m
    gamma = 0.0 if free_particle else cfg.gamma_m
    T = 0.0 if free_particle else cfg.T

    s_csl = float(csl_force_spectrum(g, p, spec=spec))
    s_total = 2.0 * m * gamma * CONSTANTS.kB * T + s_csl

    dt = sim.dt
    noise = _trajectory_noise(sim)
    noise *= np.sqrt(s_total * dt)

    guard = None
    if omega_m > 0 and s_total > 0 and gamma > 0:
        t_eff = T + csl_temperature_shift(s_csl, m, gamma)
        guard = 1e6 * np.sqrt(CONSTANTS.kB * t_eff / (m * omega_m ** 2))

    # a divergent run overflows; it is reported as UnstableStep below
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ps = _propagate(noise, m, m * omega_m ** 2, gamma, dt)
        del noise   # spent; freed before the Welch estimate
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
            raise UnstableStep("trajectory diverged; reduce dt")
        if guard is not None and max(xs.max(), -xs.min()) > guard:
            raise UnstableStep(
                "displacement exceeded 1e6 x equilibrium spread; "
                "reduce dt")

    times = np.arange(sim.steps) * dt

    # one trajectory at a time, so the windowed segments and their
    # transforms never exist for all trajectories at once
    nperseg = min(sim.steps, 4096) if sim.nperseg is None else sim.nperseg
    psd = 0.0
    for x in xs:
        freqs, one = welch(x, 1.0 / dt, nperseg)
        psd = psd + one
    psd /= len(xs)
    # one-sided per-Hz -> double-sided per (rad/s via dw/2pi measure)
    omegas = 2.0 * np.pi * freqs[1:]
    spectrum = NoiseSpectrum(omegas, psd[1:] / 2.0)

    return SimulationResult(times, xs, ps, spectrum, sim.seed, s_total)


# ---------------------------------------------------------------------------
# trajectory dumps: fixed little-endian layout
#
#   magic   8 bytes  b"CSLTRJ01"
#   version u32
#   ntraj   u32
#   steps   u64
#   seed    u64
#   dt      f64
#   confhash 32 bytes (sha256 of the caller-supplied config text)
#   t       f64[steps]
#   then per trajectory: x f64[steps], p f64[steps]

_MAGIC = b"CSLTRJ01"
_HEADER = struct.Struct("<8sIIQQd32s")


def write_trajectories(path, result, config_text=""):
    conf_hash = hashlib.sha256(config_text.encode()).digest()
    ntraj, steps = result.xs.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 1, ntraj, steps, result.seed,
                              result.times[1] - result.times[0]
                              if steps > 1 else 0.0, conf_hash))
        fh.write(result.times.astype("<f8").tobytes())
        for i in range(ntraj):
            fh.write(result.xs[i].astype("<f8").tobytes())
            fh.write(result.ps[i].astype("<f8").tobytes())


def read_trajectories(path):
    """Returns (times, xs, ps, meta dict).

    Raises ValueError, naming path and the defect, for a file that is not
    a whole version-1 dump: a short header, another magic or version, or
    a size other than the header's counts give.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: header of {len(header)} bytes, "
                             f"needs {_HEADER.size}")
        magic, version, ntraj, steps, seed, dt, conf_hash = \
            _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a trajectory dump")
        if version != 1:
            raise ValueError(f"{path}: version {version}, only 1 is read")
        size = _HEADER.size + 8 * steps * (1 + 2 * ntraj)
        actual = os.fstat(fh.fileno()).st_size
        if actual != size:
            raise ValueError(f"{path}: {actual} bytes, but {ntraj} "
                             f"trajectories of {steps} steps take {size}")
        times = np.frombuffer(fh.read(8 * steps), dtype="<f8")
        xs = np.empty((ntraj, steps))
        ps = np.empty((ntraj, steps))
        for i in range(ntraj):
            xs[i] = np.frombuffer(fh.read(8 * steps), dtype="<f8")
            ps[i] = np.frombuffer(fh.read(8 * steps), dtype="<f8")
    meta = {"version": version, "seed": seed, "dt": dt,
            "config_hash": conf_hash}
    return times, xs, ps, meta
