"""Monte Carlo validation of the analytic displacement spectrum.

Integrates the mechanical Langevin equations for a thermally driven
oscillator, estimates the displacement spectrum with a Welch average
over many trajectories, and compares against the analytic prediction
around the mechanical resonance.
"""

import numpy as np

from cslbounds import (CollapseParams, GRW_RC, OptomechConfig, SimConfig,
                       Sphere, displacement_dns, simulate_langevin)

cfg = OptomechConfig(m=1e-12, omega_m=2.0 * np.pi * 3e3,
                     gamma_m=2.0 * np.pi * 200.0, T=0.1)
sphere = Sphere(1e-12, 5e-7)
p = CollapseParams(0.0, GRW_RC)   # thermal drive only for this check

sim = SimConfig(dt=1.5e-6, steps=65536, trajectories=100, seed=21,
                nperseg=32768)
result = simulate_langevin(cfg, p, sphere, sim)

analytic = displacement_dns(cfg, p, sphere, result.spectrum.omegas)

sel = (result.spectrum.omegas > cfg.omega_m / 3.0) \
    & (result.spectrum.omegas < cfg.omega_m * 3.0)
ratio = result.spectrum.values[sel] / analytic.values[sel]
print(f"{sim.trajectories} trajectories, {sim.steps} steps each")
print(f"Welch / analytic around resonance: mean {np.mean(ratio):.3f}, "
      f"spread {np.std(ratio):.3f}")

# time-domain cross-check: equipartition of the position variance
var = np.mean(result.xs[:, sim.steps // 3:] ** 2)
expected = 1.380649e-23 * cfg.T / (cfg.m * cfg.omega_m ** 2)
print(f"<x^2> = {var:.3e} m^2 vs kB T / m omega_m^2 = {expected:.3e} m^2")
