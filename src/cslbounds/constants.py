"""Physical constants used throughout the package.

All values are SI.  They live in one frozen instance, CONSTANTS, which
every formula reads from this module: no function takes the constants as
a parameter, and nothing else in the package hardcodes hbar, kB or the
nucleon mass.  Spectra scale as 1/m0^2 and lambda bounds as m0^2, which
is how to restate a result for another reference mass.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.054571817e-34       # J s
    kB: float = 1.380649e-23            # J / K
    m0: float = 1.67262e-27             # nucleon mass, kg
    seconds_per_year: float = 3.15576e7

    def __post_init__(self):
        for name in ("hbar", "kB", "m0", "seconds_per_year"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


CONSTANTS = PhysicalConstants()

# Conventional reference point of the collapse parameter space (GRW values).
GRW_LAMBDA = 1e-16   # 1/s
GRW_RC = 1e-7        # m
