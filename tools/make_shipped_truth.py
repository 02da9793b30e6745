"""Write tests/shipped_truth.csv: 30-digit unit spectra (lambda = 1) of
the shipped exclusions at 10 points of each rC grid (about 30 minutes).

    PYTHONPATH=src python tools/make_shipped_truth.py

Each follows the library's reduction (cslnoise.py), none of its
arithmetic.  The sphere force is its closed form, checked against
mp.quad of the radial integral.  The cylinder torque is sin^2 of the
tilt times (pi / 2) m^2 (M2_disc D0_slab + D0_disc M2_slab - 2 C1_disc
C1_slab), each moment an mp.quad of twice its integrand over k >= 0
(k^2 P^2, P'^2, k P P' times e^{-k^2 rC^2}, a disc's times k more).  The
far two-body is the cuboid force m^2 M2_x M0_y M0_z from the slab's
closed forms; its cross term, below e^{-(a - L)^2 / 4 rC^2}, is 0 here.
Each carries hbar^2 rC^3 / (pi^{3/2} m0^2), at a precision that rises
with the formula's cancellation.
"""

import csv
import os
import sys

import mpmath as mp
import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cslbounds.config import load_config  # noqa: E402
from cslbounds.constants import CONSTANTS  # noqa: E402

DIGITS = 30


def prefactor(rC):
    return mp.mpf(CONSTANTS.hbar) ** 2 * rC ** 3 / (
        mp.pi ** 1.5 * mp.mpf(CONSTANTS.m0) ** 2)


def panels(rC, length):
    """[0, 10 / rC], where e^{-k^2 rC^2} falls below 1e-43, in panels of
    about half the transform's period."""
    return mp.linspace(0, 10 / rC, int(mp.ceil(10 * length / (mp.pi * rC)))
                       + 1)


def sphere_force(body, rC):
    m, x = mp.mpf(body.m), mp.mpf(body.R) / rC
    with mp.workdps(DIGITS + 10 + int(max(0, -6 * mp.log10(x)))):
        shape = 6 / x ** 4 * (1 - 2 / x ** 2
                              + (1 + 2 / x ** 2) * mp.exp(-x * x))
        return mp.mpf(CONSTANTS.hbar) ** 2 * m * m / (
            2 * mp.mpf(CONSTANTS.m0) ** 2 * rC * rC) * shape


def sphere_force_by_quadrature(body, rC):
    """pref m^2 (4 pi / 3) int k^4 K(kR)^2 e^{-k^2 rC^2} dk, K the sphere
    kernel 3 (sin u - u cos u) / u^3."""
    def f(k):
        u = k * body.R
        return (3 * k * k * (mp.sin(u) - u * mp.cos(u)) / u ** 3) ** 2 \
            * mp.exp(-(k * rC) ** 2)
    return prefactor(rC) * mp.mpf(body.m) ** 2 * 4 * mp.pi / 3 \
        * mp.quad(f, panels(rC, body.R))


def moments(transform, dims, length, rC):
    """M2, D0 and C1 of a profile whose transform(k) gives (P, P')."""
    def integrand(kind):
        def f(k):
            p, dp = transform(k)
            val = {"M2": k * k * p * p, "D0": dp * dp, "C1": k * p * dp}[kind]
            return 2 * val * k ** (dims - 1) * mp.exp(-(k * rC) ** 2)
        return f
    return [mp.quad(integrand(kind), panels(rC, length))
            for kind in ("M2", "D0", "C1")]


def slab(L):
    half = L / 2

    def transform(k):
        u = k * half
        s, c = mp.sin(u), mp.cos(u)
        return s / u, half * (c - s / u) / u
    return transform


def disc(R):
    def transform(k):
        u = k * R
        return 2 * mp.besselj(1, u) / u, -2 * R * mp.besselj(2, u) / u
    return transform


def cylinder_torque(body, rC):
    L, R = mp.mpf(body.L), mp.mpf(body.R)
    with mp.workdps(DIGITS + 10 + int(max(0, 4 * mp.log10(rC / L)))):
        m2s, d0s, c1s = moments(slab(L), 1, L, rC)
        m2d, d0d, c1d = moments(disc(R), 2, 2 * R, rC)
        bracket = m2d * d0s + d0d * m2s - 2 * c1d * c1s
        sin2 = mp.mpf(body.axis[1]) ** 2 + mp.mpf(body.axis[2]) ** 2
        return sin2 * prefactor(rC) * mp.mpf(body.m) ** 2 * mp.pi / 2 \
            * bracket


def slab_m0_m2(L, rC):
    """A slab's M0 and M2: its box density's pair integral against the
    Gaussian's transform, in closed form."""
    L = mp.mpf(L)
    z = L / (2 * rC)
    tail = -mp.expm1(-z * z)
    m0 = 2 * mp.pi / L * mp.erf(z) - 4 * mp.sqrt(mp.pi) * rC / L ** 2 * tail
    m2 = 2 * mp.sqrt(mp.pi) / (rC * L * L) * tail
    return m0, m2


def cuboid_force(body, rC):
    with mp.workdps(DIGITS + 10 + int(max(0, 4 * mp.log10(rC / body.Lx)))):
        _, m2x = slab_m0_m2(body.Lx, rC)
        m0y, _ = slab_m0_m2(body.Ly, rC)
        m0z, _ = slab_m0_m2(body.Lz, rC)
        return prefactor(rC) * mp.mpf(body.m) ** 2 * m2x * m0y * m0z


def truth(rec, rC):
    if rec.name == "cantilever_sphere":
        return sphere_force(rec.geometry, rC)
    if rec.name == "cylinder_rotational":
        return cylinder_torque(rec.geometry, rC)
    pair = rec.geometry
    if not (pair.a - pair.unit.Lx) ** 2 / (4 * rC ** 2) > 1e4:
        raise ValueError(f"the two-body cross term counts at rC = {rC}")
    return cuboid_force(pair.unit, rC)


def main():
    mp.mp.dps = DIGITS
    rows = []
    for name in ("cantilever_sphere", "cylinder_rotational",
                 "space_two_body"):
        _, inputs = load_config(os.path.join(ROOT, "configs", name + ".ini"))
        [(rec, grid)] = inputs.experiments
        if name == "cantilever_sphere":
            rC = mp.mpf(rec.geometry.R) / 2
            a = sphere_force(rec.geometry, rC)
            b = sphere_force_by_quadrature(rec.geometry, rC)
            if not abs(a - b) <= mp.mpf(10) ** (5 - DIGITS) * a:
                raise ArithmeticError(f"sphere force {a} against {b}")
        for i in np.linspace(0, grid.size - 1, 10).round().astype(int):
            rC = float(grid[i])
            rows.append((name, int(i), repr(rC), mp.nstr(
                truth(rec, mp.mpf(rC)), DIGITS, min_fixed=1, max_fixed=0)))
            print(*rows[-1], flush=True)
    with open(os.path.join(ROOT, "tests", "shipped_truth.csv"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write("# unit spectra (lambda = 1) of the shipped exclusions, "
                 "30 digits; written by tools/make_shipped_truth.py\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("experiment", "index", "rc_m", "unit_spectrum"))
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
