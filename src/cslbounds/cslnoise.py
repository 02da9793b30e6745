"""CSL spectral quantities for rigid bodies.

The white collapse-force spectrum along x is

    S_FF = (hbar^2 lambda rC^3 / pi^{3/2} m0^2)
           * integral dk |mu_tilde(k)|^2 e^{-k^2 rC^2} k_x^2

and every other quantity here (two-body variant, torque spectrum,
temperature shift, free-expansion spread, heating rate) derives from it.
Each geometry type and channel has one route, named in _ROUTES, that
reduces the k-space integral as far as the geometry allows: closed-form
Gaussian pair kernels for points and point lattices; for Cuboid and
Multilayer (any stacking axis) a product of Gaussian moments of their
three 1D axis profiles, in force, two-body and torque alike; sums of
products of the moments of a slab and a disc profile for cylinders at
any tilt; one moment of a ball profile for the sphere two-body, and one
radial integral (integrate_k3) for the sphere force.  A route asks each
profile for every moment it needs in one request to _profile_moment.
Every moment of a slab or layer stack, a disc's M0 and M2, and up to
R = 3.5 rC its kernel moments, is a closed form, computed by the pass
function that _closed_pass alone picks: erf/exp sums over pairs of
layer edges (_axis_edges), their series in 1/rC^2 (_axis_series,
_shifted_part) or the one-slab formula (_sinc_sq_gauss); e^{-x} I_n(x)
(_disc_moment) and a Laguerre series (_disc_kernel_moment) for the disc.
The cylinder torque, the disc kernels of a two-body cylinder past that
and the sphere two-body stay 1D quadratures.  method="quadrature" runs
the same route with every moment by 1D quadrature, as a cross-check of
the closed forms.  No route integrates in more than one dimension; the
generic 3D quadrature is a test oracle (tests/oracles.py).  README.md
tabulates the routes.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constants import CONSTANTS
from .geometry import (AxisProfile, Cuboid, Cylinder, DiscProfile,
                       Multilayer, Point, PointLattice, Sphere, TwoBody,
                       _check_positive)
from .quadrature import K_CUTOFF, QuadratureSpec, integrate_1d, integrate_k3
from .special import (bessel_j1, one_minus_j0, ring_cos2_kernel,
                      shell_cos2_kernel, sphere_kernel)
from .special import sinc  # noqa: F401  perfbench's tracer test wraps it here

__all__ = [
    "CollapseParams", "ColoredNoiseModel", "SpectralValue",
    "csl_force_spectrum", "csl_force_spectrum_two_body",
    "csl_torque_spectrum", "apply_colored_filter",
    "csl_temperature_shift", "csl_temperature_shift_rot",
    "free_expansion_spread", "heating_rate",
    "force_pair_kernel_sum", "two_body_pair_kernel_sum",
    "torque_pair_kernel_sum",
]


@dataclass(frozen=True)
class ColoredNoiseModel:
    """Multiplicative spectral filter f(omega) on the white spectrum.

    family "white" is the identity; "lorentzian_cutoff" is
    f(omega) = omega_c^2 / (omega_c^2 + omega^2), the one-parameter
    exponentially-correlated family (f(0) = 1, f <= 1).
    """

    family: str = "white"
    omega_c: Optional[float] = None

    def __post_init__(self):
        if self.family not in ("white", "lorentzian_cutoff"):
            raise ValueError(f"unknown colored-noise family {self.family!r}")
        if self.family == "lorentzian_cutoff":
            if self.omega_c is None or not 0 < self.omega_c < np.inf:
                raise ValueError("lorentzian_cutoff requires a finite "
                                 "omega_c > 0")

    def filter(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.family == "white":
            return np.ones_like(omega)
        oc2 = self.omega_c ** 2
        return oc2 / (oc2 + omega * omega)


@dataclass(frozen=True)
class CollapseParams:
    """Collapse rate lam (1/s), correlation length rC (m), optional
    colored-noise filter."""

    lam: float
    rC: float
    colored: Optional[ColoredNoiseModel] = None

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative, "
                             f"got {self.lam}")
        if not 0 < self.rC < np.inf:
            raise ValueError(f"rC must be finite and positive, got {self.rC}")
        # Python floats, so that every route runs on plain float
        # arithmetic whatever scalars it was given
        if type(self.lam) is not float:
            object.__setattr__(self, "lam", float(self.lam))
        if type(self.rC) is not float:
            object.__setattr__(self, "rC", float(self.rC))


class SpectralValue(float):
    """A float spectral density carrying a quadrature error estimate."""

    def __new__(cls, value, error=0.0):
        obj = super().__new__(cls, value)
        obj.error = float(error)
        return obj


# the constant factors of _prefactor, hbar^2 and pi^{3/2} m0^2
_HBAR_SQ = CONSTANTS.hbar ** 2
_PI_M0_SQ = math.pi ** 1.5 * CONSTANTS.m0 ** 2


def _prefactor(p):
    return _HBAR_SQ * p.lam * p.rC ** 3 / _PI_M0_SQ


# ---------------------------------------------------------------------------
# closed-form Gaussian pair kernels (point lattices; also the oracles)
#
# With c = 1/(2 rC^2), every pair kernel is c times a polynomial in the
# coordinate differences times G = e^{-c d^2/2}: (1 - c dx^2) G for the
# force, the same at dx and dx -+ a for the two-body pair, and
# (y_i y_j + z_i z_j - c (z_i dy - y_i dz)^2) G for the torque.  The
# factor c is applied once to the finished sum.

_TILE = 128
_EXP_FLOOR = -700.0
# A tile pair is skipped when every exponent c d^2 / 2 of its terms is at
# least _SKIP_EXP.  A skipped term is then at most (1 + 2x) e^{-x} <=
# 87 e^{-43} = 1.8e-17 times its scale (see _gaussian), and a two-body
# term, whose three Gaussians weigh 1, 1/2 and 1/2, at most twice that:
# all the skipped terms together stay below 1e-16 of the sum's scale,
# c (sum m)^2 for the force and two-body and c R_max^2 (sum m)^2 for the
# torque.
_SKIP_EXP = 43.0
_Z_BITS = 21   # three 21-bit coordinates interleave into one uint64


def _gaussian(d2, scale, keep):
    """e^{-scale d2}, written over d2; keep is a boolean scratch array, or
    None where no exponent can fall below _EXP_FLOOR.

    Exponents below _EXP_FLOOR give exactly 0: they are clamped to it, so
    that no exp returns a subnormal (about 100x slower than a normal
    result), and the clamped entries are multiplied by 0.  With x the
    exponent's magnitude, a dropped force or two-body term is at most
    (1 + 2x) e^{-x} times c, and a dropped torque term at most
    (1 + 2x) e^{-x} times c r_i r_j (r the distance from the x axis), so
    below 1.4e-301 of the scale of a diagonal term for x > 700.  Clamping
    without the zeroing would leave e^{-700} times a polynomial with no
    bound.  With keep None the clamp, which would change nothing, is
    left out.
    """
    np.multiply(d2, -scale, out=d2)
    if keep is None:
        return np.exp(d2, out=d2)
    np.greater_equal(d2, _EXP_FLOOR, out=keep)
    np.maximum(d2, _EXP_FLOOR, out=d2)
    np.exp(d2, out=d2)
    np.multiply(d2, keep, out=d2)
    return d2


def _tile_pairs(lat, c, weights, shifts):
    """Which tile pairs _pair_sum skips, the bound on each one's sum, and
    which ones may reach the exponent floor.

    The tiles are runs of _TILE points of lat.  Over a tile pair (I, J)
    each difference x_i - x_j, y_i - y_j, z_i - z_j lies in the range
    spanned by the two bounding boxes, and with a shift s the x range
    moves by s.  For each (s, w) in shifts the exponent
    c ((dx + s)^2 + dy^2 + dz^2) / 2 of every pair is then at least x_s,
    that of the ranges' nearest point to 0, and at most that of their
    farthest.  The pair is skipped when every x_s is at least _SKIP_EXP,
    and its terms then sum to at most W_I W_J sum_s |w| (1 + 2 x_s)
    e^{-x_s} (before the factor c), W a tile's sum of weights.  Returns
    (skip, bound, floor), tiles x tiles arrays; floor is True where some
    exponent may exceed -_EXP_FLOOR.
    """
    starts = np.arange(0, lat.masses.size, _TILE)
    lo = np.minimum.reduceat(lat.positions, starts)
    hi = np.maximum.reduceat(lat.positions, starts)
    wsum = np.add.reduceat(weights, starts)
    dlo = lo[:, None] - hi[None]     # least x_i - x_j etc. over (I, J)
    dhi = hi[:, None] - lo[None]
    near_yz = np.maximum(np.maximum(dlo[..., 1:], -dhi[..., 1:]), 0.0)
    near2_yz = np.sum(near_yz * near_yz, axis=-1)
    far2_yz = np.sum(np.maximum(dlo[..., 1:] ** 2, dhi[..., 1:] ** 2),
                     axis=-1)
    least, most = np.inf, 0.0
    bound = 0.0
    for s, w in shifts:
        lo_x, hi_x = dlo[..., 0] + s, dhi[..., 0] + s
        near_x = np.maximum(np.maximum(lo_x, -hi_x), 0.0)
        x = 0.5 * c * (near_x * near_x + near2_yz)
        least = np.minimum(least, x)
        most = np.maximum(most, 0.5 * c * (np.maximum(lo_x ** 2, hi_x ** 2)
                                           + far2_yz))
        bound = bound + abs(w) * (1.0 + 2.0 * x) * np.exp(-x)
    return (least >= _SKIP_EXP, bound * wsum[:, None] * wsum[None],
            most > -_EXP_FLOOR)


def _difference_operands(coords):
    """Rows [u_i, 1], shape (k, n, 2), and columns [1, -u_j], shape
    (k, 2, n), of each of the k rows u of coords: the matmul of a slice
    of rows with a slice of columns is u_i - u_j bit for bit.  Each entry
    is two exact products and one rounded sum, so no BLAS kernel, with
    or without FMA, at any thread count, can round it otherwise."""
    left = np.ones(coords.shape + (2,))
    left[..., 0] = coords
    right = np.ones((len(coords), 2, coords.shape[1]))
    np.negative(coords, out=right[:, 1])
    return left, right


def _product_operands(coords):
    """Rows [u_i, 0] and columns [u_j, 0], shaped as _difference_operands
    shapes them: their matmul is u_i u_j bit for bit, one rounded
    product plus an exact 0."""
    left = np.zeros(coords.shape + (2,))
    left[..., 0] = coords
    right = np.zeros((len(coords), 2, coords.shape[1]))
    right[:, 0] = coords
    return left, right


def _pair_sum(lat, kernel, c, weights, shifts=((0.0, 1.0),), rows=()):
    """c sum_ij m_i m_j K_ij over all ordered pairs of points of lat, and
    an error that bounds the terms of the skipped tile pairs.

    The sum runs over square tiles of at most _TILE x _TILE pairs, in
    tile order.  Every kernel is symmetric under i <-> j, so only tiles
    on or above the block diagonal are evaluated and those off the
    diagonal count twice: at most N^2/2 kernel evaluations in a fixed
    workspace of seven tile-sized arrays (plus the planes below),
    whatever N is.  Each tile's differences x_i - x_j etc. are taken in
    physical coordinates, exact for nearby points however far the
    lattice sits from the origin, and rho2 = dy^2 + dz^2 is formed once.
    One stacked BLAS product (_difference_operands) gives all three,
    equal to np.subtract's differences bit for bit, and every other
    operation in the tile acts elementwise on tile-shaped arrays, with no
    broadcasting.  Each tile is then reduced by two einsum matrix-vector
    products, which use no BLAS and so fix the summation order: the value
    depends neither on the BLAS kernel nor on its thread count.

    _tile_pairs decides from the tiles' bounding boxes, with the
    kernel's x shifts and their weights (shifts) and the per-point
    weights that bound its polynomial (the masses, or m r for the
    torque), which tile pairs are so far apart that every exponent is
    at least _SKIP_EXP.  Those are skipped and their bounds summed into
    the error.  kernel(i, j, tile, keep) receives the row and column
    slices, tile = (dx, dy, dz, rho2, w0, w1, w2, *planes) (w0-w2
    scratch; dy and dz may be overwritten once read) and keep, a boolean
    scratch array for _gaussian, or None where no exponent of the tile
    pair can fall below _EXP_FLOOR; it returns the tile's kernel matrix.
    The planes, one per per-point array in rows, hold that array's value
    for the tile's row point in every column; they are filled once per
    row of tiles, and the kernel must not write them.
    """
    masses = lat.masses
    n = masses.size
    left, right = _difference_operands(lat.positions.T)
    skip, bound, floor = _tile_pairs(lat, c, weights, shifts)
    work = np.empty((7 + len(rows), _TILE, _TILE))
    keep = np.empty((_TILE, _TILE), dtype=bool)
    total = skipped = 0.0
    for ti, i0 in enumerate(range(0, n, _TILE)):
        i = slice(i0, i0 + _TILE)
        ni = min(_TILE, n - i0)
        for plane, r in zip(work[7:], rows):
            plane[:ni] = r[i, None]
        for tj, j0 in enumerate(range(i0, n, _TILE), start=ti):
            if skip[ti, tj]:
                skipped += 2.0 * bound[ti, tj]
                continue
            j = slice(j0, j0 + _TILE)
            nj = min(_TILE, n - j0)
            tile = work[:, :ni, :nj]
            dx, dy, dz, rho2, w0 = tile[:5]
            np.matmul(left[:, i], right[:, :, j], out=tile[:3])
            np.square(dy, out=rho2)
            np.square(dz, out=w0)
            rho2 += w0
            k = kernel(i, j, tile,
                       keep[:ni, :nj] if floor[ti, tj] else None)
            s = float(np.einsum("i,i->", masses[i],
                                np.einsum("ij,j->i", k, masses[j])))
            total += s if j0 == i0 else 2.0 * s
    return c * total, c * skipped


def _force_kernel(dx, rho2, c, keep, out, u):
    """(1 - c dx^2) e^{-c (dx^2 + rho2) / 2} into out; u is scratch."""
    np.square(dx, out=u)
    np.add(u, rho2, out=out)
    _gaussian(out, 0.5 * c, keep)
    np.multiply(u, -c, out=u)
    u += 1.0
    out *= u
    return out


def _z_order(pos):
    """The indices that sort pos in Z (Morton) order.

    Each coordinate is quantized to _Z_BITS bits over the points'
    bounding cube and the bits of the three are interleaved, so that
    every run of consecutive points, a tile among them, fills a compact
    block of space, whatever order the points came in.
    """
    lo = pos.min(axis=0)
    span = float(np.max(pos.max(axis=0) - lo))
    if span == 0.0:
        return np.arange(len(pos))
    q = ((pos - lo) / span * (2 ** _Z_BITS - 1)).astype(np.uint64)
    code = np.zeros(len(pos), dtype=np.uint64)
    for bit in range(_Z_BITS):
        for axis in range(3):
            code |= ((q[:, axis] >> bit) & 1) << (3 * bit + axis)
    return np.argsort(code, kind="stable")


def _as_lattice(positions, masses, rC):
    """The points as a PointLattice, which checks them, after checking
    rC, put in Z order (_z_order) for _pair_sum's tiles."""
    _check_positive(rC=rC)
    lat = PointLattice(positions, masses)
    order = _z_order(lat.positions)
    return PointLattice(lat.positions[order], lat.masses[order])


def force_pair_kernel_sum(positions, masses, rC):
    """sum_ij m_i m_j (1 - d_x^2/2rC^2) e^{-d^2/4rC^2} / (2 rC^2).

    This is the k-space integral of the force spectrum carried out
    analytically for point masses; multiply by hbar^2 lam / m0^2 to get
    S_FF.  Returns a SpectralValue whose error bounds the skipped far
    tile pairs (_pair_sum), at most 1e-16 of c (sum m)^2.  Raises
    ValueError for a non-positive or non-finite rC and for positions and
    masses PointLattice would reject.
    """
    lat = _as_lattice(positions, masses, rC)
    c = 1.0 / (2.0 * rC * rC)

    def kernel(i, j, tile, keep):
        dx, _, _, rho2, w0, w1, _ = tile
        return _force_kernel(dx, rho2, c, keep, w0, w1)

    return SpectralValue(*_pair_sum(lat, kernel, c, lat.masses))


def two_body_pair_kernel_sum(positions, masses, rC, a):
    """Differential-pair kernel for two identical units separated by a
    along x: K(d) - [K(d + a x) + K(d - a x)] / 2 summed over unit pairs.

    Returns a SpectralValue as force_pair_kernel_sum does; a tile pair is
    skipped only when it is far at dx, dx + a and dx - a alike.  Raises
    ValueError as force_pair_kernel_sum does, and for a separation
    TwoBody would reject.
    """
    lat = _as_lattice(positions, masses, rC)
    TwoBody(lat, a)   # checks the separation
    c = 1.0 / (2.0 * rC * rC)

    def kernel(i, j, tile, keep):
        # dy and dz are free once rho2 is formed: they hold dx +- a
        dx, dy, dz, rho2, k0, kpm, u = tile
        _force_kernel(dx, rho2, c, keep, k0, u)
        np.add(dx, a, out=dy)
        _force_kernel(dy, rho2, c, keep, kpm, u)
        np.subtract(dx, a, out=dz)
        kpm += _force_kernel(dz, rho2, c, keep, dy, u)
        kpm *= 0.5
        k0 -= kpm
        return k0

    shifts = ((0.0, 1.0), (a, 0.5), (-a, 0.5))
    return SpectralValue(*_pair_sum(lat, kernel, c, lat.masses, shifts))


def torque_pair_kernel_sum(positions, masses, rC):
    """Analytic pair sum for the rotational (about x) spectrum.

    Equals the k-space torque integral for point masses; multiply by
    hbar^2 lam / m0^2 to get the torque spectral density.  The kernel
    z_i z_j (h - q dy^2) + y_i y_j (h - q dz^2) + (z_i y_j + y_i z_j) q dy dz
    with h = 1/2rC^2 and q = 1/4rC^4 is evaluated as
    h (y_i y_j + z_i z_j) - q (z_i dy - y_i dz)^2, whose last term uses the
    exact differences and so does not cancel at large offsets as
    y_i z_j - z_i y_j would.  The row factors z_i and y_i come as tile
    planes built once per row of tiles (_pair_sum's rows), and y_i y_j
    and z_i z_j from one stacked BLAS product (_product_operands), equal
    to np.multiply's products bit for bit; they overwrite dy and dz once
    those are read.  Returns a SpectralValue whose error bounds
    the skipped far tile pairs, at most 1e-16 of c R_max^2 (sum m)^2.
    Raises ValueError as force_pair_kernel_sum does.
    """
    lat = _as_lattice(positions, masses, rC)
    c = 1.0 / (2.0 * rC * rC)
    y, z = lat.positions[:, 1], lat.positions[:, 2]
    left, right = _product_operands(lat.positions.T[1:])

    def kernel(i, j, tile, keep):
        dx, dy, dz, rho2, g, w, p, zi, yi = tile
        np.square(dx, out=g)
        g += rho2
        _gaussian(g, 0.5 * c, keep)
        np.multiply(dy, zi, out=w)
        np.multiply(dz, yi, out=p)
        w -= p
        w *= w
        w *= c
        np.matmul(left[:, i], right[:, :, j], out=tile[1:3])
        np.add(dy, dz, out=p)
        p -= w
        p *= g
        return p

    weights = lat.masses * np.hypot(y, z)
    return SpectralValue(*_pair_sum(lat, kernel, c, weights, rows=(z, y)))


# ---------------------------------------------------------------------------
# separable 1D building blocks

# (-1)^{n+1} / (n! (2n - 1)) for n = 18 .. 1: the series in x^2 of
# sqrt(pi) x erf(x) + e^{-x^2} - 1, to double precision for x < 1
_M0_SERIES = tuple((-1) ** (n + 1) / (math.factorial(n) * (2 * n - 1))
                   for n in range(18, 0, -1))


# This one-slab closed form predates the general layer-edge sums
# (_axis_edges, _axis_series), which subsume it; it stays, bit for bit
# with its fixed 1e-14 error estimate, because the shipped space_two_body
# exclusion reports its values and errors and the benchmark's cli gate
# compares those at 1e-6 relative (ROADMAP item 1).

def _sinc_sq_gauss(prof, rows, rC, s):
    """The plain M0 and M2 rows of a slab of length L: closed forms of
    2 int_0^inf k^w sinc^2(kL/2) e^{-k^2 rC^2} dk, w = 0 and 2.

    Writing sinc^2(kL/2) = 2 (1 - cos kL) / (k L)^2 reduces both moments
    to Gaussian cosine integrals.  With x = L / 2rC the w = 2 core is
    1 - e^{-x^2} and the w = 0 core sqrt(pi) x erf(x) + e^{-x^2} - 1,
    which below x = 1 is summed as its alternating series (_M0_SERIES)
    to avoid cancellation.  Returns one (value, error) per row.
    """
    x = prof.length / (2.0 * rC)
    scale = 4.0 / prof.length ** 2
    sqrt_pi = math.sqrt(math.pi)
    out = []
    for kind, _ in rows:
        if kind == "M2":
            val = scale * (sqrt_pi / (2.0 * rC)) * -math.expm1(-x * x)
        else:
            if x < 1.0:
                core = 0.0
                for c in _M0_SERIES:
                    core = core * x * x + c
                core *= x * x
            else:
                core = sqrt_pi * x * math.erf(x) + math.exp(-x * x) - 1.0
            val = scale * (math.pi / 2.0) * (2.0 * rC / sqrt_pi) * core
        out.append((val, abs(val) * 1e-14))
    return out


# ---------------------------------------------------------------------------
# closed-form Gaussian moments of piecewise-constant profiles
#
# A slab or layer stack has a density rho(x) that is constant on each
# layer, so every moment is a real-space pair integral
# int int rho(x) rho(x') K(x, x') with a Gaussian-type kernel: for
# G(u) = (sqrt(pi)/rC) e^{-u^2/4rC^2}, M0 has K = G(x - x'), M2 -G'',
# C1 -(x - x')^2 G / 4rC^2, D0 x x' G and M0, M2, M1 times a separation
# kernel the same kernels shifted by -+s.  Integrating twice by parts
# turns each into a sum over pairs of layer edges of erf/exp terms in
# z = |e_i - e_j| / 2rC, weighted by the density steps at the edges (an
# edge per layer side, +rho at the lower and -rho at the upper, so the
# steps sum to exactly 0 and constants drop out).  When the whole
# profile is short beside rC those terms cancel at leading order, and
# the moment is summed instead as its Taylor series in 1/rC^2, whose
# coefficients are products of central moments of rho.  Each value comes
# with _ROUNDING times the sum of the magnitudes of the terms it adds,
# plus the series truncation bound.

_ROUNDING = 16.0 * 2.0 ** -52   # 16 eps as a float, so errors are floats
_SERIES_ORDER = 13          # terms n = 0..13 of the 1/rC^2 series at most
_N = np.arange(_SERIES_ORDER + 4)   # the summed terms and three of the tail
_SIGNED_INV_FACT = np.array([(-1.0) ** n / math.factorial(n) for n in _N])
_INV_FACT_2N = np.array([1.0 / math.factorial(2 * n) for n in _N])
_FACT_2N = 1.0 / _INV_FACT_2N
# H_k(0) of the physicists' Hermite polynomials, k = 0 .. 2N + 8
_HERMITE_0 = [(-1) ** (k // 2) * math.factorial(k) / math.factorial(k // 2)
              if k % 2 == 0 else 0.0 for k in range(2 * _SERIES_ORDER + 9)]


def _hermite_shifted(v, kmax):
    """e^{-v^2} (H_k(v) - H_k(0)) for k = 0..kmax (physicists' Hermite
    polynomials; H_k(0) = 0 for odd k), by the three-term recurrence
    with the constants H_k(0) carried separately, so that no entry
    cancels at small v; also the same recurrence over absolute values,
    which bounds the rounding of each entry, and the H_k(0)."""
    g = math.exp(-v * v)
    h0 = _HERMITE_0
    t, size = [0.0, 2.0 * v * g], [0.0, 2.0 * v * g]
    for k in range(1, kmax):
        t.append(2.0 * v * (t[k] + h0[k] * g) - 2.0 * k * t[k - 1])
        size.append(2.0 * v * (size[k] + abs(h0[k]) * g)
                    + 2.0 * k * size[k - 1])
    return np.array(t), np.array(size) * np.arange(1, kmax + 2), \
        np.array(h0[:kmax + 1])


# G's Taylor coefficients as the plain kernels' series coefficients
# (their scale aside), which are exact
_PLAIN_SERIES = {"M0": _SIGNED_INV_FACT, "D0": _SIGNED_INV_FACT,
                 "M2": _SIGNED_INV_FACT * 2.0 * (2 * _N + 1),
                 "C1": np.concatenate([[0.0], -_SIGNED_INV_FACT[:-1]])}
_EXACT = np.zeros(_N.size)


def _series_coefficients(rows, v, rC, m):
    """(scale, c_n, |rounding| size of c_n) for n < m + 3 per row
    (kind, h) of its moment's 1/rC^2 series sum_n c_n A_n.  A separation
    kernel shifts G to G(u -+ s): its Taylor coefficients in u are G's
    derivatives at s, Hermite polynomials at v = s / 2rC times e^{-v^2},
    and the difference from those at 0 is taken with e^{-v^2} - 1 and
    _hermite_shifted, built once for every row with a kernel."""
    scale = math.sqrt(math.pi) / rC
    n = _N[:m + 3]
    if any(h is not None for _, h in rows):
        t, size, h0 = _hermite_shifted(v, 2 * n[-1] + 2)
        e = math.expm1(-v * v)
        inv = _INV_FACT_2N[:m + 3]
    out = []
    for kind, h in rows:
        if h is None:
            out.append((scale / (4.0 * rC * rC) if kind == "M2" else scale,
                        _PLAIN_SERIES[kind], _EXACT))
        elif kind == "M1":   # K(u) = -G'(u + s); odd powers of u drop out
            out.append((scale / (2.0 * rC), t[2 * n + 1] * inv,
                        size[2 * n + 1] * inv))
        elif kind == "M0":   # K(u) = G(u) - [G(u + s) + G(u - s)] / 2
            out.append((scale,
                        -(e * _SIGNED_INV_FACT[:m + 3] + t[2 * n] * inv),
                        size[2 * n] * inv))
        else:   # M2: K(u) = -G''(u) + [G''(u + s) + G''(u - s)] / 2
            k = 2 * n + 2
            out.append((scale / (4.0 * rC * rC), (t[k] + h0[k] * e) * inv,
                        size[k] * inv))
    return out


def _egf_moments(half, rho, gamma, sr, count):
    """nu_p / p! and its rounding size for p < count: the central
    moments int rho xi^p scaled by (2rC)^-p, divided by p! so that each
    pair sum below is one convolution.  Per layer, int_{g-h}^{g+h}
    xi^p / p! = sum_{q even} g^{p-q} / (p-q)! * 2 h^{q+1} / (q+1)!, a
    convolution of two sequences whose terms share one sign, so no term
    cancels within a layer."""
    steps = np.arange(1, count)
    ones = np.ones((rho.size, 1))
    g_egf = np.cumprod(np.hstack([ones, (gamma / sr)[:, None] / steps]),
                       axis=1)
    h_egf = 2.0 * np.cumprod((half / sr)[:, None] / np.arange(1, count + 1),
                             axis=1)
    h_egf[:, 1::2] = 0.0
    if not gamma.any():   # every layer on the centre of mass, a slab too
        return sr * (rho @ h_egf), sr * (np.abs(rho) @ h_egf)
    per_layer = np.array([np.convolve(a, b)[:count]
                          for a, b in zip(g_egf, h_egf)])
    size = np.array([np.convolve(np.abs(a), b)[:count]
                     for a, b in zip(g_egf, h_egf)])
    return sr * (rho @ per_layer), sr * (np.abs(rho) @ size)


def _axis_series(prof, rows, rC, s):
    """The rows (kind, h) of an AxisProfile as their series in 1/rC^2
    (extent <= rC), all from one set of central moments and pair sums,
    whatever kernel each row carries.

    With nu_p the central moments of rho scaled by (2rC)^-p and
    A_n = int int rho rho' u^{2n} / (2rC)^{2n} (u = x - x'), the series
    of e^{-u^2/4rC^2} gives M0 = (sqrt(pi)/rC) sum (-1)^n A_n / n!,
    M2 = (sqrt(pi)/4rC^3) sum (-1)^n 2 (2n + 1) A_n / n! and
    C1 = (sqrt(pi)/rC) sum_{n>=1} (-1)^n A_n / (n - 1)!; a separation
    kernel changes only the coefficients (_series_coefficients).  D0,
    whose kernel x x' G is not translation invariant, is taken about the
    centre of mass: the M0 series over xi xi' u^{2n}, one pair sum of
    the moments lifted by xi.  The series stops at the first n whose
    bound on the omitted tail is below 1e-17 of the leading term's
    scale, at most _SERIES_ORDER.
    """
    half, rho, gamma, mass, extent = prof.layer_data
    sr = 2.0 * rC
    zmax = extent / sr
    z2 = zmax * zmax
    m = 1   # terms n < m; term n is at most 2 (2n + 1) z^2n / (n - 1)!
    while m <= _SERIES_ORDER and 2.0 * (2 * m + 1) * z2 ** (m - 1) \
            / math.factorial(m - 1) > 1e-17:
        m += 1
    egf, egf_size = _egf_moments(half, rho, gamma, sr, 2 * m + 2)
    sign = (-1.0) ** np.arange(egf.size)
    lift = np.arange(1, egf.size)   # (k + 1) nu_{k+1} / (k + 1)!

    def pair_sums(left, right, left_size, right_size):
        """sum_k binom(2n, k) (-1)^k L_k R_{2n-k} for n < m, as (2n)!
        times one convolution, and its first-order rounding size."""
        val = np.convolve(sign[:left.size] * left, right)[:2 * m:2]
        err = np.convolve(np.abs(left), right_size)[:2 * m:2] \
            + np.convolve(left_size, np.abs(right))[:2 * m:2]
        return val * _FACT_2N[:m], err * _FACT_2N[:m]

    plain = pair_sums(egf, egf, egf_size, egf_size)
    # every |u| / 2rC is at most zmax <= 1/2, so |A_n| <= mass^2 zmax^2n:
    # the tail is bounded by three more terms, doubled
    tail_powers = z2 ** _N[m:m + 3]
    out = []
    for (kind, _), (scale, coef, coef_err) in zip(
            rows, _series_coefficients(rows, s / sr, rC, m)):
        val, mag = plain
        bound = 1.0
        if kind == "D0":
            up, up_size = lift * egf[1:], lift * egf_size[1:]
            val, mag = pair_sums(up, up, up_size, up_size)
            scale *= sr * sr
            bound = z2   # |xi xi'| / (2rC)^2 over the profile
        tail = 2.0 * mass * mass * bound * float(
            np.abs(coef[m:m + 3]) @ tail_powers)
        value = scale * float(coef[:m] @ val)
        err = abs(scale) * (_ROUNDING * float(
            np.abs(coef[:m]) @ mag + coef_err[:m] @ np.abs(val)) + tail)
        out.append((value, err))
    return out


def _phi0(z):
    """sqrt(pi) z erf z + e^{-z^2} - 1 (the M0 edge term) and the
    magnitude of its two parts."""
    from scipy.special import erf
    a = math.sqrt(math.pi) * z * erf(z)
    b = np.expm1(-z * z)
    return a + b, a - b


def _edge_sum(edges, parts, const=0.0):
    """const + sum over parts (c, t, m) of c sum W t over the edge pairs
    of EdgeData edges, with _ROUNDING times the same sum over the term
    magnitudes m, weighted by |W|, as its error.  Each sum is
    np.add.reduce over the whole array, the reduction np.sum makes,
    without np.sum's Python-level dispatch."""
    total = np.add.reduce
    value = const + sum(c * float(total(edges.W * t, None))
                        for c, t, _ in parts)
    mag = abs(const) + sum(abs(c) * float(total(edges.abs_W * m, None))
                           for c, _, m in parts)
    return value, _ROUNDING * mag


def _axis_edges(prof, rows, rC, s):
    """The rows (kind, h) of an AxisProfile as sums over the pairs of
    its layer edges (EdgeData), which share z, e^{-z^2} - 1, erf z and
    phi0(z) whatever kernel each row carries.

    Edge positions xi relative to the centre of mass, steps w, and
    W = w_i w_j, z = |xi_i - xi_j| / 2rC over all ordered pairs:
      M0 = -2 sqrt(pi) rC sum W phi0(z),  phi0 = sqrt(pi) z erf z
           + e^{-z^2} - 1;
      M2 = (sqrt(pi)/rC) sum W (e^{-z^2} - 1);
      C1 = sqrt(pi) rC sum W (2 (e^{-z^2} - 1) + sqrt(pi) z erf z);
      D0 = (4 sqrt(pi) rC^3/3) sum W (e^{-z^2} (1 - 2z^2) - 1
           - 2 sqrt(pi) z^3 erf z) - 2 sqrt(pi) rC (sum W xi_i xi_j phi0
           + mass^2), about the centre of mass;
    and, with v = s/2rC, the separation kernels
      M2 (1 - cos sk) = -(sqrt(pi)/rC) sum W tau,  tau = (e^{-v^2} - 1)
           (e^{-z^2} - 1) + e^{-(z - v)^2} (1 - e^{-2zv})^2 / 2 >= 0;
      M0 (1 - cos sk) = -2 sqrt(pi) rC sum W (phi0(z) - [phi0(|z + v|)
           + phi0(|z - v|)] / 2);
      M1 sin sk = pi sum W (erf(v + z) - erf v) over signed z, taken as
           a difference of erfc when both arguments have one sign.
    Returns one (value, error) per row.
    """
    from scipy.special import erf, erfc
    sqrt_pi = math.sqrt(math.pi)
    edges = prof.edge_data
    u = edges.diff / (2.0 * rC)
    v = s / (2.0 * rC)
    if any(h is np.sin for _, h in rows):   # M1
        a, b = v + u, np.full_like(u, v)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        pos, neg = lo > 0.0, hi < 0.0
        d = np.where(pos, erfc(b) - erfc(a),
                     np.where(neg, erfc(-a) - erfc(-b), erf(a) - erf(b)))
        mag = np.where(pos, erfc(b) + erfc(a),
                       np.where(neg, erfc(-a) + erfc(-b),
                                np.abs(erf(a)) + np.abs(erf(b))))
        # erf(a) moves by 2 e^{-a^2} / sqrt(pi) times the rounding of a,
        # which is that of v and of the edge positions
        mag += 2.0 / sqrt_pi * (np.exp(-a * a) + np.exp(-b * b)) \
            * (v + edges.spread / (2.0 * rC))
    z = np.abs(u)
    e = np.expm1(-z * z)
    if any(kind != "M2" and h is not np.sin for kind, h in rows):
        erf_z = erf(z)   # every other kind takes it
        a = sqrt_pi * z * erf_z
        phi, phi_mag = a + e, a - e   # _phi0(z)
    out = []
    for kind, h in rows:
        const = 0.0
        if h is np.sin:
            parts = [(math.pi, d, mag)]
        elif h is _one_minus_cos and kind == "M2":
            near = 0.5 * np.exp(-(z - v) ** 2) * np.expm1(-2.0 * z * v) ** 2
            t = np.expm1(-v * v) * e + near
            # e^{-(z - v)^2} inherits the rounding of z - v times 2 |z - v|
            parts = [(-sqrt_pi / rC, t,
                      t + near * 2.0 * np.abs(z - v) * (z + v))]
        elif h is _one_minus_cos:   # M0
            (fp, mp), (fm, mm) = _phi0(np.abs(z + v)), _phi0(np.abs(z - v))
            parts = [(-2.0 * sqrt_pi * rC, phi - 0.5 * (fp + fm),
                      phi_mag + 0.5 * (mp + mm))]
        elif kind == "M2":
            parts = [(sqrt_pi / rC, e, np.abs(e))]
        elif kind == "C1":
            parts = [(sqrt_pi * rC, 2.0 * e + a, 2.0 * np.abs(e) + a)]
        elif kind == "M0":
            parts = [(-2.0 * sqrt_pi * rC, phi, phi_mag)]
        else:   # D0
            g = np.exp(-z * z)
            cube = 2.0 * sqrt_pi * z ** 3 * erf_z
            hz = e - 2.0 * z * z * g - cube
            hm = np.abs(e) + 2.0 * z * z * g + cube
            parts = [(4.0 * sqrt_pi * rC ** 3 / 3.0, hz, hm),
                     (-2.0 * sqrt_pi * rC, edges.prod * phi,
                      edges.abs_prod * phi_mag)]
            mass = prof.layer_data.mass
            const = -2.0 * sqrt_pi * rC * mass * mass
        out.append(_edge_sum(edges, parts, const))
    return out


def _shifted_part(prof, rows, rC, s):
    """The M0 and M2 rows times 1 - cos of an AxisProfile no longer than
    rC whose |e_i - e_j| / 2rC = z stay below v = s / 2rC: the series of
    the plain moment (_axis_series) minus its separation-shifted part S,
    M0 (1 - cos sk) = M0 - S with S = -2 pi rC sum W [ierfc(v + z) +
    ierfc(v - z)] / 2 (the erf/exp edge term minus its part linear in
    v +- z, which sums to zero), M2 (1 - cos sk) = M2 - S with
    S = (sqrt(pi)/rC) sum W [e^{-(v + z)^2} + e^{-(v - z)^2}] / 2.  The
    rows share the Gaussians.  Returns one (value, error) per row."""
    from scipy.special import erfc
    edges = prof.edge_data
    z = np.abs(edges.diff / (2.0 * rC))
    v = s / (2.0 * rC)
    xs = (v + z, v - z)
    gauss = [np.exp(-x * x) for x in xs]
    plain = _axis_series(prof, [(kind, None) for kind, _ in rows], rC, s)
    out = []
    for (kind, _), (moment, moment_err) in zip(rows, plain):
        val = mag = 0.0
        for x, g in zip(xs, gauss):
            if kind == "M0":
                g = g / math.sqrt(math.pi)
                val, mag = val + g - x * erfc(x), mag + g + x * erfc(x)
            else:
                val, mag = val + g, mag + g * (1.0 + 2.0 * x * x)
        scale = -math.pi * rC if kind == "M0" \
            else 0.5 * math.sqrt(math.pi) / rC
        shifted, err = _edge_sum(edges, [(scale, val, mag)])
        out.append((moment - shifted, moment_err + err))
    return out


def _disc_moment(prof, rows, rC, s):
    """Closed forms of a disc's plain rows Q0 and Q2 (the k-plane
    moments M0 and M2 of jinc(kR), without the factor pi): with
    x = R^2 / 2rC^2, Q2 = (4 / R^2 rC^2) e^{-x} I1(x) and Q0 = (4 / R^2)
    (1 - e^{-x} (I0(x) + I1(x))); below x = 0.1 rC^2 Q0 is the series
    sum_j c_j j! (2x)^j of jinc^2 (_LAGUERRE_C0) to j = 11: each term is
    at most 0.05 of the one before, so the rest is below 3.1e-20 of the
    sum, far inside its rounding error.
    e^{-x} I_n is scipy's i0e or i1e.  Returns one (value, error) per row."""
    from scipy.special import i0e, i1e
    R = prof.R
    x = R * R / (2.0 * rC * rC)
    i1 = float(i1e(x))
    out = []
    for kind, _ in rows:
        if kind == "M2":
            val = 4.0 / (R * R * rC * rC) * i1
            out.append((val, _ROUNDING * abs(val)))
            continue
        if x < 0.1:
            # (4 / R^2) (x / 2) = rC^-2; the coefficients as Python
            # floats, whose arithmetic gives numpy scalars' bits faster
            terms = [0.5 * x * c * (2.0 * x) ** j
                     for j, c in enumerate(_LAGUERRE_C0[:12].tolist())]
            core = math.fsum(terms)
            mag = math.fsum(map(abs, terms)) + abs(terms[-1])
        else:
            i0 = float(i0e(x))
            core, mag = 1.0 - i0 - i1, 1.0 + i0 + i1
        out.append((4.0 / (R * R) * core, 4.0 / (R * R) * _ROUNDING * mag))
    return out


# A disc's separation-kernel moments as a Laguerre series.
#
# |jinc(kR)|^2 = sum_j c_j (kR)^2j with c_j = (-1)^j (2j+2)! / (4^j j!
# (j+2)! ((j+1)!)^2), and each power times e^{-k^2 rC^2} and a Bessel
# kernel of s k is a Gaussian-Hankel integral: e^{-u} times a Laguerre
# polynomial L_j^(a) in u = s^2 / 4rC^2.  With x = R^2 / rC^2 and
# E_j^(a) = e^{-u} L_j^(a)(u),
#   Q0m  = rC^-2 sum c_j x^j j! (1 - E_j),
#   Q2h  = rC^-4 sum c_j x^j [(j+1)! (1/2 - E_{j+1}) + (j!/2) E_j^(1)],
#   Q1J1 = s rC^-4 sum c_j x^j (j!/2) E_j^(1).
# Its terms alternate and peak near j = x, so the sum cancels: by up to
# 4.5e6 at R = 3.5 rC, which still leaves about 2e-8 relative; past that
# reach the moments stay quadratures.  Where (j + 1) u <= 1 a term's
# bracket, which vanishes at u = 0, is summed as its own series in u
# (Kummer: E_j = 1F1(j+1; 1; -u), E_j^(1) = (j+1) 1F1(j+2; 2; -u)).
_DISC_KERNEL_REACH = 3.5
_LAGUERRE_TERMS = 72        # terms j < 72 at most; R = 3.5 rC takes 57-58
_KUMMER_TERMS = 20          # terms m <= 20 of each bracket's series in u
_LJ = np.arange(_LAGUERRE_TERMS + 1)
_LJ1 = _LJ + 1.0
# c_j j!, exact integers divided once, and c_j (j+1)!
_LAGUERRE_C0 = np.array([(-1) ** j * math.comb(2 * j + 2, j + 1)
                         / (4 ** j * math.factorial(j + 2))
                         for j in range(_LAGUERRE_TERMS + 1)])
_LAGUERRE_C2 = _LAGUERRE_C0 * _LJ1
_LAGUERRE_ABS = np.abs(_LAGUERRE_C0)
_LAGUERRE_STOP = 2.0 ** 60 * (_LJ[1:] + 2.0) ** 2
# times x, the ratio of consecutive term bounds is at most this, for
# every kind
_LAGUERRE_RATIO = (2 * _LJ + 3) / (2.0 * (_LJ + 1) * (_LJ + 2))


def _kummer_tables():
    """Per j (rows) the coefficients of u^m (columns) of 1 - E_j, of
    [(1/2 - E_{j+1}) + E_j^(1) / 2 (j+1)] and of E_j^(1) / (j+1):
    (-1)^{m+1} C(j+m, m) / m! for m >= 1, (-1)^{m+1} C(j+m+1, m) (2m+1) /
    2 (m+1)! for m >= 1 and (-1)^m C(j+m+1, m) / (m+1)! for m >= 0, up
    to m = _KUMMER_TERMS, each built by a running product within m
    ulps."""
    j = _LJ[:, None]
    m = np.arange(1, _KUMMER_TERMS + 1)
    sign = np.where(m % 2 == 1, 1.0, -1.0)
    one = np.cumprod((j + m) / (m * m), axis=1) * sign
    lifted = np.cumprod((j + 1 + m) / (m * (m + 1.0)), axis=1)
    half = lifted * (2 * m + 1) / 2.0 * sign
    first = np.hstack([np.ones((j.size, 1)), -lifted * sign])
    return one, half, first


# With (j + 1) u <= 1 the terms in u of every bracket fall at least as
# fast as (2m + 1) / 3 m! times the first, so those past _KUMMER_TERMS
# sum to at most this share of the summed magnitudes
_KUMMER_TAIL = 2.0 * (2 * _KUMMER_TERMS + 3) / (
    3.0 * math.factorial(_KUMMER_TERMS + 1))
# each table stacked with its magnitudes, which one product sums alike
_KUMMER = {kind: np.stack([table, np.abs(table)]) for kind, table in
           zip(("M0", "M2", "M1"), _kummer_tables())}


def _laguerre_scaled(u, g, n):
    """e^{-u} L_j(u) and e^{-u} L_j^(1)(u) for j <= n, two arrays, by
    the three-term recurrences on g L_j^(a), g = e^{-u/2}, which stay
    within C(j+a, j) (Szego), then scaled by g: nothing under- or
    overflows before g does, past u = 1490, where every value is 0."""
    if g == 0.0:
        return np.zeros(n + 1), np.zeros(n + 1)
    f0, f1 = [g, g * (1.0 - u)], [g, g * (2.0 - u)]
    for k in range(1, n):
        f0.append(((2 * k + 1 - u) * f0[k] - k * f0[k - 1]) / (k + 1))
        f1.append(((2 * k + 2 - u) * f1[k] - (k + 1) * f1[k - 1]) / (k + 1))
    return np.array(f0) * g, np.array(f1) * g


def _disc_kernel_moment(prof, rows, rC, s):
    """Closed forms of a disc's kernel rows Q0m, Q2h and Q1J1 (M0 and M2
    times 1 - cos, M1 times sin; see _cylinder), as the Laguerre series
    above, for R <= 3.5 rC, where it takes at most 58 of its
    _LAGUERRE_TERMS terms.  Returns one (value, error) per row.

    Bounds.  |E_j^(a)| <= C(j+a, j) e^{-u/2} (Szego), and integrating
    d/du E_j = -E_j^(1) and the like from u = 0 gives |1 - E_j| <=
    min(1 + e^{-u/2}, 2 (j+1)(1 - e^{-u/2})) and a Q2h bracket at most
    (j+1)! min(1/2 + 3 e^{-u/2} / 2, 5 (j+2)(1 - e^{-u/2}) / 2).  These
    term bounds fall by at least (2j+3) x / 2 (j+1)(j+2) per term.

    The number of terms n depends on x alone, not on u or the kinds
    asked, so that each kind is the same alone or in company: the first
    n at which that ratio is at most 1/2 and (n+2)^2 |c_n n!| x^n, which
    exceeds every kind's next bound relative to its sum, is below 2^-60
    of sum_{j<n} |c_j j!| x^j.  The terms with (j + 1) u <= 1 sum their
    brackets as series in u (_KUMMER), which do not cancel there; the
    others take E_j and E_j^(1) from their three-term recurrences
    (_laguerre_scaled), where the bracket cancels by less than the
    (j + 1) that the recurrences' rounding grows by.

    Error.  _ROUNDING times the sum of the magnitudes of the parts each
    term adds, each E_j^(a) counted at (j + 1) times its bound, which
    covers the recurrences' rounding (at most 4.4 (j + 1) ulps of the
    bound up to j = 72, against 50-digit recurrences), plus twice the
    first omitted term's bound, which bounds the whole tail.  Q1J1's
    error is absolute: at large u its value is far below the bound
    C(j+1, j) e^{-u/2} its error is made of, as the Cauchy-Schwarz target
    in _cylinder allows.
    """
    x = prof.R * prof.R / (rC * rC)
    u = (s / (2.0 * rC)) ** 2
    # the first n whose ratio x (2n+3) / 2 (n+1)(n+2) is at most 1/2
    n0 = max(1, math.ceil(x - 1.5 + math.sqrt(x * x + 0.25)))
    n0 += x * _LAGUERRE_RATIO[min(n0, _LAGUERRE_TERMS)] > 0.5
    xp = x ** _LJ
    weights = _LAGUERRE_ABS * xp
    sums = np.cumsum(weights)
    ok = _LAGUERRE_STOP[n0 - 1:] * weights[n0:] <= sums[n0 - 1:-1]
    n = n0 + int(np.argmax(ok))
    g, h = math.exp(-0.5 * u), -math.expm1(-0.5 * u)
    head = 2.0 * float(weights[n])   # twice |c_n n!| x^n
    tails = {"M0": head * min(1.0 + g, 2.0 * (n + 1) * h),
             "M2": head * (n + 1) * min(0.5 + 1.5 * g, 2.5 * (n + 2) * h),
             "M1": head * (n + 1) / 2.0 * g}
    scales = {"M0": 1.0 / (rC * rC)}
    scales["M2"] = scales["M0"] * scales["M0"]
    scales["M1"] = s * scales["M2"]
    a0 = _LAGUERRE_C0[:n] * xp[:n]   # c_j j! x^j
    a2 = _LAGUERRE_C2[:n] * xp[:n]   # c_j (j+1)! x^j
    # terms j < m, whose (j + 1) u <= 1, sum their brackets as series in u
    m = n if n * u <= 1.0 else int(1.0 / u)
    if m:
        powers = u ** np.arange(_KUMMER_TERMS + 1)
    if m < n:
        e0, e1 = _laguerre_scaled(u, g, n)
        e0, e1 = e0[m:], e1[m:n]
    j1 = _LJ1[m:n]   # j + 1
    out = []
    for kind, _ in rows:
        val = size = 0.0
        if m:
            coef = (a2[:m] / 2.0 if kind == "M1" else a2[:m] if kind == "M2"
                    else a0[:m])
            brackets = _KUMMER[kind][:, :m] @ (
                powers if kind == "M1" else powers[1:])
            val = float(coef @ brackets[0])
            size = (_ROUNDING + _KUMMER_TAIL) * float(
                np.abs(coef) @ brackets[1])
        if m < n:   # each E_j^(a) taken at (j+1) times its bound
            b0, b2 = a0[m:], a2[m:]
            if kind == "M0":
                part = float(b0 @ (1.0 - e0[:-1]))
                mag = float(np.abs(b0) @ (1.0 + g * j1))
            else:
                part = float(b0 @ e1) / 2.0
                mag = g / 2.0 * float(np.abs(b0) @ (j1 * j1))
                if kind == "M2":
                    part += float(b2 @ (0.5 - e0[1:]))
                    mag += float(np.abs(b2) @ (0.5 + g * (j1 + 1.0)))
            val += part
            size += _ROUNDING * mag
        scale = scales[kind]
        out.append((scale * val, scale * (size + tails[kind])))
    return out


def _sum_of_products(terms):
    """sum w prod_i v_i over terms (w, factors), each factor a (value,
    error) pair, with first-order error propagation.

    Returns (value, error, size): the sum, sum |w| sum_i |e_i|
    prod_{j != i} |v_j|, and sum |w prod_i v_i|, the scale against which
    the terms cancel.  Each product is taken left to right from 1, as
    math.prod takes it, and each error's terms are added by math.fsum,
    which is correctly rounded on every Python; where finite terms
    overflow it raises, and the error is inf, as sum gives.
    """
    value = err = size = 0.0
    for w, factors in terms:
        product = 1.0
        for v, _ in factors:
            product *= v
        term = w * product
        value += term
        size += abs(term)
        parts = []
        for i, (_, e) in enumerate(factors):
            rest = 1.0
            for j, (v, _) in enumerate(factors):
                if j != i:
                    rest *= abs(v)
            parts.append(abs(e) * rest)
        try:
            err += abs(w) * math.fsum(parts)
        except OverflowError:
            err += abs(w) * math.inf
    return value, err, size


def _one_minus_cos(x):
    """1 - cos x, written 2 sin^2(x/2) to keep its precision near 0."""
    return 2.0 * np.sin(x / 2.0) ** 2


def _no_kernel(x):
    """0: the average of a separation kernel that is odd in cos phi."""
    return np.zeros_like(x)


def _disc_kernel(kind, h):
    """The separation kernel of a disc's moment of this kind: h(x cos
    phi) cos^n phi averaged over the directions phi in its plane, n = 1
    for M1, 2 for M2 and 0 otherwise (with a kernel a disc's Mn weighs
    k_x^n, not k^n).  That is 1 - J0, the ring kernel 1/2 - J0 + J1/x
    and 0 for h = 1 - cos, and 0, J1 and 0 for h = sin.  The Bessel
    kernels are read from this module's globals at each call, so that a
    wrapper set on those names sees every call.  Raises ValueError for
    any other h."""
    kernels = {_one_minus_cos: (one_minus_j0, _no_kernel, ring_cos2_kernel),
               np.sin: (_no_kernel, bessel_j1, _no_kernel)}
    if h not in kernels:
        raise ValueError("a disc's separation kernel is 1 - cos or sin")
    return kernels[h][{"M1": 1, "M2": 2}.get(kind, 0)]


# the kinds of moment of an AxisProfile with a closed form, per
# separation kernel h; with h those of a DiscProfile too
_CLOSED_KINDS = {None: ("M0", "M2", "C1", "D0"),
                 _one_minus_cos: ("M0", "M2"), np.sin: ("M1",)}


def _closed_pass(prof, kind, h, rC, s):
    """The pass function that serves the row (kind, h) of prof in closed
    form (see _closed_moment), or None where the row is integrated."""
    if kind not in _CLOSED_KINDS.get(h, ()) \
            or not isinstance(prof, (AxisProfile, DiscProfile)):
        return None
    if isinstance(prof, DiscProfile):
        if h is None:
            return _disc_moment if kind in ("M0", "M2") else None
        return _disc_kernel_moment if prof.R <= _DISC_KERNEL_REACH * rC \
            else None
    if h is None and prof.layers is None and kind in ("M0", "M2"):
        return _sinc_sq_gauss
    extent = prof.layer_data.extent
    if extent > rC or h is np.sin and s * extent > rC * rC:
        return _axis_edges
    return _axis_series if h is None or s * extent <= rC * rC \
        else _shifted_part


def _closed_moment(prof, rows, rC, s):
    """The closed forms of a request's rows, None for each row without
    one.  Each pass function that _closed_pass picks is called once, as
    pass(prof, rows, rC, s), on all the rows it serves, whatever their
    kernels, and returns one (value, error) per row.  A slab's plain M0
    and M2 take their one-slab formula (_sinc_sq_gauss), and the other
    rows of an AxisProfile no longer than rC its 1/rC^2 series
    (_axis_series), but for a 1 - cos row past s times the extent = rC^2,
    where that series converges slowly: it is the series of its plain
    moment minus its shifted part (_shifted_part).  A longer profile's
    rows, and a sin row past that, take the edge-pair sums (_axis_edges);
    a disc's plain M0 and M2 _disc_moment, and up to R = 3.5 rC its
    kernel rows (M0, M2 times 1 - cos, M1 times sin) _disc_kernel_moment."""
    groups = {}   # each pass's row indices, in request order
    for i, (kind, h) in enumerate(rows):
        closed = _closed_pass(prof, kind, h, rC, s)
        if closed is not None:
            groups.setdefault(closed, []).append(i)
    out = [None] * len(rows)
    for closed, index in groups.items():
        if len(index) == len(rows):   # one pass serves every row
            return closed(prof, rows, rC, s)
        for i, moment in zip(index, closed(
                prof, [rows[i] for i in index], rC, s)):
            out[i] = moment
    return out


def _profile_moment(prof, rows, rC, spec, closed_form=True, s=0.0,
                    abs_tol=0.0):
    """Gaussian moments of a profile P, asked as one request: a tuple of
    one or more rows (kind, h) at one separation s, h a separation
    kernel h(s k) or None.  Returns one (value, error) per row, each bit
    for bit the same row asked alone.

    kind: "M0", "M1", "M2" int k^n |P|^2, "D0" int |P'|^2 and "C1"
    int k Re(P P'*), each weighted by e^{-k^2 rC^2}.  An AxisProfile is
    integrated over the whole k line, a DiscProfile over its k plane
    (int 2 pi k dk, without the factor pi) and a BallProfile over all of
    k space (int 4 pi k^2 dk, without the factor 2 pi): the weight gains
    prof.dims - 1 powers of k.  The density is real, so every integrand
    is even and the imaginary part of P P'* integrates to 0.  A disc's
    kernel is h averaged over the directions in its plane
    (_disc_kernel), which takes h = 1 - cos or sin; a ball's h is
    already its direction average.

    When closed_form is set, a row to which _closed_pass gives a pass
    is that closed form (_closed_moment lists them: _sinc_sq_gauss,
    _axis_series, _shifted_part, _axis_edges, _disc_moment and
    _disc_kernel_moment), each pass evaluating its edge terms, central
    moments and pair sums, Hermite table or Laguerre set-up once per
    request.  Every other row, and every row when closed_form is unset
    (the oracle route), is a 1D quadrature of twice the integrand over
    0 <= k <= K_CUTOFF / rC to spec's rel_tol, with the absolute target
    abs_tol, which only a sine row of a tilted cylinder two-body sets;
    a NonConvergence it raises carries the whole moment's estimate and
    error.  The quadrature rows of a request are one stacked
    integrate_1d call, in request order: at each node the transform,
    its derivative, each kernel and the Gaussian weight are evaluated
    once for all of them.
    """
    out = _closed_moment(prof, rows, rC, s) if closed_form \
        else [None] * len(rows)
    if None in out:
        rest = [i for i, moment in enumerate(out) if moment is None]
        names = [rows[i][0] for i in rest]
        line = prof.dims == 1
        powers = [{"M1": 1, "M2": 2, "C1": not line}.get(name, 0)
                  + prof.dims - 1 for name in names]
        slope = "D0" in names or "C1" in names
        kernels = [_disc_kernel(name, h) if prof.dims == 2 and h is not None
                   else h for name, h in (rows[i] for i in rest)]

        def integrand(k):
            p, dp = prof.transform_and_derivative(k) if slope \
                else (prof.transform(k), None)
            hk = {}   # each kernel once per node
            weight = np.multiply(k, rC)   # 2 e^{-k^2 rC^2}, in place
            np.square(weight, out=weight)
            np.negative(weight, out=weight)
            np.exp(weight, out=weight)
            weight *= 2.0
            # the same bits as |p|^2, |dp|^2 and Re(p dp*) of a real
            # transform; a layer stack's is complex
            real = not np.iscomplexobj(p)
            k_powers = {}
            vals = []
            for name, power, kernel in zip(names, powers, kernels):
                if name == "D0":
                    val = dp * dp if real else np.square(np.abs(dp))
                elif name == "C1":   # on a line k multiplies in the product
                    if real:
                        val = (k * p if line else p) * dp
                    else:   # contiguous: on a strided row _panel_rule's
                        # matmul would take another path, with other bits
                        val = np.ascontiguousarray(np.real(
                            (k if line else 1.0) * p * np.conj(dp)))
                else:
                    val = p * p if real else np.square(np.abs(p))
                if kernel is not None:
                    if kernel not in hk:
                        hk[kernel] = kernel(s * k)
                    val *= hk[kernel]
                if power:
                    if power not in k_powers:
                        k_powers[power] = k ** power
                    val *= k_powers[power]
                val *= weight
                vals.append(val)
            return vals

        for i, moment in zip(rest, integrate_1d(
                integrand, 0.0, K_CUTOFF / rC, spec.rel_tol, abs_tol,
                spec.max_evals, max_panel_width=np.pi / max(prof.length, s))):
            out[i] = moment
    return out


def _torque_bracket(py, pz, rC, spec, closed_form=True):
    """M2_y D0_z + D0_y M2_z - 2 C1_y C1_z: the torque integral across
    the rotation (x) axis of a body whose transform there is the product
    of the profiles py and pz, with first-order error propagation.

    The products cancel at leading order in (size / rC)^2 when rC is
    large.  When that leaves an error above spec.rel_tol of the result,
    the moments are evaluated once more with every 1D tolerance
    tightened by the cancellation, provided that asks for no less than
    1e-11.  closed_form is set only for two axis profiles, whose
    moments are then all closed forms: they do not depend on the
    tolerance and are not evaluated again.  Returns (value, error).
    """
    def bracket(s):
        y = _profile_moment(py, (("M2", None), ("D0", None), ("C1", None)),
                            rC, s, closed_form)
        z = _profile_moment(pz, (("D0", None), ("M2", None), ("C1", None)),
                            rC, s, closed_form)
        return _sum_of_products(zip((1.0, 1.0, -2.0), zip(y, z)))

    value, err, size = bracket(spec)
    if closed_form or err <= spec.rel_tol * abs(value):
        return value, err
    tight = spec.rel_tol * abs(value) / size if size else 0.0
    if tight < 1e-11:
        return value, err
    return bracket(replace(spec, rel_tol=tight))[:2]


def _saturation_separation(extent, rC):
    """Separation from which a two-body spectrum equals the single-unit
    force spectrum to 1e-12 of its value: X + c rC, with X (extent) the
    unit's extent along x and c = sqrt(8 ln(6 sqrt(pi) m^3 / 1e-12)),
    m = max(1, 2 X / (pi rC)); c = 15.5 up to X = pi rC / 2, then
    growing like sqrt(24 ln m) (c = 20 at X = 1200 rC).

    Derivation.  The dropped cross term is the single-unit integrand
    times cos(a k_x).  With g the Gaussian of variance rC^2 per axis,
    e^{-k^2 rC^2} = |g~|^2, so by Parseval both are sums over the lines
    (y, z) along x of the autocorrelation of f = q * g1' (g1 the x factor
    of g) at lag a and at lag 0, where q >= 0 is the density smoothed
    over y and z by g, supported on an interval of length X; it suffices
    to bound each line's ratio.  With Q = int q, the cross term is
    int int q(u) q(v) C(a + u - v) du dv, C = -G'' the autocorrelation of
    g1', G(t) = e^{-t^2/4rC^2} / (2 rC sqrt(pi)); for d = a - X >= sqrt(6)
    rC, |C(t)| <= G(d) d^2 / 4rC^4 for every t >= d.  The lag-0 term is
    int |q~|^2 k^2 e^{-k^2 rC^2} dk / 2 pi with |q~(k)| >= Q cos(kX/2);
    over |k| <= K = min(pi / 2X, 1 / rC), where cos^2 >= 1/2 and the
    Gaussian >= 1/e, it is at least Q^2 K^3 / (6 pi e).  The ratio is
    then at most 3 e sqrt(pi) m^3 y e^{-y} <= 6 sqrt(pi) m^3 e^{-y/2},
    y = d^2 / 4rC^2, which is below 1e-12 once d >= c rC.
    """
    log_m = math.log(max(1.0, 2.0 * extent / (math.pi * rC)))
    return extent + rC * math.sqrt(
        8.0 * (math.log(6.0 * math.sqrt(math.pi) / 1e-12) + 3.0 * log_m))


# ---------------------------------------------------------------------------
# routes: one per geometry type and channel
#
# A route is called as route(body, channel, p, spec, closed_form, a):
# body is the geometry, or a TwoBody's unit on the two_body channel, and
# a the separation (0 on the other channels).  closed_form is unset
# under method="quadrature", which runs the same route with every moment
# by 1D quadrature.  A route returns the spectrum and its error estimate
# as a tuple of two Python floats; _spectrum alone checks them and makes
# the SpectralValue.  The first line of each route's docstring is its
# legend in README.md.  Routes read the profiles each body builds once,
# and reach the pair sums and integrate_k3 through this module's globals,
# never through _ROUTES, so that a wrapper set on those names sees every
# call.

def _point_force(body, channel, p, spec, closed_form, a):
    """hbar^2 lam m^2 / 2 m0^2 rC^2; under quadrature the radial
    integral of a point, which checks it."""
    if not closed_form:
        return _radial_force(body, channel, p, spec, closed_form, a)
    return CONSTANTS.hbar ** 2 * p.lam * body.m ** 2 / (
        2.0 * CONSTANTS.m0 ** 2 * p.rC * p.rC), 0.0


def _radial_force(body, channel, p, spec, closed_form, a):
    """One radial integral of the sphere kernel times k^2 / 3, the
    angular average of k_x^2 (integrate_k3, symmetry "isotropic").

    Kept bit for bit, although the ball's M2 is the same integral: the
    shipped cantilever_sphere exclusion reports its error estimate, which
    the benchmark's cli gate compares at 1e-6 relative (ROADMAP item 1).
    """
    R = getattr(body, "R", 0.0)   # a Point has none
    rC = p.rC

    def f3(k):
        mu = body.m * sphere_kernel(k * R)
        return mu * mu * k * k / 3.0 * np.exp(-(k * rC) ** 2)

    val, err = integrate_k3(f3, rC, spec, symmetry="isotropic",
                            oscillation_scale=2.0 * R)
    pref = _prefactor(p)
    return pref * val, pref * err


def _pair_kernel(body, channel, p, spec, closed_form, a):
    """Gaussian pair sums over the points (a Point two-body's unit is one
    point), with far tile pairs skipped and their bound, at most 1e-16 of
    the sum's scale, as the error; no quadrature variant."""
    if isinstance(body, Point):
        body = PointLattice(np.zeros((1, 3)), np.array([body.m]))
    if channel == "force":
        ksum = force_pair_kernel_sum(body.positions, body.masses, p.rC)
    elif channel == "torque":
        ksum = torque_pair_kernel_sum(body.positions, body.masses, p.rC)
    else:
        ksum = two_body_pair_kernel_sum(body.positions, body.masses, p.rC,
                                        a)
    f = CONSTANTS.hbar ** 2 * p.lam / CONSTANTS.m0 ** 2
    return f * ksum, f * ksum.error


def _zero(body, channel, p, spec, closed_form, a):
    """Exactly 0: the transform depends on |k| only, so no torque."""
    return 0.0, 0.0


def _ball_moment(body, channel, p, spec, closed_form, a):
    """(2 pi / 3) m^2 times one ball moment M2 times the direction
    average of 1 - cos(a k_x), a 1D quadrature.

    <k_x^2 (1 - cos a k_x)> over directions is k^2 (1 - j0(ak) +
    2 j2(ak)) / 3; saturated, the kernel is 1 and the moment the
    single-sphere force.
    """
    ball = body.profiles
    saturated = a >= _saturation_separation(ball.length, p.rC)
    h, s = (None, 0.0) if saturated else (shell_cos2_kernel, a)
    [(val, err)] = _profile_moment(ball, (("M2", h),), p.rC, spec,
                                   closed_form, s)
    scale = 2.0 * np.pi / 3.0 * body.m * body.m * _prefactor(p)
    return scale * val, scale * err


def _separable(body, channel, p, spec, closed_form, a):
    """A product of closed-form 1D moments of the three axis profiles; a
    saturated two-body is the unit's force.

    With mu_tilde = scale Px Py Pz (the body's profiles), the spectra are
        force     M2_x M0_y M0_z
        two_body  T_x M0_y M0_z, T = M2 with h = 1 - cos(a k)
        torque    M0_x (M2_y D0_z + D0_y M2_z - 2 C1_y C1_z)
    """
    scale, (px, py, pz) = body.profiles
    rC = p.rC
    if a >= _saturation_separation(px.length, rC):
        channel, a = "force", 0.0
    kind = "M0" if channel == "torque" else "M2"
    h = _one_minus_cos if channel == "two_body" else None
    factors = _profile_moment(px, ((kind, h),), rC, spec, closed_form, a)
    if channel == "torque":
        factors.append(_torque_bracket(py, pz, rC, spec, closed_form))
    else:
        for prof in (py, pz):
            factors += _profile_moment(prof, (("M0", None),), rC, spec,
                                       closed_form)
    val, err, _ = _sum_of_products([(1.0, factors)])
    pref = _prefactor(p)
    return pref * scale * scale * val, pref * scale * scale * err


def _cylinder(body, channel, p, spec, closed_form, a):
    """Sums of products of slab and disc moments at any tilt: closed
    forms, but for a two-body's disc kernels past R = 3.5 rC; a saturated
    two-body is the unit's force.

    F = jinc(k_perp R) sinc(k_par L/2), and each spectrum is a sum of
    products of moments Mn of its slab profile and Qn of its disc profile
    (_profile_moment).  With c, s the cosine and sine of the tilt to x,
    the phi average (README.md) gives c^2 M2 Q0 + s^2 M0 Q2 / 2 for the
    force and c^2 [T Q0 + (M2 - T) Q0m] + s^2 [P0m Q2 / 2 + (M0 - P0m)
    Q2h] + 2 c s P1s Q1J1 for the two-body, where T, P0m, P1s are M2, M0
    times 1 - cos(a c k) and M1 times sin(a c k), and Q0m, Q2h, Q1J1 the
    disc's M0, M2 times 1 - cos and M1 times sin of a s k_x: Q0 times
    1 - J0(a s k), Q2 times the ring kernel 1/2 - J0 + J1/x and Q1 times
    J1(a s k) (_disc_kernel).  With closed_form the slab moments are
    closed forms (_sinc_sq_gauss, _axis_series, _shifted_part,
    _axis_edges), Q0 and Q2 too (_disc_moment), and so are Q0m, Q2h,
    Q1J1 for R <= 3.5 rC (a Laguerre series, _disc_kernel_moment); past
    that they are 1D quadratures.  Each profile is asked once, but a
    sine row, P1s or Q1J1, which change sign, follows in a second
    request where _closed_pass gives it no closed form (Q1J1 past the
    reach, both under quadrature), with an absolute target set by the
    other terms and by Cauchy-Schwarz, sin^2 <= 2 (1 - cos) and
    J1^2 <= 1 - J0; the cross term is 0 where either bound is.
    """
    slab, disc = body.profiles
    rC = p.rC
    c, s = abs(body.axis[0]), math.hypot(body.axis[1], body.axis[2])
    if a >= _saturation_separation(c * slab.length + s * disc.length, rC):
        channel, a = "force", 0.0
    cross = channel == "two_body" and c * s > 0.0
    sine = (("M1", np.sin),)
    slab_rows = disc_rows = (("M0", None), ("M2", None))
    if channel == "two_body":
        slab_rows += (("M2", _one_minus_cos), ("M0", _one_minus_cos))
        disc_rows += (("M0", _one_minus_cos), ("M2", _one_minus_cos))
    if cross:   # a sine row with no closed pass is asked late, with a target
        late_p, late_q = (
            () if closed_form and _closed_pass(prof, "M1", np.sin, rC, sep)
            else sine for prof, sep in ((slab, a * c), (disc, a * s)))
        slab_rows += () if late_p else sine
        disc_rows += () if late_q else sine
    (m0, m2, *slab_k), (q0, q2, *disc_k) = (
        _profile_moment(slab, slab_rows, rC, spec, closed_form, a * c),
        _profile_moment(disc, disc_rows, rC, spec, closed_form, a * s))
    if channel == "force":
        terms = [(c * c, (m2, q0)), (s * s / 2.0, (m0, q2))]
    else:
        (t, p0m, *p1s), (q0m, q2h, *q1j1) = slab_k, disc_k
        terms = [(c * c, (t, q0)),
                 (c * c, ((m2[0] - t[0], m2[1] + t[1]), q0m)),
                 (s * s / 2.0, (p0m, q2)),
                 (s * s, ((m0[0] - p0m[0], m0[1] + p0m[1]), q2h))]
        if cross:   # |P1s| <= sqrt(2 M2 P0m), |Q1J1| <= sqrt(Q2 Q0m)
            bound_p = math.sqrt(2.0 * m2[0] * p0m[0])
            bound_q = math.sqrt(q2[0] * q0m[0])
            if bound_p > 0.0 and bound_q > 0.0:
                if late_p or late_q:
                    nonneg = max(_sum_of_products(terms)[0], 0.0)
                    tol = spec.rel_tol * nonneg / (8.0 * c * s)
                if late_p:
                    p1s += _profile_moment(slab, late_p, rC, spec, closed_form,
                                           a * c, tol / bound_q)
                if late_q:
                    q1j1 += _profile_moment(disc, late_q, rC, spec,
                                            closed_form, a * s, tol / bound_p)
                terms.append((2.0 * c * s, (p1s[0], q1j1[0])))
    val, err, _ = _sum_of_products(terms)
    scale = _prefactor(p) * body.m * body.m * np.pi
    return scale * val, scale * err


def _cylinder_torque(body, channel, p, spec, closed_form, a):
    """sin^2 of the tilt times the torque bracket of the disc and slab
    profiles, 1D quadratures under either method.

    |(x^ x k) . grad mu| = |k . (n x x^)| |F_par - k_par F_perp /
    k_perp|: sin^2 of the tilt times the value for an axis normal to x,
    the torque bracket of the disc and slab profiles halved by the phi
    average; the slab's M2 is integrated like its D0 and C1.
    closed_form stays False: the shipped cylinder_rotational exclusion
    reports this quadrature's error estimate bit for bit, and the
    benchmark's cli gate compares it at 1e-6 relative (ROADMAP item 1).
    """
    slab, disc = body.profiles
    sin2 = body.axis[1] ** 2 + body.axis[2] ** 2   # 0 spinning about it
    total, err = _torque_bracket(disc, slab, p.rC, spec, closed_form=False)
    scale = _prefactor(p) * body.m * body.m * np.pi
    return sin2 * (scale * (0.5 * total)), sin2 * (scale * (0.5 * err))


_CHANNELS = ("force", "two_body", "torque")
_PAIR = ("pair kernel", _pair_kernel)
_ZERO = ("zero", _zero)
_SEPARABLE = ("1D moments", _separable)
_CYLINDER = ("disc and slab moments", _cylinder)
# (geometry type, channel) -> (route name, route), written as one row of
# routes per type, in the order of _CHANNELS
_ROUTES = {(cls, channel): route for cls, row in {
    Point: (("closed form", _point_force), _PAIR, _ZERO),
    PointLattice: (_PAIR, _PAIR, _PAIR),
    Sphere: (("radial", _radial_force), ("ball moment", _ball_moment), _ZERO),
    Cuboid: (_SEPARABLE, _SEPARABLE, _SEPARABLE),
    Multilayer: (_SEPARABLE, _SEPARABLE, _SEPARABLE),
    Cylinder: (_CYLINDER, _CYLINDER,
               ("disc and slab torque", _cylinder_torque)),
}.items() for channel, route in zip(_CHANNELS, row)}


def _spectrum(g, channel, p, spec, method):
    """Check g and method, look up the route of g's type on channel in
    _ROUTES, call it and return its (value, error) as a SpectralValue.

    A TwoBody has only the two_body channel, and is looked up by its
    unit's type.  Raises ValueError for an unknown method and for
    method="quadrature" on a pair-kernel route, whose sums are exact,
    TypeError for a (type, channel) that _ROUTES does not hold, and
    FloatingPointError, naming the route, if it returns a NaN or inf.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    pair = isinstance(g, TwoBody)
    if pair != (channel == "two_body"):
        raise TypeError("a TwoBody pair has only csl_force_spectrum_two_body"
                        if pair else "csl_force_spectrum_two_body needs a "
                        "TwoBody geometry")
    body, a = (g.unit, g.a) if pair else (g, 0.0)
    name, route = _ROUTES.get((type(body), channel), (None, None))
    if route is None:
        raise TypeError(f"no {channel} route for {type(body).__name__}")
    if name == "pair kernel" and method == "quadrature":
        raise ValueError("pair sums are exact: a point lattice has no "
                         "quadrature route")
    if p.lam == 0.0 or pair and a == 0.0:
        return SpectralValue(0.0)
    spec = QuadratureSpec() if spec is None else spec
    value, error = route(body, channel, p, spec, method == "auto", a)
    if not (math.isfinite(value) and math.isfinite(error)):
        raise FloatingPointError(f"{name} route gave {value} +- {error} for "
                                 f"{type(body).__name__} {channel} at "
                                 f"rC = {p.rC!r} m")
    return SpectralValue(value, error)


def csl_force_spectrum(g, p, spec=None, method="auto"):
    """White CSL force spectral density along x, in N^2 s.

    method: "auto" takes the route _ROUTES names for the type of g;
    "quadrature" runs the same route with every moment by 1D quadrature
    (a Point's radial integral), to cross-check the closed forms.  A
    PointLattice, whose pair sums are exact, has no quadrature and raises
    ValueError, as does any other method.  A TwoBody or a type with no
    route raises TypeError.
    """
    return _spectrum(g, "force", p, spec, method)


def csl_force_spectrum_two_body(g, p, spec=None):
    """Differential CSL force spectrum of two units separated by a along x.

    Evaluates (hbar^2 lam rC^3 / 2 pi^{3/2} m0^2) *
    integral |mu_unit|^2 e^{-k^2 rC^2} k_x^2 |1 - e^{i a k_x}|^2 dk; the
    squared phase factor makes the spectrum vanish at a = 0 and reduce to
    the single-unit value for a >> rC.  g must be a TwoBody (TypeError).
    """
    return _spectrum(g, "two_body", p, spec, "auto")


def csl_torque_spectrum(g, p, spec=None, method="auto"):
    """CSL torque spectral density about the x axis, in N^2 m^2 s.

    Vanishes identically for spherically symmetric bodies and for
    cylinders spinning about their own symmetry axis.  method is as for
    csl_force_spectrum; a Point or Sphere torque is exactly 0 under both.
    """
    return _spectrum(g, "torque", p, spec, method)


# ---------------------------------------------------------------------------
# derived quantities

def apply_colored_filter(S, model, omega):
    """Scale a white spectral density by the colored-noise filter."""
    if omega is None:
        raise ValueError("omega required")
    if not np.all(np.asarray(omega) >= 0):   # NaN fails too
        raise ValueError("omega must be nonnegative and not NaN")
    if model is None:
        return S
    return S * model.filter(omega)


def csl_temperature_shift(S_FF, m, gamma):
    """Equilibrium temperature increase S_FF / (2 m gamma kB), in K.

    gamma = 0 is rejected: the shift diverges without dissipation.
    """
    if not 0 < m < math.inf:
        raise ValueError(f"m must be finite and positive, got {m!r}")
    if not 0 < gamma < math.inf:
        raise ValueError("temperature shift diverges as gamma -> 0; "
                         f"gamma must be finite and positive, got {gamma!r}")
    return S_FF / (2.0 * m * gamma * CONSTANTS.kB)


def csl_temperature_shift_rot(S_rot, D_phi):
    """Rotational analogue: S_rot / (2 kB D_phi), D_phi the rotational
    damping rate."""
    if not 0 < D_phi < math.inf:
        raise ValueError(f"D_phi must be finite and positive, got {D_phi!r}")
    return S_rot / (2.0 * CONSTANTS.kB * D_phi)


def free_expansion_spread(p, t):
    """Collapse contribution lam hbar^2 t^3 / (2 m0^2 rC^2) to the 3D
    position spread <r^2>(t) of a free point particle, in m^2.

    The quantum-mechanical spread is the caller's to add.  The per-axis
    collapse share is one third of this term.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    return p.lam * CONSTANTS.hbar ** 2 * t ** 3 / (
        2.0 * CONSTANTS.m0 ** 2 * p.rC ** 2)


def heating_rate(g, p, spec=None):
    """Secular temperature drift of a free body, in K/year.

    Each axis gains energy at S_FF / 2m; with <E> = (3/2) kB T the three
    isotropic axes give dT/dt = S_FF / (m kB).
    """
    if isinstance(g, TwoBody):
        raise TypeError("heating rate of a TwoBody pair is not defined")
    S = csl_force_spectrum(g, p, spec=spec)
    rate_per_s = S / (g.total_mass * CONSTANTS.kB)
    return rate_per_s * CONSTANTS.seconds_per_year
