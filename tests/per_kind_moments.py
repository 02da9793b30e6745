"""The closed-form profile moments one kind at a time, as cslbounds
computed them before every kind asked of a profile came from one pass
(cslnoise._closed_moment): each call rebuilds the profile's layer data
and edge pairs and evaluates its own erf/exp terms, central moments and
pair sums.  The one-pass closed forms must equal these bit for bit
(tests/test_profile_moments.py).  The helpers that pass left unchanged
are imported from cslnoise, and so is the disc kernels' Laguerre series,
which came later and is asked here for one kind at a time.
"""

import math

import numpy as np

from cslbounds.cslnoise import (
    _DISC_KERNEL_REACH, _FACT_2N, _INV_FACT_2N, _LAGUERRE_C0, _N, _ROUNDING,
    _SERIES_ORDER, _SIGNED_INV_FACT, _disc_kernel_moment, _egf_moments,
    _hermite_shifted, _one_minus_cos, _sinc_sq_gauss)
from cslbounds.geometry import AxisProfile, DiscProfile


def _layers_of(prof):
    """(thickness, density, centre) arrays of an AxisProfile; a slab is
    one layer of density 1/L at 0, so that P(0) = 1."""
    if prof.layers is None:
        return (np.array([prof.length]), np.array([1.0 / prof.length]),
                np.zeros(1))
    return tuple(np.asarray(a, dtype=float) for a in prof.layers)


def _series_coefficients(kind, h, v, rC):
    """(scale, c_n, |rounding| size of c_n) of a moment's 1/rC^2 series
    sum_n c_n A_n.  A separation kernel shifts G to G(u -+ s): its
    Taylor coefficients in u are G's derivatives at s, Hermite
    polynomials at v = s / 2rC times e^{-v^2}, and the difference from
    those at 0 is taken with e^{-v^2} - 1 and _hermite_shifted."""
    scale = math.sqrt(math.pi) / rC
    n = _N
    if h is None:
        coef = _SIGNED_INV_FACT
        exact = np.zeros(n.size)
        if kind == "M2":
            return scale / (4.0 * rC * rC), coef * 2.0 * (2 * n + 1), exact
        if kind == "C1":
            return scale, np.concatenate([[0.0], -coef[:-1]]), exact
        return scale, coef, exact
    t, size, h0 = _hermite_shifted(v, 2 * n[-1] + 2)
    e = math.expm1(-v * v)
    if kind == "M1":   # K(u) = -G'(u + s); odd powers of u drop out
        return (scale / (2.0 * rC), t[2 * n + 1] * _INV_FACT_2N,
                size[2 * n + 1] * _INV_FACT_2N)
    if kind == "M0":   # K(u) = G(u) - [G(u + s) + G(u - s)] / 2
        return (scale, -(e * _SIGNED_INV_FACT + t[2 * n] * _INV_FACT_2N),
                size[2 * n] * _INV_FACT_2N)
    # M2: K(u) = -G''(u) + [G''(u + s) + G''(u - s)] / 2
    k = 2 * n + 2
    return (scale / (4.0 * rC * rC), (t[k] + h0[k] * e) * _INV_FACT_2N,
            size[k] * _INV_FACT_2N)


def _axis_series(kind, h, s, half, rho, gamma, mass, extent, rC):
    """A moment of an AxisProfile as its series in 1/rC^2 (extent <= rC).

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

    scale, coef, coef_err = _series_coefficients(kind, h, s / sr, rC)
    bound = 1.0
    if kind == "D0":
        up, up_size = lift * egf[1:], lift * egf_size[1:]
        val, mag = pair_sums(up, up, up_size, up_size)
        scale *= sr * sr
        bound = z2   # |xi xi'| / (2rC)^2 over the profile
    else:
        val, mag = pair_sums(egf, egf, egf_size, egf_size)
    # every |u| / 2rC is at most zmax <= 1/2, so |A_n| <= mass^2 zmax^2n:
    # the tail is bounded by three more terms, doubled
    tail = 2.0 * mass * mass * bound * float(
        np.abs(coef[m:m + 3]) @ z2 ** _N[m:m + 3])
    value = scale * float(coef[:m] @ val)
    err = abs(scale) * (_ROUNDING * float(
        np.abs(coef[:m]) @ mag + coef_err[:m] @ np.abs(val)) + tail)
    return value, err


def _phi0(z):
    """sqrt(pi) z erf z + e^{-z^2} - 1 (the M0 edge term) and the
    magnitude of its two parts."""
    from scipy.special import erf
    a = math.sqrt(math.pi) * z * erf(z)
    b = np.expm1(-z * z)
    return a + b, a - b


def _edge_pairs(half, rho, gamma, rC):
    """The layer edges xi relative to the centre of mass, the products
    W = w_i w_j of the density steps w there (+rho at a layer's lower
    edge, -rho at its upper) and (xi_i - xi_j) / 2rC, over all ordered
    pairs of edges."""
    xi = np.concatenate([gamma - half, gamma + half])
    w = np.concatenate([rho, -rho])
    return xi, w[:, None] * w[None, :], (xi[:, None] - xi[None, :]) / (
        2.0 * rC)


def _edge_sum(W, parts, const=0.0):
    """const + sum over parts (c, t, m) of c sum W t, with _ROUNDING
    times the same sum over the term magnitudes m as its error."""
    value = const + sum(c * float(np.sum(W * t)) for c, t, _ in parts)
    mag = abs(const) + sum(abs(c) * float(np.sum(np.abs(W) * m))
                           for c, _, m in parts)
    return value, _ROUNDING * mag


def _axis_edges(kind, half, rho, gamma, mass, rC, h=None, s=0.0):
    """kind of an AxisProfile as its sum over pairs of layer edges.

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
    """
    from scipy.special import erf, erfc
    sqrt_pi = math.sqrt(math.pi)
    xi, W, u = _edge_pairs(half, rho, gamma, rC)
    z = np.abs(u)
    const = 0.0
    if h is _one_minus_cos and kind == "M2":
        v = s / (2.0 * rC)
        near = 0.5 * np.exp(-(z - v) ** 2) * np.expm1(-2.0 * z * v) ** 2
        t = np.expm1(-v * v) * np.expm1(-z * z) + near
        # e^{-(z - v)^2} inherits the rounding of z - v times 2 |z - v|
        parts = [(-sqrt_pi / rC, t,
                  t + near * 2.0 * np.abs(z - v) * (z + v))]
    elif h is _one_minus_cos:   # M0
        v = s / (2.0 * rC)
        (f0, m0), (fp, mp), (fm, mm) = (_phi0(z), _phi0(np.abs(z + v)),
                                        _phi0(np.abs(z - v)))
        parts = [(-2.0 * sqrt_pi * rC, f0 - 0.5 * (fp + fm),
                  m0 + 0.5 * (mp + mm))]
    elif h is np.sin:   # M1
        v = s / (2.0 * rC)
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
        spread = v + (np.abs(xi[:, None]) + np.abs(xi[None, :])) / (2.0 * rC)
        mag += 2.0 / sqrt_pi * (np.exp(-a * a) + np.exp(-b * b)) * spread
        parts = [(math.pi, d, mag)]
    elif kind == "M2":
        e = np.expm1(-z * z)
        parts = [(sqrt_pi / rC, e, np.abs(e))]
    elif kind == "C1":
        e = np.expm1(-z * z)
        a = sqrt_pi * z * erf(z)
        parts = [(sqrt_pi * rC, 2.0 * e + a, 2.0 * np.abs(e) + a)]
    else:
        f, m = _phi0(z)
        parts = [(-2.0 * sqrt_pi * rC, f, m)]
        if kind == "D0":
            e = np.exp(-z * z)
            cube = 2.0 * sqrt_pi * z ** 3 * erf(z)
            hz = np.expm1(-z * z) - 2.0 * z * z * e - cube
            hm = np.abs(np.expm1(-z * z)) + 2.0 * z * z * e + cube
            prod = xi[:, None] * xi[None, :]
            parts = [(4.0 * sqrt_pi * rC ** 3 / 3.0, hz, hm),
                     (-2.0 * sqrt_pi * rC, prod * f, np.abs(prod) * m)]
            const = -2.0 * sqrt_pi * rC * mass * mass
    return _edge_sum(W, parts, const)


def _shifted_part(kind, half, rho, gamma, rC, v):
    """The separation-shifted part S of M0 or M2 times 1 - cos, for a
    profile whose |e_i - e_j| / 2rC = z stay below v: M0 (1 - cos sk) =
    M0 - S with S = -2 pi rC sum W [ierfc(v + z) + ierfc(v - z)] / 2
    (the erf/exp edge term minus its part linear in v +- z, which sums
    to zero), M2 (1 - cos sk) = M2 - S with S = (sqrt(pi)/rC) sum W
    [e^{-(v + z)^2} + e^{-(v - z)^2}] / 2.  Returns (S, error)."""
    from scipy.special import erfc
    _, W, u = _edge_pairs(half, rho, gamma, rC)
    val = mag = 0.0
    for x in (v + np.abs(u), v - np.abs(u)):
        g = np.exp(-x * x)
        if kind == "M0":
            g /= math.sqrt(math.pi)
            val, mag = val + g - x * erfc(x), mag + g + x * erfc(x)
        else:
            val, mag = val + g, mag + g * (1.0 + 2.0 * x * x)
    scale = -math.pi * rC if kind == "M0" else 0.5 * math.sqrt(math.pi) / rC
    return _edge_sum(W, [(scale, val, mag)])


def _axis_moment(prof, kind, rC, h=None, s=0.0):
    """Closed form of an AxisProfile moment.  Returns (value, error).

    A profile no longer than rC takes the 1/rC^2 series, which with a
    separation kernel converges fast only while s times the extent is
    at most rC^2; past that the kernel's shifted part is summed over
    edge pairs, where it no longer cancels, and subtracted from the
    series of the plain moment (M1 times sin has no plain part and is
    all edge sum).  A longer profile takes the edge-pair sum.
    """
    d, rho, centre = _layers_of(prof)
    half = 0.5 * d
    mass = float(rho @ d)
    cbar = float((rho * d) @ centre) / mass
    gamma = centre - cbar
    extent = float(np.max(gamma + half) - np.min(gamma - half))
    args = (half, rho, gamma, mass)
    if extent <= rC:
        if h is None or s * extent <= rC * rC:
            return _axis_series(kind, h, s, *args, extent, rC)
        if kind != "M1":
            plain, e1 = _axis_series(kind, None, 0.0, *args, extent, rC)
            shifted, e2 = _shifted_part(kind, half, rho, gamma, rC,
                                        s / (2.0 * rC))
            return plain - shifted, e1 + e2
    return _axis_edges(kind, *args, rC, h, s)


def _disc_moment(R, kind, rC):
    """Closed forms of a disc's Q0 and Q2 (the k-plane moments of
    jinc(kR), without the factor pi): with x = R^2 / 2rC^2,
    Q2 = (4 / R^2 rC^2) e^{-x} I1(x) and Q0 = (4 / R^2)(1 - e^{-x}
    (I0(x) + I1(x))); below x = 0.1 Q0 is summed as its series to
    j = 11, whose terms fall by at least 20x each: rC^2 Q0 = sum_j c_j j!
    (2x)^j, the series of jinc^2 (_LAGUERRE_C0), and (4 / R^2) (x / 2) =
    rC^-2.
    e^{-x} I_n(x) is scipy's i0e or i1e.  Returns (value, error)."""
    from scipy.special import i0e, i1e
    x = R * R / (2.0 * rC * rC)
    if kind == "M2":
        val = 4.0 / (R * R * rC * rC) * float(i1e(x))
        return val, _ROUNDING * abs(val)
    if x < 0.1:
        terms = [0.5 * x * c * (2.0 * x) ** j
                 for j, c in enumerate(_LAGUERRE_C0[:12])]
        core = math.fsum(terms)
        mag = math.fsum(abs(t) for t in terms) + abs(terms[-1])
    else:
        i0, i1 = float(i0e(x)), float(i1e(x))
        core, mag = 1.0 - i0 - i1, 1.0 + i0 + i1
    return 4.0 / (R * R) * core, 4.0 / (R * R) * _ROUNDING * mag


def _closed_moment(prof, kind, rC, h, s):
    """The closed form of one moment (see _profile_moment), or None."""
    if isinstance(prof, AxisProfile):
        if prof.layers is None and kind in ("M0", "M2") and h is None:
            return _sinc_sq_gauss(prof, ((kind, h),), rC, s)[0]
        if (h is None and kind != "M1") or (h, kind) in (
                (_one_minus_cos, "M0"), (_one_minus_cos, "M2"),
                (np.sin, "M1")):
            return _axis_moment(prof, kind, rC, h, s)
    if isinstance(prof, DiscProfile) and h is None and kind in ("M0", "M2"):
        return _disc_moment(prof.R, kind, rC)
    if isinstance(prof, DiscProfile) and prof.R <= _DISC_KERNEL_REACH * rC \
            and (h, kind) in ((_one_minus_cos, "M0"), (_one_minus_cos, "M2"),
                              (np.sin, "M1")):
        return _disc_kernel_moment(prof, ((kind, h),), rC, s)[0]
    return None
