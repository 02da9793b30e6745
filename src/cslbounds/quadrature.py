"""Adaptive k-space quadrature for Gaussian-damped integrands.

The radial direction is the stiff one (the e^{-k^2 rC^2} damping and any
sinc-type oscillations both live there), so the scheme is an adaptive
Gauss-Kronrod (G7/K15) subdivision in |k|, vectorized over panels.  The
angular part is handled according to the symmetry the caller declares:

  * "isotropic"  -- integrand depends on |k| only; caller passes the
                    angular average f(k); 1D radial integral.
  * "none"       -- full f(kx, ky, kz); angular averages are computed with
                    a Gauss-Legendre x periodic-trapezoid product rule
                    whose order is doubled until converged.

All integrands must accept numpy arrays and evaluate elementwise.  Panel
results are combined with math.fsum, so the accumulated value does not
depend on evaluation order.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "NonConvergence",
    "integrate_1d",
    "integrate_k3",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation for the k-space integrals.

    cutoff_factor sets the radial truncation |k| <= cutoff_factor / rC;
    at the default 8 the discarded Gaussian tail is below e^{-64}.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 0.0
    max_evals: int = 50_000_000
    cutoff_factor: float = 8.0

    def __post_init__(self):
        if not all(0 <= t < math.inf for t in (self.rel_tol, self.abs_tol)):
            raise ValueError("rel_tol and abs_tol must be finite and "
                             "nonnegative")
        if not (self.rel_tol > 0 or self.abs_tol > 0):
            raise ValueError("need rel_tol > 0 or abs_tol > 0")
        if not 5 <= self.cutoff_factor < math.inf:
            raise ValueError("cutoff_factor must be finite and at least 5; "
                             "below 5 truncates the Gaussian tail too "
                             "aggressively")
        if not 15 <= self.max_evals < math.inf:
            raise ValueError("max_evals must be finite and at least 15, "
                             "one panel")


class NonConvergence(RuntimeError):
    """Raised when max_evals is exhausted before reaching tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message, estimate, error):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


# G7/K15 nodes and weights on [-1, 1] (QUADPACK values).  The Gauss
# subset sits at the odd Kronrod indices.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


def _panel_rule(f, lo, hi):
    """Evaluate K15 and the embedded G7 on a batch of panels.

    lo, hi: arrays of panel edges.  Returns (integral, error, nevals).
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    k15 = half * (vals @ _WGK)
    g7 = half * (vals[:, _GAUSS_IDX] @ _WG)
    err = np.abs(k15 - g7)
    return k15, err, vals.size


def integrate_1d(f, a, b, rel_tol=1e-6, abs_tol=0.0, max_evals=50_000_000,
                 max_panel_width=None):
    """Adaptive G7/K15 integration of a vectorized integrand on [a, b].

    max_panel_width bounds the initial subdivision; pass roughly half an
    oscillation period when the integrand is known to oscillate, so the
    error estimator sees the structure from the start.

    Returns (value, error_estimate).  Raises NonConvergence when the
    evaluation budget runs out.
    """
    if b <= a:
        return 0.0, 0.0
    span = b - a
    if max_panel_width is not None and max_panel_width < span:
        n0 = min(int(np.ceil(span / max_panel_width)), 4096)
        edges = np.linspace(a, b, n0 + 1)
        lo = edges[:-1]
        hi = edges[1:]
    else:
        lo = np.array([a], dtype=float)
        hi = np.array([b], dtype=float)

    vals, errs, nev = _panel_rule(f, lo, hi)
    evals = nev

    while True:
        total = math.fsum(vals.tolist())
        tot_err = math.fsum(errs.tolist())
        target = max(abs_tol, rel_tol * abs(total))
        if tot_err <= target or target == 0.0 and tot_err == 0.0:
            return total, tot_err
        if evals >= max_evals:
            raise NonConvergence(
                f"quadrature used {evals} evaluations without reaching "
                f"tolerance (error {tot_err:.3e}, target {target:.3e})",
                total, tot_err)
        # split every panel carrying more than its per-panel error share
        thresh = 0.5 * target / len(vals)
        split = errs > thresh
        if not np.any(split):
            split = errs == errs.max()
        s_lo, s_hi = lo[split], hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        new_lo = np.concatenate([lo[~split], s_lo, s_mid])
        new_hi = np.concatenate([hi[~split], s_mid, s_hi])
        new_vals, new_errs, nev = _panel_rule(
            f, np.concatenate([s_lo, s_mid]), np.concatenate([s_mid, s_hi]))
        evals += nev
        keep_vals = vals[~split]
        keep_errs = errs[~split]
        lo, hi = new_lo, new_hi
        vals = np.concatenate([keep_vals, new_vals])
        errs = np.concatenate([keep_errs, new_errs])
        # canonical ordering keeps fsum input deterministic
        order = np.argsort(lo, kind="stable")
        lo, hi, vals, errs = lo[order], hi[order], vals[order], errs[order]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Read-only Gauss-Legendre nodes and weights of order n on [-1, 1]
    (a dense eigenvalue solve, so computed once per order)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _angular_average(f, r, rel_tol):
    """Mean of f over the sphere at each radius in r, by order doubling.

    Gauss-Legendre in cos(theta) crossed with a uniform (hence spectrally
    accurate, periodic) grid in phi, evaluated over chunks of radii.
    Raises NonConvergence, carrying the averages, if order 512 has not
    converged.
    """
    r = np.asarray(r, dtype=float)
    prev = None
    n = 16
    while True:
        ct, wt = _gauss_legendre(n)
        st = np.sqrt(1.0 - ct * ct)[:, None]
        phi = np.arange(n) * (2.0 * np.pi / n)
        ux, uy = st * np.cos(phi), st * np.sin(phi)
        uz = np.broadcast_to(ct[:, None], ux.shape)
        avg = np.empty_like(r)
        step = max(1, (1 << 18) // (n * n))   # 2 MiB per float array
        for i in range(0, r.size, step):
            rr = r[i:i + step, None, None]
            vals = f(rr * ux, rr * uy, rr * uz)
            avg[i:i + step] = np.einsum("ijk,j->i", vals, wt) / (2.0 * n)
        if prev is not None:
            change = np.max(np.abs(avg - prev))
            target = 0.3 * rel_tol * (np.max(np.abs(avg)) or 1.0)
            if change <= target:
                return avg
            if n >= 512:
                raise NonConvergence(f"angular average unconverged at "
                                     f"order {n}", avg, change)
        prev = avg
        n *= 2


def integrate_k3(f, rC, spec=None, symmetry="none", oscillation_scale=None):
    """Integrate f over the ball |k| <= cutoff_factor / rC.

    The integrand signature depends on the declared symmetry:
      symmetry="none":      f(kx, ky, kz)
      symmetry="isotropic": f(k), the full angular average at radius k

    oscillation_scale: largest body dimension L; radial panels are then
    started at half the period of the fastest sin(kL/2)^2 factor.

    Returns (value, error_estimate).
    """
    if spec is None:
        spec = QuadratureSpec()
    if rC <= 0:
        raise ValueError("rC must be positive")
    kmax = spec.cutoff_factor / rC
    width = None
    if oscillation_scale is not None and oscillation_scale > 0:
        width = np.pi / oscillation_scale

    if symmetry == "isotropic":
        def radial(k):
            return 4.0 * np.pi * k * k * np.asarray(f(k), dtype=float)
        return integrate_1d(radial, 0.0, kmax, spec.rel_tol, spec.abs_tol,
                            spec.max_evals, max_panel_width=width)

    if symmetry != "none":
        raise ValueError(f"unknown symmetry tag {symmetry!r}")

    def radial(k):
        avg = _angular_average(f, k, spec.rel_tol)
        return 4.0 * np.pi * k * k * avg

    return integrate_1d(radial, 0.0, kmax, spec.rel_tol, spec.abs_tol,
                        spec.max_evals, max_panel_width=width)
