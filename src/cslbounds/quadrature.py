"""Adaptive k-space quadrature for Gaussian-damped integrands.

The radial direction is the stiff one (the e^{-k^2 rC^2} damping and any
sinc-type oscillations both live there), so the scheme is an adaptive
Gauss-Kronrod (G7/K15) subdivision in |k|, vectorized over panels.
integrate_k3 takes an isotropic integrand, the angular average f(k) at
each radius, and integrates it as one radial integral; every body with
angular structure is reduced to 1D moments before it gets here (the
generic 3D quadrature over f(kx, ky, kz) is a test oracle,
tests/oracles.py).

All integrands must accept numpy arrays and evaluate elementwise.  Panel
results are combined with math.fsum, so the accumulated value does not
depend on evaluation order.  A 1D integrand may return a list of rows,
several integrands that share their work at each node (the moments of
one profile); each row is integrated bit for bit as if alone.
"""

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


def _panel_values(f, lo, hi):
    """(half widths, f at the K15 nodes) of a batch of panels [lo, hi]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    return half, f(nodes.ravel())


def _panel_rule(row, half):
    """K15 and the embedded G7 error of one integrand's node values, summed
    on its own (panels, 15) block: a matmul's bits depend on the layout
    of its batch, and each row of a stack, its own array, sums as alone."""
    vals = np.asarray(row, dtype=float).reshape(-1, 15)
    # an overflow or inf - inf makes an error inf or NaN: integrate_1d
    # raises NonConvergence for it
    with np.errstate(over="ignore", invalid="ignore"):
        k15 = half * (vals @ _WGK)
        return k15, np.abs(k15 - half * (vals[:, _GAUSS_IDX] @ _WG))


def integrate_1d(f, a, b, rel_tol=1e-6, abs_tol=0.0, max_evals=50_000_000,
                 max_panel_width=None):
    """Adaptive G7/K15 integration of a vectorized integrand on [a, b].

    max_panel_width bounds the initial subdivision; pass roughly half an
    oscillation period when the integrand is known to oscillate, so the
    error estimator sees the structure from the start.

    f maps an array of n nodes to n values, or to a list of such arrays,
    a stack of integrands sharing their work per node.  The stack is
    evaluated once on the first panels; each row then refines on its own
    panels (taking its row of f) and spends max_evals as if alone, bit
    for bit.  Returns (value, error_estimate), or a list of them for a
    stack; raises NonConvergence with the estimate and error of the
    first row that runs out of evaluations or meets a NaN or infinite
    value.
    """
    span = b - a
    if span <= 0:   # no panels: every row integrates to 0
        lo = hi = np.empty(0)
    elif max_panel_width is not None and max_panel_width < span:
        n0 = min(int(np.ceil(span / max_panel_width)), 4096)
        edges = np.linspace(a, b, n0 + 1)
        lo, hi = edges[:-1], edges[1:]
    else:
        lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)

    first_half, first = _panel_values(f, lo, hi)
    results = []
    stacked = isinstance(first, list)
    for r, row in enumerate(first if stacked else [first]):
        lo_r, hi_r = lo, hi
        vals, errs = _panel_rule(row, first_half)
        evals = np.size(row)
        while True:
            # a NaN or infinite node value makes its panel's error NaN or
            # inf, which no split can reduce
            tot_err = math.fsum(errs.tolist())
            if not math.isfinite(tot_err):
                total = sum(vals.tolist())   # inf - inf is NaN, no error
                raise NonConvergence(
                    f"panel value or error not finite on [{a!r}, {b!r}] "
                    f"(estimate {total!r}, error {tot_err!r})", total,
                    tot_err)
            total = math.fsum(vals.tolist())
            target = max(abs_tol, rel_tol * abs(total))
            if tot_err <= target or target == 0.0 and tot_err == 0.0:
                results.append((total, tot_err))
                break
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
            s_lo, s_hi = lo_r[split], hi_r[split]
            s_mid = 0.5 * (s_lo + s_hi)
            half, new = _panel_values(f, np.concatenate([s_lo, s_mid]),
                                      np.concatenate([s_mid, s_hi]))
            new = new[r] if stacked else new
            new_vals, new_errs = _panel_rule(new, half)
            evals += np.size(new)
            lo_r = np.concatenate([lo_r[~split], s_lo, s_mid])
            hi_r = np.concatenate([hi_r[~split], s_mid, s_hi])
            vals = np.concatenate([vals[~split], new_vals])
            errs = np.concatenate([errs[~split], new_errs])
            # canonical ordering keeps fsum input deterministic
            order = np.argsort(lo_r, kind="stable")
            lo_r, hi_r = lo_r[order], hi_r[order]
            vals, errs = vals[order], errs[order]
    return results if stacked else results[0]


def integrate_k3(f, rC, spec=None, symmetry="isotropic",
                 oscillation_scale=None):
    """Integrate an isotropic integrand over the ball |k| <= cutoff_factor
    / rC: 4 pi int k^2 f(k) dk, with f(k) its full angular average at
    radius k.  "isotropic" is the only symmetry; any other tag is a
    ValueError.

    oscillation_scale: largest body dimension L; radial panels are then
    started at half the period of the fastest sin(kL/2)^2 factor.

    Returns (value, error_estimate).
    """
    if symmetry != "isotropic":
        raise ValueError(f"unknown symmetry tag {symmetry!r}")
    if spec is None:
        spec = QuadratureSpec()
    if rC <= 0:
        raise ValueError("rC must be positive")
    width = None
    if oscillation_scale is not None and oscillation_scale > 0:
        width = np.pi / oscillation_scale

    def radial(k):
        return 4.0 * np.pi * k * k * np.asarray(f(k), dtype=float)

    return integrate_1d(radial, 0.0, spec.cutoff_factor / rC, spec.rel_tol,
                        spec.abs_tol, spec.max_evals, max_panel_width=width)
