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
one profile).  The rows refine in lockstep: in each round every row
still refining picks the panels it would split alone, and one integrand
call over all their children serves every row, so a stack costs as many
calls as its slowest row.  Each row is integrated bit for bit as if
alone.
"""

import math
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import gt

import numpy as np

__all__ = [
    "QuadratureSpec",
    "NonConvergence",
    "integrate_1d",
    "integrate_k3",
]


# The k integrals stop at |k| = K_CUTOFF / rC: every integrand carries the
# weight e^{-k^2 rC^2}, so the dropped Gaussian tail is below e^{-64}.
K_CUTOFF = 8.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Relative target and evaluation budget of every 1D quadrature: a
    sphere's radial integral, for its force and two-body alike, the
    cylinder torque, a cylinder two-body's disc kernels past R = 3.5 rC
    and every moment under method="quadrature".  Closed forms ignore
    it.  Each integral evaluates its integrand at no more than max_evals
    nodes (integrate_1d).  rel_tol must be positive and finite and
    max_evals at least 15, one panel.
    """

    rel_tol: float = 1e-6
    max_evals: int = 50_000_000

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite, got "
                             f"{self.rel_tol!r}")
        _check_evals(self.max_evals)


def _check_evals(max_evals):
    if not 15 <= max_evals < math.inf:
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
    of its batch, and each row of a stack, its own array, sums as alone.
    Run under integrate_1d's np.errstate, which lets an overflow or
    inf - inf make an error inf or NaN."""
    vals = np.asarray(row, dtype=float).reshape(-1, 15)
    k15 = half * (vals @ _WGK)
    # the fancy index makes the G7 block a copy in Fortran order, and that
    # layout picks the BLAS path of its matmul: a C-ordered copy of the
    # same nodes (vals[:, 1::2].copy()) sums to other bits
    return k15, np.abs(k15 - half * (vals[:, _GAUSS_IDX] @ _WG))


def integrate_1d(f, a, b, rel_tol=1e-6, abs_tol=0.0, max_evals=50_000_000,
                 max_panel_width=None):
    """Adaptive G7/K15 integration of a vectorized integrand on [a, b].

    max_panel_width bounds the initial subdivision; pass roughly half an
    oscillation period when the integrand is known to oscillate, so the
    error estimator sees the structure from the start.

    f maps an array of n nodes to n values, or to a list of such arrays,
    a stack of integrands sharing their work per node.  The stack is
    evaluated once on the first panels, then refines in lockstep rounds:
    each row still refining picks the panels it would split alone, one
    call of f on all their children serves every row, and each row
    takes its own block of its own values.  A row spends max_evals as if
    alone and its result is the lone one, bit for bit; a stack makes as
    many calls of f as its row with the most rounds.  No row takes more
    than max_evals nodes: the first round has at most max_evals // 15
    panels, and a row whose next round would take it past max_evals
    stops before it.  Returns (value, error_estimate), or a list of them
    for a stack; raises NonConvergence with the estimate and error of
    the first row (in stack order) that stops so or meets a NaN or
    infinite value, once every row before it has converged.

    The bounds must be finite, and an empty or reversed interval
    integrates to 0; bad bounds, a tolerance that is negative or not
    finite, both tolerances 0, a max_evals that QuadratureSpec rejects
    or a max_panel_width that is not positive raise ValueError.  A row's
    target is the larger of abs_tol and rel_tol times its value.
    """
    if not all(0 <= t < math.inf for t in (rel_tol, abs_tol)):
        raise ValueError("rel_tol and abs_tol must be finite and "
                         "nonnegative")
    if not (rel_tol > 0 or abs_tol > 0):
        raise ValueError("need rel_tol > 0 or abs_tol > 0")
    _check_evals(max_evals)
    if not all(math.isfinite(x) for x in (a, b, b - a)):
        raise ValueError("bounds and b - a must be finite, got "
                         f"[{a!r}, {b!r}]")
    if max_panel_width is not None and not max_panel_width > 0:
        raise ValueError("max_panel_width must be positive")
    span = b - a
    if span <= 0:   # no panels: every row integrates to 0
        lo = hi = np.empty(0)
    elif max_panel_width is not None and max_panel_width < span:
        n0 = int(min(np.ceil(span / max_panel_width), 4096,
                     max_evals // 15))
        edges = np.linspace(a, b, n0 + 1)
        lo, hi = edges[:-1], edges[1:]
    else:
        lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)

    half, new = _panel_values(f, lo, hi)
    stacked = isinstance(new, list)
    new = new if stacked else [new]
    results = [None] * len(new)
    failure = None
    # Each row still refining keeps its panels' lo, hi, value and error
    # as Python float lists, in no order: fsum is exact.  A split panel's
    # left child takes its place and its right child is appended.  A
    # row's children are its block of the round's panels, its left
    # children in lo order, then its right ones, as the row alone would
    # have them.  The first round takes the first panels as they are; a
    # row makes lists of their lo and hi only once it splits.
    whole = slice(None)
    asks = [(r, 0, lo, hi, None, None, (), None, None, whole, whole)
            for r in range(len(new))]
    while True:
        live, c_lo, c_hi = [], [], []
        # an overflow or inf - inf in a row's _panel_rule makes an error
        # inf or NaN, for which the row raises NonConvergence
        with np.errstate(over="ignore", invalid="ignore"):
            for (r, evals, p_lo, p_hi, vals, errs, split, mids, s_hi, panels,
                 nodes) in asks:
                row = np.asarray(new[r], dtype=float)[nodes]
                k15, err = _panel_rule(row, half[panels])
                k15, err = k15.tolist(), err.tolist()
                evals += row.size
                if split:
                    for i, mid, v, e in zip(split, mids, k15, err):
                        p_hi[i] = mid
                        vals[i] = v
                        errs[i] = e
                    n = len(split)
                    p_lo += mids
                    p_hi += s_hi
                    vals += k15[n:]
                    errs += err[n:]
                else:
                    vals, errs = k15, err
                # a NaN or infinite node value makes its panel's error NaN
                # or inf, which no split can reduce
                tot_err = math.fsum(errs)
                if not math.isfinite(tot_err):
                    # inf - inf is NaN, no error; in lo order, ties in
                    # list order: of panels sharing a lo all but one have
                    # zero width, values 0 or NaN, so no tie moves the sum
                    total = sum(map(vals.__getitem__, sorted(
                        range(len(vals)), key=p_lo.__getitem__)))
                    # the rows after it cannot change which row raises
                    failure = NonConvergence(
                        f"panel value or error not finite on [{a!r}, "
                        f"{b!r}] (estimate {total!r}, error {tot_err!r})",
                        total, tot_err)
                    break
                total = math.fsum(vals)
                target = max(abs_tol, rel_tol * abs(total))
                if tot_err <= target or target == 0.0 and tot_err == 0.0:
                    results[r] = total, tot_err
                    continue
                # split every panel carrying more than its per-panel error
                # share, in lo order
                thresh = 0.5 * target / len(vals)
                # never empty: unconverged, the largest error is over
                # tot_err / n > thresh, or over 0 = thresh when target is 0
                split = list(compress(count(), map(gt, errs, repeat(thresh))))
                if evals + 30 * len(split) > max_evals:
                    failure = NonConvergence(
                        f"quadrature used {evals} evaluations without "
                        f"reaching tolerance (error {tot_err:.3e}, target "
                        f"{target:.3e}); the next round needs "
                        f"{30 * len(split)} more, past max_evals "
                        f"{max_evals}", total, tot_err)
                    break
                if p_lo is lo:
                    p_lo, p_hi = lo.tolist(), hi.tolist()
                split.sort(key=p_lo.__getitem__)
                s_lo = list(map(p_lo.__getitem__, split))
                s_hi = list(map(p_hi.__getitem__, split))
                mids = [0.5 * (x + y) for x, y in zip(s_lo, s_hi)]
                start, stop = len(c_lo), len(c_lo) + 2 * len(split)
                c_lo += s_lo
                c_lo += mids
                c_hi += mids
                c_hi += s_hi
                live.append((r, evals, p_lo, p_hi, vals, errs, split, mids,
                             s_hi, slice(start, stop),
                             slice(15 * start, 15 * stop)))
        if not live:
            break
        asks = live
        half, new = _panel_values(f, np.fromiter(c_lo, float, len(c_lo)),
                                  np.fromiter(c_hi, float, len(c_hi)))
        new = new if stacked else [new]
    if failure is not None:
        raise failure
    return results if stacked else results[0]


def integrate_k3(f, rC, spec=None, symmetry="isotropic",
                 oscillation_scale=None):
    """Integrate an isotropic integrand over the ball |k| <= K_CUTOFF / rC:
    4 pi int k^2 f(k) dk, with f(k) its full angular average at radius
    k, to spec's rel_tol within its max_evals (no absolute target).
    "isotropic" is the only symmetry; any other tag is a ValueError.

    oscillation_scale: the largest length L of the integrand's
    oscillations, a body's extent or a two-body's separation; radial
    panels are then started at half the period of the fastest
    sin(kL/2)^2 or cos(kL) factor (none for 0).  An rC that is not positive and finite, or an
    oscillation_scale that is negative or not finite, raises ValueError.

    Returns (value, error_estimate).
    """
    if symmetry != "isotropic":
        raise ValueError(f"unknown symmetry tag {symmetry!r}")
    if spec is None:
        spec = QuadratureSpec()
    if not 0 < rC < math.inf:
        raise ValueError(f"rC must be positive and finite, got {rC!r}")
    width = None
    if oscillation_scale is not None:
        if not 0 <= oscillation_scale < math.inf:
            raise ValueError("oscillation_scale must be finite and "
                             f"nonnegative, got {oscillation_scale!r}")
        if oscillation_scale > 0:
            width = np.pi / oscillation_scale

    def radial(k):
        return 4.0 * np.pi * k * k * np.asarray(f(k), dtype=float)

    return integrate_1d(radial, 0.0, K_CUTOFF / rC, spec.rel_tol,
                        max_evals=spec.max_evals, max_panel_width=width)
