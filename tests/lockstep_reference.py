"""integrate_1d's lockstep refinement as cslbounds ran it before each row
kept its panels as Python float lists: every row a `_refine` generator
on numpy arrays, sent its children's values each round, which re-sorts
its panels by lo with a stable argsort.  The flat loop must give the
same values, errors and NonConvergence bits and messages
(tests/test_quadrature.py).  The G7/K15 nodes and weights and the
argument checks are imported from cslbounds.
"""

import math

import numpy as np

from cslbounds.quadrature import (_GAUSS_IDX, _WG, _WGK, _XGK,
                                  NonConvergence, _check_budget)


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
    return k15, np.abs(k15 - half * (vals[:, _GAUSS_IDX] @ _WG))


def _refine(row, half, lo, hi, a, b, rel_tol, abs_tol, max_evals):
    """One row's adaptive bisection of its panels [lo, hi], given its node
    values there and their half widths, as a generator: it yields the
    (lo, hi) of the children of the panels it splits next, left children
    first, and is sent back its node values on them and their half
    widths.  Returns (value, error) once it meets its tolerance; raises
    NonConvergence when it runs out of evaluations or meets a NaN or
    infinite value."""
    vals, errs = _panel_rule(row, half)
    evals = np.size(row)
    while True:
        # a NaN or infinite node value makes its panel's error NaN or
        # inf, which no split can reduce
        tot_err = math.fsum(errs.tolist())
        if not math.isfinite(tot_err):
            total = sum(vals.tolist())   # inf - inf is NaN, no error
            raise NonConvergence(
                f"panel value or error not finite on [{a!r}, {b!r}] "
                f"(estimate {total!r}, error {tot_err!r})", total, tot_err)
        total = math.fsum(vals.tolist())
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
        if not np.count_nonzero(split):
            split = errs == errs.max()
        keep = ~split
        s_lo, s_hi = lo[split], hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        new, half = yield (np.concatenate([s_lo, s_mid]),
                           np.concatenate([s_mid, s_hi]))
        new_vals, new_errs = _panel_rule(new, half)
        evals += np.size(new)
        lo = np.concatenate([lo[keep], s_lo, s_mid])
        hi = np.concatenate([hi[keep], s_mid, s_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        # canonical ordering keeps fsum input deterministic
        order = lo.argsort(kind="stable")
        lo, hi = lo[order], hi[order]
        vals, errs = vals[order], errs[order]


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
    many calls of f as its row with the most rounds.  Returns
    (value, error_estimate), or a list of them for a stack; raises
    NonConvergence with the estimate and error of the first row (in
    stack order) that runs out of evaluations or meets a NaN or infinite
    value, once every row before it has converged.

    The bounds must be finite, and an empty or reversed interval
    integrates to 0; bad bounds, tolerances (the rule of QuadratureSpec),
    max_evals or a max_panel_width that is not positive raise
    ValueError.
    """
    _check_budget(rel_tol, abs_tol, max_evals)
    if not all(math.isfinite(x) for x in (a, b, b - a)):
        raise ValueError("bounds and b - a must be finite, got "
                         f"[{a!r}, {b!r}]")
    if max_panel_width is not None and not max_panel_width > 0:
        raise ValueError("max_panel_width must be positive")
    span = b - a
    if span <= 0:   # no panels: every row integrates to 0
        lo = hi = np.empty(0)
    elif max_panel_width is not None and max_panel_width < span:
        n0 = int(min(np.ceil(span / max_panel_width), 4096))
        edges = np.linspace(a, b, n0 + 1)
        lo, hi = edges[:-1], edges[1:]
    else:
        lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)

    first_half, first = _panel_values(f, lo, hi)
    stacked = isinstance(first, list)
    live = [(r, _refine(row, first_half, lo, hi, a, b, rel_tol, abs_tol,
                        max_evals))
            for r, row in enumerate(first if stacked else [first])]
    results = [None] * len(live)
    sent = [None] * len(live)   # what each row is sent next
    failure = None
    while live:
        asks = []   # (row index, row, its children's lo, their hi)
        # an overflow or inf - inf in a row's _panel_rule makes an error
        # inf or NaN, for which the row raises NonConvergence
        with np.errstate(over="ignore", invalid="ignore"):
            for r, row in live:
                try:
                    asks.append((r, row, *row.send(sent[r])))
                except StopIteration as done:
                    results[r] = done.value
                except NonConvergence as exc:
                    # the rows after it cannot change which row raises
                    failure = exc
                    break
        live = [ask[:2] for ask in asks]
        if not live:
            break
        half, new = _panel_values(f, np.concatenate([ask[2] for ask in asks]),
                                  np.concatenate([ask[3] for ask in asks]))
        new = new if stacked else [new]
        start = 0
        for r, _, c_lo, _ in asks:
            stop = start + len(c_lo)
            sent[r] = (np.asarray(new[r], dtype=float)[15 * start:15 * stop],
                       half[start:stop])
            start = stop
    if failure is not None:
        raise failure
    return results if stacked else results[0]
