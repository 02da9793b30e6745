"""Command-line entry point.

    cslbounds spectrum   --config FILE [--svg] [--out DIR] [--one-sided]
    cslbounds exclusion  --config FILE [--svg] [--out DIR] [--threads N]
    cslbounds simulate   --config FILE [--out DIR]
    cslbounds pointcheck [--config FILE] [--lam L] [--rc R]

Data files (CSV, trajectory dumps) are byte-identical for identical
(config, seed); run metadata including timestamps lives in a separate
manifest.json.  Exit codes: 0 success, 1 failed pointcheck, 2 config
error, 3 numerical failure, 4 unstable simulation step.
"""

import argparse
import csv
import datetime
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import ConfigError, config_hash, load_config
from .constants import CONSTANTS, GRW_LAMBDA, GRW_RC
from .cslnoise import (CollapseParams, csl_force_spectrum,
                       csl_temperature_shift, free_expansion_spread,
                       heating_rate)
from .exclusion import GridMismatch, combine_exclusions, exclusion_scan
from .geometry import Point
from .optomech import (UnstableStep, displacement_dns, simulate_langevin,
                       write_trajectories)
from .quadrature import NonConvergence
from .svgplot import LogLogPlot


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, text, extra):
    _write_json(os.path.join(out_dir, "manifest.json"), dict({
        "tool_version": __version__,
        "config_hash": config_hash(text),
        "created_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }, **extra))


def _write_csv(path, header, rows):
    """A header line, then one line per row; a cell that is not a string
    is a float, written as its repr, which round-trips exactly, and a
    cell that holds a comma or a quote is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(
            [c if isinstance(c, str) else repr(float(c)) for c in row]
            for row in rows)


def _write_curves(path, curves, named):
    """One CSV row per rC point of each curve, led by the experiment name
    when named; the bound and its error are empty unless the point is ok."""
    _write_csv(path, ("experiment," if named else "")
               + "rc_m,lambda_ub_per_s,error_est,status",
               (([curve.experiment] if named else [])
                + [rc] + ([lam, err] if status == "ok" else ["", ""])
                + [status]
                for curve in curves
                for rc, lam, err, status in zip(
                    curve.rCs, curve.lambda_ub, curve.errors, curve.status)))


def _require(inputs, field, section):
    value = getattr(inputs, field)
    if value is None:
        raise ConfigError(f"missing required section [{section}]")
    return value


def _cmd_spectrum(args, text, inputs):
    cfg = _require(inputs, "optomech", "optomech")
    p = _require(inputs, "collapse", "collapse")
    g = _require(inputs, "geometry", "geometry")
    omegas = _require(inputs, "omega_grid", "grid")
    spec = inputs.quadrature

    spectrum, parts = displacement_dns(cfg, p, g, omegas, spec=spec,
                                       components=True)
    scale = 2.0 if args.one_sided else 1.0

    _write_csv(os.path.join(args.out, "spectrum.csv"),
               "omega_rad_s,total,backaction,thermal,csl",
               zip(spectrum.omegas, *(scale * values for values in (
                   spectrum.values, parts["backaction"], parts["thermal"],
                   parts["csl"]))))

    if args.svg:
        plot = LogLogPlot(xlabel="omega [rad/s]",
                          ylabel="S_xx [m^2 s]", title="displacement noise")
        plot.add_line(spectrum.omegas, scale * spectrum.values, "total")
        for name in ("backaction", "thermal", "csl"):
            plot.add_line(spectrum.omegas, scale * parts[name], name)
        with open(os.path.join(args.out, "spectrum.svg"), "w",
                  encoding="utf-8") as fh:
            fh.write(plot.render())

    s_ff = csl_force_spectrum(g, p, spec=spec)
    _write_manifest(args.out, text, {
        "command": "spectrum",
        "one_sided": bool(args.one_sided),
        "csl_force_psd_n2_s": float(s_ff),
        "csl_force_psd_error": s_ff.error,
        "conversions": inputs.conversions,
    })
    return 0


def _cmd_exclusion(args, text, inputs):
    if not inputs.experiments:
        raise ConfigError("missing required section [experiment]")
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    spec = inputs.quadrature

    curves = []
    for rec, grid in inputs.experiments:
        curves.append(exclusion_scan(rec, grid, spec=spec,
                                     workers=args.threads))

    _write_curves(os.path.join(args.out, "exclusion.csv"), curves,
                  named=True)

    combined = None
    if len(curves) > 1:
        try:
            combined = combine_exclusions(curves)
        except GridMismatch:
            pass   # no combined curve across different grids
        else:
            _write_curves(os.path.join(args.out, "exclusion_combined.csv"),
                          [combined], named=False)

    if args.svg:
        plot = LogLogPlot(xlabel="rC [m]", ylabel="lambda upper bound [1/s]",
                          title="excluded collapse parameters")
        for curve in curves:
            plot.add_shaded_above(curve.rCs, curve.lambda_ub,
                                  curve.experiment)
        if combined is not None:
            plot.add_line(combined.rCs, combined.lambda_ub, "combined")
        with open(os.path.join(args.out, "exclusion.svg"), "w",
                  encoding="utf-8") as fh:
            fh.write(plot.render())

    per_curve = []
    for curve in curves:
        ok = np.array([s == "ok" for s in curve.status])
        per_curve.append({
            "experiment": curve.experiment,
            "points": int(curve.rCs.size),
            "degenerate_points": int(sum(
                s == "degenerate" for s in curve.status)),
            "nonconvergent_points": int(sum(
                s == "nonconvergent" for s in curve.status)),
            "max_rel_quadrature_error": float(np.max(curve.errors[ok]))
            if np.any(ok) else None,
        })
    _write_manifest(args.out, text, {
        "command": "exclusion",
        "workers": args.threads,
        "curves": per_curve,
        "conversions": inputs.conversions,
    })
    return 0


def _cmd_simulate(args, text, inputs):
    cfg = _require(inputs, "optomech", "optomech")
    p = _require(inputs, "collapse", "collapse")
    g = _require(inputs, "geometry", "geometry")
    sim = _require(inputs, "simulation", "simulation")

    result = simulate_langevin(cfg, p, g, sim, spec=inputs.quadrature)
    write_trajectories(os.path.join(args.out, "trajectories.bin"),
                       result, config_text=text)

    _write_csv(os.path.join(args.out, "spectrum_estimate.csv"),
               "omega_rad_s,s_xx_m2_s",
               zip(result.spectrum.omegas, result.spectrum.values))

    summary = {"command": "simulate", "seed": sim.seed, "mode":
               sim.mode, "trajectories": sim.trajectories,
               "steps": sim.steps, "dt_s": sim.dt,
               "force_psd_total_n2_s": result.force_psd_total,
               "conversions": inputs.conversions}
    # discard the transient before comparing moments
    tail = result.xs[:, result.xs.shape[1] // 2:]
    summary["mean_square_displacement_m2"] = float(np.mean(tail ** 2))
    if sim.mode == "free_particle":
        # <x^2>(t) = (S/ m^2) t^3 / 3 for a free particle driven by white
        # force noise; fit the cubic coefficient on the second half
        t = result.times[result.times.size // 2:]
        msd = np.mean(result.xs[:, result.times.size // 2:] ** 2, axis=0)
        coef = float(np.sum(msd * t ** 3) / np.sum(t ** 6))
        summary["cubic_coefficient_fit_m2_s3"] = coef
        summary["cubic_coefficient_expected_m2_s3"] = \
            result.force_psd_total / (3.0 * cfg.m ** 2)
    elif cfg.gamma_m > 0 and result.force_psd_total > 0:
        t_eff = csl_temperature_shift(result.force_psd_total, cfg.m,
                                      cfg.gamma_m)
        expected = CONSTANTS.kB * t_eff / (cfg.m * cfg.omega_m ** 2)
        summary["equipartition_expected_m2"] = expected
        summary["equipartition_ratio"] = \
            summary["mean_square_displacement_m2"] / expected
    _write_json(os.path.join(args.out, "summary.json"), summary)

    _write_manifest(args.out, text, {"command": "simulate",
                                     "seed": sim.seed,
                                     "conversions": inputs.conversions})
    return 0


def _cmd_pointcheck(args, text, inputs):
    if inputs is not None and inputs.collapse is not None:
        p = inputs.collapse
    else:
        p = CollapseParams(GRW_LAMBDA, GRW_RC)
    # a flag given on the command line wins over the config's value
    if args.lam is not None:
        p = replace(p, lam=args.lam)
    if args.rc is not None:
        p = replace(p, rC=args.rc)
    spec = inputs.quadrature if inputs is not None else None
    checks = []

    # 1. point-mass force PSD: adaptive quadrature vs the closed form
    g = Point(CONSTANTS.m0)
    closed = CONSTANTS.hbar ** 2 * p.lam / (2.0 * p.rC ** 2)
    if p.lam == 0.0:
        quad = float(csl_force_spectrum(g, p, spec=spec))
        ok = quad == 0.0 and closed == 0.0
        detail = "both zero at lambda = 0"
    else:
        quad = float(csl_force_spectrum(g, p, spec=spec,
                                        method="quadrature"))
        rel = abs(quad - closed) / closed
        ok = rel < 1e-6
        detail = f"rel err {rel:.2e}"
    checks.append(("point-mass force PSD quadrature vs closed form",
                   ok, detail))

    # 2. free-expansion spread: the collapse term must equal
    # lambda hbar^2 t^3 / (2 m0^2 rC^2)
    t = 1.0
    got = free_expansion_spread(p, t)
    want = p.lam * CONSTANTS.hbar ** 2 * t ** 3 / (2.0 * CONSTANTS.m0 ** 2
                                                   * p.rC ** 2)
    ok = got == want if want == 0.0 else abs(got - want) / want < 1e-12
    checks.append(("free-expansion cubic spread coefficient", ok,
                   f"{got:.6e} m^2 at t = 1 s"))

    # 3. hydrogen-scale heating rate at the conventional reference values
    ref = CollapseParams(GRW_LAMBDA, GRW_RC)
    rate = heating_rate(Point(CONSTANTS.m0), ref, spec=spec)
    ok = 1e-15 <= rate <= 1e-13
    checks.append(("hydrogen-scale heating rate order of magnitude", ok,
                   f"{rate:.3e} K/yr"))

    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail})")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cslbounds",
        description="Collapse-noise spectra, exclusion bounds and "
                    "Langevin simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required,
                        help="path to the INI configuration file")
        sp.add_argument("--out", default=".",
                        help="output directory (default: current)")

    sp = sub.add_parser("spectrum", help="analytic displacement spectrum")
    common(sp)
    sp.add_argument("--svg", action="store_true", help="also write an SVG")
    sp.add_argument("--one-sided", action="store_true",
                    help="emit one-sided spectral densities (x2)")

    sp = sub.add_parser("exclusion", help="lambda upper bound vs rC")
    common(sp)
    sp.add_argument("--svg", action="store_true", help="also write an SVG")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads (default: 1)")

    sp = sub.add_parser("simulate", help="Langevin Monte Carlo")
    common(sp)

    sp = sub.add_parser("pointcheck",
                        help="built-in closed-form sanity checks")
    common(sp, config_required=False)
    sp.add_argument("--lam", type=float, default=None,
                    help="collapse rate [1/s]")
    sp.add_argument("--rc", type=float, default=None,
                    help="correlation length [m]")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        text, inputs = (None, None)
        if args.config is not None:
            text, inputs = load_config(args.config)
        if args.out != "." and not os.path.isdir(args.out):
            os.makedirs(args.out, exist_ok=True)

        if args.command == "spectrum":
            return _cmd_spectrum(args, text, inputs)
        if args.command == "exclusion":
            return _cmd_exclusion(args, text, inputs)
        if args.command == "simulate":
            return _cmd_simulate(args, text, inputs)
        return _cmd_pointcheck(args, text, inputs)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnstableStep as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
