"""Seeded inputs and op runners for the four workloads.

A run's ``--seed`` picks one of VARIANTS input variants; each variant
jitters the rC grids, body dimensions, lattice positions and the
simulation seed by a fixed recipe, so every variant has a stored
reference (reference/<workload>.json, written by make_reference.py).

An op returns a dict with its id, status, value, relative error, start
time and latency.  The runners calibrate the machine's speed between
timed units (speed.py), and run.py scales each latency by it.  Status
is "ok", "degenerate", "nonconvergent" or "error:<ExceptionName>"; the
workload catches each op's own exception so one failure does not end
the run.
"""

import configparser
import dataclasses
import os
import resource
import subprocess
import sys
import time
import zlib

import numpy as np

VARIANTS = 8
JITTER = 0.02            # +-2 % on every jittered dimension
WORKLOADS = ("scan_1d", "scan_3d", "lattice_pairs", "cli")
# scan_3d runs under this address-space cap; the small-rC generic-3D
# points exceed it and fail with MemoryError (a known defect kept visible).
# 768 MiB sits between the caps (about 600 and 950 MiB) at which the
# multilayer torque point's time to fail jumps, so a few MB more or less
# in the process does not move the workload's timings.
SCAN_3D_CAP_BYTES = 768 << 20
BAND = (1e3, 2e3)
TILT = (0.3, 0.4, 0.866)


def variant_of(seed):
    return seed % VARIANTS


def _rng(workload, variant):
    return np.random.default_rng([variant, zlib.crc32(workload.encode())])


def _jit(rng):
    return 1.0 + JITTER * rng.uniform(-1.0, 1.0)


def jitter_geometry(g, rng):
    """Scale every float field of a geometry dataclass (and of a TwoBody's
    unit) by its own jitter factor; axes and layer counts stay."""
    changes = {}
    for f in dataclasses.fields(g):
        v = getattr(g, f.name)
        if isinstance(v, float):
            changes[f.name] = v * _jit(rng)
        elif dataclasses.is_dataclass(v):
            changes[f.name] = jitter_geometry(v, rng)
    return dataclasses.replace(g, **changes)


def _grid(lo, hi, n):
    return np.logspace(np.log10(lo), np.log10(hi), n)


def _status(exc):
    from cslbounds import DegenerateBound, NonConvergence
    if isinstance(exc, DegenerateBound):
        return "degenerate"
    if isinstance(exc, NonConvergence):
        return "nonconvergent"
    return f"error:{type(exc).__name__}"


def _finite(x):
    x = float(x)
    return x if np.isfinite(x) else None


# ---------------------------------------------------------------------------
# scan_1d: serial exclusion_scans on the 1D / axial / isotropic routes

def build_scan_1d(variant, root):
    from cslbounds import (Cuboid, Cylinder, ExperimentRecord, Multilayer,
                           Sphere, TwoBody, QuadratureSpec)
    from cslbounds.config import load_config
    rng = _rng("scan_1d", variant)
    exps = []
    for name in ("cantilever_sphere", "cylinder_rotational",
                 "space_two_body"):
        _, inputs = load_config(os.path.join(root, "configs", name + ".ini"))
        for rec, grid in inputs.experiments:
            exps.append((rec, grid, inputs.quadrature))
    spec = QuadratureSpec()
    g41 = _grid(1e-9, 1e-4, 41)
    exps += [
        (ExperimentRecord("cuboid_torque", Cuboid(1e-12, 1e-6, 2e-6, 3e-6),
                          "torque", 1e-40, BAND), g41, spec),
        (ExperimentRecord("multilayer_z_force",
                          Multilayer(6, 2e-7, 3e-7, 19300.0, 2330.0, 1e-5,
                                     1e-5, "z"), "force", 1e-30, BAND),
         g41, spec),
        # 201 cheap points put the median op inside one latency cluster
        (ExperimentRecord("tilted_cylinder_force",
                          Cylinder(1e-14, 1e-7, 1e-6, axis=TILT), "force",
                          1e-30, BAND), _grid(1e-9, 1e-4, 201), spec),
        (ExperimentRecord("transverse_cylinder_torque",
                          Cylinder(1e-14, 2e-7, 2e-6, axis=(0.0, 1.0, 0.0)),
                          "torque", 1e-40, BAND), g41, spec),
        (ExperimentRecord("multilayer_x_two_body",
                          TwoBody(Multilayer(4, 2e-7, 3e-7, 19300.0, 2330.0,
                                             1e-5, 1e-5, "x"), 5e-6),
                          "force_two_body", 1e-30, BAND), g41, spec),
        (ExperimentRecord("sphere_two_body_axial",
                          TwoBody(Sphere(1e-12, 5e-7), 3e-6),
                          "force_two_body", 1e-30, BAND),
         _grid(1e-7, 1e-4, 15), spec),
    ]
    return [(dataclasses.replace(rec, geometry=jitter_geometry(rec.geometry,
                                                               rng)),
             grid * _jit(rng), spec) for rec, grid, spec in exps]


class PointTimer:
    """Times each rC point of an exclusion_scan by wrapping the scan's
    per-point function; costs two clock reads per point."""

    def __init__(self):
        self.starts, self.latencies = [], []

    def __enter__(self):
        from cslbounds import exclusion
        self._orig = orig = exclusion._scan_point
        starts, lat = self.starts, self.latencies

        def timed(job):
            t0 = time.perf_counter()
            try:
                return orig(job)
            finally:
                lat.append(time.perf_counter() - t0)
                starts.append(t0)

        exclusion._scan_point = timed
        return self

    def __exit__(self, *exc):
        from cslbounds import exclusion
        exclusion._scan_point = self._orig


# Each round scans every experiment in SCAN_PASSES interleaved passes
# over its grid (pass j takes points j, j + SCAN_PASSES, ...; the points
# of a scan are independent).  The ops near the median all come from one
# 0.1 s scan: run in one piece, their latencies in a round all followed
# the machine's speed in that one tenth of a second.
SCAN_PASSES = 4


def run_scan_1d(exps, speed):
    """One round; the speed is sampled between passes."""
    from cslbounds import exclusion
    results = []
    speed.tick()
    for j in range(SCAN_PASSES):
        for rec, grid, spec in exps:
            index = range(j, len(grid), SCAN_PASSES)
            t0 = time.perf_counter()
            try:
                with PointTimer() as timer:
                    curve = exclusion.exclusion_scan(rec, grid[j::SCAN_PASSES],
                                                     spec=spec)
            except Exception as exc:   # the scan fails as a whole
                share = (time.perf_counter() - t0) / len(index)
                results += [{"op": f"{rec.name}[{i}]",
                             "status": _status(exc), "value": None,
                             "error": None, "start": t0 + k * share,
                             "latency": share, "rel_tol": spec.rel_tol}
                            for k, i in enumerate(index)]
                continue
            for k, i in enumerate(index):
                results.append({
                    "op": f"{rec.name}[{i}]", "status": curve.status[k],
                    "value": _finite(curve.lambda_ub[k]),
                    "error": _finite(curve.errors[k]),
                    "start": timer.starts[k],
                    "latency": timer.latencies[k], "rel_tol": spec.rel_tol})
        speed.tick()
    return results


# ---------------------------------------------------------------------------
# scan_3d: lambda_upper_bound point by point on the generic 3D route

def build_scan_3d(variant, root):
    from cslbounds import (Cylinder, ExperimentRecord, Multilayer,
                           QuadratureSpec, TwoBody)
    rng = _rng("scan_3d", variant)
    cyl = Cylinder(1e-14, 1e-7, 1e-6, axis=TILT)
    ml = Multilayer(4, 2e-7, 3e-7, 19300.0, 2330.0, 1e-6, 1e-6, "z")
    base = [
        (ExperimentRecord("tilted_cylinder_torque", cyl, "torque", 1e-40,
                          BAND),
         [1e-8, 3e-8, 1e-7, 2e-7, 3e-7, 5e-7, 1e-6, 2e-6, 5e-6, 1e-5]),
        (ExperimentRecord("tilted_cylinder_two_body", TwoBody(cyl, 1e-6),
                          "force_two_body", 1e-30, BAND),
         [3e-8, 1e-7, 3e-7, 1e-6, 1e-5]),
        (ExperimentRecord("multilayer_torque", ml, "torque", 1e-40, BAND),
         [1e-7, 3e-7, 1e-6, 3e-6]),
    ]
    spec = QuadratureSpec()
    ops = []
    for rec, rcs in base:
        rec = dataclasses.replace(rec, geometry=jitter_geometry(rec.geometry,
                                                                rng))
        for i, rc in enumerate(rcs):
            ops.append((f"{rec.name}[{i}]", rec, rc * _jit(rng), spec))
    return ops


def run_scan_3d(ops, speed, tracer=None):
    """One round; the speed is sampled between ops."""
    from cslbounds import exclusion
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (SCAN_3D_CAP_BYTES, hard))
    results = []
    try:
        speed.tick()
        for op_id, rec, rc, spec in ops:
            if tracer is not None:
                tracer.op = op_id
            value = err = None
            t0 = time.perf_counter()
            try:
                value, err = exclusion.lambda_upper_bound(rec, rc, spec)
                status = "ok"
            except Exception as exc:   # each op owns its failure
                status = _status(exc)
            latency = time.perf_counter() - t0
            results.append({"op": op_id, "status": status,
                            "value": None if value is None else float(value),
                            "error": None if err is None else float(err),
                            "start": t0, "latency": latency,
                            "rel_tol": spec.rel_tol})
            speed.tick()
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return results


# ---------------------------------------------------------------------------
# lattice_pairs: closed-form pair kernels of a jittered cubic lattice

LATTICE_SIDE = 16          # N = 16^3 = 4096 points


def build_lattice_pairs(variant, root):
    from cslbounds import PointLattice, TwoBody
    rng = _rng("lattice_pairs", variant)
    spacing = 1e-7 * _jit(rng)
    idx = np.arange(LATTICE_SIDE, dtype=float)
    grid = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    pos = (grid - grid.mean(axis=0)) * spacing
    pos += rng.normal(scale=0.05 * spacing, size=pos.shape)
    masses = 1e-20 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, len(pos)))
    lat = PointLattice(pos, masses)
    pair = TwoBody(lat, 5e-7 * _jit(rng))
    ops = []
    for i, rc in enumerate(np.array([3e-8, 1e-7]) * _jit(rng)):
        ops += [(f"force[{i}]", "force", lat, rc),
                (f"torque[{i}]", "torque", lat, rc),
                (f"two_body[{i}]", "two_body", pair, rc)]
    return ops


def run_lattice_pairs(ops, speed, tracer=None):
    """One round; the speed is sampled between ops."""
    from cslbounds import CollapseParams, cslnoise
    fns = {"force": lambda g, p: cslnoise.csl_force_spectrum(g, p),
           "torque": lambda g, p: cslnoise.csl_torque_spectrum(g, p),
           "two_body": lambda g, p: cslnoise.csl_force_spectrum_two_body(
               g, p)}
    results = []
    speed.tick()
    for op_id, kind, g, rc in ops:
        if tracer is not None:
            tracer.op = op_id
        value = err = None
        t0 = time.perf_counter()
        try:
            s = fns[kind](g, CollapseParams(1.0, rc))
            value = float(s)
            err = abs(s.error / value) if value else 0.0
            status = "ok"
        except Exception as exc:
            status = _status(exc)
        latency = time.perf_counter() - t0
        results.append({"op": op_id, "status": status, "value": value,
                        "error": err, "start": t0, "latency": latency,
                        "rel_tol": 1e-6})
        speed.tick()
    return results


# ---------------------------------------------------------------------------
# cli: every command in a fresh interpreter on the shipped configs

CONFIGS = ("cantilever_sphere", "cylinder_rotational", "space_two_body")


def write_cli_configs(variant, root, workdir):
    """Jittered copies of the shipped configs: the experiment rC grid and
    body dimensions and the simulation seed change with the variant; the
    [geometry] section (spectrum and simulate) stays as shipped."""
    rng = _rng("cli", variant)
    paths = {}
    os.makedirs(workdir, exist_ok=True)
    for name in CONFIGS:
        cp = configparser.ConfigParser(interpolation=None)
        with open(os.path.join(root, "configs", name + ".ini"),
                  encoding="utf-8") as fh:
            cp.read_string(fh.read())
        for sec in cp.sections():
            if not sec.startswith("experiment"):
                continue
            shift = _jit(rng)
            for key in list(cp[sec]):
                if key.startswith("rc_m"):
                    cp[sec][key] = repr(float(cp[sec][key]) * shift)
                elif key.startswith("geometry_") and not key.endswith(
                        ("_type", "_axis", "_count")):
                    cp[sec][key] = repr(float(cp[sec][key]) * _jit(rng))
        if cp.has_section("simulation"):
            cp["simulation"]["seed"] = str(12345 + variant)
        path = os.path.join(workdir, name + ".ini")
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        paths[name] = path
    return paths


def cli_commands(paths):
    """(op id, cli arguments) in run order."""
    cmds = [("spectrum", ["spectrum", "--config", paths["cantilever_sphere"]])]
    for i, name in enumerate(CONFIGS):
        args = ["exclusion", "--config", paths[name], "--threads", "1"]
        if i == 0:
            args.append("--svg")
        cmds.append((f"exclusion:{name}", args))
    cmds.append(("exclusion_threads2:cylinder_rotational",
                 ["exclusion", "--config", paths["cylinder_rotational"],
                  "--threads", "2"]))
    # simulate twice: the determinism pair, and the slowest command gets
    # twice the samples
    cmds += 2 * [("simulate",
                  ["simulate", "--config", paths["cantilever_sphere"]])]
    cmds.append(("pointcheck",
                 ["pointcheck", "--config", paths["cantilever_sphere"]]))
    return cmds


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli_command(op_id, args, outdir, root, trace_path=None):
    """Run one command in a fresh interpreter; returns (exit code or
    "timeout", start, latency, output).  With trace_path the command runs under
    the tracer shim, which writes its spans there."""
    os.makedirs(outdir, exist_ok=True)
    env = child_env(root)
    if trace_path is None:
        argv = [sys.executable, "-m", "cslbounds.cli"]
    else:
        argv = [sys.executable, os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "cli_child.py"), trace_path, op_id]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv + args + ["--out", outdir], env=env,
                              capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return "timeout", t0, time.perf_counter() - t0, ""
    latency = time.perf_counter() - t0
    return proc.returncode, t0, latency, proc.stdout + proc.stderr
