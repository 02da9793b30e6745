"""Span tracing of cslbounds from outside the package.

The tracer replaces public functions of the cslbounds modules with thin
wrappers that record a span (name, start, end, parent, op id) and a few
counters, then restores the originals.  A name imported into several
modules (``from .special import sinc``) is replaced in every module that
holds it, so calls are seen whichever module makes them.  Spans stay in
memory until the run ends; ``per_layer`` turns them into the metrics
listed in ``PER_LAYER``.
"""

import functools
import gzip
import json
import os
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("config", "geometry", "special", "quadrature", "cslnoise",
          "exclusion", "optomech", "svgplot", "cli")
SPECIAL = ("sinc", "sinc_prime", "jinc", "jinc_prime", "bessel_j1",
           "sphere_kernel")
K3_ROUTES = ("isotropic", "axial", "none")
ENTRIES = ("csl_force_spectrum", "csl_force_spectrum_two_body",
           "csl_torque_spectrum")
PAIR_SUMS = ("force_pair_kernel_sum", "two_body_pair_kernel_sum",
             "torque_pair_kernel_sum")
# bytes materialised per pair, counted from the block shapes in cslnoise:
# one (chunk, N, 3) float64 displacement block and one (chunk, N) float64
# kernel matrix per kernel evaluation (the two-body sum evaluates three
# shifted kernels).  A computed figure, not a measured one.
PAIR_BYTES = {"force_pair_kernel_sum": 24 + 8,
              "torque_pair_kernel_sum": 24 + 8,
              "two_body_pair_kernel_sum": 3 * (24 + 8)}
# (entry, geometry) routes the four workloads take; a route outside this
# list is still traced and shows up in the span file.
ROUTES = (
    ("csl_force_spectrum", "Point"),
    ("csl_force_spectrum", "Sphere"),
    ("csl_force_spectrum", "Cuboid"),
    ("csl_force_spectrum", "Cylinder"),
    ("csl_force_spectrum", "Multilayer"),
    ("csl_force_spectrum", "PointLattice"),
    ("csl_force_spectrum_two_body", "Cuboid"),
    ("csl_force_spectrum_two_body", "Multilayer"),
    ("csl_force_spectrum_two_body", "Sphere"),
    ("csl_force_spectrum_two_body", "Cylinder"),
    ("csl_force_spectrum_two_body", "PointLattice"),
    ("csl_torque_spectrum", "Cuboid"),
    ("csl_torque_spectrum", "Cylinder"),
    ("csl_torque_spectrum", "Multilayer"),
    ("csl_torque_spectrum", "PointLattice"),
)
CLI_TIMES = ("cli_spectrum_s", "cli_exclusion_s", "cli_exclusion_threads2_s",
             "cli_simulate_s", "cli_pointcheck_s")


def _per_layer_names():
    out = []
    q1 = "quadrature.integrate_1d"
    out += [(f"{q1}.calls", "count"), (f"{q1}.rounds", "count"),
            (f"{q1}.points", "count"), (f"{q1}.self_s", "s"),
            (f"{q1}.points_per_call", "count")]
    for route in K3_ROUTES:
        k3 = f"quadrature.integrate_k3.{route}"
        out += [(f"{k3}.calls", "count"), (f"{k3}.points", "count"),
                (f"{k3}.self_s", "s")]
    out.append(("quadrature.integrate_k3.none.max_points_per_call", "count"))
    for fn in ("form_factor", "form_factor_angular_derivative"):
        out += [(f"geometry.{fn}.calls", "count"),
                (f"geometry.{fn}.points", "count"),
                (f"geometry.{fn}.self_s", "s")]
    for fn in SPECIAL:
        out += [(f"special.{fn}.calls", "count"),
                (f"special.{fn}.points", "count")]
    out += [("special.self_s", "s"), ("special.ns_per_point", "ns")]
    for entry, geom in ROUTES:
        out += [(f"cslnoise.{entry}.{geom}.calls", "count"),
                (f"cslnoise.{entry}.{geom}.self_s", "s")]
    ps = "cslnoise.pair_sum"
    out += [(f"{ps}.calls", "count"), (f"{ps}.pairs", "count"),
            (f"{ps}.self_s", "s"), (f"{ps}.pairs_per_s", "1/s"),
            (f"{ps}.bytes_computed", "B")]
    out += [(f"exclusion.points.{k}", "count")
            for k in ("attempted", "ok", "degenerate", "nonconvergent",
                      "error")]
    out += [("exclusion.exclusion_scan.self_s", "s"),
            ("exclusion.pool_overhead_s", "s")]
    out += [("optomech.simulate_langevin.self_s", "s"),
            ("optomech.simulate_langevin.steps_per_s", "1/s"),
            ("optomech.welch_s", "s"),
            ("optomech.write_trajectories.bytes", "B"),
            ("optomech.write_trajectories.s", "s"),
            ("optomech.displacement_dns_s", "s")]
    out += [("config.load_config_s", "s"), ("svgplot.render_s", "s"),
            ("import.cslbounds_s", "s"), ("import.scipy.signal_s", "s"),
            ("import.scipy.special_s", "s")]
    out += [(name, "s") for name in CLI_TIMES]
    out += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    out += [("trace.spans", "count"), ("trace.overhead_s", "s")]
    return out


PER_LAYER = _per_layer_names()


def _layer_of(fn):
    mod = getattr(fn, "__module__", "") or ""
    if mod.startswith("cslbounds."):
        return mod.split(".")[1]
    return "other"


class Tracer:
    """Records spans around calls into cslbounds while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.stack = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.op = None
        self._undo = []

    # -- span bookkeeping -------------------------------------------------
    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- installation -----------------------------------------------------
    def _replace(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cslbounds"
                                   or modname.startswith("cslbounds.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _wrap(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make(original))
        self._replace(original, wrapper)

    def install(self):
        from cslbounds import (cli, config, cslnoise, exclusion, geometry,
                               optomech, quadrature, special, svgplot)
        tr = self

        def counted(name, points_of):
            def make(orig):
                def wrapper(*args, **kwargs):
                    tr.counts[name + ".calls"] += 1
                    tr.counts[name + ".points"] += points_of(args, kwargs)
                    return tr.call(name, orig, *args, **kwargs)
                return wrapper
            return make

        def first_size(args, kwargs):
            return np.size(args[0]) if args else 0

        def k_size(args, kwargs):
            k = args[1] if len(args) > 1 else kwargs["k"]
            return np.size(k) // 3

        for fn in SPECIAL:
            self._wrap(special, fn, counted(f"special.{fn}", first_size))
        for fn in ("form_factor", "form_factor_angular_derivative"):
            self._wrap(geometry, fn, counted(f"geometry.{fn}", k_size))

        def integrate_1d(orig):
            def wrapper(f, *args, **kwargs):
                key = "quadrature.integrate_1d"
                inner = f"{_layer_of(f)}.integrand"

                def integrand(x):
                    tr.counts[key + ".rounds"] += 1
                    tr.counts[key + ".points"] += np.size(x)
                    return tr.call(inner, f, x)

                tr.counts[key + ".calls"] += 1
                return tr.call(key, orig, integrand, *args, **kwargs)
            return wrapper

        def integrate_k3(orig):
            def wrapper(f, rC, spec=None, symmetry="none",
                        oscillation_scale=None):
                key = f"quadrature.integrate_k3.{symmetry}"
                inner = f"{_layer_of(f)}.k3_integrand"
                seen = [0]

                def integrand(*xs):
                    seen[0] += np.size(xs[0])
                    tr.counts[key + ".points"] += np.size(xs[0])
                    return tr.call(inner, f, *xs)

                tr.counts[key + ".calls"] += 1
                try:
                    return tr.call(key, orig, integrand, rC, spec, symmetry,
                                   oscillation_scale)
                finally:
                    tr.maxima[key + ".max_points_per_call"] = max(
                        tr.maxima[key + ".max_points_per_call"], seen[0])
            return wrapper

        self._wrap(quadrature, "integrate_1d", integrate_1d)
        self._wrap(quadrature, "integrate_k3", integrate_k3)

        def entry(name):
            def make(orig):
                def wrapper(g, *args, **kwargs):
                    geom = g.unit if name.endswith("two_body") and hasattr(
                        g, "unit") else g
                    label = f"cslnoise.{name}.{type(geom).__name__}"
                    tr.counts[label + ".calls"] += 1
                    return tr.call(label, orig, g, *args, **kwargs)
                return wrapper
            return make

        for name in ENTRIES:
            self._wrap(cslnoise, name, entry(name))

        def pair_sum(name):
            def make(orig):
                def wrapper(positions, masses, *args, **kwargs):
                    n = np.size(masses)
                    tr.counts["cslnoise.pair_sum.calls"] += 1
                    tr.counts["cslnoise.pair_sum.pairs"] += n * n
                    tr.counts["cslnoise.pair_sum.bytes_computed"] += \
                        n * n * PAIR_BYTES[name]
                    return tr.call("cslnoise.pair_sum", orig, positions,
                                   masses, *args, **kwargs)
                return wrapper
            return make

        for name in PAIR_SUMS:
            self._wrap(cslnoise, name, pair_sum(name))

        def lambda_upper_bound(orig):
            def wrapper(*args, **kwargs):
                tr.counts["exclusion.points.attempted"] += 1
                try:
                    out = tr.call("exclusion.lambda_upper_bound", orig,
                                  *args, **kwargs)
                except exclusion.DegenerateBound:
                    tr.counts["exclusion.points.degenerate"] += 1
                    raise
                except quadrature.NonConvergence:
                    tr.counts["exclusion.points.nonconvergent"] += 1
                    raise
                except Exception:
                    tr.counts["exclusion.points.error"] += 1
                    raise
                tr.counts["exclusion.points.ok"] += 1
                return out
            return wrapper

        def scan_point(orig):
            def wrapper(job):
                rec, rC = job[0], job[1]
                outer, tr.op = tr.op, f"{rec.name}@{rC:.6g}"
                try:
                    return tr.call("exclusion.scan_point", orig, job)
                finally:
                    tr.op = outer
            return wrapper

        def exclusion_scan(orig):
            def wrapper(rec, rCs=None, spec=None, consts=None, workers=1):
                kwargs = {} if consts is None else {"consts": consts}
                curve = tr.call("exclusion.exclusion_scan", orig, rec, rCs,
                                spec=spec, workers=workers, **kwargs)
                if workers > 1:
                    # points ran in worker processes, out of the tracer's
                    # sight; count them from the returned curve
                    for status in curve.status:
                        tr.counts["exclusion.points.attempted"] += 1
                        tr.counts[f"exclusion.points.{status}"] += 1
                return curve
            return wrapper

        self._wrap(exclusion, "lambda_upper_bound", lambda_upper_bound)
        self._wrap(exclusion, "_scan_point", scan_point)
        self._wrap(exclusion, "exclusion_scan", exclusion_scan)

        def simulate(orig):
            def wrapper(cfg, p, g, sim, *args, **kwargs):
                tr.counts["optomech.simulate_langevin.steps"] += \
                    sim.trajectories * sim.steps
                return tr.call("optomech.simulate_langevin", orig, cfg, p, g,
                               sim, *args, **kwargs)
            return wrapper

        def write_trajectories(orig):
            def wrapper(path, *args, **kwargs):
                out = tr.call("optomech.write_trajectories", orig, path,
                              *args, **kwargs)
                tr.counts["optomech.write_trajectories.bytes"] += \
                    os.path.getsize(path)
                return out
            return wrapper

        def plain(name):
            def make(orig):
                def wrapper(*args, **kwargs):
                    return tr.call(name, orig, *args, **kwargs)
                return wrapper
            return make

        self._wrap(optomech, "simulate_langevin", simulate)
        self._wrap(optomech, "write_trajectories", write_trajectories)
        self._wrap(optomech, "displacement_dns",
                   plain("optomech.displacement_dns"))
        self._wrap(optomech, "welch", plain("optomech.welch"))
        self._wrap(config, "load_config", plain("config.load_config"))
        self._wrap(cli, "main", plain("cli.main"))

        render = svgplot.LogLogPlot.render
        svgplot.LogLogPlot.render = functools.wraps(render)(
            lambda plot: tr.call("svgplot.render", render, plot))
        self._undo.append((svgplot.LogLogPlot, "render", render))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def dump(self, path):
        dump(path, self.spans, self.counts, self.maxima)


def dump(path, spans, counts, maxima):
    """Write spans and counters as gzipped JSON."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": spans, "counts": dict(counts),
                   "maxima": dict(maxima)}, fh)


def load(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    return data["spans"], data["counts"], data["maxima"]


def span_times(spans):
    """(duration, self time) per span; self excludes child spans."""
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    return dur, dur - child


def per_layer(spans, counts, maxima):
    """Per-layer metrics from one traced round (or several merged).

    spans from separate processes may be concatenated as long as each
    parent index points into the same list.
    """
    dur, self_t = span_times(spans)
    names = [s[0] for s in spans]
    by_name_self = defaultdict(float)
    by_name_dur = defaultdict(float)
    for n, d, st in zip(names, dur, self_t):
        by_name_self[n] += st
        by_name_dur[n] += d

    out = {name: 0.0 for name, _ in PER_LAYER}
    for key in ("quadrature.integrate_1d.calls",
                "quadrature.integrate_1d.rounds",
                "quadrature.integrate_1d.points"):
        out[key] = counts.get(key, 0.0)
    out["quadrature.integrate_1d.self_s"] = \
        by_name_self["quadrature.integrate_1d"]
    if out["quadrature.integrate_1d.calls"]:
        out["quadrature.integrate_1d.points_per_call"] = \
            out["quadrature.integrate_1d.points"] \
            / out["quadrature.integrate_1d.calls"]

    # integrate_k3 self time: its span minus the user integrand inside it
    k3_of = {}
    for i, n in enumerate(names):
        if n.startswith("quadrature.integrate_k3."):
            k3_of[i] = n.rsplit(".", 1)[1]
    k3_in_f = defaultdict(float)
    for i, n in enumerate(names):
        if n.endswith(".k3_integrand"):
            j = spans[i][3]
            while j >= 0 and j not in k3_of:
                j = spans[j][3]
            if j >= 0:
                k3_in_f[k3_of[j]] += dur[i]
    for route in K3_ROUTES:
        key = f"quadrature.integrate_k3.{route}"
        out[key + ".calls"] = counts.get(key + ".calls", 0.0)
        out[key + ".points"] = counts.get(key + ".points", 0.0)
        out[key + ".self_s"] = by_name_dur[key] - k3_in_f[route]
    out["quadrature.integrate_k3.none.max_points_per_call"] = maxima.get(
        "quadrature.integrate_k3.none.max_points_per_call", 0.0)

    for fn in ("form_factor", "form_factor_angular_derivative"):
        key = f"geometry.{fn}"
        out[key + ".calls"] = counts.get(key + ".calls", 0.0)
        out[key + ".points"] = counts.get(key + ".points", 0.0)
        out[key + ".self_s"] = by_name_self[key]
    special_points = 0.0
    for fn in SPECIAL:
        key = f"special.{fn}"
        out[key + ".calls"] = counts.get(key + ".calls", 0.0)
        out[key + ".points"] = counts.get(key + ".points", 0.0)
        special_points += out[key + ".points"]
    out["special.self_s"] = sum(v for k, v in by_name_self.items()
                                if k.startswith("special."))
    if special_points:
        out["special.ns_per_point"] = 1e9 * out["special.self_s"] \
            / special_points
    for entry, geom in ROUTES:
        key = f"cslnoise.{entry}.{geom}"
        out[key + ".calls"] = counts.get(key + ".calls", 0.0)
        out[key + ".self_s"] = by_name_self[key]

    ps = "cslnoise.pair_sum"
    for k in ("calls", "pairs", "bytes_computed"):
        out[f"{ps}.{k}"] = counts.get(f"{ps}.{k}", 0.0)
    out[f"{ps}.self_s"] = by_name_self[ps]
    if out[f"{ps}.self_s"] > 0:
        out[f"{ps}.pairs_per_s"] = out[f"{ps}.pairs"] / out[f"{ps}.self_s"]

    for k in ("attempted", "ok", "degenerate", "nonconvergent", "error"):
        out[f"exclusion.points.{k}"] = counts.get(f"exclusion.points.{k}",
                                                  0.0)
    out["exclusion.exclusion_scan.self_s"] = \
        by_name_self["exclusion.exclusion_scan"]

    sim_self = by_name_self["optomech.simulate_langevin"]
    out["optomech.simulate_langevin.self_s"] = sim_self
    if sim_self > 0:
        out["optomech.simulate_langevin.steps_per_s"] = counts.get(
            "optomech.simulate_langevin.steps", 0.0) / sim_self
    out["optomech.welch_s"] = by_name_dur["optomech.welch"]
    out["optomech.write_trajectories.bytes"] = counts.get(
        "optomech.write_trajectories.bytes", 0.0)
    out["optomech.write_trajectories.s"] = \
        by_name_dur["optomech.write_trajectories"]
    out["optomech.displacement_dns_s"] = \
        by_name_dur["optomech.displacement_dns"]
    out["config.load_config_s"] = by_name_dur["config.load_config"]
    out["svgplot.render_s"] = by_name_dur["svgplot.render"]

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in by_name_self.items()
            if k.split(".", 1)[0] == layer)
    out["trace.spans"] = float(len(spans))
    return out


def import_times(python, env):
    """Cumulative import seconds of cslbounds, scipy.signal and
    scipy.special in a fresh interpreter, from ``python -X importtime``."""
    proc = subprocess.run([python, "-X", "importtime", "-c",
                           "import cslbounds"], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    wanted = {"cslbounds": "import.cslbounds_s",
              "scipy.signal": "import.scipy.signal_s",
              "scipy.special": "import.scipy.special_s"}
    out = {v: 0.0 for v in wanted.values()}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in wanted:
            try:
                out[wanted[parts[2]]] = int(parts[1]) * 1e-6
            except ValueError:
                pass
    return out
