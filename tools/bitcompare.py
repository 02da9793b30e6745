"""Compare this working tree's outputs with a revision's, bit for bit.

    python tools/bitcompare.py REV

Checks REV out into a temporary git worktree (no network) and runs the
same inputs in two fresh interpreters, one on REV's src/ and one on
this tree's, then prints every entry whose float.hex or bytes differ:

- every cell of cslnoise._ROUTES under both methods, with float and
  numpy-scalar parameters, on the bodies of tests/test_routes.py;
- every scan_1d, scan_3d and lattice_pairs op of variants 0-7, built by
  perfbench/workloads.py (scan_3d under its address-space cap);
- the shipped cli commands of the cli workload on configs/: exit code,
  output, and each line of every file written (manifest.json without
  its timestamp; a binary file by its SHA-256).

Only src/ comes from REV: both interpreters read this tree's configs/,
tests/test_routes.py and perfbench/workloads.py.  An edit to a shipped
config therefore never shows as a difference, and a config that REV
cannot parse shows as REV's cli exit codes and messages.

An exception is an entry too.  Exits 0 when nothing differs, 1 when
something does, 2 when REV names no commit or a run fails; the worktree
is removed in every case.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def outcome(f, *args, **kwargs):
    """The float.hex of f's value and error (a pair, or a SpectralValue),
    or the exception it raises: a failure is an output to compare."""
    try:
        s = f(*args, **kwargs)
    except Exception as exc:   # MemoryError under scan_3d's cap, too
        return f"raise {type(exc).__name__}: {exc}"
    value, error = s if isinstance(s, tuple) else (s, s.error)
    return f"{float(value).hex()} {float(error).hex()}"


def routes():
    import numpy as np
    from cslbounds import (CollapseParams, TwoBody, csl_force_spectrum,
                           csl_force_spectrum_two_body, csl_torque_spectrum,
                           cslnoise)
    from test_routes import A, BODIES
    spectra = {"force": csl_force_spectrum, "torque": csl_torque_spectrum}
    out = {}
    for cls, channel in cslnoise._ROUTES:
        for kind, p in (("float", CollapseParams(1.0, 1e-6)), ("numpy",
                        CollapseParams(np.float64(1.0), np.float64(1e-6)))):
            key = f"route {cls.__name__}-{channel} {{}} {kind}"
            if channel == "two_body":   # no quadrature method
                out[key.format("auto")] = outcome(
                    csl_force_spectrum_two_body, TwoBody(BODIES[cls], A), p)
                continue
            for method in ("auto", "quadrature"):
                out[key.format(method)] = outcome(
                    spectra[channel], BODIES[cls], p, method=method)
    return out


def workloads(wl):
    from cslbounds import CollapseParams, cslnoise, exclusion
    spectra = {"force": cslnoise.csl_force_spectrum,
               "torque": cslnoise.csl_torque_spectrum,
               "two_body": cslnoise.csl_force_spectrum_two_body}
    out = {}
    for v in range(wl.VARIANTS):
        for rec, grid, spec in wl.build_scan_1d(v, ROOT):
            curve = exclusion.exclusion_scan(rec, grid, spec=spec)
            for i, (lam, err, status) in enumerate(zip(
                    curve.lambda_ub, curve.errors, curve.status)):
                out[f"scan_1d {v} {rec.name}[{i}]"] = \
                    f"{status} {lam.hex()} {err.hex()}"
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (wl.SCAN_3D_CAP_BYTES, hard))
        try:
            for op, rec, rc, spec in wl.build_scan_3d(v, ROOT):
                out[f"scan_3d {v} {op}"] = outcome(
                    exclusion.lambda_upper_bound, rec, rc, spec)
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        for op, kind, g, rc in wl.build_lattice_pairs(v, ROOT):
            out[f"lattice_pairs {v} {op}"] = outcome(
                spectra[kind], g, CollapseParams(1.0, rc))
    return out


def cli_runs(wl, outdir):
    """Each distinct cli command of the cli workload, on the shipped
    configs, in process."""
    from cslbounds import cli
    paths = {name: os.path.join(ROOT, "configs", name + ".ini")
             for name in wl.CONFIGS}
    out = {}
    for op, args in dict(wl.cli_commands(paths)).items():
        target = os.path.join(outdir, op.replace(":", "-"))
        text = io.StringIO()
        with contextlib.redirect_stdout(text), \
                contextlib.redirect_stderr(text):
            out[f"cli {op} exit"] = str(cli.main(args + ["--out", target]))
        out[f"cli {op} output"] = text.getvalue()
        for name in sorted(os.listdir(target)):
            with open(os.path.join(target, name), "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                data = json.loads(data)
                data.pop("created_utc", None)
                data = json.dumps(data, indent=1, sort_keys=True).encode()
            try:
                lines = data.decode().splitlines()
            except UnicodeDecodeError:
                lines = [f"SHA-256 {hashlib.sha256(data).hexdigest()}, "
                         f"{len(data)} bytes"]
            for n, line in enumerate(lines, 1):
                out[f"cli {op} {name}:{n}"] = line
    return out


def dump(src, outdir):
    """The child: every entry of the cslbounds under src, as JSON."""
    import cslbounds
    if not cslbounds.__file__.startswith(os.path.join(src, "")):
        print(f"error: cslbounds loaded from {cslbounds.__file__}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "perfbench"),
                    os.path.join(ROOT, "tests")]
    import workloads as wl
    with open(os.path.join(outdir, "entries.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**routes(), **workloads(wl), **cli_runs(wl, outdir)}, fh)
    return 0


def run_side(src, outdir):
    """The entries of a fresh interpreter on src."""
    os.makedirs(outdir)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--dump", src, outdir], env=env,
                          cwd=outdir).returncode
    if code:
        raise RuntimeError(f"the run on {src} exited {code}")
    with open(os.path.join(outdir, "entries.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True)


def main(argv):
    if len(argv) == 4 and argv[1] == "--dump":
        return dump(argv[2], argv[3])
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = git("rev-parse", "--verify", "--quiet", argv[1] + "^{commit}")
    if rev.returncode:
        print(f"error: {argv[1]!r} names no commit", file=sys.stderr)
        return 2
    commit = rev.stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bitcompare-") as tmp:
        worktree = os.path.join(tmp, "rev")
        try:
            added = git("worktree", "add", "--detach", worktree, commit)
            if added.returncode:
                print(f"error: {added.stderr.strip()}", file=sys.stderr)
                return 2
            old = run_side(os.path.join(worktree, "src"),
                           os.path.join(tmp, "rev-out"))
            new = run_side(os.path.join(ROOT, "src"),
                           os.path.join(tmp, "tree-out"))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            git("worktree", "remove", "--force", worktree)
            git("worktree", "prune")
    keys = sorted(old.keys() | new.keys())
    diffs = [k for k in keys if old.get(k) != new.get(k)]
    for k in diffs:
        print(f"{k}\n  {commit[:12]}: {old.get(k, '<none>')}\n"
              f"  working tree: {new.get(k, '<none>')}")
    print(f"{commit[:12]} against the working tree: {len(keys)} entries, "
          f"{len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
