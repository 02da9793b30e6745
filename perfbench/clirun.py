"""The cli workload: run each command, parse its data files, check them
against the reference and check the determinism pairs.

Determinism: ``exclusion.csv`` from ``--threads 1`` and ``--threads 2``
on cylinder_rotational must be byte-identical within a round, and every
``simulate`` run (same generated seed, twice per round) must write the
same ``trajectories.bin`` as the first.  A mismatch fails the later op.
"""

import hashlib
import json
import os
import shutil

import gate
from workloads import cli_commands, run_cli_command

# every shipped config runs at the default quadrature tolerance
CLI_REL_TOL = 1e-6


def ref_key(op_id):
    """Reference entry an op is checked against."""
    if op_id.startswith("exclusion_threads2:"):
        return "exclusion:" + op_id.split(":", 1)[1]
    return op_id


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _payload(op_id, outdir, stdout):
    """Parsed outputs of one command, plus the digest of the file that
    takes part in a determinism pair."""
    if op_id == "spectrum":
        with open(os.path.join(outdir, "manifest.json"),
                  encoding="utf-8") as fh:
            man = json.load(fh)
        psd = man["csl_force_psd_n2_s"]
        return {"rows": gate.parse_spectrum(
                    os.path.join(outdir, "spectrum.csv")),
                "rel_err": man["csl_force_psd_error"] / psd if psd else 0.0
                }, None
    if op_id.startswith("exclusion"):
        path = os.path.join(outdir, "exclusion.csv")
        payload = {"rows": gate.parse_exclusion(path)}
        svg = os.path.join(outdir, "exclusion.svg")
        if os.path.exists(svg):
            with open(svg, encoding="utf-8") as fh:
                payload["svg"] = "<svg" in fh.read(4096)
        return payload, _sha(path)
    if op_id.startswith("simulate"):
        path = os.path.join(outdir, "trajectories.bin")
        return {"traj": gate.parse_trajectories(path)}, _sha(path)
    return {"lines": [line.split("(")[0].strip()
                      for line in stdout.splitlines() if line.strip()]}, None


def run_round(paths, workdir, root, speed, trace_dir=None):
    """Run every command once, sampling the speed between commands;
    returns op results with parsed payloads."""
    results = []
    speed.tick()
    for i, (op_id, args) in enumerate(cli_commands(paths)):
        name = f"{i:02d}_" + op_id.replace(":", "_")
        outdir = os.path.join(workdir, "out", name)
        shutil.rmtree(outdir, ignore_errors=True)
        trace_path = None
        if trace_dir is not None:
            trace_path = os.path.join(trace_dir, name + ".json.gz")
        # the --threads 2 command is the one op that runs on every CPU
        wide = "--threads" in args and args[args.index("--threads") + 1] != "1"
        if wide:
            speed.tick(wide=True)
            with speed.widened():
                code, start, latency, stdout = run_cli_command(
                    op_id, args, outdir, root, trace_path)
        else:
            code, start, latency, stdout = run_cli_command(
                op_id, args, outdir, root, trace_path)
        speed.tick(wide)
        res = {"op": op_id, "start": start, "latency": latency,
               "wide": wide, "value": None,
               "error": None, "payload": None, "digest": None,
               "determinism": None}
        if code != 0:
            res["status"] = f"error:exit{code}"
            res["detail"] = stdout[-500:]
        else:
            res["status"] = "ok"
            try:
                res["payload"], res["digest"] = _payload(op_id, outdir,
                                                         stdout)
            except (OSError, ValueError, KeyError) as exc:
                res["status"] = f"error:{type(exc).__name__}"
        shutil.rmtree(outdir, ignore_errors=True)
        results.append(res)
    return results


def mark_determinism(rounds):
    """Set res["determinism"] on the ops that repeat an earlier output."""
    first_simulate = None
    for results in rounds:
        by_op = {r["op"]: r for r in results}
        serial = by_op.get("exclusion:cylinder_rotational")
        pooled = by_op.get("exclusion_threads2:cylinder_rotational")
        if pooled is not None and pooled["status"] == "ok":
            pooled["determinism"] = serial is not None \
                and serial["digest"] == pooled["digest"]
        for sim in results:
            if sim["op"] != "simulate" or sim["status"] != "ok":
                continue
            if first_simulate is None:
                first_simulate = sim["digest"]
            else:
                sim["determinism"] = sim["digest"] == first_simulate


def reference_entry(res):
    """What make_reference stores for a cli op."""
    payload = dict(res["payload"] or {})
    payload.pop("svg", None)
    return {"status": res["status"], "payload": gate.round_tree(payload)}


def judge(res, ref):
    """Verdict of one cli op against its reference entry."""
    if ref is None:
        return gate.UNCHECKED, "no reference"
    if gate.is_failure(res["status"]):
        if gate.is_failure(ref["status"]):
            return gate.KNOWN_FAILURE, res["status"]
        return gate.FAILED, res["status"]
    if gate.is_failure(ref["status"]):
        return gate.UNCHECKED, f"reference run failed ({ref['status']})"
    if res["determinism"] is False:
        return gate.FAILED, "determinism mismatch"
    got, want = res["payload"], ref["payload"]
    if got.get("svg") is False:
        return gate.WRONG, "exclusion.svg has no <svg> element"
    if "rel_err" in want:
        # the csl and total columns carry the force PSD's reported error
        bad = gate.compare_rows(got["rows"], want["rows"], CLI_REL_TOL
                                + abs(got["rel_err"]) + abs(want["rel_err"]))
    elif "rows" in want:
        bad = gate.compare_rows(got["rows"], want["rows"], CLI_REL_TOL,
                                lambda row: row[2] or 0.0)
    elif "traj" in want:
        bad = gate.compare_trajectories(got["traj"], want["traj"],
                                        CLI_REL_TOL)
    else:
        bad = [] if got["lines"] == want["lines"] else [
            f"{got['lines']} vs {want['lines']}"]
    if bad:
        return gate.WRONG, "; ".join(bad[:3])
    return gate.OK, ""
