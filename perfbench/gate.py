"""Correctness gate: compare each op's output with its stored reference.

An op that produced a value passes when

    |value - ref| <= (rel_tol + err + ref_err) * |ref| + FLOOR * |ref|

where rel_tol is the quadrature tolerance the op ran at, err and ref_err
are the relative errors reported by the run and by the reference run, and
FLOOR covers the 12 significant digits the references are stored with.
CLI data files are parsed and compared value by value, never by bytes
(byte identity is only asked of the determinism pairs).
"""

import math
import struct

import numpy as np

FLOOR = 1e-11
# outcome of one op against its reference
OK, WRONG, FAILED, KNOWN_FAILURE, UNCHECKED = (
    "ok", "wrong", "failed", "known_failure", "unchecked")
FAILURES = ("nonconvergent",)     # plus every "error:<Exception>" status


def rounded(x):
    """Float stored in a reference file: 12 significant digits."""
    if x is None or not math.isfinite(x):
        return None
    return float(f"{x:.12g}")


def is_failure(status):
    return status in FAILURES or status.startswith("error:")


def close(value, ref, rel_tol, err=0.0, ref_err=0.0, scale=None):
    """True when value is within the combined tolerance of ref."""
    if value is None or ref is None:
        return value is None and ref is None
    if not (math.isfinite(value) and math.isfinite(err or 0.0)):
        return False
    base = abs(ref) if scale is None else scale
    tol = (rel_tol + abs(err or 0.0) + abs(ref_err or 0.0) + FLOOR) * base
    return abs(value - ref) <= tol


def judge(status, value, err, ref, rel_tol):
    """Verdict for a (status, value, relative error) triple.

    ref is [status, value, relative error] from the reference run.
    Returns (verdict, detail).
    """
    ref_status, ref_value, ref_err = ref
    if is_failure(ref_status):
        if is_failure(status):
            return KNOWN_FAILURE, status
        return UNCHECKED, f"reference run failed ({ref_status})"
    if is_failure(status):
        return FAILED, status
    if status != ref_status:
        return WRONG, f"status {status}, reference {ref_status}"
    if status == "ok" and not close(value, ref_value, rel_tol, err, ref_err):
        return WRONG, f"value {value!r}, reference {ref_value!r}"
    return OK, ""


# ---------------------------------------------------------------------------
# CLI data files

def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _num(text):
    return float(text) if text != "" else None


def parse_spectrum(path):
    header, rows = read_csv(path)
    return [[float(x) for x in row] for row in rows]


def parse_exclusion(path):
    """rows of [rc, lambda_ub, rel_error, status]."""
    header, rows = read_csv(path)
    return [[float(r[1]), _num(r[2]), _num(r[3]), r[4]] for r in rows]


_TRJ_HEADER = struct.Struct("<8sIIQQd32s")
TRAJ_SAMPLES = 32


def parse_trajectories(path):
    """Header fields plus, per trajectory, the RMS of x and p over every
    step and x, p at TRAJ_SAMPLES evenly spaced steps."""
    with open(path, "rb") as fh:
        magic, version, ntraj, steps, seed, dt, _ = _TRJ_HEADER.unpack(
            fh.read(_TRJ_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if magic != b"CSLTRJ01" or data.size != steps * (1 + 2 * ntraj):
        raise ValueError("malformed trajectory file")
    per = data[steps:].reshape(ntraj, 2, steps)
    idx = np.linspace(0, steps - 1, TRAJ_SAMPLES).astype(int)
    return {
        "header": [version, ntraj, steps, seed, dt],
        "rms": [[float(np.sqrt(np.mean(t[0] ** 2))),
                 float(np.sqrt(np.mean(t[1] ** 2)))] for t in per],
        "samples": [[t[0][idx].tolist(), t[1][idx].tolist()] for t in per],
    }


def compare_rows(rows, ref_rows, rel_tol, err_of=None):
    """Mismatch messages between numeric row lists of equal layout.

    err_of(row) gives the relative error reported for a row (0 when None).
    """
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference {len(ref_rows)}"]
    bad = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        err = err_of(row) if err_of else 0.0
        ref_err = err_of(ref) if err_of else 0.0
        for j, (v, r) in enumerate(zip(row, ref)):
            if isinstance(r, str) or isinstance(v, str):
                ok = v == r
            else:
                ok = close(v, r, rel_tol, err, ref_err)
            if not ok:
                bad.append(f"row {i} column {j}: {v!r} vs {r!r}")
    return bad


def compare_trajectories(got, ref, rel_tol):
    bad = []
    if got["header"][:4] != ref["header"][:4] or not close(
            got["header"][4], ref["header"][4], 0.0):
        return [f"header {got['header']} vs {ref['header']}"]
    for i, (rms, ref_rms) in enumerate(zip(got["rms"], ref["rms"])):
        for j in range(2):
            if not close(rms[j], ref_rms[j], rel_tol):
                bad.append(f"trajectory {i} rms[{j}]: {rms[j]!r} vs "
                           f"{ref_rms[j]!r}")
            for v, r in zip(got["samples"][i][j], ref["samples"][i][j]):
                # samples cross zero; scale the tolerance by the RMS
                if not close(v, r, rel_tol, scale=ref_rms[j]):
                    bad.append(f"trajectory {i} sample: {v!r} vs {r!r}")
                    break
    return bad


def round_tree(obj):
    """Round every float in a nested list/dict for storage."""
    if isinstance(obj, float):
        return rounded(obj)
    if isinstance(obj, list):
        return [round_tree(x) for x in obj]
    if isinstance(obj, dict):
        return {k: round_tree(v) for k, v in obj.items()}
    return obj
