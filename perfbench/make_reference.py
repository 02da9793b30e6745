"""Write the correctness references: one round of every workload variant.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  For each variant the ops' status, value and reported relative
error (CLI: parsed data files) are stored with 12 significant digits in
perfbench/reference/<workload>.json.  A failing op is stored as its
failure status; the gate then counts it as a known failure while it keeps
failing and as unchecked once it succeeds.
"""

import json
import os
import sys

import run                    # pins thread counts before numpy loads
import clirun
import gate
import speed
import workloads as wl


def reference(workload, root, sp):
    variants = {}
    for variant in range(wl.VARIANTS):
        workdir = os.path.join(run.HERE, ".work", f"ref-{workload}")
        inputs = run.build(workload, variant, root, workdir)
        results = run.run_round(workload, inputs, root, workdir, sp)
        if workload == "cli":
            variants[str(variant)] = {
                r["op"]: clirun.reference_entry(r) for r in results
                if r["op"] == clirun.ref_key(r["op"])}
        else:
            variants[str(variant)] = {
                r["op"]: [r["status"], gate.rounded(r["value"]),
                          gate.rounded(r["error"])] for r in results}
        print(workload, variant, sum(gate.is_failure(r["status"])
                                     for r in results), "failed of",
              len(results), flush=True)
    # entries equal in every variant are stored once
    shared = {k: v for k, v in variants["0"].items()
              if all(var.get(k) == v for var in variants.values())}
    for var in variants.values():
        for k in shared:
            del var[k]
    return {"variants": variants, "shared": shared}


def main():
    root = run.checkout_root()
    if root is None:
        print("error: run from the root of a cslbounds checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    for workload in sys.argv[1:] or wl.WORKLOADS:
        data = reference(workload, root, speed.Speed(
            stream=workload in run.STREAMING))
        path = os.path.join(run.HERE, "reference", workload + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
