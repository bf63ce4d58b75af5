"""Record the optimal objectives of every optimize-public-prior call for every
member of the prior family into reference_objectives.json.

    python3 perfbench/record_reference.py   (from the repository root)

Each run of the optimize-public-prior workload checks its objectives against
this file to 1e-9 relative, so a faster optimizer must find the same optimum.
Re-record only when the workload's inputs change, never to absorb a change in
the program's results.
"""
import json
import sys

import inputs
import run

if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    from labeldp import binopt

    recorded = {}
    workload = run.OptimizePublicPrior()
    for member in range(inputs.PRIOR_FAMILY):
        workload.weights = {k: inputs.prior_weights(member, k) for _, k in inputs.OPT_CASES}
        workload.build()
        recorded[str(member)] = {
            f"{loss}.eps{eps:g}": binopt.optimize_bins(
                workload.priors[k], eps, workload.losses[loss]).objective
            for loss, k in inputs.OPT_CASES for eps in inputs.OPT_EPS
        }
        print(member, recorded[str(member)], flush=True)
    with open(run.HERE / "reference_objectives.json", "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
