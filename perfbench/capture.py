"""Write golden.json: the program's outputs for the ops checked byte for byte.

    PYTHONPATH=src:perfbench python3 perfbench/capture.py [WORKLOAD ...]

Golden outputs are the program's own: for ranklocus-fp that includes the
mod-5 drop curve as the program computes it, not the stored reference
curve in the catalog.  Capture refuses to store an output that fails the
workload's invariants.
"""

import itertools
import json
import sys

import worker
import workloads

# seed-0 ops: every op of a fixed workload, and for powersum-certify
# more ops than a run holds
SEED0_OPS_LIMIT = 400


def ops_to_capture(workload):
    return list(itertools.islice(workloads.schedule(workload, 0, {}),
                                 SEED0_OPS_LIMIT))


def capture(workload):
    from apolarkit import cli

    library = worker.library_calls()
    records = {}
    for index, op in enumerate(ops_to_capture(workload)):
        outcomes = worker.run_op(op, cli, library)
        if workload == "ranklocus-fp" and outcomes[0].exit == 3:
            # a member refused over GF(101); golden pins the refusal
            op.meta["lines_refused"] = True
        errors = workloads.check_op(workload, op, outcomes, {})
        if errors:
            raise SystemExit("op %d of %s fails its invariants: %s"
                             % (index, workload, errors))
        for step, outcome in zip(op.steps, outcomes):
            records.update(workloads.golden_records(step, outcome))
        print(workload, index, [o.exit for o in outcomes], flush=True)
    return records


def main(names):
    captured = {name: capture(name) for name in names or workloads.WORKLOADS}
    try:
        with open(workloads.GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        golden = {}
    golden.update(captured)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
