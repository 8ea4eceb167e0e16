"""Record the references the benchmark checks against.

Run from the repository root, only when a change is meant to alter the
recorded outputs or counts:

    python3 perfbench/record_reference.py

Writes reference/results.json (canonical summary of every in-process
operation, from the direct library call) and reference/counts.json (the
count metrics of a traced pass over each workload plus the layer probe).
"""

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import ops
import run
from spans import Recorder
from zii.measures import BUILTIN_FAMILIES


def main():
    families = {n: make() for n, make in BUILTIN_FAMILIES.items()}
    ctx = ops.Context(ROOT, run.OUT_DIR, families, {}, ops.spec_texts(ROOT))
    run.OUT_DIR.mkdir(exist_ok=True)
    results, counts = {}, {}
    for workload, members in ops.WORKLOADS.items():
        rec = Recorder()
        for i, op in enumerate(members + ops.PROBE):
            if op.in_process and op.name not in results:
                results[op.name] = op.summary(op.run(ctx))
            with rec.span(op.name, op=i):
                op.traced(ctx, rec)
        counts[workload] = run.count_values(run.layer_metrics(rec, 0.0, 1.0))
        print(workload, counts[workload], flush=True)
    for name, payload in (("results.json", results), ("counts.json", counts)):
        (run.HERE / "reference" / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
