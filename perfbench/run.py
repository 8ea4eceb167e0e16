"""zii benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a zii checkout (no install needed; src/ is put on
the path):

    python3 perfbench/run.py --workload equations-1param --seed 1 --seconds 20 --trace 0

One process drives the load, one operation at a time, with
ZII_THREADS=1; CLI operations are sequential `python -m zii.cli`
subprocesses.  The seed picks the order of operations in each pass and
the oracle points; the library only ever sees families, degrees and
points.

--trace 0 runs whole passes over the workload until the next pass would
end after --seconds (always at least one pass), then checks every result
and prints the end-to-end metrics.  --trace 1 runs one untraced pass and
one traced pass in the same order plus the layer probe, checks them, writes
the spans to .perfbench_out/ and prints the per-layer metrics.  The last
line of stdout is the JSON result; everything before it is for people.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
MIN_LEAF_COVER = 0.5  # "most" of each operation; probe operations last about 1 ms
REQUIRED = ("src/zii/__init__.py", "src/zii/cli.py", "tests/golden", "specs")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}

# per-layer metric -> span whose durations it sums
LAYER_TIMES = {
    "moments.build_s": "moments.build_matrix",
    "inverse.det_s": "inverse.determinant",
    "inverse.cofactor_s": "inverse.blocked_cofactors",
    "inverse.adjugate_s": "inverse.adjugate",
    "equations.s": "equations.zii_equations",
    "equations.gcd_s": "equations.reduce_by_determinant",
    "equations.strip_s": "equations.strip",
    "collapse.analyze_s": "collapse.analyze_system",
    "collapse.product_check_s": "collapse.check_product_form",
    "cli.startup_s": "cli.startup",
    "cli.compute_s": "cli.compute",
    "numeric.residuals_s": "numeric.residuals",
    "dsl.parse_s": "dsl.parse_density_spec",
}
LAYER_COUNTS = (
    "moments.order", "inverse.det_terms", "inverse.blocks", "inverse.cofactors",
    "inverse.cofactor_max_terms", "equations.mask_pairs", "equations.distinct",
    "equations.gcd_degree_max", "collapse.grid_points", "collapse.sign_evals",
    "collapse.witnesses", "collapse.degrees",
)
# ratio metric -> (numerator count, denominator count); 0 when nothing was attempted
LAYER_FRACS = {
    "inverse.cofactor_nonzero_frac": ("inverse.cofactors_nonzero", "inverse.cofactors"),
    "equations.gcd_nontrivial_frac": ("equations.gcd_nontrivial", "equations.gcd_attempts"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pyc_warm() -> bool:
    src = ROOT / "src" / "zii" / "__init__.py"
    pyc = Path(importlib.util.cache_from_source(str(src)))
    return pyc.is_file() and pyc.stat().st_mtime >= src.stat().st_mtime


def environment(warm: bool) -> dict:
    import numpy, scipy, sympy, zii
    from sympy.external.gmpy import GROUND_TYPES

    try:
        from importlib.metadata import PackageNotFoundError, version
        installed = version("zii")
    except PackageNotFoundError:
        installed = None
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "zii_threads": os.environ["ZII_THREADS"],
        "pyc_cache_warm": warm,
        "pyc_writes": not sys.dont_write_bytecode,
        "zii_from": str(Path(zii.__file__).resolve().relative_to(ROOT)),
        "installed_zii_dist": installed,
    }


def measure_setup(ctx, module: str) -> list[float]:
    """Import + family construction in fresh interpreters, as seen from inside."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), module],
            cwd=ROOT, env=ctx.child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_op(runner):
    start = time.perf_counter()
    try:
        result = runner()
    except Exception as e:  # a failed operation is counted, not fatal
        result = e
    return result, time.perf_counter() - start


def timed_passes(ctx, ops, rng, seconds: float):
    """Whole passes until the next one would end after `seconds`."""
    passes, records = [], []
    start = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        t0 = time.perf_counter()
        for op in order:
            result, dt = run_op(lambda: op.run(ctx))
            records.append((op, result, dt))
        passes.append(time.perf_counter() - t0)
        if time.perf_counter() - start + max(passes) > seconds:
            return passes, records


def peak_rss_mb(records) -> float:
    in_process = any(op.in_process for op, _, _ in records)
    if in_process:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        kb = max(r.maxrss_kb for _, r, _ in records if not isinstance(r, Exception))
    return kb / 1024


def check_all(ctx, records, rng) -> int:
    failed = 0
    for op, result, _ in records:
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            problems = op.check(ctx, result, rng)
        if problems:
            failed += 1
            for p in problems:
                print(f"FAIL {op.name}: {p}", file=sys.stderr)
    return failed


def end_to_end(ctx, ops, args):
    setup = measure_setup(ctx, "zii" if any(op.in_process for op in ops) else "zii.cli")
    rng = random.Random(args.seed)
    passes, records = timed_passes(ctx, ops, rng, args.seconds)
    rss = peak_rss_mb(records)
    failed = check_all(ctx, records, rng)
    times = [dt for _, _, dt in records]
    print(f"passes: {len(passes)}; operations: {len(times)}; "
          f"op_tail_s is p100 of the run's {len(times)} operation times")
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "op_p50_s": statistics.median(times),
        "op_tail_s": max(times),
        "peak_rss_mb": rss,
        "ok_frac": 1 - failed / len(records),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return len(records), failed, metrics, True


def layer_metrics(rec, overhead: float, cover: float) -> dict:
    out = {name: {"value": rec.total(span), "unit": "s"} for name, span in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        out[name] = {"value": rec.counts.get(name, 0), "unit": "count"}
    for name, (num, den) in LAYER_FRACS.items():
        d = rec.counts.get(den, 0)
        out[name] = {"value": rec.counts.get(num, 0) / d if d else 0.0, "unit": "frac"}
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out["trace.leaf_cover_min"] = {"value": cover, "unit": "frac"}
    return out


def count_values(metrics: dict) -> dict:
    """The metrics that must repeat exactly from run to run."""
    return {k: metrics[k]["value"] for k in (*LAYER_COUNTS, *LAYER_FRACS)}


def traced_run(ctx, ops, args, workload, env):
    from ops import BASELINE_ROWS, PROBE
    from spans import Recorder

    rng = random.Random(args.seed)
    order = list(ops)
    rng.shuffle(order)
    direct = []
    t0 = time.perf_counter()
    for op in order:
        direct.append(run_op(lambda: op.run(ctx)))
    untraced_wall = time.perf_counter() - t0

    rec = Recorder()
    traced, op_spans = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(order):
        with rec.span(f"op {op.name}", op=i) as index:
            traced.append(run_op(lambda: op.traced(ctx, rec))[0])
        op_spans.append(index)
    traced_wall = time.perf_counter() - t0
    for j, op in enumerate(PROBE, start=len(order)):
        with rec.span(f"probe {op.name}", op=j) as index:
            traced.append(run_op(lambda: op.traced(ctx, rec))[0])
        op_spans.append(index)

    records = [(op, r, dt) for op, (r, dt) in zip(order, direct)]
    records += [(op, r, 0.0) for op, r in zip(order + list(PROBE), traced)]
    failed = check_all(ctx, records, rng)
    trace_ok = True
    for op, (d, _), t in zip(order, direct, traced):
        if isinstance(t, Exception) or (
            not isinstance(d, Exception) and op.summary(d) != op.summary(t)
        ):
            print(f"FAIL {op.name}: traced composition differs from the direct call", file=sys.stderr)
            trace_ok = False
    covers = [rec.leaf_cover(i) for op, i in zip(order + list(PROBE), op_spans) if op.in_process]
    cover = min(covers)
    if cover < MIN_LEAF_COVER:
        print(f"FAIL layer spans cover only {cover:.1%} of an operation", file=sys.stderr)
        trace_ok = False

    metrics = layer_metrics(rec, traced_wall - untraced_wall, cover)
    expected = json.loads((HERE / "reference" / "counts.json").read_text())[workload]
    if expected != count_values(metrics):
        print(f"FAIL count metrics differ from reference/counts.json: {count_values(metrics)}",
              file=sys.stderr)
        trace_ok = False

    print(f"tracing overhead: traced wall {traced_wall:.3f} s - untraced wall {untraced_wall:.3f} s"
          f" = {traced_wall - untraced_wall:+.3f} s")
    for i, (op, (_, dt)) in enumerate(zip(order, direct)):
        key = (getattr(op, "family", None), getattr(op, "degree", None))
        if key in BASELINE_ROWS and op.name.startswith("zii_equations"):
            det = rec.total("inverse.determinant", op=i)
            print(f"baseline row: {key[0]} d={key[1]}: determinant {det:.3f} s, zii_equations {dt:.3f} s")
    spans_path = OUT_DIR / f"spans-{workload}-seed{args.seed}.json"
    rec.dump(spans_path, {"workload": workload, "seed": args.seed, "environment": env,
                          "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall})
    print(f"spans: {spans_path.relative_to(ROOT)} ({len(rec.spans)} spans)")
    return len(records), failed, metrics, trace_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: run from the root of a zii checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.environ["ZII_THREADS"] = "1"
    warm = pyc_warm()
    sys.path.insert(0, str(ROOT / "src"))
    import ops as ops_module
    import oracle
    from zii.measures import BUILTIN_FAMILIES

    if args.workload not in ops_module.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(ops_module.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(warm)
    print("environment: " + json.dumps(env, sort_keys=True))
    ops = ops_module.WORKLOADS[args.workload]
    ctx = ops_module.Context(
        ROOT, OUT_DIR, {name: make() for name, make in BUILTIN_FAMILIES.items()},
        oracle.load_reference("results.json"), ops_module.spec_texts(ROOT),
    )
    if args.trace:
        attempted, failed, metrics, ok = traced_run(ctx, ops, args, args.workload, env)
    else:
        attempted, failed, metrics, ok = end_to_end(ctx, ops, args)
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
