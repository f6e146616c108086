"""Benchmark of padlearn's tiny4 training step and its learnable padding layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_zero --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in a child process of
its own, and merges their results under ``<workload>.`` names. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a run
that alternates untraced and traced rounds. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

# BLAS and OpenMP run on one thread; this must happen before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(result):
    """Print a readable table of one result and write it under perfbench/out."""
    env = result.environment
    print(f"workload {env['workload']}  seed {env['seed']}  trace {env['trace']}  "
          f"rounds {env['rounds']} x {env['ops_per_round']} ops")
    print(f"  numpy {env['numpy']}  nproc {env['nproc']}  blas threads "
          f"{env['blas_threads']}  steal jiffies {env['steal_jiffies']}")
    if "samples" in env:
        print("  untraced samples "
              + "  ".join(f"{k} {v}" for k, v in env["samples"].items()))
    print(f"  attempted {result.attempted}  failed {result.failed}  correct {result.correct}")
    if result.problem:
        print(f"  CHECK FAILED: {result.problem}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    for name, (value, unit) in (result.unbounded or {}).items():
        print(f"  {name:36s} {value:14.6f} {unit}  (not bounded)")
    stem = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}"
    record = {"correct": result.correct, "attempted": result.attempted,
              "failed": result.failed, "problem": result.problem, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
              "unbounded": {k: {"value": v, "unit": u}
                            for k, (v, u) in (result.unbounded or {}).items()}}
    if result.span_table is not None:
        print(f"  {'span':32s} {'calls':>7s} {'self ms':>10s} {'self ms/call':>13s}")
        for name, (calls, self_s, _) in sorted(result.span_table.items()):
            print(f"  {name:32s} {calls:7d} {self_s * 1e3:10.1f} {self_s * 1e3 / calls:13.4f}")
        record["span_table"] = {name: {"calls": c, "self_s": s, "total_s": t}
                                for name, (c, s, t) in result.span_table.items()}
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": result.spans}, f)
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as f:
        json.dump(record, f, indent=1)


def main(argv=None):
    if not os.path.isdir(os.path.join(ROOT, "src", "padlearn")):
        print(f"error: no padlearn sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a padlearn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench

    args = parse_args(argv, bench.MIXES)
    if args.workload == "all":
        return run_all(args, list(bench.MIXES))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(result)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


def run_all(args, names):
    """Each workload in a child process of its own, so that every figure,
    ``peak_rss_mb`` too, is that workload's alone; then one merged line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            line = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result (exit code "
                  f"{child.returncode})", file=sys.stderr)
            return 1
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
