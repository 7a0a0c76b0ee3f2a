"""folheat benchmark: closed-loop workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is train_desk, rollout_21, fe_post_81, or `all`, which runs each
workload in its own fresh process, one after another. Inputs come from the
seed alone. With `--trace 0` the run measures the end-to-end metrics with no
tracing; with `--trace 1` it alternates untraced and traced set-up-plus-pass
units and reports the per-layer metrics from the traced ones. The last line
of standard output is one JSON object; the lines before it are a readable
table and the environment record. The exit code is nonzero when a check
fails or an operation fails.

Run it from a checkout: it imports the package from ../src, never from an
installed copy, and writes only under .bench_work/ in the checkout.
"""

from __future__ import annotations

import os
import sys

# the thread cap must be in place before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_desk", "rollout_21", "fe_post_81")

# the end-to-end metrics every workload puts on its JSON line, and which
# statistic of the run's samples is reported; what the stages are on each
# workload is documented in perfbench/README.md. Stage timings report their
# first quartile: on a shared host the CPU alternates between fast and
# contended periods every few seconds, and the median moves with the share
# of the run that fell in contended ones more than the first quartile does.
END_TO_END = {
    "setup_s": ("s", "lower", "median"),
    "peak_rss_mb": ("MB", "lower", "median"),
    "stage_a_s": ("s", "lower", "q1"),
    "stage_b_s": ("s", "lower", "q1"),
}


def run_one(args) -> int:
    if not (SRC / "folheat" / "__init__.py").is_file():
        print(f"error: no folheat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import folheat

    if Path(folheat.__file__).resolve().parent != SRC / "folheat":
        print(f"error: imported folheat from {folheat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    load_1min = os.getloadavg()[0]
    import harness
    import record
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        run = harness.traced_run if args.trace else harness.timed_run
        ops, errors, metrics = run(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    correct = not errors and ops.failed == 0
    print(f"workload {args.workload}: closed loop, 1 caller, 1 BLAS thread, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    if args.trace:
        harness.print_layers(metrics)
        out = {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}
    else:
        harness.print_end_to_end(metrics)
        out = {}
        for k, (unit, _, stat) in END_TO_END.items():
            med, q1, _, _ = harness.summary(metrics[k][2])
            out[k] = {"value": q1 if stat == "q1" else med, "unit": unit}
    print(f"attempted {ops.attempted}  failed {ops.failed}  correct {str(correct).lower()}")
    for e in errors:
        print(f"check failed: {e}")
    for note in dict.fromkeys(wl.notes):
        print(f"note: {note}")
    print("env " + json.dumps(record.env_record(ROOT, args.workload, args.seed, args.seconds,
                                                load_1min), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": out}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; results merged."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n", flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
