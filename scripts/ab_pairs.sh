#!/usr/bin/env bash
# Alternating before/after pairs of the benchmark: for each of N seeds, run
# perfbench/run.py --trace 0 once on a `git archive` of BASE and once on the
# working tree, the side that runs first alternating from pair to pair. Then
# print each side's correct runs and its attempted and failed operations
# summed over the runs, then, for each workload and end-to-end metric, both
# sides' median and quartiles over the pairs, the number of pairs the
# working tree won (strictly better in the direction BENCHMARK.json gives;
# ties count for neither side), and two verdicts:
#   gain   yes when the working tree won at least 9/10 of the pairs and its
#          median beats the base median by more than the base's q3 - q1
#   bound  yes when the working tree's median is no worse than the base
#          median by more than the metric's BENCHMARK.json bound (a fraction)
#
# Usage: scripts/ab_pairs.sh BASE FIRST_SEED N [WORKLOAD] [SECONDS]
#   BASE        commit to compare with, e.g. HEAD or a hash
#   FIRST_SEED  seeds FIRST_SEED .. FIRST_SEED+N-1 are used, one per pair
#   WORKLOAD    train_desk, rollout_21, fe_post_81 or all (default all)
#   SECONDS     run length of each benchmark run (default 20)
# Environment: PYTHON (default python3)
#
# Each run's JSON line goes to stderr as it finishes. Runs are sequential
# child processes; nothing is left running, and the archive of BASE is
# removed on exit.

set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
BASE=$1 FIRST=$2 N=$3 WORKLOAD=${4:-all} RUN_SECONDS=${5:-20}
PY="${PYTHON:-python3}"
ROOT=$(cd "$(dirname "$0")/.." && pwd)

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base"
git -C "$ROOT" archive "$BASE" | tar -x -C "$TMP/base"

for ((i = 0; i < N; i++)); do
    seed=$((FIRST + i))
    if ((i % 2 == 0)); then order="base change"; else order="change base"; fi
    for side in $order; do
        if [ "$side" = base ]; then dir="$TMP/base"; else dir="$ROOT"; fi
        # a failed check still prints its JSON line; the summary counts it
        line=$("$PY" "$dir/perfbench/run.py" --workload "$WORKLOAD" --seed "$seed" \
                   --seconds "$RUN_SECONDS" --trace 0 | tail -n 1) || true
        echo "seed $seed $side $line" >&2
        echo "$seed $side $line" >> "$TMP/runs"
    done
done

"$PY" - "$TMP/runs" "$ROOT/BENCHMARK.json" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

runs_path, bench_path, workload = sys.argv[1:]
metrics = {m["name"]: m for m in json.load(open(bench_path))["end_to_end"]}
runs = {}  # (seed, side) -> {"workload.metric": value}
correct = {"base": [], "change": []}
ops = {"base": [0, 0], "change": [0, 0]}  # attempted, failed
for line in open(runs_path):
    seed, side, text = line.split(" ", 2)
    try:
        result = json.loads(text)
    except json.JSONDecodeError:
        print(f"seed {seed} {side}: no result line", file=sys.stderr)
        continue
    correct[side].append(result["correct"])
    ops[side][0] += result["attempted"]
    ops[side][1] += result["failed"]
    prefix = "" if workload == "all" else f"{workload}."
    runs[seed, side] = {prefix + k: v["value"] for k, v in result["metrics"].items()}

seeds = sorted({seed for seed, _ in runs}, key=int)
pairs = [s for s in seeds if (s, "base") in runs and (s, "change") in runs]
print(f"{len(pairs)} pairs, seeds {seeds[0] if seeds else '-'}..{seeds[-1] if seeds else '-'}; "
      f"correct: base {sum(correct['base'])}/{len(correct['base'])}, "
      f"change {sum(correct['change'])}/{len(correct['change'])}")
print(f"operations attempted/failed: base {ops['base'][0]}/{ops['base'][1]}, "
      f"change {ops['change'][0]}/{ops['change'][1]}")
print(f"{'metric':34s} {'base median [q1, q3]':>28s} {'change median [q1, q3]':>28s} "
      f"{'won':>7s} {'gain':>5s} {'bound':>5s}")


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def show(med, q1, q3):
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


names = sorted({k for s in pairs for side in ("base", "change") for k in runs[s, side]})
for name in names:
    metric = name.rsplit(".", 1)[-1]
    got = [(runs[s, "base"][name], runs[s, "change"][name]) for s in pairs
           if name in runs[s, "base"] and name in runs[s, "change"]]
    if not got or metric not in metrics:
        continue
    sign = 1 if metrics[metric]["better"] == "lower" else -1
    won = sum(sign * (c - b) < 0 for b, c in got)
    base, change = stats([b for b, _ in got]), stats([c for _, c in got])  # median, q1, q3
    gain = won >= 0.9 * len(got) and sign * (base[0] - change[0]) > base[2] - base[1]
    bound = sign * (change[0] - base[0]) <= metrics[metric]["bound"] * abs(base[0])
    print(f"{name:34s} {show(*base):>28s} {show(*change):>28s} "
          f"{won:>3d}/{len(got):<3d} {'yes' if gain else 'no':>5s} {'yes' if bound else 'no':>5s}")
EOF
