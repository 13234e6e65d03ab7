#!/usr/bin/env bash
# Same-machine A/B of the repository benchmark (benchmarks/suite/).
#
#   benchmarks/ab.sh PARENT_REF OUT PAIRS WORKLOAD...
#
# Measures PARENT_REF (checked out into a temporary git worktree) against
# the tree this script lives in, PAIRS seeds per workload, alternating
# which side runs first on each seed.  Every run keeps the benchmark's own
# length (run_seconds in BENCHMARK.json).  Writes, under OUT:
#
#   parent/, change/     raw run files and aggregate's table.json / table.md
#   change/compare.md    compare's verdict per (metric, workload), and
#   change/compare.json  the same rows as JSON
#   ab.json              both SHAs, the platform, the pair count and the rows
#
# Exits 1 when any row is a regression, when a workload's failed/attempted
# share is larger on the change than on the parent, when more change runs
# than parent runs crashed, or when no run could be compared; 0 otherwise.
set -euo pipefail

if [ "$#" -lt 4 ] || ! [[ $3 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 PARENT_REF OUT PAIRS WORKLOAD..." >&2
    exit 2
fi
parent_ref=$1
out=$(mkdir -p "$2" && cd "$2" && pwd)
pairs=$3
shift 3
workloads=("$@")
if [ -e "$out/parent" ] || [ -e "$out/change" ]; then
    echo "$out already holds runs; give an empty OUT" >&2
    exit 2
fi

change_tree=$(cd "$(dirname "$0")/.." && pwd)
parent_sha=$(git -C "$change_tree" rev-parse --verify "$parent_ref^{commit}")
change_sha=$(git -C "$change_tree" rev-parse HEAD)
git -C "$change_tree" diff --quiet HEAD || change_sha="$change_sha+dirty"

parent_tree="$out/parent-tree"
cleanup() {
    git -C "$change_tree" worktree remove --force "$parent_tree" 2>/dev/null || true
    git -C "$change_tree" worktree prune
}
trap cleanup EXIT
git -C "$change_tree" worktree add --detach --force "$parent_tree" "$parent_sha" >/dev/null

declare -A crashed=([parent]=0 [change]=0)
run() {  # run SIDE WORKLOAD SEED
    local tree
    if [ "$1" = parent ]; then tree=$parent_tree; else tree=$change_tree; fi
    echo "== $1 $2 seed $3" >&2
    if ! (cd "$tree" && python3 -m benchmarks.suite run --workload "$2" --seed "$3" \
            --out "$out/$1" >/dev/null); then
        crashed[$1]=$((crashed[$1] + 1))
    fi
}

for workload in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$workload" "$seed"
            run change "$workload" "$seed"
        else
            run change "$workload" "$seed"
            run parent "$workload" "$seed"
        fi
    done
done

# aggregate and compare run from the change tree: both sides are judged
# by the same benchmark code.
cd "$change_tree"
python3 -m benchmarks.suite aggregate "$out/parent" >/dev/null
python3 -m benchmarks.suite aggregate "$out/change" >/dev/null
status=0
python3 -m benchmarks.suite compare "$out/parent" "$out/change" || status=1

if [ "${crashed[change]}" -gt "${crashed[parent]}" ]; then
    echo "crashed runs: change ${crashed[change]} > parent ${crashed[parent]}" >&2
    status=1
fi
python3 - "$out" "$parent_sha" "$change_sha" "$pairs" <<'EOF' || status=1
import json, os, platform, sys

import numpy

out, parent_sha, change_sha, pairs = sys.argv[1:]
with open(os.path.join(out, "change", "compare.json"), encoding="utf-8") as handle:
    rows = json.load(handle)
platform_info = {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__}
with open(os.path.join(out, "ab.json"), "w", encoding="utf-8") as handle:
    json.dump({"parent": parent_sha, "change": change_sha, "platform": platform_info,
               "pairs": int(pairs), "rows": rows}, handle, indent=1)
    handle.write("\n")

def failed_share(tally):
    return tally["failed"] / tally["attempted"] if tally["attempted"] else 0.0


tallies = {}
for side in ("parent", "change"):
    with open(os.path.join(out, side, "table.json"), encoding="utf-8") as handle:
        tallies[side] = json.load(handle)["runs"]
worse = not rows
if worse:
    print("no comparable runs", file=sys.stderr)
for workload, change in sorted(tallies["change"].items()):
    parent = tallies["parent"].get(workload, {"attempted": 0, "failed": 0})
    if failed_share(change) > failed_share(parent):
        worse = True
        print(f"failed share: {workload} change {change['failed']}/{change['attempted']}"
              f" > parent {parent['failed']}/{parent['attempted']}", file=sys.stderr)
sys.exit(1 if worse else 0)
EOF
exit $status
