"""Calibration: how far each end-to-end metric moves between runs.

    python -m benchmarks.suite calibrate DIR

For each workload it makes one untraced run on each of the seeds 1 to
10, then two sets of five runs on seed 2021, one set after the other.
Every run goes through the ``run`` command, into ``DIR/seeds``,
``DIR/set-a`` and ``DIR/set-b``.  It writes ``DIR/calibration.json`` and
prints one row per (workload, metric):

- ``spread``: the distance between the quartiles of the ten seeds'
  values, over their median.  A metric's bound in ``BENCHMARK.json``
  should be at least three times its largest spread (``setup_s`` is
  exempt: only its median is compared);
- ``drift``: how much worse set B's median is than set A's, as a share
  of set A's; it must stay within the bound.

It also records every invocation's wall time, projects the time of
``4 + 22 x workloads`` invocations (the length of a full comparison),
and summarises the share of CPU time the hypervisor gave to other guests
during the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from benchmarks.suite.harness import ROOT, load_spec
from benchmarks.suite.report import load_runs, summarize

SEEDS = tuple(range(1, 11))
REPEAT_SEED = 2021
REPEATS = 5
#: Invocations of a full comparison: ``4 + 22 x`` the number of workloads.
FIXED_INVOCATIONS, INVOCATIONS_PER_WORKLOAD = 4, 22


def _invoke(workload: str, seed: int, out: Path) -> Dict:
    began = perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "run", "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = perf_counter() - began
    values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed}: {result['elapsed_s']:.1f} s, failed {result['failed']}, "
          f"{values}", file=sys.stderr, flush=True)
    return result


def _values(results: List[Dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in results]


def calibrate_workload(workload: str, out: Path, spec: Dict) -> Dict:
    seeded = [_invoke(workload, seed, out / "seeds") for seed in SEEDS]
    sets = {
        label: [_invoke(workload, REPEAT_SEED, out / f"set-{label}") for _ in range(REPEATS)]
        for label in ("a", "b")
    }
    metrics = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        across = summarize(_values(seeded, name))
        a, b = summarize(_values(sets["a"], name)), summarize(_values(sets["b"], name))
        metrics[name] = {
            "seeds": dict(across, spread=(across["q3"] - across["q1"]) / across["median"]),
            "set_a": a,
            "set_b": b,
            "drift": sign * (b["median"] - a["median"]) / a["median"],
            "bound": metric["bound"],
        }
    runs = seeded + sets["a"] + sets["b"]
    steal = [run["platform"]["cpu_steal_share"]
             for part in ("seeds", "set-a", "set-b") for run in load_runs(out / part)
             if run["workload"] == workload]
    return {
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "elapsed_s": summarize([r["elapsed_s"] for r in runs]),
        "cpu_steal_share": summarize(steal),
    }


def _markdown(report: Dict) -> str:
    lines = ["| workload | metric | median (seeds) | spread | drift | bound | spread <= bound/3 |",
             "|---|---|---|---|---|---|---|"]
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            exempt = name == "setup_s"
            ok = "exempt" if exempt else ("yes" if m["seeds"]["spread"] <= m["bound"] / 3 else "NO")
            lines.append(
                f"| {workload} | {name} | {m['seeds']['median']:.6g} | {m['seeds']['spread']:.4f} | "
                f"{m['drift']:+.4f} | {m['bound']:g} | {ok} |"
            )
    lines.append("")
    for workload, entry in report["workloads"].items():
        steal = entry["cpu_steal_share"]
        lines.append(f"{workload}: CPU steal share median {steal['median']:.3f}, "
                     f"quartiles {steal['q1']:.3f} to {steal['q3']:.3f}.")
    lines.append(f"Projected full comparison: {report['projected_s']:.0f} s "
                 f"({FIXED_INVOCATIONS} + {INVOCATIONS_PER_WORKLOAD} x workloads invocations "
                 "at each workload's median wall time).")
    return "\n".join(lines) + "\n"


def calibrate_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite calibrate")
    parser.add_argument("directory")
    args = parser.parse_args(argv)
    spec = load_spec()
    out = Path(args.directory).resolve()
    report = {
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "repeat_seed": REPEAT_SEED,
        "platform": {"python": sys.version.split()[0], "cpus": os.cpu_count(),
                     "machine": os.uname().machine},
        "workloads": {w["name"]: calibrate_workload(w["name"], out, spec) for w in spec["workloads"]},
    }
    medians = [entry["elapsed_s"]["median"] for entry in report["workloads"].values()]
    report["projected_s"] = (INVOCATIONS_PER_WORKLOAD * sum(medians)
                             + FIXED_INVOCATIONS * max(medians))
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "calibration.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(_markdown(report), end="")
    return 1 if any(entry["failed"] for entry in report["workloads"].values()) else 0
