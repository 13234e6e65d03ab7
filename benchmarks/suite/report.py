"""Staged results: raw run files, then a table, then a comparison report.

    python -m benchmarks.suite aggregate DIR
    python -m benchmarks.suite compare PARENT_DIR CHANGE_DIR

``aggregate`` reads every ``DIR/raw/<workload>/<seed>-<rep>.json`` and
writes ``DIR/table.json`` and ``DIR/table.md``: for each (metric,
workload) the median, the quartiles and n.  End-to-end metrics come from
untraced runs only, per-layer metrics from traced runs.

``compare`` applies the gain rule of the choosing-metrics guide, section
8, to two directories measured with identical benchmark code: runs are
paired by seed and repetition, and a gain needs at least ten pairs, wins
in at least nine tenths of them, and a median difference larger than the
parent's interquartile range.  A median worse than the parent's by more
than the metric's bound is a regression.  A metric whose spread is wider
than its bound is ``unresolved`` unless every change run beats every
parent run.  Each workload gets its own row; the exit code is 1 when any
row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List

from benchmarks.suite.harness import load_spec

#: Pairs and win share a gain needs (choosing-metrics, section 8).
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(directory) -> List[Dict]:
    """Every raw run file under ``directory``, except the untraced half of
    a traced invocation (shorter, and set up once)."""

    runs = []
    for path in sorted(Path(directory, "raw").glob("*/*.json")):
        try:
            with open(path, encoding="utf-8") as handle:
                run = json.load(handle)
        except ValueError:
            continue  # a run that died before writing leaves an empty file
        if run.get("trace_baseline"):
            continue
        run["key"] = path.stem
        runs.append(run)
    return runs


def summarize(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(ordered)}


def build_table(runs: List[Dict]) -> Dict:
    table: Dict[str, Dict] = {"end_to_end": {}, "per_layer": {}, "runs": {}}
    for run in runs:
        section, metrics = (
            ("per_layer", run["per_layer"]) if run["trace"] else ("end_to_end", run["end_to_end"])
        )
        by_metric = table[section].setdefault(run["workload"], {})
        for name, metric in metrics.items():
            entry = by_metric.setdefault(name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
        tally = table["runs"].setdefault(run["workload"], {"runs": 0, "attempted": 0, "failed": 0})
        tally["runs"] += 1
        tally["attempted"] += run["attempted"]
        tally["failed"] += run["failed"]
    for section in ("end_to_end", "per_layer"):
        for by_metric in table[section].values():
            for name, entry in by_metric.items():
                by_metric[name] = dict(unit=entry["unit"], **summarize(entry.pop("values")))
    return table


def _markdown(table: Dict) -> str:
    lines = ["# Benchmark table", ""]
    for section, title in (("end_to_end", "End-to-end (untraced runs)"),
                           ("per_layer", "Per layer (traced runs)")):
        if not table[section]:
            continue
        lines += [f"## {title}", "", "| workload | metric | unit | median | q1 | q3 | n |",
                  "|---|---|---|---|---|---|---|"]
        for workload, by_metric in sorted(table[section].items()):
            for name, s in by_metric.items():
                lines.append(
                    f"| {workload} | {name} | {s['unit']} | {s['median']:.6g} | "
                    f"{s['q1']:.6g} | {s['q3']:.6g} | {s['n']} |"
                )
        lines.append("")
    lines += ["## Runs", "", "| workload | runs | attempted | failed |", "|---|---|---|---|"]
    for workload, tally in sorted(table["runs"].items()):
        lines.append(f"| {workload} | {tally['runs']} | {tally['attempted']} | {tally['failed']} |")
    return "\n".join(lines) + "\n"


def aggregate_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite aggregate")
    parser.add_argument("directory")
    args = parser.parse_args(argv)
    table = build_table(load_runs(args.directory))
    out = Path(args.directory)
    with open(out / "table.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    markdown = _markdown(table)
    with open(out / "table.md", "w", encoding="utf-8") as handle:
        handle.write(markdown)
    print(markdown, end="")
    return 0


def _values_by_key(runs: List[Dict], workload: str, metric: str) -> Dict[str, float]:
    return {
        run["key"]: run["end_to_end"][metric]["value"]
        for run in runs
        if run["workload"] == workload and not run["trace"]
    }


def verdict(parent: List[float], change: List[float], pairs, better: str, bound: float) -> Dict:
    """One (metric, workload) row of the comparison."""

    sign = 1.0 if better == "higher" else -1.0
    p, c = summarize(parent), summarize(change)
    wins = sum(1 for pv, cv in pairs if sign * (cv - pv) > 0)
    gain = sign * (c["median"] - p["median"])
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0 for s in (p, c)
    )
    if (gain > 0 and len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(pairs)
            and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        result = "gain"
    elif p["median"] and -gain / abs(p["median"]) > bound:
        result = "regression"
    elif spread > bound and not min(sign * v for v in change) > max(sign * v for v in parent):
        result = "unresolved"
    else:
        result = "within bound"
    return {
        "verdict": result,
        "parent": p,
        "change": c,
        "pairs": len(pairs),
        "wins": wins,
        "spread": spread,
        "bound": bound,
    }


def compare_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite compare")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            parent = _values_by_key(parent_runs, workload, metric["name"])
            change = _values_by_key(change_runs, workload, metric["name"])
            if not parent or not change:
                continue
            pairs = [(parent[k], change[k]) for k in sorted(set(parent) & set(change))]
            row = verdict(list(parent.values()), list(change.values()), pairs,
                          metric["better"], metric["bound"])
            rows.append(dict(workload=workload, metric=metric["name"], unit=metric["unit"], **row))

    lines = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] | pairs | wins | spread | bound | verdict |",
             "|---|---|---|---|---|---|---|---|---|"]
    for row in rows:
        p, c = row["parent"], row["change"]
        lines.append(
            f"| {row['workload']} | {row['metric']} ({row['unit']}) | "
            f"{p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] | "
            f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] | {row['pairs']} | {row['wins']} | "
            f"{row['spread']:.3f} | {row['bound']:g} | {row['verdict']} |"
        )
    markdown = "\n".join(lines) + "\n"
    out = Path(args.change)
    with open(out / "compare.json", "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1)
        handle.write("\n")
    with open(out / "compare.md", "w", encoding="utf-8") as handle:
        handle.write(markdown)
    print(markdown, end="")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0
