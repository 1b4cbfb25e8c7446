"""Paired parent/change benchmark runs, summarized as a BENCH_<n>.json file.

    python3 tools/bench_summary.py run PARENT_TREE CHANGE_TREE RUNS_DIR
    python3 tools/bench_summary.py summarize RUNS_DIR --out BENCH_12.json \\
        --change "what the change does" --parent-commit SHA \\
        --claim sampled-chain:pass_s --condition host="shared 2-vCPU VM"

``run`` runs ``perfbench/run.py --trace 0`` for ``run_seconds`` of
``BENCHMARK.json`` in two checkouts, every workload of ``BENCHMARK.json`` in
turn, one pair of runs per seed of SEEDS (101 held out, then 41-49); the
pairs alternate which side runs first (pair 0 runs the parent first).  It appends
the two lines each run prints last, the report line and the result line, to
``parent.jsonl`` or ``change.jsonl`` in RUNS_DIR.  ``summarize`` reads
those lines back and writes, per workload and end-to-end metric of
``BENCHMARK.json``, each side's runs, median and quartiles, how many pairs
the change won or tied, how far its median moved in the worse direction
(``worse_by``) and whether that exceeds the metric's bound (``regressed``);
with ``--claim`` it also applies the gain rule to one workload's metric.
Beside them it writes the spread of each run's median raw wall time per pass
(``pass_wall_s`` of the report line): ``pass_s`` is rescaled by the speed
that this process samples, which does not see work moved onto other CPUs.
So a claim on ``pass_s`` also applies the gain rule to the raw wall time, as
the claim's ``raw_wall``, which is reported and gates nothing.
Against the parent medians of REFERENCE, the first file this tool wrote, it
also reports each metric's cumulative ``drift``: those runs come from another
session and are not paired, so drift flags nothing and gates nothing.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = ROOT / "BENCH_12.json"
SIDES = ("parent", "change")
SEEDS = (101, 41, 42, 43, 44, 45, 46, 47, 48, 49)
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
ORDER = "pairs alternate which side runs first; pair 0 runs the parent first"
RULE = ("neither more operations nor a larger share of them fail than at the parent, the "
        "change is better in at least nine tenths of the pairs, and the medians differ by "
        "more than the parent's interquartile range")


def parent_first(pair: int) -> bool:
    return pair % 2 == 0


def run_pairs(trees: dict[str, Path], runs_dir: Path, workloads: list[str],
              seeds: list[int], seconds: float) -> None:
    """Run every workload once per seed on both trees, in alternating order,
    appending each run's report and result lines to RUNS_DIR/<side>.jsonl."""
    runs_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for workload in workloads:
        for pair, seed in enumerate(seeds):
            for side in (SIDES if parent_first(pair) else SIDES[::-1]):
                argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
                proc = subprocess.run(argv, cwd=trees[side], env=env, capture_output=True,
                                      text=True, check=True)
                lines = proc.stdout.strip().splitlines()[-2:]
                with open(runs_dir / f"{side}.jsonl", "a") as out:
                    out.write("\n".join(lines) + "\n")
                print(f"{workload} seed {seed} {side}: {lines[-1][:120]}", file=sys.stderr)


def read_runs(path: Path) -> list[tuple[dict, dict]]:
    """(report, result) per run, from alternating report and result lines."""
    lines = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    if len(lines) % 2 or any("report" not in line for line in lines[::2]):
        raise ValueError(f"{path}: expected report and result lines in turn")
    return [(report["report"], result) for report, result in zip(lines[::2], lines[1::2])]


def spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def relative_worsening(sign: float, parent: float, change: float) -> float:
    """How far the change median moved in the metric's worse direction (sign
    +1 when lower is better), relative to the parent median, or absolute
    where the parent median is 0; negative when the change is better."""
    return sign * (change - parent) / (abs(parent) or 1.0)


def summarize(runs_dir: Path, benchmark: dict, change: str, parent_commit: str,
              claim: str | None = None, notes: dict | None = None) -> dict:
    runs = {side: read_runs(runs_dir / f"{side}.jsonl") for side in SIDES}
    metrics = benchmark["end_to_end"]
    reference = json.loads(REFERENCE.read_text())["workloads"]
    workloads = {}
    for name in dict.fromkeys(report["conditions"]["workload"] for report, _ in runs["parent"]):
        sides = {side: [run for run in runs[side] if run[0]["conditions"]["workload"] == name]
                 for side in SIDES}
        seeds = [report["conditions"]["seed"] for report, _ in sides["parent"]]
        if [report["conditions"]["seed"] for report, _ in sides["change"]] != seeds:
            raise ValueError(f"{name}: the two sides ran different seeds")
        entry = {"pairs": len(seeds), "seeds": seeds,
                 "parent_first": [parent_first(k) for k in range(len(seeds))],
                 **{count: {side: sum(result[count] for _, result in sides[side])
                            for side in SIDES} for count in ("attempted", "failed")},
                 "metrics": {}}
        walls = {side: [report["pass_wall_s"]["median"] for report, _ in sides[side]]
                 for side in SIDES}
        entry["pass_wall_s"] = {
            "unit": "s", "better": "lower",
            "note": "each run's median raw wall time per pass, not rescaled",
            **{side: spread(walls[side]) for side in SIDES},
            "change_better_pairs": sum(c < p for p, c in zip(walls["parent"], walls["change"]))}
        for metric in metrics:
            values = {side: [result["metrics"][metric["name"]]["value"]
                             for _, result in sides[side]] for side in SIDES}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            spreads = {side: spread(values[side]) for side in SIDES}
            worse_by = relative_worsening(sign, spreads["parent"]["median"],
                                          spreads["change"]["median"])
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **spreads,
                "change_better_pairs": sum(g > 0.0 for g in gains),
                "tied_pairs": sum(g == 0.0 for g in gains),
                "worse_by": worse_by, "regressed": worse_by > metric["bound"],
            }
            old = reference.get(name, {}).get("metrics", {}).get(metric["name"])
            if old:
                entry["metrics"][metric["name"]].update(
                    reference_median=old["parent"]["median"],
                    drift=relative_worsening(sign, old["parent"]["median"],
                                             spreads["change"]["median"]))
        workloads[name] = entry
    conditions = runs["parent"][0][0]["conditions"]
    all_seeds = list(dict.fromkeys(report["conditions"]["seed"] for report, _ in runs["parent"]))
    out = {"change": change, "parent_commit": parent_commit,
           "change_commit": "the commit that adds this file"}
    if claim:
        workload, metric = claim.split(":")
        out["claim"] = gain_claim(workload, workloads[workload], metric)
    out["conditions"] = {
        "command": COMMAND.format(seconds=conditions["seconds"]),
        "order": ORDER,
        **{key: conditions[key] for key in ("python", "implementation", "cpu_count", "machine")},
        **(notes or {}),
        "seeds": all_seeds,
        "held_out_seed": all_seeds[0],
    }
    out["reference"] = {
        "file": REFERENCE.name,
        "note": ("reference_median is the parent median of this file and drift the change "
                 "median's worsening from it; those runs come from another session and are "
                 "not paired with these, so drift flags nothing and gates nothing")}
    out["src_lines"] = {side: runs[side][0][0]["conditions"]["src_lines"] for side in SIDES}
    out["workloads"] = workloads
    return out


def gain_claim(workload: str, entry: dict, metric: str) -> dict:
    """The gain rule (RULE) on one metric of a workload's summary entry; on
    pass_s also on the raw wall time per pass, as raw_wall, which gates nothing."""
    claim = {"workload": workload, "metric": metric, **apply_rule(entry, entry["metrics"][metric])}
    if metric == "pass_s":
        claim["raw_wall"] = {"metric": "pass_wall_s", "gating": False,
                             **apply_rule(entry, entry["pass_wall_s"])}
    return claim


def apply_rule(entry: dict, spreads: dict) -> dict:
    """RULE on one measure of a workload's summary entry, given its spreads:
    each side's runs, median and quartiles, and the pairs the change won."""
    parent, change = spreads["parent"], spreads["change"]
    sign = 1.0 if spreads["better"] == "lower" else -1.0
    difference = sign * (parent["median"] - change["median"])
    iqr = parent["q3"] - parent["q1"]
    wins = spreads["change_better_pairs"]
    failed, attempted = entry["failed"], entry["attempted"]
    share = {side: failed[side] / max(attempted[side], 1) for side in SIDES}
    return {"parent_median": parent["median"], "change_median": change["median"],
            "median_difference": difference, "parent_interquartile_range": iqr,
            "change_better_pairs": wins, "pairs": entry["pairs"], "failed_share": share,
            "rule": RULE,
            "holds": (failed["change"] <= failed["parent"] and share["change"] <= share["parent"]
                      and wins >= math.ceil(0.9 * entry["pairs"]) and difference > iqr)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("parent_tree", type=Path)
    run.add_argument("change_tree", type=Path)
    run.add_argument("runs_dir", type=Path)
    summary = commands.add_parser("summarize", help="write the BENCH json of a runs directory")
    summary.add_argument("runs_dir", type=Path)
    summary.add_argument("--out", type=Path, required=True)
    summary.add_argument("--change", required=True, help="what the change does")
    summary.add_argument("--parent-commit", required=True)
    summary.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    summary.add_argument("--condition", action="append", default=[], metavar="KEY=TEXT",
                         help="a run condition the lines do not record, such as the host")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_pairs({"parent": args.parent_tree, "change": args.change_tree}, args.runs_dir,
                  [w["name"] for w in BENCHMARK["workloads"]], list(SEEDS),
                  BENCHMARK["run_seconds"])
        return 0
    notes = dict(item.split("=", 1) for item in args.condition)
    report = summarize(args.runs_dir, BENCHMARK, args.change, args.parent_commit, args.claim,
                       notes)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
