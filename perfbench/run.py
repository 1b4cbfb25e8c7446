"""Benchmark entry point for means-lab.

    python3 perfbench/run.py --workload theorem-grid --seed 42 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures the per-layer metrics: the
isolated layer probes, a separate traced run of the workload and the
tracing overhead.  Every measuring step runs in its own fresh interpreter
(see child.py) with ``MEANS_LAB_THREADS`` unset, so the package runs on one
thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the run conditions and the detail behind each metric; the same
report, with the traced run's spans, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "means_lab"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".perfbench"
THREADS_ENV_VAR = "MEANS_LAB_THREADS"
MODULES = ("means", "ratios", "series", "certify", "cli")

# fresh interpreters per setup_s sample set; one more runs first, which
# also writes the bytecode cache, and is discarded
SETUP_SAMPLES = 21
SETUP_CHILD = Path(__file__).resolve().parent / "setup_child.py"
# share of --seconds given to the untraced passes of a traced run
TRACE_BASELINE_SHARE = 0.25
# every run must end within this many seconds of starting
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop(THREADS_ENV_VAR, None)
    env.pop("PYTHONPATH", None)
    return env


def _run_child(script: Path, deadline: float, *extra: str) -> dict:
    role = " ".join((script.stem,) + extra[:1])
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError(f"no time left for the {role} step")
    try:
        proc = subprocess.run([sys.executable, str(script), *extra], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} step timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} step exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{role} step printed no result: {lines[-1][:200]!r}") from None


def measure_setup(deadline: float) -> list[dict]:
    """Fresh interpreters that import means_lab.cli and compute
    sharp_constants(): the fixed cost of every CLI invocation."""
    samples = [_run_child(SETUP_CHILD, deadline) for _ in range(SETUP_SAMPLES + 1)]
    return samples[1:]


def summarize(samples: list[float]) -> dict:
    """Sample count, median and quartiles."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def src_lines() -> dict[str, int]:
    out = {f"{m}.src_lines": len((SRC / f"{m}.py").read_text().splitlines()) for m in MODULES}
    out["src.src_lines"] = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    return out


def conditions(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        # removed from the program's environment whatever it was
        f"{THREADS_ENV_VAR}_in_environment": os.environ.get(THREADS_ENV_VAR),
        "src_lines": src_lines(),
    }


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def end_to_end(args, deadline: float, report: dict) -> tuple[dict, list[dict]]:
    setup = measure_setup(deadline)
    run = _run_child(CHILD, deadline, "passes", "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds))
    log = run["log"]
    report["passes"] = len(log["pass_s"])
    report["setup_s"] = summarize([s["ref"] for s in setup])
    report["setup_wall_s"] = summarize([s["wall"] for s in setup])
    report["pass_s"] = summarize(log["pass_s"])
    report["pass_wall_s"] = summarize(log["pass_wall_s"])
    report["log"] = log
    metrics = {
        "setup_s": (report["setup_s"]["median"], "s"),
        "pass_s": (report["pass_s"]["median"], "s"),
        "verdicts_correct": (_share(log["verdicts_ok"], log["verdicts"]), "share"),
        "ok_share": (1.0 - _share(log["errors"], log["attempted"]), "share"),
        "decided_share": (1.0 - _share(log["near_zero"], log["points"]), "share"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return metrics, [log]


def per_layer(args, deadline: float, report: dict) -> tuple[dict, list[dict]]:
    common = ("--workload", args.workload, "--seed", str(args.seed))
    probes = _run_child(CHILD, deadline, "probes", "--seed", str(args.seed))
    untraced = _run_child(CHILD, deadline, "passes", *common,
                          "--seconds", str(args.seconds * TRACE_BASELINE_SHARE))
    traced = _run_child(CHILD, deadline, "traced", *common)
    plain_pass = statistics.median(untraced["log"]["pass_s"])
    traced_pass = statistics.median(traced["log"]["pass_s"])
    report["passes"] = {"untraced": len(untraced["log"]["pass_s"]),
                        "traced": len(traced["log"]["pass_s"])}
    report["probe_regions"] = probes["regions"]
    report["untraced_pass_wall_s"] = summarize(untraced["log"]["pass_wall_s"])
    report["traced_pass_wall_s"] = summarize(traced["log"]["pass_wall_s"])
    report["logs"] = {"untraced": untraced["log"], "traced": traced["log"]}
    report["spans"] = traced["spans"]

    metrics = {}
    for name, value in probes["metrics"].items():
        unit = "count" if ".near_zero." in name else name.split(".")[2]
        metrics[name] = (value, unit)
    for name, value in traced["layers"].items():
        unit = "count" if name.endswith(".calls") else "s" if name.endswith("_s") else "share"
        metrics[name] = (value, unit)
    metrics["trace.pass_s"] = (traced_pass, "s")
    metrics["trace.untraced_pass_s"] = (plain_pass, "s")
    metrics["trace.untraced_pass_wall_s"] = (report["untraced_pass_wall_s"]["median"], "s")
    metrics["trace.overhead_s"] = (traced_pass - plain_pass, "s")
    for name, value in src_lines().items():
        metrics[name] = (value, "lines")
    return metrics, [untraced["log"], traced["log"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "cli.py").is_file():
        print(f"error: {SRC / 'cli.py'} not found; run from a means-lab checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    report = {"conditions": conditions(args)}
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, logs = measure(args, deadline, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [f for log in logs for f in log["failures"]]
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    result = {
        "correct": all(log["failed"] == 0 for log in logs),
        "attempted": sum(log["attempted"] for log in logs),
        "failed": sum(log["failed"] for log in logs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"report": report, "result": result}, indent=1))
    for bulky in ("spans", "log", "logs"):
        report.pop(bulky, None)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
