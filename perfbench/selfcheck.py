"""Self-checks of the benchmark, on every workload at seed 42.

    python3 perfbench/selfcheck.py

1. Traced counts repeat: runs ``run.py --trace 1`` twice and compares every
   metric whose unit is ``count``: the per-layer ``<layer>.calls`` of the
   traced run and the ``certify.near_zero.<claim>`` counts of the probes.
   Both runs must also report ``correct``.
2. ``pass_s`` tracks the program's own time: runs ``child.py tracking``,
   which times the pass and three variants that add known work to it (see
   child.py).  For each variant, the ratio of its time to the base pass
   time at the reference speed must agree with the same ratio in raw wall
   time within the bound of ``pass_s`` in BENCHMARK.json, and the pass run
   twice over must take twice as long at the reference speed, within that
   bound too.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 42
# seconds of interleaved rounds per workload in the tracking check
TRACKING_SECONDS = 60


def _last_json(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *args], cwd=HERE.parent, capture_output=True,
                          text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_counts(workload: str) -> tuple[bool, dict[str, float]]:
    result = _last_json([str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
                         "--seconds", "2", "--trace", "1"])
    counts = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
    return result["correct"], counts


def check_counts(workload: str) -> bool:
    first_ok, first = traced_counts(workload)
    second_ok, second = traced_counts(workload)
    differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    calls = {k: v for k, v in first.items() if k.endswith(".calls")}
    print(f"{workload}: {len(first)} counts, calls {calls}, "
          f"differing {differing or 'none'}, correct {first_ok and second_ok}")
    return first_ok and second_ok and not differing and len(calls) == 5


def check_tracking(workload: str, bound: float) -> bool:
    result = _last_json([str(HERE / "child.py"), "tracking", "--workload", workload,
                         "--seed", str(SEED), "--seconds", str(TRACKING_SECONDS)])
    ok = result["failed"] == 0
    for name, ratio in result["ratios"].items():
        error = ratio["ref"] / ratio["wall"] - 1.0
        ok = ok and abs(error) <= bound
        print(f"{workload}: {name} over base, wall {ratio['wall']:.3f}, "
              f"reference {ratio['ref']:.3f}, off by {error:+.1%}")
    twice_error = result["ratios"]["twice"]["ref"] / 2.0 - 1.0
    print(f"{workload}: twice at the reference speed is off 2 by {twice_error:+.1%} "
          f"over {result['rounds']} rounds")
    return ok and abs(twice_error) <= bound


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "pass_s")
    ok = True
    for workload in WORKLOADS:
        ok = check_counts(workload) and ok
        ok = check_tracking(workload, bound) and ok
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
