"""One measuring process of the benchmark; ``run.py`` starts it.

    python3 perfbench/child.py passes --workload W --seed S --seconds T
    python3 perfbench/child.py traced --workload W --seed S
    python3 perfbench/child.py probes --seed S
    python3 perfbench/child.py tracking --workload W --seed S --seconds T

Each role runs in a fresh interpreter, so tracing wrappers and probe loops
cannot disturb the untraced timings, and prints one JSON object as its last
line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Workload, run_passes  # noqa: E402

# fewest rounds of the tracking role: raw wall ratios of single rounds are
# off by up to about 15% on a machine whose speed varies
TRACKING_ROUNDS = 5


def passes(args) -> dict:
    from means_lab import cli

    cli.sharp_constants()  # paid once per invocation; setup_s measures it
    log = run_passes(WORKLOADS[args.workload], args.seed, cli.main, seconds=args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"log": log.to_json(), "peak_rss_mb": peak_kib / 1024.0}


def traced(args) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    cli = tracer.span("cli", "import", importlib.import_module)("means_lab.cli")
    tracer.install()
    try:
        tracer.span("cli", "setup", cli.sharp_constants)()
        workload = WORKLOADS[args.workload]
        log = run_passes(workload, args.seed, tracer.span("cli", "main", cli.main),
                         passes=workload.trace_passes)
    finally:
        tracer.uninstall()
    return {"log": log.to_json(), "layers": tracer.layer_metrics(), "spans": tracer.spans}


def probes(args) -> dict:
    import probes as layer_probes

    metrics = layer_probes.kernel_probes()
    metrics.update(layer_probes.certify_probes(args.seed))
    return {"metrics": metrics, "regions": layer_probes.regions()}


def tracking(args) -> dict:
    """Does pass_s move as the program's own wall time does?

    Round after round, times one pass of the workload and three variants
    that add known work to it: the pass run twice over (``twice``), and the
    pass plus about as much again of C-coded work that is bound by cache
    misses over a 32 MB working set (``memory``) or by arithmetic
    (``c-code``).  The sampling loop in speed.py is pure Python, so these
    are the kinds of work its speed could misjudge.  Reports, per variant,
    the median over rounds of the variant's pass time over the base pass
    time, as raw wall time and at the reference speed.
    """
    from means_lab import cli

    cli.sharp_constants()
    workload = WORKLOADS[args.workload]
    base_wall = statistics.median(
        run_passes(workload, args.seed, cli.main, passes=3).pass_wall_s)

    def with_extra(name: str, unit) -> tuple[Workload, object]:
        """The pass plus one more command that calls ``unit`` for about as
        long as the pass takes."""
        unit_s = []
        for _ in range(5):
            start = time.perf_counter()
            unit()
            unit_s.append(time.perf_counter() - start)
        reps = max(1, round(base_wall / statistics.median(unit_s)))

        def main(argv):
            if argv[0] != "extra":
                return cli.main(argv)
            for _ in range(reps):
                unit()
            return 0

        def commands(seed):
            return workload.commands(seed) + [(["extra"], lambda doc: [])]

        return Workload(name, commands, 1), main

    def twice(seed):
        return [command for command in workload.commands(seed) for _ in range(2)]

    ballast = [float(i) for i in range(1_000_000)]
    random.Random(args.seed).shuffle(ballast)
    block = bytes(range(256)) * 4096
    variants = {
        "base": (workload, cli.main),
        "twice": (Workload("twice", twice, 1), cli.main),
        "memory": with_extra("memory", lambda: math.fsum(ballast)),
        "c-code": with_extra("c-code", lambda: hashlib.sha256(block).digest()),
    }
    ratios = {name: {"wall": [], "ref": []} for name in variants if name != "base"}
    failed = 0
    start = time.perf_counter()
    while (len(ratios["twice"]["wall"]) < TRACKING_ROUNDS
           or time.perf_counter() - start < args.seconds):
        times = {}
        for name, (variant, main) in variants.items():
            log = run_passes(variant, args.seed, main)
            failed += log.failed
            times[name] = (log.pass_wall_s[0], log.pass_s[0])
        for name, series in ratios.items():
            series["wall"].append(times[name][0] / times["base"][0])
            series["ref"].append(times[name][1] / times["base"][1])
    return {"rounds": len(ratios["twice"]["wall"]), "failed": failed,
            "ratios": {name: {kind: statistics.median(values) for kind, values in series.items()}
                       for name, series in ratios.items()}}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("passes", "traced", "probes", "tracking"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    roles = {"passes": passes, "traced": traced, "probes": probes, "tracking": tracking}
    result = roles[args.role](args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
