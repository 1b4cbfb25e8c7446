"""The three workloads and the loop that runs their passes in process.

A pass is one run of a workload's command list through
``means_lab.cli.main(argv + ["--format", "json"])`` with stdout captured.
Only the ``main`` calls are timed; parsing the documents and checking them
against ``oracle`` happens between the timed calls.

Why these three:

- ``theorem-grid`` is the paper's headline certification at acceptance
  scale: the gap-grid sweep and ``mean_shape`` on H/G/Q/C/M, with about a
  quarter of the gaps below ``SMALL_GAP`` so M's series branch runs.  It
  barely touches ``evaluate_mean``, ``PositivePair``, ``ratios`` or
  ``series``.  Deterministic; the seed is unused.
- ``sampled-chain`` reaches all ten families through ``evaluate_mean`` on
  ``PositivePair``s at random scales and uniform gaps: the pair entry point
  of ``means`` instead of the gap one, with almost no gap below
  ``SMALL_GAP`` and no ``ratios`` or ``series`` work.
- ``constant-recovery`` spends its time in ``ratios`` (series branch below
  ``SERIES_SWITCH``) and exact ``series`` verdicts, with no grid and almost
  no ``means`` work.  Its passes are short, so the CLI's parse and render
  cost is the largest share it has in any workload.
"""

from __future__ import annotations

import io
import json
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

import oracle
from speed import Stopwatch

# speed samples are taken this often during a command (see speed.py)
SAMPLE_PERIOD_S = 0.05

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[tuple[list[str], Check]]]
    # fixed pass count of the traced run, so its call counts repeat exactly
    trace_passes: int


def _theorem_grid(seed: int):
    commands = [(["verify", target], partial(oracle.check_theorem, target))
                for target in ("1.1", "1.2", "1.3")]
    for theorem in ("1.1", "1.2", "1.3"):
        for side in ("lower", "upper"):
            commands.append((["sharpness", theorem, "--side", side, "--epsilon", "1e-3"],
                             partial(oracle.check_sharpness, f"{theorem}-{side}")))
    return commands


def _sampled_chain(seed: int):
    return [
        (["verify", "chain", "--samples", "100000", "--seed", str(seed)], oracle.check_chain),
        (["verify", "corpus", "--samples", "10000", "--seed", str(seed)], oracle.check_corpus),
    ]


def _constant_recovery(seed: int):
    return [
        (["constants"], oracle.check_constants),
        (["series", "HQ", "--terms", "50"], partial(oracle.check_series, "HQ")),
        (["series", "HC", "--terms", "50"], partial(oracle.check_series, "HC")),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("theorem-grid", _theorem_grid, trace_passes=1),
        Workload("sampled-chain", _sampled_chain, trace_passes=1),
        Workload("constant-recovery", _constant_recovery, trace_passes=40),
    )
}


@dataclass
class PassLog:
    """What a run of passes saw: timings and verdict tallies.

    ``errors`` counts commands that raised or exited non-zero; ``failed``
    counts commands that erred or returned any wrong verdict."""

    # one entry per pass: raw wall seconds, and the same at the reference
    # speed (see speed.py)
    pass_wall_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    attempted: int = 0
    errors: int = 0
    failed: int = 0
    verdicts: int = 0
    verdicts_ok: int = 0
    near_zero: int = 0
    points: int = 0
    failures: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


def run_passes(workload: Workload, seed: int, main, *, seconds: float = 0.0,
               passes: int = 1) -> PassLog:
    """Run at least ``passes`` passes and keep going until ``seconds`` of
    wall time have elapsed since the first one started."""
    commands = workload.commands(seed)
    log = PassLog()
    watch = Stopwatch(SAMPLE_PERIOD_S)
    start = time.perf_counter()
    while len(log.pass_s) < passes or time.perf_counter() - start < seconds:
        total_wall = total_ref = 0.0
        for argv, check in commands:
            out, err = io.StringIO(), io.StringIO()
            log.attempted += 1
            code = None
            with redirect_stdout(out), redirect_stderr(err):
                watch.start()
                try:
                    code = main(argv + ["--format", "json"])
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code
                except Exception:  # counted against the program, run continues
                    err.write(traceback.format_exc())
                wall, ref = watch.stop()
            total_wall += wall
            total_ref += ref
            _tally(log, argv, check, code, out.getvalue(), err.getvalue())
        log.pass_wall_s.append(total_wall)
        log.pass_s.append(total_ref)
    return log


def _tally(log: PassLog, argv, check, code, stdout: str, stderr: str) -> None:
    label = " ".join(argv)
    if code != 0:
        log.errors += 1
        if len(log.failures) < 20:
            log.failures.append(f"{label}: exit {code}: {stderr.strip()[-400:]}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = {}
    verdicts = check(doc)
    log.verdicts += len(verdicts)
    if code != 0 or not all(ok for _, ok in verdicts):
        log.failed += 1
    for name, ok in verdicts:
        if ok:
            log.verdicts_ok += 1
        elif len(log.failures) < 20:
            log.failures.append(f"{label}: wrong verdict: {name}")
    if argv[0] == "verify" and doc:
        near, points = oracle.undecided(doc)
        log.near_zero += near
        log.points += points
