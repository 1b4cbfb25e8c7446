"""tools/bench_summary.py on fixture runs: pairing, order, spreads, wins and
ties, the gain rule, the regression flag, and the run loop against stub
benchmark trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

BENCHMARK = {"end_to_end": [
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "ok_share", "unit": "share", "better": "higher", "bound": 0.01},
]}


def _lines(workload, seed, pass_s, ok_share, src_total, failed=0, pass_wall_s=None):
    """A run's report and result lines; its median raw wall time per pass is
    pass_wall_s, or twice pass_s."""
    conditions = {"workload": workload, "seed": seed, "seconds": 20.0, "trace": 0,
                  "python": "3.11.7", "implementation": "CPython", "cpu_count": 2,
                  "machine": "x86_64", "src_lines": {"src.src_lines": src_total}}
    wall = 2.0 * pass_s if pass_wall_s is None else pass_wall_s
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                          "ok_share": {"value": ok_share, "unit": "share"}}}
    report = {"conditions": conditions, "passes": 3,
              "pass_wall_s": {"n": 3, "median": wall, "q1": 0.9 * wall, "q3": 1.1 * wall}}
    return [json.dumps({"report": report}), json.dumps(result)]


PARENT_PASS = [1.0, 1.2, 1.1, 0.9, 1.3, 1.0, 1.05, 1.15, 0.95, 1.1]
CHANGE_PASS = [0.8, 0.9, 0.85, 0.8, 0.95, 0.82, 0.84, 0.86, 0.96, 0.83]
SEEDS = [101, 41, 42, 43, 44, 45, 46, 47, 48, 49]


@pytest.fixture
def runs_dir(tmp_path):
    parent, change = [], []
    for k, seed in enumerate(SEEDS):
        parent += _lines("grid", seed, PARENT_PASS[k], 1.0, 100)
        change += _lines("grid", seed, CHANGE_PASS[k], 1.0 if k else 0.5, 90, failed=int(k == 0))
    for seed in SEEDS[:4]:
        parent += _lines("chain", seed, 2.0, 1.0, 100)
        change += _lines("chain", seed, 2.0 + seed / 1000, 1.0, 90)
    (tmp_path / "parent.jsonl").write_text("\n".join(parent) + "\n")
    (tmp_path / "change.jsonl").write_text("\n".join(change) + "\n")
    return tmp_path


def test_summary_layout(runs_dir):
    out = tool.summarize(runs_dir, BENCHMARK, "a change", "abc123", "grid:pass_s",
                         {"host": "a test host"})
    assert list(out) == ["change", "parent_commit", "change_commit", "claim", "conditions",
                         "reference", "src_lines", "workloads"]
    assert out["src_lines"] == {"parent": {"src.src_lines": 100}, "change": {"src.src_lines": 90}}
    conditions = out["conditions"]
    assert conditions["seeds"] == SEEDS and conditions["held_out_seed"] == 101
    assert conditions["host"] == "a test host" and conditions["cpu_count"] == 2
    assert conditions["command"].endswith("--seconds 20 --trace 0")

    grid = out["workloads"]["grid"]
    assert grid["pairs"] == 10 and grid["seeds"] == SEEDS
    assert grid["parent_first"] == [True, False] * 5
    assert grid["failed"] == {"parent": 0, "change": 1}
    assert grid["attempted"] == {"parent": 100, "change": 100}
    pass_s = grid["metrics"]["pass_s"]
    assert pass_s["parent"]["runs"] == PARENT_PASS
    assert pass_s["parent"]["median"] == pytest.approx(1.075)
    # inclusive quartiles of the ten parent runs
    assert (pass_s["parent"]["q1"], pass_s["parent"]["q3"]) == pytest.approx((1.0, 1.1375))
    # the change loses pair 8, 0.95 s against 0.96 s
    assert (pass_s["change_better_pairs"], pass_s["tied_pairs"]) == (9, 0)
    # a median 21% better reads as a negative worsening
    assert pass_s["worse_by"] == pytest.approx((0.845 - 1.075) / 1.075)
    assert pass_s["regressed"] is False
    ok = grid["metrics"]["ok_share"]
    assert (ok["better"], ok["change_better_pairs"], ok["tied_pairs"]) == ("higher", 0, 9)

    chain = out["workloads"]["chain"]["metrics"]["pass_s"]
    assert (chain["change_better_pairs"], chain["tied_pairs"]) == (0, 0)
    assert out["workloads"]["chain"]["parent_first"] == [True, False, True, False]


def test_gain_rule(runs_dir):
    claim = tool.summarize(runs_dir, BENCHMARK, "c", "p", "grid:pass_s")["claim"]
    # nine wins of ten, and a median gap of 0.23 s beyond the parent's
    # 0.1375 s; but one operation of a hundred fails on the change side and
    # none at the parent, so the gain does not count
    assert (claim["change_better_pairs"], claim["pairs"]) == (9, 10)
    assert claim["median_difference"] == pytest.approx(1.075 - 0.845)
    assert claim["parent_interquartile_range"] == pytest.approx(0.1375)
    assert claim["failed_share"] == {"parent": 0.0, "change": 0.01}
    assert claim["holds"] is False
    assert not tool.summarize(runs_dir, BENCHMARK, "c", "p", "chain:pass_s")["claim"]["holds"]


@pytest.mark.parametrize("wins,parent_q1,failed,attempted,holds", [
    (9, 0.95, (0, 0), (100, 100), True), (9, 0.95, (2, 2), (100, 200), True),
    (8, 0.95, (0, 0), (100, 100), False), (10, 0.8, (0, 0), (100, 100), False),
    (9, 0.95, (0, 1), (100, 100), False),
    # one more failure in a larger share, and in a smaller share
    (9, 0.95, (2, 3), (100, 100), False), (9, 0.95, (2, 3), (100, 1000), False),
    # as many failures, in a larger share
    (9, 0.95, (2, 2), (200, 100), False)])
def test_gain_rule_needs_wins_a_gap_beyond_the_spread_and_no_more_failures(
        wins, parent_q1, failed, attempted, holds):
    # medians 1.0 against 0.85: a gap of 0.15 s, against a parent spread of
    # 0.1 s or 0.25 s; (parent, change) counts of failed and attempted
    # operations
    metric = {"better": "lower", "change_better_pairs": wins,
              "parent": {"median": 1.0, "q1": parent_q1, "q3": 1.05},
              "change": {"median": 0.85, "q1": 0.8, "q3": 0.9}}
    entry = {"pairs": 10, "failed": dict(zip(("parent", "change"), failed)),
             "attempted": dict(zip(("parent", "change"), attempted)), "metrics": {"m": metric}}
    assert tool.gain_claim("w", entry, "m")["holds"] is holds


def test_regression_beyond_the_bound_is_flagged(tmp_path):
    # pass_s 4% slower at the change stays within its 20% bound; ok_share
    # 2% lower is past its 1% bound
    parent, change = [], []
    for seed in SEEDS:
        parent += _lines("chain", seed, 1.0, 1.0, 100)
        change += _lines("chain", seed, 1.04, 0.98, 100)
    (tmp_path / "parent.jsonl").write_text("\n".join(parent) + "\n")
    (tmp_path / "change.jsonl").write_text("\n".join(change) + "\n")
    metrics = tool.summarize(tmp_path, BENCHMARK, "c", "p")["workloads"]["chain"]["metrics"]
    assert metrics["pass_s"]["worse_by"] == pytest.approx(0.04)
    assert metrics["pass_s"]["regressed"] is False
    assert metrics["ok_share"]["worse_by"] == pytest.approx(0.02)
    assert metrics["ok_share"]["regressed"] is True


@pytest.mark.parametrize("sign,parent,change,worse_by", [
    (1.0, 2.0, 2.5, 0.25), (1.0, 2.0, 1.5, -0.25), (-1.0, 0.5, 0.25, 0.5),
    (-1.0, -2.0, -3.0, 0.5),
    # a parent median of 0 leaves the move absolute
    (1.0, 0.0, 0.5, 0.5), (-1.0, 0.0, 0.0, 0.0)])
def test_relative_worsening(sign, parent, change, worse_by):
    assert tool.relative_worsening(sign, parent, change) == pytest.approx(worse_by)


def test_drift_from_the_reference_file(runs_dir, tmp_path, monkeypatch):
    # the reference has the grid workload's pass_s and ok_share, but not the
    # chain workload; its change medians are never read
    reference = {"workloads": {"grid": {"metrics": {
        "pass_s": {"parent": {"median": 0.8}, "change": {"median": 5.0}},
        "ok_share": {"parent": {"median": 1.0}, "change": {"median": 5.0}}}}}}
    (tmp_path / "BENCH_0.json").write_text(json.dumps(reference))
    monkeypatch.setattr(tool, "REFERENCE", tmp_path / "BENCH_0.json")
    out = tool.summarize(runs_dir, BENCHMARK, "c", "p")
    assert out["reference"]["file"] == "BENCH_0.json"
    assert "not paired" in out["reference"]["note"]
    grid = out["workloads"]["grid"]["metrics"]
    # a change median of 0.845 s against 0.8 s drifts 5.6% worse, and is not
    # flagged: regressed still compares with the paired parent runs only
    assert grid["pass_s"]["reference_median"] == 0.8
    assert grid["pass_s"]["drift"] == pytest.approx((0.845 - 0.8) / 0.8)
    assert grid["pass_s"]["regressed"] is False
    # higher is better: the change median 1.0 equals the reference
    assert grid["ok_share"]["drift"] == 0.0
    chain = out["workloads"]["chain"]["metrics"]["pass_s"]
    assert "reference_median" not in chain and "drift" not in chain


def test_raw_wall_time_per_pass_beside_the_rescaled_metrics(tmp_path):
    # pass_s ties in every pair, while the raw wall time, which pass_s does
    # not see where work moved onto other CPUs, is lower at the change in
    # all but the last pair
    parent_wall = [1.0, 1.2, 1.1, 0.9, 1.3, 1.0, 1.05, 1.15, 0.95, 0.7]
    change_wall = [0.6, 0.7, 0.65, 0.6, 0.75, 0.62, 0.64, 0.66, 0.61, 0.8]
    parent, change = [], []
    for k, seed in enumerate(SEEDS):
        parent += _lines("chain", seed, 0.5, 1.0, 100, pass_wall_s=parent_wall[k])
        change += _lines("chain", seed, 0.5, 1.0, 100, pass_wall_s=change_wall[k])
    (tmp_path / "parent.jsonl").write_text("\n".join(parent) + "\n")
    (tmp_path / "change.jsonl").write_text("\n".join(change) + "\n")
    chain = tool.summarize(tmp_path, BENCHMARK, "c", "p")["workloads"]["chain"]
    wall = chain["pass_wall_s"]
    assert wall["unit"] == "s" and "not rescaled" in wall["note"]
    assert wall["parent"]["runs"] == parent_wall and wall["change"]["runs"] == change_wall
    assert wall["parent"]["median"] == pytest.approx(1.025)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((0.9625, 1.1375))
    assert wall["change"]["median"] == pytest.approx(0.645)
    assert wall["change_better_pairs"] == 9
    # the rescaled metrics are read as before
    assert chain["metrics"]["pass_s"]["tied_pairs"] == 10
    assert "pass_wall_s" not in chain["metrics"]


def test_claim_on_pass_s_also_rules_on_raw_wall_time(tmp_path):
    # pass_s ties in every pair, so its claim fails; the raw wall time wins
    # nine pairs by a median gap of 0.38 s, beyond the parent's 0.175 s, and
    # its verdict is reported beside the claim's without deciding it
    parent_wall = [1.0, 1.2, 1.1, 0.9, 1.3, 1.0, 1.05, 1.15, 0.95, 0.7]
    change_wall = [0.6, 0.7, 0.65, 0.6, 0.75, 0.62, 0.64, 0.66, 0.61, 0.8]
    parent, change = [], []
    for k, seed in enumerate(SEEDS):
        parent += _lines("chain", seed, 0.5, 1.0, 100, pass_wall_s=parent_wall[k])
        change += _lines("chain", seed, 0.5, 1.0, 100, pass_wall_s=change_wall[k])
    (tmp_path / "parent.jsonl").write_text("\n".join(parent) + "\n")
    (tmp_path / "change.jsonl").write_text("\n".join(change) + "\n")
    claim = tool.summarize(tmp_path, BENCHMARK, "c", "p", "chain:pass_s")["claim"]
    assert (claim["metric"], claim["change_better_pairs"], claim["holds"]) == ("pass_s", 0, False)
    raw = claim["raw_wall"]
    assert (raw["metric"], raw["gating"], raw["rule"]) == ("pass_wall_s", False, tool.RULE)
    assert (raw["parent_median"], raw["change_median"]) == pytest.approx((1.025, 0.645))
    assert raw["parent_interquartile_range"] == pytest.approx(0.175)
    assert (raw["change_better_pairs"], raw["pairs"], raw["holds"]) == (9, 10, True)
    # only pass_s is rescaled, so a claim on another metric has no raw_wall
    other = tool.summarize(tmp_path, BENCHMARK, "c", "p", "chain:ok_share")["claim"]
    assert "raw_wall" not in other


def test_mismatched_seeds_rejected(runs_dir):
    change = (runs_dir / "change.jsonl").read_text().replace('"seed": 41', '"seed": 7')
    (runs_dir / "change.jsonl").write_text(change)
    with pytest.raises(ValueError, match="different seeds"):
        tool.summarize(runs_dir, BENCHMARK, "c", "p")


STUB_RUN = '''
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(pathlib.Path(__file__).resolve().parents[2] / "order.log", "a") as log:
    log.write(f"{pathlib.Path.cwd().name} {args['--workload']} {args['--seed']}\\n")
print("warming up")
print(json.dumps({"report": {"conditions": {"workload": args["--workload"],
                                            "seed": int(args["--seed"])}}}))
print(json.dumps({"attempted": 1, "failed": 0, "tree": pathlib.Path.cwd().name}))
'''


def test_run_alternates_sides(tmp_path):
    trees = {}
    for side in ("p", "c"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
        trees[side] = tmp_path / side
    tool.run_pairs({"parent": trees["p"], "change": trees["c"]}, tmp_path / "runs",
                   ["w1", "w2"], [5, 6, 7], 20)
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["p w1 5", "c w1 5", "c w1 6", "p w1 6", "p w1 7", "c w1 7",
                     "p w2 5", "c w2 5", "c w2 6", "p w2 6", "p w2 7", "c w2 7"]
    runs = tool.read_runs(tmp_path / "runs" / "change.jsonl")
    assert [(report["conditions"]["workload"], report["conditions"]["seed"], result["tree"])
            for report, result in runs] == \
        [(w, s, "c") for w in ("w1", "w2") for s in (5, 6, 7)]
