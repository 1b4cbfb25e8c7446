import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from means_lab import evaluate_mean, generalized_log, NEUMAN_SANDOR, sharp_constants
from means_lab import certify, cli
from means_lab.cli import main, parse_mean_token
from means_lab import HARMONIC, GEOMETRIC, QUADRATIC, CertificationReport, DomainError, PositivePair
from means_lab import CoefficientKind, RatioFunctionKind, coefficient_exact

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

SCHEMA_KEYS = {"command", "seed", "grid_size", "samples", "verdicts", "worst_case"}


def run_cli(*args):
    # the child imports this checkout's package, as the test process does
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "means_lab", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_exit(capsys, *args):
    """main's exit code, stdout and stderr, where argparse exits by SystemExit."""
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_values_bit_exact(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--means", "H,G,Q,M,Lp:2", "--pair", "1,2",
                                "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc.keys()) == SCHEMA_KEYS
        values = {row["id"]: row["value"] for row in doc["verdicts"]}
        assert values["H"] == evaluate_mean(HARMONIC, (1, 2))
        assert values["G"] == evaluate_mean(GEOMETRIC, (1, 2))
        assert values["Q"] == evaluate_mean(QUADRATIC, (1, 2))
        assert values["M"] == evaluate_mean(NEUMAN_SANDOR, (1, 2))
        assert values["Lp:2"] == evaluate_mean(generalized_log(2.0), (1, 2))

    def test_diagonal(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--means", "M", "--pair", "3,3",
                                "--format", "json")
        assert code == 0
        assert json.loads(out)["verdicts"][0]["value"] == 3.0

    def test_domain_error_exit_2(self):
        code, out, err = run_cli("eval", "--means", "M", "--pair", "0,1")
        assert code == 2
        assert "error" in err

    def test_pair_of_three_exit_2(self, capsys):
        code, out, err = run_main(capsys, "eval", "--means", "H", "--pair", "1,2,3")
        assert code == 2 and out == ""
        assert err == "error: --pair expects two decimal literals 'a,b', got '1,2,3'\n"

    def test_bad_token_exit_2(self, capsys):
        code, _, err = run_main(capsys, "eval", "--means", "Z", "--pair", "1,2")
        assert code == 2
        assert "unknown mean" in err

    def test_scientific_notation_pairs(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--means", "A", "--pair", "1e-8,3e-8",
                                "--format", "json")
        assert code == 0
        assert json.loads(out)["verdicts"][0]["value"] == 2e-08

    def test_golden_document(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--means", "H,G,A,Q,C", "--pair", "1,2",
                                "--format", "json")
        assert code == 0
        assert json.loads(out) == json.loads((GOLDEN / "eval_1_2.json").read_text())

    def test_parse_mean_token(self):
        assert parse_mean_token("Lp:1.5") == generalized_log(1.5)
        with pytest.raises(DomainError):
            parse_mean_token("Lp:abc")

    @pytest.mark.parametrize("p", [-3.16, -1.0, 0.0, 2.0, 1e300, -1e300,
                                   1.8435205184359802, 123456789.0, 1.0000001, 1.00000012])
    def test_token_names_its_exponent_exactly(self, p):
        kind = generalized_log(p)
        assert parse_mean_token(kind.token) == kind

    def test_token_keeps_the_short_text_when_it_round_trips(self):
        assert [generalized_log(p).token for p in (-3.16, -1.0, 0.0, 2.0, 1e300, -1e300)] == [
            "Lp:-3.16", "Lp:-1", "Lp:0", "Lp:2", "Lp:1e+300", "Lp:-1e+300"]
        assert generalized_log(123456789.0).token == "Lp:123456789.0"

    def test_close_exponents_get_distinct_ids(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--means", "Lp:1.0000001,Lp:1.00000012",
                                "--pair", "1,2", "--format", "json")
        assert code == 0
        ids = [row["id"] for row in json.loads(out)["verdicts"]]
        assert ids == ["Lp:1.0000001", "Lp:1.00000012"]


class TestVerify:
    def test_theorem_pass(self, capsys):
        code, out, _ = run_main(capsys, "verify", "1.2", "--grid", "2000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc.keys()) == SCHEMA_KEYS
        assert doc["grid_size"] == 2000
        assert {row["id"] for row in doc["verdicts"]} == {"1.2-lower", "1.2-upper"}
        assert all(row["holds"] for row in doc["verdicts"])
        assert doc["worst_case"]["min_margin"] > 0.0

    def test_weight_override_fails(self, capsys):
        code, out, _ = run_main(capsys, "verify", "1.1", "--weight-lower", "0.2210",
                                "--grid", "2000", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        rows = {row["id"]: row for row in doc["verdicts"]}
        assert not rows["1.1-lower"]["holds"]
        assert rows["1.1-upper"]["holds"]

    def test_chain(self, capsys):
        code, out, _ = run_main(capsys, "verify", "chain", "--samples", "2000",
                                "--seed", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 2000 and doc["seed"] == 7
        assert doc["verdicts"][0]["holds"]

    def test_corpus_exit_zero_despite_report_only_failure(self, capsys):
        code, out, _ = run_main(capsys, "verify", "corpus", "--samples", "500",
                                "--seed", "11", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        rows = {row["id"]: row for row in doc["verdicts"]}
        assert not rows["neuman-qa-mu-upper"]["holds"]
        assert not rows["neuman-qa-mu-upper"]["gating"]
        assert rows["neuman-qa-alpha-lower"]["holds"]
        gating_rows = [r for r in rows.values() if r["gating"]]
        assert gating_rows and all(r["holds"] for r in gating_rows)

    def test_no_resolvable_margin_fails(self, capsys, monkeypatch):
        # on the diagonal every chain margin is near zero: nothing is decided,
        # so the chain does not hold and its min_margin goes out as null
        monkeypatch.setattr(certify, "_chain_draw", lambda rng, count: [(1.0, 1.0)] * count)
        code, out, _ = run_main(capsys, "verify", "chain", "--samples", "50", "--format", "json")
        assert code == 1
        row = json.loads(out)["verdicts"][0]
        assert not row["holds"]
        assert row["min_margin"] is None and row["near_zero"] == 8 * 50

    @pytest.mark.parametrize("target", ["chain", "corpus"])
    def test_negative_seed_exit_2(self, capsys, target):
        # random.Random(-5) draws seed 5's stream, which a report of seed -5 would hide
        code, out, err = run_main(capsys, "verify", target, "--samples", "50", "--seed", "-5")
        assert code == 2 and out == ""
        assert err == "error: seed must be an integer >= 0, got -5\n"

    def test_small_grid_usage_error(self, capsys):
        code, _, err = run_main(capsys, "verify", "1.1", "--grid", "50")
        assert code == 2
        assert "grid" in err


class TestSharpness:
    def test_upper_13_witness_near_zero_gap(self, capsys):
        code, out, _ = run_main(capsys, "sharpness", "1.3", "--side", "upper",
                                "--epsilon", "1e-3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["violated"]
        assert doc["verdicts"][0]["witness_gap"] < 0.2
        assert doc["worst_case"]["pair"] == [doc["verdicts"][0]["witness_a"],
                                             doc["verdicts"][0]["witness_b"]]

    def test_lower_11_witness_near_zero_gap(self, capsys):
        code, out, _ = run_main(capsys, "sharpness", "1.1", "--side", "lower",
                                "--epsilon", "1e-3", "--format", "json")
        assert code == 0
        assert json.loads(out)["verdicts"][0]["witness_gap"] < 0.2

    def test_zero_epsilon_exit_2(self, capsys):
        code, _, err = run_main(capsys, "sharpness", "1.1", "--side", "lower",
                                "--epsilon", "0")
        assert code == 2
        assert "epsilon" in err


class TestConstants:
    def test_rows_and_cross_check(self, capsys):
        code, out, _ = run_main(capsys, "constants", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        rows = {row["id"]: row for row in doc["verdicts"]}
        assert set(rows) == {"alpha1", "beta1", "alpha2", "beta2", "alpha3",
                             "beta3", "lambda0", "p0"}
        for row in rows.values():
            assert row["abs_diff"] < 1e-9
        assert rows["alpha1"]["value"] == "0.222222222222222"
        assert rows["beta3"]["value"] == "0.416666666666667"
        assert rows["p0"]["value"].startswith("1.8435")
        c = sharp_constants()
        assert float(rows["lambda0"]["value"]) == pytest.approx(c.lambda0, abs=1e-15)

    def test_one_recovery_per_ratio_function(self, capsys, monkeypatch):
        calls = []
        recover = cli.recover_constant

        def counting(fn, objective, tol=1e-9):
            calls.append(fn)
            return recover(fn, objective, tol)

        monkeypatch.setattr(cli, "recover_constant", counting)
        code, _, _ = run_main(capsys, "constants", "--format", "json")
        assert code == 0
        assert sorted(calls, key=list(RatioFunctionKind).index) == list(RatioFunctionKind)


class TestSeries:
    def test_hq(self, capsys):
        code, out, _ = run_main(capsys, "series", "HQ", "--terms", "50", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["direction"] == "strictly-decreasing"
        assert doc["verdicts"][0]["ratio"] == "2/9"
        assert doc["first_violation"] is None
        assert len(doc["verdicts"]) == 10

    def test_hc(self, capsys):
        code, out, _ = run_main(capsys, "series", "HC", "--terms", "50", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["direction"] == "strictly-increasing"
        assert doc["verdicts"][0]["ratio"] == "5/12"

    def test_single_term_exit_2(self, capsys):
        code, _, err = run_main(capsys, "series", "HQ", "--terms", "1")
        assert code == 2
        assert "terms" in err

    @pytest.mark.parametrize("terms", [2, 3, 9, 10, 11, 50])
    @pytest.mark.parametrize("pairing,num,den", [
        ("HQ", CoefficientKind.A, CoefficientKind.B),
        ("HC", CoefficientKind.C, CoefficientKind.D),
    ])
    def test_rows_equal_coefficient_quotients(self, capsys, pairing, num, den, terms):
        # the rows are built from the verdict's factorial-free integer ratios;
        # the quotient of the exact coefficients is their reference
        code, out, _ = run_main(capsys, "series", pairing, "--terms", str(terms), "--format", "json")
        assert code == 0
        rows = json.loads(out)["verdicts"]
        assert len(rows) == min(10, terms)
        for n, row in enumerate(rows, 1):
            ratio = coefficient_exact(num, n) / coefficient_exact(den, n)
            assert row["id"] == f"{pairing}-ratio-{n}"
            assert row["ratio"] == f"{ratio.numerator}/{ratio.denominator}"
            assert row["ratio_float"].hex() == float(ratio).hex()

    def test_golden_document(self, capsys):
        code, out, _ = run_main(capsys, "series", "HQ", "--terms", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == json.loads((GOLDEN / "series_hq_5.json").read_text())


class TestFormats:
    def test_default_is_json_when_not_a_tty(self):
        code, out, _ = run_cli("eval", "--means", "H", "--pair", "1,2")
        assert code == 0
        assert json.loads(out)["command"] == "eval"

    def test_csv_has_header_row(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--means", "H,G", "--pair", "1,2",
                                "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,value"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == evaluate_mean(HARMONIC, (1, 2))

    def test_table_renders_rows(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--means", "H", "--pair", "1,2",
                                "--format", "table")
        assert code == 0
        assert "id" in out and "value" in out

    def test_usage_error_exit_2(self):
        code, _, err = run_cli("verify", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("unbuffered", ["1", None])
    @pytest.mark.parametrize("argv,code", [
        (["verify", "1.1", "--grid", "100"], 0),
        (["verify", "1.1", "--grid", "100", "--weight-lower", "0.2210"], 1),
    ])
    def test_closed_stdout_keeps_the_verdict_code(self, unbuffered, argv, code):
        # the pipe's read end is closed before the child starts, so its
        # first write or flush fails
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "means_lab", *argv, "--format", "json"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert proc.stderr == ""

    def test_interrupt_exit_130_without_traceback(self):
        # a 20M-point grid is still sweeping 1.5 s in; the child gets the
        # default SIGINT action even where this process ignores SIGINT, since
        # Python turns SIGINT into KeyboardInterrupt only if it was not ignored
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "means_lab", "verify", "1.1", "--grid", "20000000",
             "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            time.sleep(1.5)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert out == ""
        assert "Traceback" not in err
        assert err == "error: interrupted\n"

    def test_interrupt_leaves_no_forked_worker_behind(self):
        # the CLI leads a session of its own, and SIGINT goes to it alone, not
        # to the workers it forked for the sweep; once it has exited 130, no
        # process is left in its group
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "means_lab", "verify", "1.1", "--grid", "20000000",
             "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            time.sleep(1.5)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert err == "error: interrupted\n"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_unexpected_error_exit_3_without_traceback(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_eval", boom)
        code, out, err = run_main(capsys, "eval", "--means", "H", "--pair", "1,2")
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_strict_json_writes_non_finite_as_null(self, capsys, monkeypatch):
        # a sweep reports min_margin = inf when every margin is near zero, and
        # such a report does not hold
        report = CertificationReport(grid_size=50, min_margin=math.inf,
                                     worst_pair=PositivePair(1.5, 0.5), holds=False,
                                     near_zero=50, seed=42)
        monkeypatch.setattr(cli, "verify_chain", lambda samples, seed: report)
        code, out, _ = run_main(capsys, "verify", "chain", "--samples", "50", "--format", "json")
        assert code == 1

        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["verdicts"][0]["min_margin"] is None
        assert doc["worst_case"] is None

    @staticmethod
    def _round_trip_json(doc: dict) -> str:
        """The reference rendering: dumped leniently, parsed back with every
        non-finite constant as None, then dumped as strict indented JSON."""
        strict = json.loads(json.dumps(doc), parse_constant=lambda _: None)
        return json.dumps(strict, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("margin,pair_b", [
        (-2.5e-16, 0.5),          # all finite: the one strict dump
        (math.inf, 0.5),          # the rest: the round trip, non-finite as null
        (-math.inf, 0.5),
        (math.nan, 0.5),
        (-2.5e-16, math.inf),
        (-2.5e-16, math.nan),
    ])
    def test_json_render_equals_round_trip(self, capsys, margin, pair_b):
        row = {"id": "1.1-lower", "holds": margin < 0.0, "min_margin": margin, "near_zero": 3,
               "worst_gap": 1e-300, "worst_a": 1.0 + 1e-300, "worst_b": 2**70, "note": "\u00e9"}
        worst = {"claim": "1.1-lower", "min_margin": None, "pair": [1.5, pair_b], "gap": 0.5}
        doc = cli._document("verify", [row, dict(row, id="chain")], seed=7, samples=50,
                            worst_case=worst)
        doc["first_violation"] = None
        cli._render(doc, "json")
        assert capsys.readouterr().out == self._round_trip_json(doc)

    def test_json_schema_keys_everywhere(self, capsys):
        invocations = [
            ("eval", "--means", "H", "--pair", "1,2"),
            ("verify", "1.1", "--grid", "200"),
            ("verify", "chain", "--samples", "50"),
            ("sharpness", "1.2", "--side", "lower", "--epsilon", "1e-3"),
            ("constants",),
            ("series", "HQ", "--terms", "5"),
        ]
        for argv in invocations:
            code, out, _ = run_main(capsys, *argv, "--format", "json")
            assert code == 0, argv
            doc = json.loads(out)
            assert SCHEMA_KEYS <= set(doc.keys()), argv
            # the table and csv renderers read their header from the first row
            assert doc["verdicts"], argv


class TestOneParser:
    ONE_CALL_EACH = [
        ["eval", "--means", "H", "--pair", "1,2"],
        ["verify", "1.1", "--grid", "200"],
        ["sharpness", "1.2", "--side", "lower", "--epsilon", "1e-3"],
        ["constants"],
        ["series", "HQ", "--terms", "5"],
    ]

    def test_main_builds_no_parser_after_its_first_call(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        cli._parser.cache_clear()
        counts = []
        for argv in self.ONE_CALL_EACH:
            assert run_main(capsys, *argv, "--format", "json")[0] == 0, argv
            counts.append(len(built))
        # the first call builds the top parser and one per subcommand
        assert counts == [6] * len(self.ONE_CALL_EACH)

    def test_build_parser_returns_a_fresh_parser(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser() not in (first, second)

    def test_a_changed_built_parser_leaves_main_unchanged(self, capsys):
        argv = ["--extra", "1", "constants"]
        before = run_exit(capsys, *argv)
        assert before[0] == 2 and before[1] == ""
        parser = cli.build_parser()
        parser.add_argument("--extra")
        assert parser.parse_args(argv).extra == "1"
        assert run_exit(capsys, *argv) == before


class TestNoStateAcrossCalls:
    # a usage error, a help request and a domain error before every command
    ERRORS = (["verify", "1.4"], ["--help"], ["verify", "1.1", "--grid", "50"])

    def test_goldens_after_errors_in_reverse_order(self, capsys):
        golden = json.loads((GOLDEN / "reports_small.json").read_text())
        # the sweeps of 10,000 points or more are left to test_report_identity
        small = [key for key in golden
                 if not any(count in key.split() for count in ("10000", "100000"))]
        assert len(small) == 36
        first = {}
        for key in reversed(small):
            for argv in self.ERRORS:
                result = run_exit(capsys, *argv)
                assert result == first.setdefault(" ".join(argv), result), argv
            code, out, err = run_main(capsys, *key.split(), "--format", "json")
            assert (code, err) == (0, ""), key
            assert json.loads(out) == golden[key], key
        codes = {argv: result[0] for argv, result in first.items()}
        assert codes == {"verify 1.4": 2, "--help": 0, "verify 1.1 --grid 50": 2}
        assert first["--help"][1].startswith("usage: means-lab")
