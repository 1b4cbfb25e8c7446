"""Report identity: the JSON documents of small verify/sharpness runs, of
the constants and series commands and of eval on three pairs (one ordinary,
two at the extreme ratios of the float range) must equal the recorded
goldens exactly, so a refactor of the kernels, sweeps or ratio functions
cannot move a single number unnoticed.

Regenerate (only for an intended numerical change) with
``PYTHONPATH=src python tests/test_report_identity.py``; given command
prefixes, as in ``PYTHONPATH=src python tests/test_report_identity.py verify
corpus`` (several separated by ","), it rewrites only the entries of the
commands that begin with one of them.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from means_lab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "reports_small.json"

COMMANDS = (
    [["verify", t, "--grid", "2000"] for t in ("1.1", "1.2", "1.3")]
    + [["verify", t, "--grid", "100000"] for t in ("1.1", "1.2", "1.3")]
    + [["verify", "1.2", "--grid", "8193", "--weight-lower", "0.34", "--weight-upper", "0.19"]]
    + [["verify", "chain", "--samples", "2000", "--seed", "7"],
       ["verify", "corpus", "--samples", "500", "--seed", "7"],
       ["verify", "chain", "--samples", "100000", "--seed", "42"],
       ["verify", "corpus", "--samples", "10000", "--seed", "42"]]
    + [["sharpness", t, "--side", side, "--epsilon", "1e-3"]
       for t in ("1.1", "1.2", "1.3") for side in ("lower", "upper")]
    + [["sharpness", t, "--side", side, "--epsilon", eps]
       for eps in ("1e-2", "1e-4", "1e-6") for t in ("1.1", "1.2", "1.3")
       for side in ("lower", "upper")]
    + [["constants"], ["series", "HQ", "--terms", "50"], ["series", "HC", "--terms", "50"]]
    + [["eval", "--means", "H,G,L,P,A,M,T,Q,C,Lp:-3.16,Lp:-1,Lp:0,Lp:2,Lp:1e300,Lp:-1e300",
        "--pair", pair] for pair in ("1,2", "1e-308,1e308", "1.5e-201,1.2e272")]
)


def _document(argv: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv + ["--format", "json"])
    assert code == 0, argv
    return json.loads(buf.getvalue())


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert _document(argv) == golden[" ".join(argv)]


def regenerate(words: list[str], golden: Path = GOLDEN) -> None:
    """Write the goldens of COMMANDS to golden: all of them, or given words,
    those of the commands that begin with one of the prefixes the words
    spell (several separated by ","); every other entry keeps its bytes."""
    prefixes = [prefix.split() for prefix in " ".join(words).split(",")] if words else []
    for prefix in prefixes:
        if not any(argv[:len(prefix)] == prefix for argv in COMMANDS):
            raise SystemExit(f"no command begins with {' '.join(prefix)!r}")
    old = json.loads(golden.read_text()) if prefixes else {}
    docs = {}
    for argv in COMMANDS:
        key = " ".join(argv)
        rewrite = key not in old or any(argv[:len(prefix)] == prefix for prefix in prefixes)
        docs[key] = _document(argv) if rewrite else old[key]
    golden.write_text(json.dumps(docs, indent=2) + "\n")


def test_regenerate_rewrites_only_the_prefixed_entries(tmp_path):
    # a stale corpus entry is rewritten; a stale entry of any other command,
    # and every byte of the rest, stay as they were
    docs, corpus = json.loads(GOLDEN.read_text()), "verify corpus --samples 500 --seed 7"
    stale = {**docs, corpus: {"stale": 1}, "constants": {"stale": 2}}
    golden = tmp_path / "reports_small.json"
    golden.write_text(json.dumps(stale, indent=2) + "\n")
    regenerate(["verify", "corpus", "--samples", "500"], golden)
    assert golden.read_text() == json.dumps({**stale, corpus: docs[corpus]}, indent=2) + "\n"
    with pytest.raises(SystemExit, match="no command begins with 'verify 2.1'"):
        regenerate(["verify", "2.1,", "constants"], golden)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
