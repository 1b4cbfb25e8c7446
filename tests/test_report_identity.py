"""Report identity: the JSON documents of small verify/sharpness runs, of
the constants and series commands and of eval on three pairs (one ordinary,
two at the extreme ratios of the float range) must equal the recorded
goldens exactly, so a refactor of the kernels, sweeps or ratio functions
cannot move a single number unnoticed.

Regenerate (only for an intended numerical change) with
``PYTHONPATH=src python tests/test_report_identity.py``.
"""

import io
import json
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


if __name__ == "__main__":
    docs = {" ".join(argv): _document(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(docs, indent=2) + "\n")
