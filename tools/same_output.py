"""Byte-for-byte comparison of the CLI output of two source trees.

    python3 tools/same_output.py PARENT_TREE CHANGE_TREE

Runs every command of ``tests/test_report_identity.py``'s ``COMMANDS`` as
json, table and csv, plus two usage errors, ``verify 2.1`` and ``sharpness
1.1 --side lower --epsilon 0``, and the help texts, ``--help`` and
``<command> --help`` for each of the five commands, in each tree.  Each tree gets one fresh
interpreter, with the tree's ``src`` as its only ``PYTHONPATH`` entry, which
runs the commands in process through ``means_lab.cli.main``.  The command
list is read from this repository's test file, so both trees run the same
commands.  Prints each command whose stdout, stderr or exit code differs
between the trees, then a count; exits 1 if any command differs, else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_IDENTITY = ROOT / "tests" / "test_report_identity.py"
FORMATS = ("json", "table", "csv")
USAGE_ERRORS = (["verify", "2.1"], ["sharpness", "1.1", "--side", "lower", "--epsilon", "0"])
HELP = (["--help"], *([command, "--help"] for command in ("eval", "verify", "sharpness", "constants",
                                                          "series")))

# run in each tree: argv lists on stdin, one [stdout, stderr, exit code] per argv on stdout
CHILD = """\
import contextlib, io, json, sys
from means_lab.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and help
            code = exc.code
    results.append([out.getvalue(), err.getvalue(), code])
json.dump(results, sys.stdout)
"""


def report_commands(path: Path = REPORT_IDENTITY) -> list[list[str]]:
    """The COMMANDS list of the report-identity test, evaluated from its
    source alone, so neither pytest nor a tree's package is imported."""
    tree = ast.parse(path.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in node.targets))
    return eval(compile(ast.Expression(value), str(path), "eval"), {})


def commands() -> list[list[str]]:
    """Every report-identity command in each format, then the usage errors
    and the help texts."""
    return [argv + ["--format", fmt] for argv in report_commands() for fmt in FORMATS] \
        + [list(argv) for argv in USAGE_ERRORS + HELP]


def run_tree(tree: Path, argvs: list[list[str]]) -> list[list]:
    """[stdout, stderr, exit code] of each argv, run in one fresh interpreter
    on tree's src."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tree, env=env, input=json.dumps(argvs),
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{tree}: the command runner exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differing(parent: Path, change: Path, argvs: list[list[str]]) -> list[str]:
    """The commands of argvs whose stdout, stderr or exit code differ
    between the two trees, each joined by spaces."""
    pairs = zip(argvs, run_tree(parent, argvs), run_tree(change, argvs))
    return [" ".join(argv) for argv, old, new in pairs if old != new]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    args = parser.parse_args(argv)
    argvs = commands()
    differ = differing(args.parent_tree, args.change_tree, argvs)
    for command in differ:
        print(f"differs: {command}")
    print(f"{len(argvs)} commands compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
