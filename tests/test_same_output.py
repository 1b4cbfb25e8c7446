"""tools/same_output.py: the command list it reads, a run on a short list
of commands against the repository itself and against a stub tree whose
cli.main prints one extra byte, and its exit code for a stub tree whose
package fails to import and for a missing tree."""

import importlib.util
import shutil
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_output.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("same_output", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

SHORT = [["constants", "--format", "json"], ["series", "HC", "--terms", "5", "--format", "csv"],
         ["verify", "2.1"], ["eval", "--help"]]


def test_commands_are_the_report_identity_commands_in_each_format():
    from test_report_identity import COMMANDS

    argvs = tool.commands()
    assert len(argvs) == 3 * len(COMMANDS) + 2 + 6
    assert argvs[:3] == [COMMANDS[0] + ["--format", fmt] for fmt in ("json", "table", "csv")]
    assert argvs[-8:-6] == [["verify", "2.1"], ["sharpness", "1.1", "--side", "lower", "--epsilon", "0"]]
    assert argvs[-6:] == [["--help"]] + [[command, "--help"] for command in
                                         ("eval", "verify", "sharpness", "constants", "series")]


def test_only_a_differing_tree_is_reported(tmp_path):
    assert tool.differing(tool.ROOT, tool.ROOT, SHORT) == []
    stub = tmp_path / "stub"
    shutil.copytree(tool.ROOT / "src", stub / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(stub / "src" / "means_lab" / "cli.py", "a") as cli:
        cli.write("\n_main = main\n\n\ndef main(argv=None):\n"
                  "    code = _main(argv)\n    sys.stdout.write('\\n')\n    return code\n")
    # argparse exits before the stub's extra byte, so the usage error and the help match
    assert tool.differing(tool.ROOT, stub, SHORT) == ["constants --format json",
                                                      "series HC --terms 5 --format csv"]


def test_a_tree_that_cannot_run_exits_2(tmp_path, capsys):
    stub = tmp_path / "stub"
    (stub / "src" / "means_lab").mkdir(parents=True)
    (stub / "src" / "means_lab" / "__init__.py").write_text("raise ImportError('stub tree')\n")
    # the stub runs first, so the repository's commands never run
    assert tool.main([str(stub), str(tool.ROOT)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {stub}: the command runner exited 1: ImportError: stub tree\n"
    missing = tmp_path / "missing"
    assert tool.main([str(missing), str(tool.ROOT)]) == 2
    assert capsys.readouterr() == ("", f"error: {missing}: No such file or directory\n")
