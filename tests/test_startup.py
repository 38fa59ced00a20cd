"""Each command executes only the ``palrich`` modules it runs.

``palrich.cli`` binds its submodules as deferred modules: they sit in
``sys.modules`` from the start, but a module's body runs only when a
command first reads one of its names.  Each case below starts one child
interpreter, runs one command line through ``palrich.cli.main`` and lists
the modules whose body ran.  A body that ran has ``__builtins__`` in its
namespace (``exec`` puts it there); the namespace is read without the
attribute access that would run a deferred body.  The child also reports
whether ``dataclasses`` was imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"

CHILD = """
import json, sys
from palrich.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
ran = sorted(
    name.removeprefix("palrich.")
    for name, module in list(sys.modules.items())
    if name.startswith("palrich.") and name != "palrich.cli"
    and "__builtins__" in object.__getattribute__(module, "__dict__")
)
print(json.dumps({"code": code, "ran": ran, "dataclasses": "dataclasses" in sys.modules}),
      file=sys.stderr)
"""

ALL = {"analysis", "counting", "errors", "factors", "generators", "palindromes", "rauzy", "words"}


def child(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    return json.loads(proc.stderr.splitlines()[-1]), proc.stdout


def executed(*argv):
    result, out = child(*argv)
    return result["code"], set(result["ran"]), out


def test_help_and_parser_errors_run_no_module_but_errors():
    result, out = child("--help")
    assert (result["code"], set(result["ran"])) == (0, {"errors"})
    assert not result["dataclasses"]
    assert out == (GOLDEN / "help_palrich.txt").read_text()
    result, _ = child("count", "--kind", "nothing")
    assert (result["code"], set(result["ran"])) == (2, {"errors"})
    assert not result["dataclasses"]


def test_count_runs_counting_and_errors_only():
    result, _ = child("count", "--kind", "rich", "--alphabet", "3", "--n-max", "6")
    assert (result["code"], set(result["ran"])) == (0, {"counting", "errors"})
    assert not result["dataclasses"]


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("verify", "--word", "abacaba"), {"counting", "generators", "rauzy"}),
        (("analyze", "--word", "abacaba"), {"counting", "generators", "rauzy"}),
        (("graph", "--generator", "fibonacci", "--n", "3", "--tier", "super"),
         {"analysis", "counting", "palindromes"}),
    ],
    ids=["verify-word", "analyze-word", "graph"],
)
def test_a_command_runs_none_of_the_modules_it_does_not_use(argv, unused):
    code, ran, _ = executed(*argv)
    assert code == 0
    assert ran == ALL - unused
