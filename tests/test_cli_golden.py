"""Golden transcript of the README command examples.

Every ``pcflab ...`` line in the README's shell block runs in-process in both
output formats; its stdout and exit code must match ``cli_golden.json``
byte for byte.  To re-record after an intended output change, run
``PYTHONPATH=src python3 tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from pcflab.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "json-lines")


def readme_commands():
    """Argument lists of the ``pcflab`` lines in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("pcflab ")]
    return [shlex.split(ln, comments=True)[1:] for ln in lines]


def golden_argvs():
    return [["--format", fmt, *cmd] for cmd in readme_commands() for fmt in FORMATS]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return {"argv": list(argv), "exit": rc, "stdout": out.getvalue()}


def load_fixture():
    return {tuple(rec["argv"]): rec for rec in json.loads(FIXTURE.read_text())}


def test_fixture_covers_the_readme():
    assert sorted(load_fixture()) == sorted(map(tuple, golden_argvs()))


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.delenv("PCFLAB_PRECISION", raising=False)
    assert run(argv) == load_fixture()[tuple(argv)]


if __name__ == "__main__":
    os.environ.pop("PCFLAB_PRECISION", None)
    records = [run(argv) for argv in golden_argvs()]
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
