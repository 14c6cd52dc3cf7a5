"""Byte-identity of CLI stdout against the pinned goldens.

``perfbench/goldens.json`` maps each command (arguments joined by single
spaces) to its exit code and stdout. Each command is replayed in-process
from the repository root the way the benchmark runs it: with ``--json``,
and with ``--out`` for ``chsh optimize``. The goldens file is only read.
"""

import json
from pathlib import Path

import pytest

from normalobs.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_cli_stdout_matches_golden(command, capsys, monkeypatch, tmp_path):
    argv = command.split(" ") + ["--json"]
    if argv[:2] == ["chsh", "optimize"]:
        argv += ["--out", str(tmp_path / "best.json")]
    monkeypatch.chdir(ROOT)
    code = main(argv)
    golden = GOLDENS[command]
    assert code == golden["code"]
    assert capsys.readouterr().out.encode() == golden["stdout"].encode()
