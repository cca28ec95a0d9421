"""The README's CLI examples and library quick start run unchanged."""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from nstate.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``after``."""
    tail = README[README.index(after) :]
    return re.search(rf"```{lang}\n(.*?)```", tail, re.S).group(1)


def test_cli_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(_block("## CLI", "ini"))
    commands = [
        shlex.split(line)[1:]
        for line in _block("## CLI", "sh").replace("\\\n", " ").splitlines()
        if line.startswith("nstate ")
    ]
    assert len(commands) == 5
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == 0, (argv, err.getvalue())


def test_library_quick_start_transfers_completely():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(_block("## Library quick start", "python"), {})
    p2_exact, p2_rk4 = map(float, out.getvalue().split())
    assert abs(p2_exact - 1.0) <= 1e-6 and abs(p2_rk4 - 1.0) <= 1e-6
