"""The README's examples run as written: the library quick start prints what
its comments say, and every command line of the CLI block exits with 0."""

import re
import shlex
from pathlib import Path

from qlr.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading, lang):
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_comments():
    code = fenced_block("Library quick start", "python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    printed = []
    exec(code, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert expected == ["-1 + q", "q^3 + 3*q^4 conjectural", "True q^3 + 3*q^4"]
    assert printed == expected


def test_command_line_examples_exit_cleanly(tmp_path, capsys):
    lines = [line for line in fenced_block("Command line", "sh").splitlines()
             if line.startswith("qlr ")]
    assert len(lines) == 8
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, line
    capsys.readouterr()
    assert (tmp_path / "poset.dot").read_text().startswith("digraph")
