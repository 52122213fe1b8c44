"""The examples in README.md, run as written.

Each ``$ fubinipoly ...`` example in the CLI block is run through
``cli.main`` and its output checked against the lines shown under it,
where a line ``...`` stands for any number of lines.  Every ``python``
block is executed.
"""
import re
import shlex
from pathlib import Path

import pytest

from fubinipoly.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def _cli_examples():
    """(argv, expected lines) for each ``$ fubinipoly`` example."""
    examples = []
    for _, body in _BLOCKS:
        for chunk in body.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ fubinipoly "):
                examples.append((shlex.split(lines[0])[2:], lines[1:]))
    return examples


def _matches(expected, actual):
    """Whether ``actual`` is ``expected`` with each ``...`` line standing for
    any run of lines (matched at the first place the next line fits)."""
    pos, skipping = 0, False
    for line in expected:
        if line == "...":
            skipping = True
            continue
        if skipping:
            if line not in actual[pos:]:
                return False
            pos = actual.index(line, pos) + 1
        elif actual[pos:pos + 1] != [line]:
            return False
        else:
            pos += 1
        skipping = False
    return skipping or pos == len(actual)


def test_the_readme_shows_cli_examples_and_python_snippets():
    assert len(_cli_examples()) >= 5
    assert sum(lang == "python" for lang, _ in _BLOCKS) >= 2


@pytest.mark.parametrize("argv,expected", _cli_examples(),
                         ids=[" ".join(argv) for argv, _ in _cli_examples()])
def test_cli_example_prints_what_the_readme_shows(argv, expected, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _matches(expected, captured.out.splitlines()), captured.out


@pytest.mark.parametrize("source", [body for lang, body in _BLOCKS if lang == "python"])
def test_python_snippet_runs(source):
    exec(compile(source, "README.md", "exec"), {})


def test_ellipsis_matching():
    assert _matches(["a", "...", "c", "..."], ["a", "b", "c", "d"])
    assert _matches(["a", "...", "c"], ["a", "c"])
    assert not _matches(["a", "...", "c"], ["a", "c", "d"])
    assert not _matches(["a", "b"], ["a"])
    assert not _matches(["a"], ["a", "b"])
