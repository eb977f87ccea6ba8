"""Every ``$ rdpk3 ...`` example in the README runs with its shown outcome.

Examples are taken from the README's ``text`` code blocks.  A command
continues onto the next line when its line ends in a backslash, and a
``# ...`` tail is a comment.  The example must exit 2 when the README
shows an ``error:`` line right after it, and 0 otherwise.
"""

import pathlib
import shlex

import pytest

from rdpk3.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_examples():
    """(argv, expected exit code) for each example, in README order."""
    examples = []
    in_text = False
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("```"):
            in_text = line == "```text"
            continue
        if not (in_text and line.startswith("$ rdpk3 ")):
            continue
        command = line
        while command.endswith("\\") and i < len(lines):
            command = command[:-1] + " " + lines[i].strip()
            i += 1
        argv = shlex.split(command[len("$ rdpk3 "):], comments=True)
        shows_error = i < len(lines) and lines[i].startswith("error:")
        examples.append((argv, 2 if shows_error else 0))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize(
    "argv,want", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example(argv, want, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == want, err
