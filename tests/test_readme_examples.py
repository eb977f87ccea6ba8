"""Every README example runs with its shown outcome.

Command examples are the ``$ rdpk3 ...`` lines of the README's ``text``
code blocks.  A command continues onto the next line when its line ends
in a backslash, and a ``# ...`` tail is a comment.  The lines shown
after a command, up to a ``...`` line, a blank line, the next ``$`` line
or the end of the block, are the first lines it prints; a summary line's
``in N.NNs`` timing is not compared.  The example must exit 2 when the
README shows an ``error:`` line right after it (that line is compared
with standard error), and 0 otherwise.

The ``python`` block under "Library quick start" is run as a script; the
``# ...`` lines right after each ``print(...)`` line are what it prints.
"""

import contextlib
import importlib
import io
import pathlib
import re
import shlex

import pytest

from rdpk3.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_examples():
    """(argv, expected exit code, shown output lines), in README order."""
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
        shown = []
        while i < len(lines) and lines[i].strip() not in ("", "...") and not (
            lines[i].startswith("$ ") or lines[i].startswith("```")
        ):
            shown.append(lines[i])
            i += 1
        shows_error = bool(shown) and shown[0].startswith("error:")
        examples.append((argv, 2 if shows_error else 0, shown))
    return examples


def without_timing(line):
    return re.sub(r" in \d+\.\d\ds$", "", line)


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize(
    "argv,want,shown", EXAMPLES, ids=[" ".join(argv) for argv, _, _ in EXAMPLES]
)
def test_readme_example(argv, want, shown, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == want, captured.err
    printed = (captured.err if want == 2 else captured.out).splitlines()
    assert [without_timing(x) for x in printed[: len(shown)]] == [
        without_timing(x) for x in shown
    ]


def test_readme_examples_show_output():
    assert sum(len(shown) for _, _, shown in EXAMPLES) >= 20


def quick_start_block():
    """(source, expected output lines) of the README's library quick start."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = []
    lines = source.splitlines()
    for prev, line in zip(lines, lines[1:]):
        if prev.startswith("print(") and line.startswith("# "):
            expected.append(line[2:])
    return source, expected


def test_readme_quick_start_prints_its_results():
    source, expected = quick_start_block()
    assert len(expected) >= 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md quick start", "exec"), {})
    assert out.getvalue().splitlines() == expected


GUARDS = {
    "MAX_PRIME", "_ECHO_LIMIT", "_COINDEX_GUARD", "_WITT_EVAL_GUARD",
    "COUNT_WORK_GUARD", "_MAX_SING_POINTS", "_RANK_GUARD",
}


def guard_table():
    """{guard name: (module name, value)} from the README's guard table."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Guards", 1)[1]
    rows = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = (cells[1].strip("`"), int(cells[2]))
    return rows


def test_readme_guard_table_matches_the_modules():
    rows = guard_table()
    assert set(rows) == GUARDS
    for name, (module, value) in rows.items():
        assert getattr(importlib.import_module(module), name) == value, name
