"""The deterministic reproduce report must not change under refactors.

perfbench/golden/reproduce.json holds the JSON report of the default
run with its only non-deterministic field, wall_time, removed.  Any
change to a computed value, a record id or the record order shows up
here as a byte difference.
"""

import json
import pathlib

from rdpk3.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "reproduce.json"


def test_reproduce_report_matches_golden(capsys):
    code = main(["--format", "json", "reproduce"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert isinstance(doc.pop("wall_time"), (int, float))
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert text == GOLDEN.read_text(encoding="utf-8")
