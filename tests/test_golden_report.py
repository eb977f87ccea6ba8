"""The deterministic reproduce report must not change under refactors.

perfbench/golden/reproduce.json holds the JSON report of the default
run with its only non-deterministic field, wall_time, removed.  Any
change to a computed value, a record id or the record order shows up
here as a byte difference.  A nonzero seed must give the same records;
its echoed seed and command are mapped back to the default run's.
"""

import json
import pathlib

import pytest

from rdpk3.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "reproduce.json"


@pytest.mark.parametrize("seed", [0, 7])
def test_reproduce_report_matches_golden(capsys, seed):
    code = main(["--format", "json", "--seed", str(seed), "reproduce"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert isinstance(doc.pop("wall_time"), (int, float))
    assert (doc["seed"], doc["command"]) == (seed, "reproduce" + (f" --seed {seed}" if seed else ""))
    doc["seed"], doc["command"] = 0, "reproduce"
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert text == GOLDEN.read_text(encoding="utf-8")
