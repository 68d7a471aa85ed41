"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one pass/fail line.  Criteria 1 and 2 also enforce their runtime targets,
the `runtime_s` of their TOLERANCES entries.  Each result's name, verdict
and detail, and the tolerances, must equal tests/pinned/experiment.json,
an `experiment --json` report with its timings removed."""

import json
from pathlib import Path

import pytest

from affinetest import acceptance
from affinetest.cli import main

PINNED = json.loads((Path(__file__).parent / "pinned" / "experiment.json").read_text())


@pytest.mark.parametrize("number,fn", acceptance.CRITERIA, ids=[n for n, _ in acceptance.CRITERIA])
def test_criterion(number, fn):
    result = fn()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {number} {result.name}: {result.detail} "
          f"({result.seconds:.1f}s)")
    assert result.passed, result.detail
    target = acceptance.TOLERANCES[result.name].get("runtime_s")
    if target is not None:
        assert result.seconds < target, f"{result.name} took {result.seconds:.1f}s"
    pinned = PINNED["results"][int(number) - 1]
    assert {"name": result.name, "passed": result.passed, "detail": result.detail} == pinned


def test_tolerances_are_pinned():
    assert json.dumps(acceptance.TOLERANCES, sort_keys=True) == json.dumps(
        PINNED["tolerances"], sort_keys=True
    )


def test_experiment_report_is_pinned(tmp_path, capsys):
    # --only takes numbers and names
    path = tmp_path / "exp.json"
    assert main(["experiment", "--only", "3", "dimension_invariances", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    for r in doc["results"]:
        del r["seconds"]
    names = ["cell_size_band", "dimension_invariances"]
    assert doc == {
        "results": PINNED["results"][2:4],
        "tolerances": {name: PINNED["tolerances"][name] for name in names},
    }


def test_criteria_run_with_their_tolerances(monkeypatch):
    monkeypatch.setitem(acceptance.TOLERANCES["counting_lemma"], "instances", 3)
    result = acceptance.counting_lemma()
    assert result.name == "counting_lemma" and result.passed
    assert result.detail.startswith("3 instances, ")


def test_counting_lemma_detail_reads_its_slack(monkeypatch):
    monkeypatch.setitem(acceptance.TOLERANCES["counting_lemma"], "instances", 5)
    monkeypatch.setitem(acceptance.TOLERANCES["counting_lemma"], "slack", 1e-3)
    result = acceptance.counting_lemma()
    assert result.passed and result.detail.endswith("<= 1e-3"), result.detail
