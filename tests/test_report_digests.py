"""``tools/report_digests.py --compare`` on small synthetic digest files."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("report_digests", DIGESTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the functions, runs no case
    return module


def write(path, table):
    path.write_text(json.dumps(table))
    return str(path)


BEFORE = {"gl3-N4-seed1": {"digest": "aa", "failed": ["dual", "ttcharges"]},
          "gl3-N4-seed2": {"digest": "bb", "failed": []}}


def test_compare_matching_files(digests, tmp_path, capsys):
    a = write(tmp_path / "a.json", BEFORE)
    b = write(tmp_path / "b.json", BEFORE)
    assert digests.main(["--compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "0 of 2 cases differ" in out
    assert "failing:" not in out


def test_compare_lists_failure_changes_per_case(digests, tmp_path, capsys):
    after = {"gl3-N4-seed1": {"digest": "cc", "failed": ["gram", "ttcharges"]},
             "gl3-N4-seed2": {"digest": "dd", "failed": []}}
    a = write(tmp_path / "a.json", BEFORE)
    b = write(tmp_path / "b.json", after)
    assert digests.main(["--compare", a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "differs: gl3-N4-seed1" in lines and "differs: gl3-N4-seed2" in lines
    assert [line for line in lines if line.startswith("failing:")] == [
        "failing: gl3-N4-seed1 +gram -dual"
    ]
    assert "2 of 2 cases differ" in lines


def report(gram_details, failed=()):
    return {"all_passed": not failed, "results": [
        {"task": "gram", "passed": "gram" not in failed, "max_residual": 1e-12,
         "details": gram_details},
        {"task": "det0", "passed": True, "max_residual": 2e-13,
         "details": {"per_state": [{"rel_err": 1e-14}, {"rel_err": 3e-14}]}},
    ]}


def test_compare_names_moved_new_and_vanished_fields(digests, tmp_path, capsys):
    a_rep = report({"scale": 2.0, "old": "x"})
    b_rep = report({"scale": 2.5, "cells": 1e-12})
    b_rep["results"][1]["details"]["per_state"][1]["rel_err"] = 4e-14
    a = write(tmp_path / "a.json", {
        "gl2-N2-seed1": {"digest": "aa", "failed": [], "report": a_rep},
        "gl2-N2-seed2": {"digest": "bb", "failed": [], "report": report({"scale": 1.0})},
    })
    b = write(tmp_path / "b.json", {
        "gl2-N2-seed1": {"digest": "cc", "failed": [], "report": b_rep},
        "gl2-N2-seed2": {"digest": "bb", "failed": [], "report": report({"scale": 1.0})},
    })
    assert digests.main(["--compare", a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.split(":")[0] in ("moved", "new", "gone")] == [
        "gone: results.gram.details.old  1 cases",
        "moved: results.det0.details.per_state[].rel_err  1 cases  3e-14 -> 4e-14",
        "moved: results.gram.details.scale  1 cases  2.0 -> 2.5",
        "new: results.gram.details.cells  1 cases  None -> 1e-12",
    ]
    assert "1 of 2 cases differ" in lines


def test_compare_stops_quietly_when_its_reader_closes(tmp_path):
    """Piped into a reader that closes after one line, ``--compare`` ends
    with status 1 and nothing on stderr.  Its output is larger than a pipe
    holds, so the script is still writing when the pipe closes."""
    cases = [f"gl3-N4-seed{i}" for i in range(10000)]
    a = write(tmp_path / "a.json", {c: {"digest": "a", "failed": []} for c in cases})
    b = write(tmp_path / "b.json", {c: {"digest": "b", "failed": []} for c in cases})
    proc = subprocess.Popen([sys.executable, str(DIGESTS_PATH), "--compare", a, b],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"differs: gl3-N4-seed0\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()
