"""The program's outputs on a seeded corpus, against the committed record.

``benchmarks/record_outputs.py`` builds the corpus and wrote
``tests/data/outputs.json``; a change that means to move outputs re-records
the file with it and says in ``CHANGES.md`` which values moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _recorder():
    spec = importlib.util.spec_from_file_location(
        "record_outputs", ROOT / "benchmarks" / "record_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def close(got, want):
    """A fit or an estimate: its floats to a relative 1e-9 (and 1e-12
    absolute, for values near 0), as NumPy's SIMD dispatch can move a fit's
    last bits from one CPU to another; a failing step exactly."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            got[k] == pytest.approx(want[k], rel=1e-9) for k in want)
    return got == want


def test_outputs_match_the_record():
    recorder = _recorder()
    want = json.loads(recorder.OUTPUTS.read_text(encoding="utf-8"))
    got = {name: recorder.record(ds) for name, ds in recorder.corpus()}
    assert got.keys() == want.keys()
    differ = [name for name, w in want.items()
              if got[name]["screen"] != w["screen"]  # verdict and location exactly
              or not close(got[name]["fit"], w["fit"])
              or not close(got[name]["estimate"], w["estimate"])]
    assert not differ, [(name, got[name], want[name]) for name in differ[:3]]
