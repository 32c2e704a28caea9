"""The program's outputs on a seeded corpus, seeded Monte Carlo runs and
seeded reports, against the committed record.

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


#: Outputs compared exactly: screen verdicts and locations, report text.
EXACT = {"screen", "report"}


def close(got, want):
    """A fit, an estimate or a Monte Carlo summary: its floats to a relative
    1e-9 (and 1e-12 absolute, for values near 0), as NumPy's SIMD dispatch
    can move a fit's last bits from one CPU to another; a failing step
    exactly."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            got[k] == pytest.approx(want[k], rel=1e-9) for k in want)
    return got == want


def same(got, want):
    """One file's or case's outputs against the record."""
    return got.keys() == want.keys() and all(
        got[k] == want[k] if k in EXACT else close(got[k], want[k]) for k in want)


def test_outputs_match_the_record():
    recorder = _recorder()
    want = json.loads(recorder.OUTPUTS.read_text(encoding="utf-8"))
    got = recorder.outputs()
    assert got.keys() == want.keys()
    differ = [name for name, w in want.items() if not same(got[name], w)]
    assert not differ, [(name, got[name], want[name]) for name in differ[:3]]
