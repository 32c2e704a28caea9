"""Layer benchmark of start-up: cold ``python`` processes that import rabipi
and run one shell command, as a user's shell call does.

    python -m pytest benchmarks/bench_startup.py -q                 # time, print medians
    python -m pytest benchmarks/bench_startup.py -q --benchmark-disable  # run each once

Each round starts a fresh interpreter with this checkout's ``src`` first on
``PYTHONPATH``, so the time covers interpreter start, imports and the
command itself.  Every child's exit code and output are checked against the
same command run in-process.  ``estimate`` needs no curve fit; ``fit`` adds
the curve fit, whose rate search is NumPy alone and imports nothing more.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rabipi
from rabipi import DEFAULT_GRID, NoiseModel, sample_dataset, save_csv
from rabipi.cli import cli_main

SRC = str(Path(rabipi.__file__).resolve().parents[1])
ROUNDS = 15


@pytest.fixture(scope="module")
def child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("startup") / "q.csv")
    save_csv(sample_dataset(NoiseModel(0.9, 0.05, 0.0, 1.0), DEFAULT_GRID, seed=7), path)
    return path


def _in_process(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.getvalue()


def _cold(benchmark, env, args, expected_out):
    def once():
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=60)

    proc = benchmark.pedantic(once, rounds=ROUNDS, warmup_rounds=1)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == (expected_out, "")


def test_import_cli(benchmark, child_env):
    _cold(benchmark, child_env, ["-c", "import rabipi.cli"], "")


@pytest.mark.parametrize("command", ["estimate", "fit"])
def test_cli_command(benchmark, child_env, csv_path, command):
    _cold(benchmark, child_env, ["-m", "rabipi.cli", command, csv_path],
          _in_process([command, csv_path]))
