import math
import random
import xml.etree.ElementTree as ET

import pytest

from rabipi.cli import cli_main
from rabipi.dataio import load_csv, save_csv
from rabipi.estimate import estimate_pi
from rabipi.model import IDEAL, NoiseModel, noisy_prob
from rabipi.simulate import DEFAULT_GRID, inject_step, sample_dataset


def run(args):
    return cli_main(args)


class TestSimulate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        code = run(["simulate", "--alpha", "1", "--beta", "0", "--phi0", "0",
                    "--c", "1", "--shots", "8192", "--seed", "7",
                    "--out", str(out)])
        assert code == 0
        ds = load_csv(out)
        assert len(ds) == 64
        assert "seed 7" in capsys.readouterr().out

    def test_stdout_default(self, capsys):
        assert run(["simulate", "--shots", "16", "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("t,shots,ones")


class TestEstimate:
    def test_matches_in_process_bit_exactly(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        assert run(["simulate", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["estimate", str(out)]) == 0
        printed = capsys.readouterr().out
        expected = estimate_pi(sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=7))
        assert f"pi_hat     = {expected.pi_hat:.6f}" in printed
        # the parsed dataset itself is bit-identical (label comes from the file)
        parsed = load_csv(out)
        assert parsed.records == sample_dataset(IDEAL, DEFAULT_GRID, 8192,
                                                seed=7).records

    def test_missing_file(self, capsys):
        assert run(["estimate", "missing.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_degenerate_data(self, tmp_path, capsys):
        p = tmp_path / "flat.csv"
        p.write_text("t,shots,ones\n0.0,10,7\n0.1,10,7\n0.2,10,7\n")
        assert run(["estimate", str(p)]) == 1
        assert "rough_alpha_beta" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["simulate", "--bogus", "1"]) == 2


class TestFitScreenMc:
    def test_fit(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        run(["simulate", "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        assert run(["fit", str(out)]) == 0
        text = capsys.readouterr().out
        assert "alpha" in text and "c " in text

    def test_screen_accept_and_reject(self, tmp_path, capsys):
        clean = tmp_path / "clean.csv"
        run(["simulate", "--seed", "3", "--out", str(clean)])
        capsys.readouterr()
        assert run(["screen", str(clean)]) == 0
        assert "accept" in capsys.readouterr().out

        jumped = tmp_path / "jump.csv"
        save_csv(inject_step(load_csv(clean), 4.0, 0.15), jumped)
        assert run(["screen", str(jumped)]) == 0
        assert "reject" in capsys.readouterr().out

    def test_fit_on_step_files(self, tmp_path, capsys):
        # calibration steps as a screening run meets them: each pushes the
        # curve toward its nearer bound, where the fit's constraints bind
        rng = random.Random(0)
        for k in range(12):
            model = NoiseModel(rng.uniform(0.80, 0.95), rng.uniform(0.02, 0.05),
                               0.0, 1.0)
            ds = sample_dataset(model, DEFAULT_GRID, 8192,
                                seed=rng.getrandbits(63))
            t_jump = rng.uniform(1.0, 5.5)
            sign = 1.0 if noisy_prob(model, t_jump) <= 0.5 else -1.0
            path = tmp_path / f"step{k}.csv"
            save_csv(inject_step(ds, t_jump, sign * rng.uniform(0.15, 0.25)),
                     path)
            assert run(["fit", str(path)]) == 0
            values = [float(line.split("=")[1])
                      for line in capsys.readouterr().out.splitlines()]
            assert len(values) == 4 and all(map(math.isfinite, values))

    def test_mc(self, capsys):
        assert run(["mc", "--runs", "5", "--shots", "256", "--seed", "2"]) == 0
        text = capsys.readouterr().out
        assert "std_I" in text and "n_runs   = 5" in text


class TestPlotReport:
    def test_plot_svg(self, tmp_path):
        csv = tmp_path / "q.csv"
        svg = tmp_path / "q.svg"
        run(["simulate", "--seed", "5", "--out", str(csv)])
        assert run(["plot", str(csv), "--out", str(svg)]) == 0
        ET.fromstring(svg.read_text())

    def test_report(self, tmp_path, capsys):
        paths = []
        for i, seed in enumerate([1, 2, 3]):
            p = tmp_path / f"q{i}.csv"
            run(["simulate", "--alpha", "0.9", "--beta", "0.05",
                 "--seed", str(seed), "--label", f"q{i}", "--out", str(p)])
            paths.append(str(p))
        capsys.readouterr()
        assert run(["report", *paths, "--runs", "5", "--shots", "512"]) == 0
        text = capsys.readouterr().out
        for section in ("input summary", "screening", "per-qubit estimates",
                        "Monte Carlo", "aggregate"):
            assert section in text
        assert "mean_pi" in text
