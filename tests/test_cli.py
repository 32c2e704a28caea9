import math
import random
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import rabipi.cli
import rabipi.estimate
import rabipi.montecarlo
from rabipi.cli import cli_main
from rabipi.dataio import load_csv, save_csv, write_csv
from rabipi.estimate import estimate_pi
from rabipi.model import IDEAL, NoiseModel, noisy_prob
from rabipi.montecarlo import McConfig, model_from_estimate, run_mc
from rabipi.simulate import DEFAULT_GRID, DEFAULT_SHOTS, Dataset, inject_step, \
    make_grid, sample_dataset


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

    @pytest.mark.parametrize("label", [" q1", "q1 ", "a\nb", "a\rb", "a\u2028b"])
    def test_label_that_would_not_read_back_is_an_error(self, tmp_path, capsys,
                                                        label):
        out = tmp_path / "q.csv"
        assert run(["simulate", "--label", label, "--out", str(out)]) == 1
        assert not out.exists()
        assert "would not read back" in capsys.readouterr().err

    def test_grid_too_fine_for_the_rounding_is_an_error(self, tmp_path, capsys):
        # it wrote times 0, 2e-12, 3e-12, 5e-12, ... for a 1.5e-12 step
        out = tmp_path / "q.csv"
        assert run(["simulate", "--grid-step", "1.5e-12", "--grid-stop", "3e-11",
                    "--out", str(out)]) == 1
        assert not out.exists()
        assert "rounded to 12 decimals" in capsys.readouterr().err


class TestDefaultsAreTheLibrarys:
    # the CLI's protocol is the one run_mc and sample_dataset default to
    def test_simulate(self, capsys):
        assert run(["simulate", "--seed", "3"]) == 0
        assert capsys.readouterr().out == write_csv(
            sample_dataset(IDEAL, DEFAULT_GRID, DEFAULT_SHOTS, seed=3))

    def test_mc(self, capsys):
        assert run(["mc", "--seed", "3"]) == 0
        s = run_mc([IDEAL], McConfig(base_seed=3))
        assert s.failures == 0
        assert capsys.readouterr().out == (
            f"n_runs   = {s.n_runs} (failures 0; seed 3)\n"
            f"mean_pi  = {s.mean_pi:.4f}\n"
            f"std_pi   = {s.std_pi:.4f}\n"
            f"std_dt   = {s.std_dt:.4f}\n"
            f"std_I    = {s.std_I:.4f}\n")

    def test_report(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "q.csv"
        save_csv(sample_dataset(IDEAL, DEFAULT_GRID, DEFAULT_SHOTS, seed=3), p)
        run_mc = rabipi.montecarlo.run_mc
        ran = []

        def spy(models, cfg):
            ran.append(cfg)
            return run_mc(models, cfg)

        monkeypatch.setattr(rabipi.montecarlo, "run_mc", spy)
        assert run(["report", str(p)]) == 0
        default = McConfig()
        assert [(c.runs_per_model, c.base_seed) for c in ran] == [
            (default.runs_per_model, default.base_seed)]
        assert f"\n{default.runs_per_model} runs (" in capsys.readouterr().out


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
        expected = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=7, label="q.csv")
        assert parsed == expected

    def test_fast_rate_file(self, tmp_path, capsys):
        # a fixed crossing search from 1.5 and 4.5 printed pi_hat = 2.0047
        out = tmp_path / "q.csv"
        assert run(["simulate", "--alpha", "0.9", "--beta", "0.05", "--c", "1.6",
                    "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["estimate", str(out)]) == 0
        pi_hat = float(re.search(r"pi_hat\s+= (\S+)",
                                 capsys.readouterr().out).group(1))
        assert abs(pi_hat - math.pi) <= 0.1

    def test_missing_file(self, capsys):
        assert run(["estimate", "missing.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_reused_parser_keeps_no_state(self, capsys):
        # the second run must not see the first run's seed or label
        assert run(["simulate", "--seed", "8", "--label", "x"]) == 0
        capsys.readouterr()
        assert run(["simulate", "--seed", "7"]) == 0
        assert capsys.readouterr().out == write_csv(
            sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=7))

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

    @pytest.mark.parametrize("flag", ["--root-start1", "--root-start2"])
    @pytest.mark.parametrize("argv", [["estimate", "q.csv"], ["mc"],
                                      ["plot", "q.csv"], ["report", "q.csv"]],
                             ids=lambda argv: argv[0])
    def test_crossing_search_starts_are_gone(self, capsys, argv, flag):
        # the half-period is read off the data, so there is no start to set
        assert run([*argv, flag, "1.5"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--delta", "0.3"], ["--window", "0.4"]],
                             ids=lambda flag: flag[0])
    @pytest.mark.parametrize("argv", [["estimate", "q.csv"], ["mc"],
                                      ["plot", "q.csv"], ["report", "q.csv"]],
                             ids=lambda argv: argv[0])
    def test_estimator_widths_are_not_options(self, capsys, argv, flag):
        # the Monte Carlo error bar re-runs the estimator that was printed
        assert run([*argv, *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_time_named_by_line(self, tmp_path, capsys, bad):
        # a 64-row file whose last time is not finite fails at parsing, not
        # at a later step that cannot say where the bad value came from
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=7)
        lines = write_csv(ds).splitlines()
        lines[-1] = f"{bad}," + lines[-1].split(",", 1)[1]
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(lines) + "\n")
        for cmd in ("estimate", "fit", "screen"):
            assert run([cmd, str(p)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: line 65: time {bad} is not finite\n", cmd

    def test_three_records_too_few_to_fit(self, tmp_path, capsys):
        # four parameters cannot be fitted through three points
        p = tmp_path / "three.csv"
        p.write_text("t,shots,ones\n0.0,100,10\n0.1,100,90\n0.2,100,20\n")
        assert run(["fit", str(p)]) == 1
        assert "fit_model" in capsys.readouterr().err
        # the fractions jump, so screening needs the fit's rate
        assert run(["screen", str(p)]) == 1
        assert "fit_model" in capsys.readouterr().err
        svg = tmp_path / "three.svg"
        assert run(["plot", str(p), "--out", str(svg)]) == 0
        root = ET.fromstring(svg.read_text())
        tags = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
        assert tags.count("circle") == 3 and "polyline" not in tags

    def test_mc(self, capsys):
        assert run(["mc", "--runs", "5", "--shots", "256", "--seed", "2"]) == 0
        text = capsys.readouterr().out
        assert "std_I" in text and "n_runs   = 5" in text

    def test_mc_prints_failures_by_step(self, capsys):
        assert run(["mc", "--runs", "5", "--seed", "2"]) == 0
        assert "n_runs   = 5 (failures 0; seed 2)" in capsys.readouterr().out
        assert run(["mc", "--alpha", "0.9", "--beta", "0.05", "--phi0", "1.5",
                    "--shots", "256", "--grid-step", "0.05", "--runs", "100"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        s = run_mc([NoiseModel(0.9, 0.05, 1.5, 1.0)], McConfig(
            runs_per_model=100, shots=256, grid=make_grid(0.0, 6.3, 0.05)))
        assert s.failures > 0
        steps = ", ".join(f"{k} {n}" for k, n in s.failures_by_step.items())
        assert first == f"n_runs   = 100 (failures {s.failures}: {steps}; seed 0)"

    @pytest.mark.parametrize("grid, message", [
        (["--grid-stop", "0.3"], "all 3 runs failed: find_crossing 3"),
        (["--grid-stop", "4.75", "--grid-step", "0.05", "--shots", "256"],
         "2 of 3 runs failed: find_crossing 1, refine_crossing_linear 1; "
         "fewer than 2 successful runs, standard deviation undefined"),
    ], ids=["all_failed", "one_succeeded"])
    def test_mc_too_few_successes_name_the_failing_steps(self, capsys, grid,
                                                         message):
        assert run(["mc", "--alpha", "0.9", "--beta", "0.05", *grid,
                    "--runs", "3"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: run_mc: {message}\n")

    @pytest.mark.parametrize("command", ["mc", "report", "simulate"])
    @pytest.mark.parametrize("seed", [2**63, -2**63 - 1])
    def test_seed_outside_int64_is_an_error(self, tmp_path, capsys, command,
                                            seed):
        # simulate takes a seed mod 2**64, so 2**63 would name the
        # generator of -2**63; every command refuses it alike
        argv = [command] if command == "simulate" else [command, "--runs", "5"]
        if command == "report":
            argv.append(str(tmp_path / "q.csv"))
            assert run(["simulate", "--seed", "7", "--out", argv[-1]]) == 0
            capsys.readouterr()
        assert run([*argv, "--seed", str(seed)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: base_seed") and str(seed) in err
        assert "Traceback" not in err and out == ""


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
        assert run(["report", *paths, "--runs", "5"]) == 0
        text = capsys.readouterr().out
        for section in ("input summary", "screening", "per-qubit estimates",
                        "Monte Carlo", "aggregate"):
            assert section in text
        assert "mean_pi" in text

    def test_report_sigma_describes_the_files(self, tmp_path, capsys):
        # 512 shots on a 0.05 grid: the error bar must come from those
        # settings, not from the default grid at 8192 shots
        model = ["--alpha", "0.9", "--beta", "0.05", "--phi0", "0", "--c", "1",
                 "--shots", "512", "--grid-step", "0.05"]
        paths = []
        for seed in (0, 1):
            p = tmp_path / f"q{seed}.csv"
            run(["simulate", *model, "--seed", str(seed), "--out", str(p)])
            paths.append(str(p))
        capsys.readouterr()
        assert run(["report", *paths, "--runs", "150"]) == 0
        report_sigma = float(re.search(r"sigma = (\S+),",
                                       capsys.readouterr().out).group(1))
        assert run(["mc", *model, "--runs", "300"]) == 0
        mc_sigma = float(re.search(r"std_pi   = (\S+)",
                                   capsys.readouterr().out).group(1))
        assert abs(report_sigma / mc_sigma - 1) <= 0.25

    @pytest.mark.parametrize("edit,message", [
        (lambda ds: ds, "differ in time grid or shots"),
        (lambda ds: Dataset(np.delete(ds.t, 10), ds.shots[1:],
                            np.delete(ds.ones, 10), ds.label),
         "not a uniform grid"),
        (lambda ds: Dataset(ds.t, [8192, *ds.shots[1:]],
                            [2 * ds.ones[0], *ds.ones[1:]], ds.label),
         "shots vary by row"),
    ], ids=["other_shots", "gap_in_times", "shots_by_row"])
    def test_report_refuses_mixed_experiments(self, tmp_path, capsys, edit,
                                              message):
        model = NoiseModel(0.9, 0.05, 0.0, 1.0)
        first = sample_dataset(model, DEFAULT_GRID, 8192, seed=1, label="q0")
        second = edit(sample_dataset(model, DEFAULT_GRID, 4096, seed=2,
                                     label="q1"))
        paths = [tmp_path / "q0.csv", tmp_path / "q1.csv"]
        for ds, p in zip((first, second), paths):
            save_csv(ds, p)
        assert run(["report", *map(str, paths)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: report: ") and message in err

    @pytest.mark.parametrize("times", [
        np.linspace(0, 6.3, 64), np.linspace(0, 2 * math.pi, 64),
        np.linspace(0, 6.3, 127)], ids=["default_grid", "two_pi", "127_points"])
    def test_report_accepts_linspace_grids(self, tmp_path, capsys, times):
        # np.linspace times differ from TimeGrid.times() in the last bits
        rng = np.random.default_rng(0)
        model = NoiseModel(0.9, 0.05, 0.0, 1.0)
        paths = []
        for q in range(3):
            ds = Dataset(times, 8192, rng.binomial(8192, noisy_prob(model, times)),
                         f"q{q}")
            paths.append(tmp_path / f"q{q}.csv")
            save_csv(ds, paths[-1])
        assert run(["report", *map(str, paths), "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "15 runs (failures 0; base seed 0)" in out
        assert re.search(r"^mean_pi = 3\.1\d+ \+/- ", out, re.M)

    def test_report_names_the_file_that_fails_to_estimate(self, tmp_path, capsys):
        paths = []
        for q, phi0 in enumerate([0.0, 2.5, 0.0]):
            p = tmp_path / f"q{q}.csv"
            run(["simulate", "--alpha", "0.9", "--beta", "0.05", "--phi0",
                 str(phi0), "--c", "1", "--seed", str(q), "--label", f"q{q}",
                 "--out", str(p)])
            paths.append(str(p))
        capsys.readouterr()
        assert run(["report", *paths]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: report: q1: find_crossing: ")

    def test_report_names_an_unlabeled_file_by_position(self, tmp_path, capsys):
        # an empty "# label:" comment overrides the file name
        paths = []
        for q in range(2):
            p = tmp_path / f"q{q}.csv"
            run(["simulate", "--seed", str(q + 1), "--out", str(p)])
            if q == 1:
                p.write_text("# label:\n" + p.read_text())
            paths.append(str(p))
        capsys.readouterr()
        assert run(["report", *paths, "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "\ndataset 2: 64 records, 8192 shots" in out
        assert "\ndataset 2: accept\n" in out
        assert "\ndataset 2: pi_hat=" in out

    def test_report_screens_and_estimates_each_file_once(self, tmp_path,
                                                         monkeypatch, capsys):
        paths = []
        for i, seed in enumerate([1, 2, 3]):
            p = tmp_path / f"q{i}.csv"
            run(["simulate", "--alpha", "0.9", "--beta", "0.05",
                 "--seed", str(seed), "--label", f"q{i}", "--out", str(p)])
            paths.append(str(p))
        argv = ["report", *paths, "--runs", "5", "--seed", "4"]
        # reference: Monte Carlo on the models each file's estimate recovers
        run_mc = rabipi.montecarlo.run_mc
        datasets = [load_csv(p) for p in paths]
        ran = []

        def reference(models, cfg):
            ran.append(cfg)
            return run_mc([model_from_estimate(estimate_pi(ds)) for ds in datasets],
                          cfg)

        with monkeypatch.context() as m:
            m.setattr(rabipi.montecarlo, "run_mc", reference)
            capsys.readouterr()
            assert run(argv) == 0
            expected = capsys.readouterr().out
        assert [(c.runs_per_model, c.shots, c.base_seed) for c in ran] == [(5, 8192, 4)]
        assert np.array_equal(ran[0].grid.times(), DEFAULT_GRID.times())

        # the files share their times, so they are one batch: one rate scan
        # and one estimate call for all three, and no rate search, as the
        # scan's brackets already accept every file
        scans, shapes, batches = [], [], []
        scan = rabipi.estimate._scan
        kernel = rabipi.estimate._fit_at_rates
        estimate_rows = rabipi.montecarlo.estimate_rows

        def counted_scan(t, f, step):
            scans.append(f)
            return scan(t, f, step)

        def counted_kernel(t, f, c):
            shapes.append(c.shape)
            return kernel(t, f, c)

        def counted_rows(times, fractions):
            batches.append(fractions.shape)
            return estimate_rows(times, fractions)

        monkeypatch.setattr(rabipi.estimate, "_scan", counted_scan)
        monkeypatch.setattr(rabipi.estimate, "_fit_at_rates", counted_kernel)
        monkeypatch.setattr(rabipi.montecarlo, "estimate_rows", counted_rows)
        assert run(argv) == 0
        assert [f.tolist() for f in scans] == [
            [ds.fractions().tolist() for ds in datasets]]
        assert shapes == []  # no kernel call
        assert batches == [(3, 64), (3 * 5, 64)]  # the files, then run_mc's runs
        assert capsys.readouterr().out == expected
