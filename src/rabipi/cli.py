"""Command-line interface tying the simulation and estimation pipeline together.

Subcommands:
    simulate   sample a synthetic dataset and write it as CSV
    estimate   run the pi-estimation pipeline on a dataset
    fit        fit the four-parameter noise model to a dataset
    screen     check a dataset for calibration jumps
    mc         Monte Carlo error characterization for a given model
    plot       render a dataset (with fitted curve and crossings) as SVG
    report     full multi-dataset report: screening, estimates, MC, aggregate

Every default is the library's: the model ``IDEAL``, the grid
``DEFAULT_GRID``, ``DEFAULT_SHOTS`` shots, and the runs and seed of
``McConfig``.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

import argparse
import functools
import sys

from .dataio import CsvFormatError, load_csv, save_text, write_csv
from .estimate import PipelineError, estimate_pi, fit_model, screen_dataset
from .model import IDEAL, NoiseModel
from .montecarlo import McConfig, _check_seed, _steps, report, run_mc
from .plotting import render_svg
from .simulate import DEFAULT_GRID, DEFAULT_SHOTS, make_grid, sample_dataset

__all__ = ["cli_main", "main"]


def _add_experiment_flags(p):
    """The model, grid, shots and seed flags, each defaulting to the library's."""
    for name in ("alpha", "beta", "phi0", "c"):
        p.add_argument(f"--{name}", type=float, default=getattr(IDEAL, name))
    for name in ("start", "stop", "step"):
        p.add_argument(f"--grid-{name}", type=float, default=getattr(DEFAULT_GRID, name))
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--seed", type=int, default=McConfig.base_seed)


@functools.cache  # one build per process; parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabipi",
        description="Estimate pi from (simulated) Rabi oscillation data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p = command("simulate", _cmd_simulate, "sample a synthetic dataset to CSV")
    _add_experiment_flags(p)
    p.add_argument("--label", default="")
    p.add_argument("--out", help="output CSV path (default: stdout)")

    p = command("estimate", _cmd_estimate, "run the estimation pipeline on a CSV")
    p.add_argument("dataset")
    p = command("fit", _cmd_fit, "fit the noise model to a CSV")
    p.add_argument("dataset")
    p = command("screen", _cmd_screen, "check a CSV for calibration jumps")
    p.add_argument("dataset")

    p = command("mc", _cmd_mc, "Monte Carlo error characterization")
    _add_experiment_flags(p)
    p.add_argument("--runs", type=int, default=McConfig.runs_per_model)

    p = command("plot", _cmd_plot, "render a dataset as SVG")
    p.add_argument("dataset")
    p.add_argument("--out", help="output SVG path (default: stdout)")

    p = command("report", _cmd_report, "multi-dataset screening/estimate/MC report")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--seed", type=int, default=McConfig.base_seed)
    p.add_argument("--runs", type=int, default=McConfig.runs_per_model)
    p.add_argument("--out", help="output report path (default: stdout)")

    return parser


def _emit(text: str, out_path):
    if out_path:
        save_text(text, out_path)
    else:
        sys.stdout.write(text)


def _block(width: int, obj, names: str, spec: str, **first) -> str:
    """``name = value`` lines, names padded to ``width``: the ``first``
    values as given, then each attribute of ``obj`` in ``names`` in format
    ``spec``."""
    values = {**first, **{n: format(getattr(obj, n), spec) for n in names.split()}}
    return "".join(f"{n:<{width}} = {v}\n" for n, v in values.items())


def _format_failures(s) -> str:
    """``failures N``, then the runs failed at each step when N > 0."""
    steps = _steps(s.failures_by_step)
    return f"failures {s.failures}" + (f": {steps}" if steps else "")


def _model_and_grid(args):
    """The model and grid of the experiment flags."""
    return (NoiseModel(args.alpha, args.beta, args.phi0, args.c),
            make_grid(args.grid_start, args.grid_stop, args.grid_step))


def _cmd_simulate(args) -> int:
    _check_seed(args.seed)  # the range mc and report take
    ds = sample_dataset(*_model_and_grid(args), args.shots, seed=args.seed,
                        label=args.label)
    _emit(write_csv(ds), args.out)
    if args.out:
        print(f"wrote {len(ds)} records to {args.out} (seed {args.seed})")
    return 0


def _cmd_estimate(args) -> int:
    r = estimate_pi(load_csv(args.dataset))
    sys.stdout.write(_block(10, r, "alpha_hat beta_hat t1_hat t2_hat t_minval "
                                   "t_maxval integral_I c_hat pi_hat", ".6f"))
    return 0


def _cmd_fit(args) -> int:
    m = fit_model(load_csv(args.dataset))
    sys.stdout.write(_block(5, m, "alpha beta phi0 c", ".6f"))
    return 0


def _cmd_screen(args) -> int:
    v = screen_dataset(load_csv(args.dataset))
    if v.accepted:
        print("accept")
    else:
        print(f"reject at t={v.location}: {v.reason}")
    return 0


def _cmd_mc(args) -> int:
    model, grid = _model_and_grid(args)
    s = run_mc([model], McConfig(runs_per_model=args.runs, shots=args.shots, grid=grid,
                                 base_seed=args.seed))
    runs = f"{s.n_runs} ({_format_failures(s)}; seed {args.seed})"
    sys.stdout.write(_block(8, s, "mean_pi std_pi std_dt std_I", ".4f", n_runs=runs))
    return 0


def _cmd_plot(args) -> int:
    ds = load_csv(args.dataset)
    model = result = None
    try:
        model = fit_model(ds)
        result = estimate_pi(ds)
    except (PipelineError, ValueError):
        pass  # plot the points alone when fitting fails
    _emit(render_svg(ds, model, result), args.out)
    return 0


def _cmd_report(args) -> int:
    datasets = [load_csv(p) for p in args.datasets]
    rep = report(datasets, runs_per_model=args.runs, base_seed=args.seed)
    s = rep.mc
    lines = ["=== input summary ==="]
    for (name, _), ds in zip(rep.verdicts, datasets):
        lines.append(f"{name}: {len(ds)} records, {ds.shots[0]} shots, "
                     f"t in [{ds.t[0]:.4g}, {ds.t[-1]:.4g}]")

    lines.append("")
    lines.append("=== screening ===")
    for label, v in rep.verdicts:
        if v.accepted:
            lines.append(f"{label}: accept")
        else:
            lines.append(f"{label}: reject at t={v.location} ({v.reason})")

    lines.append("")
    lines.append("=== per-qubit estimates ===")
    for label, r in rep.estimates:
        lines.append(f"{label}: pi_hat={r.pi_hat:.4f} "
                     f"t1={r.t1_hat:.4f} t2={r.t2_hat:.4f} I={r.integral_I:.4f} "
                     f"alpha={r.alpha_hat:.4f} beta={r.beta_hat:.4f}")

    lines.append("")
    lines.append("=== Monte Carlo ===")
    lines.append(f"{s.n_runs} runs ({_format_failures(s)}; base seed {args.seed}): "
                 f"std_pi={s.std_pi:.4f} std_dt={s.std_dt:.4f} std_I={s.std_I:.4f}")

    lines.append("")
    lines.append("=== aggregate ===")
    lines.append(f"mean_pi = {rep.mean_pi:.4f} +/- {rep.error_bar:.4f} "
                 f"(2 sigma; sigma = {s.std_pi:.4f}, {rep.sigma_source})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (PipelineError, CsvFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
