"""Command-line interface tying the simulation and estimation pipeline together.

Subcommands:
    simulate   sample a synthetic dataset and write it as CSV
    estimate   run the pi-estimation pipeline on a dataset
    fit        fit the four-parameter noise model to a dataset
    screen     check a dataset for calibration jumps
    mc         Monte Carlo error characterization for a given model
    plot       render a dataset (with fitted curve and crossings) as SVG
    report     full multi-dataset report: screening, estimates, MC, aggregate

Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

import argparse
import sys

from .dataio import CsvFormatError, load_csv, save_text, write_csv
from .estimate import EstimateConfig, PipelineError, estimate_pi, fit_model, \
    screen_dataset
from .model import NoiseModel
from .montecarlo import McConfig, aggregate, models_from_datasets, run_mc
from .plotting import render_svg
from .simulate import make_grid, sample_dataset

__all__ = ["cli_main", "main"]


def _add_grid_flags(p):
    p.add_argument("--grid-start", type=float, default=0.0)
    p.add_argument("--grid-stop", type=float, default=6.3)
    p.add_argument("--grid-step", type=float, default=0.1)


def _add_model_flags(p):
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--phi0", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)


def _add_estimate_flags(p):
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--root-start1", type=float, default=1.5)
    p.add_argument("--root-start2", type=float, default=4.5)
    p.add_argument("--window", type=float, default=0.5)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabipi",
        description="Estimate pi from (simulated) Rabi oscillation data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a synthetic dataset to CSV")
    _add_model_flags(p)
    _add_grid_flags(p)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", default="")
    p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("estimate", help="run the estimation pipeline on a CSV")
    p.add_argument("dataset")
    _add_estimate_flags(p)

    p = sub.add_parser("fit", help="fit the noise model to a CSV")
    p.add_argument("dataset")

    p = sub.add_parser("screen", help="check a CSV for calibration jumps")
    p.add_argument("dataset")

    p = sub.add_parser("mc", help="Monte Carlo error characterization")
    _add_model_flags(p)
    _add_grid_flags(p)
    _add_estimate_flags(p)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=50)

    p = sub.add_parser("plot", help="render a dataset as SVG")
    p.add_argument("dataset")
    _add_estimate_flags(p)
    p.add_argument("--out", help="output SVG path (default: stdout)")

    p = sub.add_parser("report", help="multi-dataset screening/estimate/MC report")
    p.add_argument("datasets", nargs="+")
    _add_estimate_flags(p)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--out", help="output report path (default: stdout)")

    return parser


def _estimate_config(args) -> EstimateConfig:
    return EstimateConfig(delta=args.delta, root_start_1=args.root_start1,
                          root_start_2=args.root_start2,
                          refine_window=args.window)


def _emit(text: str, out_path):
    if out_path:
        save_text(text, out_path)
    else:
        sys.stdout.write(text)


def _format_result(r) -> str:
    return "\n".join([
        f"alpha_hat  = {r.alpha_hat:.6f}",
        f"beta_hat   = {r.beta_hat:.6f}",
        f"t1_hat     = {r.t1_hat:.6f}",
        f"t2_hat     = {r.t2_hat:.6f}",
        f"t_minval   = {r.t_minval:.6f}",
        f"t_maxval   = {r.t_maxval:.6f}",
        f"integral_I = {r.integral_I:.6f}",
        f"c_hat      = {r.c_hat:.6f}",
        f"pi_hat     = {r.pi_hat:.6f}",
    ]) + "\n"


def _cmd_simulate(args) -> int:
    model = NoiseModel(args.alpha, args.beta, args.phi0, args.c)
    grid = make_grid(args.grid_start, args.grid_stop, args.grid_step)
    ds = sample_dataset(model, grid, args.shots, seed=args.seed, label=args.label)
    _emit(write_csv(ds), args.out)
    if args.out:
        print(f"wrote {len(ds)} records to {args.out} (seed {args.seed})")
    return 0


def _cmd_estimate(args) -> int:
    ds = load_csv(args.dataset)
    r = estimate_pi(ds, _estimate_config(args))
    sys.stdout.write(_format_result(r))
    return 0


def _cmd_fit(args) -> int:
    m = fit_model(load_csv(args.dataset))
    print(f"alpha = {m.alpha:.6f}")
    print(f"beta  = {m.beta:.6f}")
    print(f"phi0  = {m.phi0:.6f}")
    print(f"c     = {m.c:.6f}")
    return 0


def _cmd_screen(args) -> int:
    v = screen_dataset(load_csv(args.dataset))
    if v.accepted:
        print("accept")
    else:
        print(f"reject at t={v.location}: {v.reason}")
    return 0


def _cmd_mc(args) -> int:
    model = NoiseModel(args.alpha, args.beta, args.phi0, args.c)
    cfg = McConfig(runs_per_model=args.runs, shots=args.shots,
                   grid=make_grid(args.grid_start, args.grid_stop, args.grid_step),
                   base_seed=args.seed, estimate=_estimate_config(args))
    s = run_mc([model], cfg)
    print(f"n_runs   = {s.n_runs} (failures {s.failures}, seed {args.seed})")
    print(f"mean_pi  = {s.mean_pi:.4f}")
    print(f"std_pi   = {s.std_pi:.4f}")
    print(f"std_dt   = {s.std_dt:.4f}")
    print(f"std_I    = {s.std_I:.4f}")
    return 0


def _cmd_plot(args) -> int:
    ds = load_csv(args.dataset)
    model = result = None
    try:
        model = fit_model(ds)
        result = estimate_pi(ds, _estimate_config(args))
    except (PipelineError, ValueError):
        pass  # plot the points alone when fitting fails
    _emit(render_svg(ds, model, result), args.out)
    return 0


def _cmd_report(args) -> int:
    cfg = _estimate_config(args)
    datasets = [load_csv(p) for p in args.datasets]
    lines = ["=== input summary ==="]
    for ds in datasets:
        shots = ds.records[0].shots
        lines.append(f"{ds.label}: {len(ds)} records, {shots} shots, "
                     f"t in [{ds.times()[0]:.4g}, {ds.times()[-1]:.4g}]")

    lines.append("")
    lines.append("=== screening ===")
    kept = []
    for ds in datasets:
        v = screen_dataset(ds)
        if v.accepted:
            lines.append(f"{ds.label}: accept")
            kept.append(ds)
        else:
            lines.append(f"{ds.label}: reject at t={v.location} ({v.reason})")
    if not kept:
        raise PipelineError("report", "all datasets rejected by screening")

    lines.append("")
    lines.append("=== per-qubit estimates ===")
    results = []
    for ds in kept:
        r = estimate_pi(ds, cfg)
        results.append((ds.label, r))
        lines.append(f"{ds.label}: pi_hat={r.pi_hat:.4f} "
                     f"t1={r.t1_hat:.4f} t2={r.t2_hat:.4f} I={r.integral_I:.4f} "
                     f"alpha={r.alpha_hat:.4f} beta={r.beta_hat:.4f}")

    lines.append("")
    lines.append("=== Monte Carlo ===")
    models = models_from_datasets(kept, cfg)
    mc_cfg = McConfig(runs_per_model=args.runs, shots=args.shots,
                      base_seed=args.seed, estimate=cfg)
    s = run_mc(models, mc_cfg)
    lines.append(f"{s.n_runs} runs ({s.failures} failures, base seed {args.seed}): "
                 f"std_pi={s.std_pi:.4f} std_dt={s.std_dt:.4f} std_I={s.std_I:.4f}")

    lines.append("")
    lines.append("=== aggregate ===")
    rep = aggregate(results, s.std_pi)
    lines.append(f"mean_pi = {rep.mean_pi:.4f} +/- {rep.error_bar:.4f} "
                 f"(2 sigma; sigma = {s.std_pi:.4f}, {rep.sigma_source})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "fit": _cmd_fit,
    "screen": _cmd_screen,
    "mc": _cmd_mc,
    "plot": _cmd_plot,
    "report": _cmd_report,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (PipelineError, CsvFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
