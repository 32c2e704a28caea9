"""The four benchmark workloads: inputs, one call, and its output check.

A workload is built from the benchmark seed alone; the program receives
only the generated noise models and CSV files.  ``call(i)`` is the timed
unit of a closed loop and ``check(i, out)`` returns ``None`` or a message
saying what is wrong with the output.  The checks use statistical bands, not
bit-exact values, so a change that legitimately alters the sampling streams
still passes.

Every call goes through the ``rabipi`` module attributes at call time, so
the tracer's rebinding (see ``spans.py``) sees it.
"""

import contextlib
import io
import math
import os
import random
import re
import xml.etree.ElementTree as ET

import rabipi.cli
import rabipi.dataio
import rabipi.model
import rabipi.montecarlo
import rabipi.simulate
from rabipi.model import NoiseModel

PI = math.pi
#: Deterministic trapezoid bias allowance (acceptance criterion 4).
BIAS = 0.005
#: Half-width of the mean bands, in standard errors.  The low-shot means
#: have heavier tails than a normal law (calls reach |z| = 3.9 in 1 of 250),
#: so "a few" is taken as 6.
Z = 6.0
#: std_pi must lie within this factor of its reference, either way.
STD_FACTOR = 3.0
# No upper std bound on the low-shot workload: at phi0=1.5 the estimator
# returns a wildly wrong pi_hat (off by 1.9-4.9) in about 1 of 3000 runs
# without raising, and one such run inflates a call's std_pi without limit.
# The traced run counts these as estimate.estimate_pi.wild instead.
NO_UPPER = math.inf

#: The three demo qubits of the paper's 150-run protocol.
DEMO_MODELS = (NoiseModel(0.90, 0.05, 0.0, 1.0),
               NoiseModel(0.85, 0.08, 0.0, 1.0),
               NoiseModel(0.95, 0.02, 0.0, 1.0))
#: Off-protocol models for the low-shot workload (c != 1, phi0 != 0).
LOWSHOT_MODELS = (NoiseModel(0.6, 0.2, 0.5, 1.1),
                  NoiseModel(0.9, 0.05, 1.5, 1.0),
                  NoiseModel(0.5, 0.2, 0.0, 1.0))
LOWSHOT_SHOTS = 256
RUNS = 50

# Median std_pi of one call (30 protocol calls, 200 calls per low-shot
# model); the band around it is wide enough for any statistically
# equivalent sampler.
PROTOCOL_STD = 0.0124
LOWSHOT_STD = (0.123, 0.055, 0.170)
# Std of pi_hat over 1500 triage-like files (alpha 0.80-0.95, 8192 shots).
FILE_STD = 0.0155


def call_seed(seed, i):
    """Per-call seed: every call is a fresh experiment, so no call repeats
    the work of another."""
    return random.Random(f"rabibench:{seed}:{i}").getrandbits(63)


def _mc_problem(s, models, ref_std, hi_factor=STD_FACTOR):
    """Check an McSummary against its models; None when it is plausible."""
    n_ok = s.n_runs - s.failures
    if s.n_runs != RUNS * len(models):
        return f"n_runs {s.n_runs} != {RUNS * len(models)}"
    if not all(math.isfinite(v) for v in (s.mean_pi, s.std_pi, s.std_dt, s.std_I)):
        return f"non-finite summary {s}"
    lo, hi = ref_std / STD_FACTOR, ref_std * hi_factor
    if not lo <= s.std_pi <= hi:
        return f"std_pi {s.std_pi:.4g} outside [{lo:.4g}, {hi:.4g}]"
    tol = Z * s.std_pi / math.sqrt(n_ok) + BIAS
    if abs(s.mean_pi - PI) > tol:
        return f"|mean_pi - pi| = {abs(s.mean_pi - PI):.4g} > {tol:.4g}"
    return None


class McProtocol:
    """``run_mc`` over the three demo qubits, 50 runs each, 8192 shots."""

    name = "mc_protocol"
    item = "mc_runs"
    items_per_call = RUNS * len(DEMO_MODELS)
    tail_pct = 80

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cycle = 1

    def call(self, i):
        mc = rabipi.montecarlo
        cfg = mc.McConfig(runs_per_model=RUNS, shots=rabipi.simulate.DEFAULT_SHOTS,
                          grid=rabipi.simulate.DEFAULT_GRID,
                          base_seed=call_seed(self.seed, i))
        return mc.run_mc(list(DEMO_MODELS), cfg)

    def check(self, i, out):
        return _mc_problem(out, DEMO_MODELS, PROTOCOL_STD)


class McLowshot:
    """One ``run_mc`` per off-protocol model: 256 shots, 0.05-step grid."""

    name = "mc_lowshot"
    item = "mc_runs"
    items_per_call = RUNS
    tail_pct = 85

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cycle = len(LOWSHOT_MODELS)
        self.grid = rabipi.simulate.make_grid(0.0, 6.3, 0.05)

    def call(self, i):
        mc = rabipi.montecarlo
        cfg = mc.McConfig(runs_per_model=RUNS, shots=LOWSHOT_SHOTS, grid=self.grid,
                          base_seed=call_seed(self.seed, i))
        return mc.run_mc([LOWSHOT_MODELS[i % self.cycle]], cfg)

    def check(self, i, out):
        k = i % self.cycle
        return _mc_problem(out, LOWSHOT_MODELS[k:k + 1], LOWSHOT_STD[k], NO_UPPER)


def _run_cli(argv):
    """Run one in-process CLI command; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = rabipi.cli.cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def _key_values(text):
    """Parse ``key = value`` lines into floats."""
    vals = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            vals[key.strip()] = float(value)
    return vals


class Triage:
    """``screen``, ``estimate``, ``fit`` and ``plot --out`` on one CSV file.

    Set-up writes 48 files at 8192 shots on DEFAULT_GRID; a quarter carry
    a calibration step large enough that screening must reject them.
    """

    name = "triage"
    item = "files"
    items_per_call = 1
    tail_pct = 95
    n_files = 48

    def __init__(self, seed, workdir):
        sim = rabipi.simulate
        rng = random.Random(seed)
        steps = set(rng.sample(range(self.n_files), self.n_files // 4))
        self.files = []
        for k in range(self.n_files):
            model = NoiseModel(rng.uniform(0.80, 0.95), rng.uniform(0.02, 0.05),
                               0.0, 1.0)
            ds = sim.sample_dataset(model, sim.DEFAULT_GRID, sim.DEFAULT_SHOTS,
                                    seed=rng.getrandbits(63), label=f"f{k}")
            jump_at = None
            if k in steps:
                t_jump = rng.uniform(1.0, 5.5)
                # step away from the nearer bound so clamping cannot hide it
                sign = -1.0 if rabipi.model.noisy_prob(model, t_jump) > 0.5 else 1.0
                ds = sim.inject_step(ds, t_jump, sign * rng.uniform(0.15, 0.25))
                jump_at = float(min(t for t in ds.times() if t >= t_jump))
            path = os.path.join(workdir, f"f{k}.csv")
            rabipi.dataio.save_csv(ds, path)
            self.files.append((path, model, jump_at))
        self.svg = os.path.join(workdir, "plot.svg")
        self.cycle = self.n_files

    def call(self, i):
        path = self.files[i % self.cycle][0]
        return [_run_cli([cmd, path]) for cmd in ("screen", "estimate", "fit")] + \
            [_run_cli(["plot", path, "--out", self.svg])]

    def check(self, i, out):
        _, model, jump_at = self.files[i % self.cycle]
        for rc, _, err in out:
            if rc != 0:
                return f"exit code {rc}: {err.strip()}"
        (_, screen, _), (_, est, _), (_, fit, _), _ = out
        screen = screen.strip()
        if jump_at is None and screen != "accept":
            return f"clean file rejected: {screen}"
        if jump_at is not None:
            m = re.match(r"reject at t=(\S+):", screen)
            if not m or abs(float(m.group(1)) - jump_at) > 1e-9:
                return f"step at t={jump_at} not reported: {screen}"
        est, fit = _key_values(est), _key_values(fit)
        if len(est) != 9 or not all(map(math.isfinite, est.values())):
            return f"bad estimate output {est}"
        if set(fit) != {"alpha", "beta", "phi0", "c"} \
                or not all(map(math.isfinite, fit.values())):
            return f"bad fit output {fit}"
        if jump_at is None:
            if abs(est["pi_hat"] - PI) > Z * FILE_STD + BIAS:
                return f"pi_hat {est['pi_hat']} outside band"
            truth = {"alpha": model.alpha, "beta": model.beta, "phi0": model.phi0,
                     "c": model.c}
            tol = {"alpha": 0.02, "beta": 0.02, "phi0": 0.05, "c": 0.02}
            if any(abs(fit[k] - truth[k]) > tol[k] for k in truth):
                return f"fit {fit} far from {truth}"
        with open(self.svg, encoding="utf-8") as fh:
            root = ET.fromstring(fh.read())
        circles = sum(1 for el in root.iter() if el.tag.endswith("circle"))
        if not root.tag.endswith("svg") or circles != 64:
            return f"svg root {root.tag} with {circles} markers"
        return None


class Report:
    """``rabipi report`` on three CSV files with the default ``--runs 50``.

    Set-up writes six triplets of the demo qubits; calls cycle through
    them, each with its own Monte Carlo seed.
    """

    name = "report"
    item = "files"
    items_per_call = 3
    tail_pct = 75
    n_sets = 6
    _line = re.compile(r"^mean_pi = (\S+) \+/- (\S+) ", re.M)

    def __init__(self, seed, workdir):
        sim = rabipi.simulate
        rng = random.Random(seed)
        self.sets = []
        for k in range(self.n_sets):
            paths = []
            for q, model in enumerate(DEMO_MODELS):
                ds = sim.sample_dataset(model, sim.DEFAULT_GRID, sim.DEFAULT_SHOTS,
                                        seed=rng.getrandbits(63), label=f"s{k}q{q}")
                path = os.path.join(workdir, f"s{k}q{q}.csv")
                rabipi.dataio.save_csv(ds, path)
                paths.append(path)
            self.sets.append(paths)
        self.seed = seed
        self.cycle = self.n_sets

    def call(self, i):
        return _run_cli(["report", *self.sets[i % self.cycle],
                         "--seed", str(call_seed(self.seed, i))])

    def check(self, i, out):
        rc, text, err = out
        if rc != 0:
            return f"exit code {rc}: {err.strip()}"
        m = self._line.search(text)
        if not m:
            return "no 'mean_pi = ... +/- ...' line"
        mean_pi, bar = float(m.group(1)), float(m.group(2))
        if not (math.isfinite(mean_pi) and math.isfinite(bar)):
            return f"non-finite aggregate {mean_pi} +/- {bar}"
        sigma = bar / 2  # the MC std_pi of the three recovered models
        if not PROTOCOL_STD / STD_FACTOR <= sigma <= PROTOCOL_STD * STD_FACTOR:
            return f"sigma {sigma} outside band"
        tol = Z * sigma / math.sqrt(3) + BIAS
        if abs(mean_pi - PI) > tol:
            return f"|mean_pi - pi| = {abs(mean_pi - PI):.4g} > {tol:.4g}"
        return None


WORKLOADS = {w.name: w for w in (McProtocol, McLowshot, Triage, Report)}
