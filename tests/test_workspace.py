"""The estimator's workspace and its inputs.

``estimate_rows`` and ``run_mc`` work in a small, fixed set of buffers: the
150-run protocol must not need more heap than glibc keeps between calls, or
every ``run_mc`` call faults its memory back in.  And no step may write into
an array it was given: a caller's fractions, a ``Dataset``'s columns, a
``NormalizedCurve`` or a time grid.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import rabipi.estimate
from rabipi.estimate import (DELTA, REFINE_WINDOW, NormalizedCurve, RowEstimates,
                             estimate_pi, estimate_rows, find_crossing, fit_model,
                             interpolate, normalize, refine_alpha_beta,
                             refine_crossing_linear, rough_alpha_beta,
                             screen_dataset, screen_rows, trapezoid_integral)
from rabipi.model import NoiseModel
from rabipi.montecarlo import McConfig, report, run_mc
from rabipi.simulate import (DEFAULT_GRID, inject_step, make_grid, sample_counts,
                             sample_dataset)

#: The paper's three demo qubits; 50 runs each is the 150-run protocol.
DEMO_QUBITS = [NoiseModel(0.90, 0.05, 0.0, 1.0),
               NoiseModel(0.85, 0.08, 0.0, 1.0),
               NoiseModel(0.95, 0.02, 0.0, 1.0)]
LOWSHOT_GRID = make_grid(0.0, 6.3, 0.05)


def protocol_batch():
    """150 x 64 fractions: 50 runs of each demo qubit at 8192 shots."""
    ones = np.concatenate([sample_counts(m, DEFAULT_GRID, 8192, seed, 50)
                           for seed, m in enumerate(DEMO_QUBITS)])
    return DEFAULT_GRID.times(), ones / 8192


def lowshot_batch():
    """50 x 127 fractions of a model that fails in about 6% of runs."""
    ones = sample_counts(NoiseModel(0.9, 0.05, 1.5, 1.0), LOWSHOT_GRID, 256, 3, 50)
    return LOWSHOT_GRID.times(), ones / 256


def peak_bytes(fn, *args):
    """The most bytes ``fn(*args)`` holds at once beyond what was allocated
    before the call, after a first call has done any one-time work."""
    fn(*args)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestWorkspaceBound:
    # one (rows, n) buffer for the normalized curve, then either the line
    # fits' two slab-sized arrays or NumPy's buffer for a broadcast; the
    # batch's per-row values besides

    @pytest.mark.parametrize("batch", [protocol_batch, lowshot_batch],
                             ids=["protocol", "lowshot"])
    def test_estimate_rows(self, batch):
        t, f = batch()
        assert peak_bytes(estimate_rows, t, f) <= 3.5 * f.nbytes

    def test_ufunc_buffer_size_is_restored(self):
        # a call shrinks NumPy's ufunc buffers and leaves them as it found them
        t, f = protocol_batch()
        before = np.getbufsize()
        estimate_rows(t, f)
        assert np.getbufsize() == before

    def test_run_mc_protocol(self):
        # the batch's fractions and estimate_rows' workspace; the counts of
        # one model at a time
        cfg = McConfig(runs_per_model=50)
        assert peak_bytes(run_mc, DEMO_QUBITS, cfg) <= 360 * 1024


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


class TestInputsNeverWritten:
    @pytest.mark.parametrize("batch", [protocol_batch, lowshot_batch],
                             ids=["protocol", "lowshot"])
    def test_estimate_rows(self, batch):
        t, f = batch()
        kept = f.copy()
        rows = estimate_rows(t, f)
        assert np.array_equal(f, kept)
        same = estimate_rows(read_only(t), read_only(f))
        for name in ("alpha_hat", "beta_hat", "t1_hat", "t2_hat", "integral_I",
                     "pi_hat", "t_minval", "t_maxval", "ok"):
            assert getattr(same, name).tobytes() == getattr(rows, name).tobytes()
        assert [str(e) for e in same.errors] == [str(e) for e in rows.errors]

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_estimate_rows_on_other_layouts(self, layout):
        # the slabs are read through views of the workspace, never of the
        # caller's arrays, so any layout gives the contiguous batch's bits
        t, f = lowshot_batch()
        other = (np.asfortranarray(f) if layout == "fortran"
                 else np.repeat(f, 2, axis=0)[::2])
        strided_t = np.repeat(t, 2)[::2]
        rows, same = estimate_rows(t, f), estimate_rows(strided_t, other)
        for name in ("pi_hat", "t1_hat", "t2_hat", "integral_I", "ok"):
            assert getattr(same, name).tobytes() == getattr(rows, name).tobytes()

    def test_run_mc(self):
        grid = make_grid(0.0, 6.3, 0.05)
        kept = grid.times().copy()
        s = run_mc(DEMO_QUBITS, McConfig(runs_per_model=5, shots=256, grid=grid))
        assert s.n_runs == 15
        assert not grid.times().flags.writeable
        assert np.array_equal(grid.times(), kept)

    def test_report(self):
        files = [sample_dataset(m, DEFAULT_GRID, 8192, seed=20 + q, label=f"q{q}")
                 for q, m in enumerate(DEMO_QUBITS)]
        files.append(inject_step(files[0], 4.0, 0.2))
        kept = [(ds.t.copy(), ds.ones.copy(), ds.shots.copy()) for ds in files]
        rep = report(files, runs_per_model=5)
        assert len(rep.estimates) == 3
        for ds, columns in zip(files, kept):
            assert all(not c.flags.writeable for c in (ds.t, ds.ones, ds.shots))
            assert all(np.array_equal(a, b) for a, b in zip((ds.t, ds.ones, ds.shots),
                                                             columns))

    def test_screen_rows(self):
        files = [sample_dataset(m, DEFAULT_GRID, 8192, seed=20 + q)
                 for q, m in enumerate(DEMO_QUBITS)]
        t, f = read_only(DEFAULT_GRID.times()), read_only([ds.fractions() for ds in files])
        shots = read_only([ds.shots for ds in files])
        assert screen_rows(t, f, shots) == tuple(screen_dataset(ds) for ds in files)

    @pytest.mark.parametrize("writable", [False, True], ids=["read_only", "writable"])
    def test_public_steps(self, writable):
        ds = sample_dataset(DEMO_QUBITS[0], DEFAULT_GRID, 8192, seed=5)
        assert math.isfinite(estimate_pi(ds).pi_hat)
        assert math.isfinite(fit_model(ds).c) and screen_dataset(ds)
        alpha, beta = rough_alpha_beta(ds)
        f1 = normalize(ds, alpha, beta).f1
        t = ds.t.copy() if writable else ds.t
        f1 = f1.copy() if writable else read_only(f1)
        kept = t.copy(), f1.copy()
        curve = NormalizedCurve(t, f1)
        queries = np.array([0.5, 1.0, 3.3])
        if not writable:
            queries.flags.writeable = False
        interpolate(curve, queries)
        t1, t2 = find_crossing(curve, 1.5), find_crossing(curve, 4.7)
        refine_alpha_beta(curve, t1, t2)
        u1, u2 = refine_crossing_linear(curve, t1), refine_crossing_linear(curve, t2)
        assert trapezoid_integral(curve, u1, u2) > 0
        assert np.array_equal(t, kept[0]) and np.array_equal(f1, kept[1])
        assert np.array_equal(queries, [0.5, 1.0, 3.3])
        assert all(not c.flags.writeable for c in (ds.t, ds.ones, ds.shots))


class TestNoAliasing:
    """What ``estimate_rows`` returns is its caller's: no later call writes
    into it, and it shares no memory with the inputs or with the per-grid
    tables that every call on a grid reads (``_windows``, ``_slots``)."""

    ARRAYS = [f.name for f in dataclasses.fields(RowEstimates) if f.name != "errors"]

    def test_a_later_call_leaves_a_result_unchanged(self):
        t, f = lowshot_batch()  # with failed rows
        first = estimate_rows(t, f)
        kept = {name: getattr(first, name).copy() for name in self.ARRAYS}
        messages = [str(e) for e in first.errors]
        # another batch on the same grid, then one on another grid
        estimate_rows(t, f[::-1] * 0.9 + 0.05)
        estimate_rows(*protocol_batch())
        for name in self.ARRAYS:
            assert getattr(first, name).tobytes() == kept[name].tobytes(), name
        assert [str(e) for e in first.errors] == messages

    @pytest.mark.parametrize("batch", [protocol_batch, lowshot_batch],
                             ids=["protocol", "lowshot"])
    def test_no_result_shares_memory(self, batch):
        t, f = batch()
        rows = estimate_rows(t, f)
        windows = [rabipi.estimate._windows(t.tobytes(), half, strict)
                   for half, strict in ((DELTA, True), (REFINE_WINDOW, False))]
        shared = [t, f, *rabipi.estimate._slots(len(t))]
        shared += [a for w in windows for a in w if isinstance(a, np.ndarray)]
        for name in self.ARRAYS:
            out = getattr(rows, name)
            assert not any(np.shares_memory(out, a) for a in shared), name
            others = [getattr(rows, n) for n in self.ARRAYS if n != name]
            assert not any(np.shares_memory(out, a) for a in others), name
