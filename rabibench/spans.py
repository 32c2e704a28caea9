"""Outside-in span tracing of the rabipi layers.

The tracer wraps every public function of the layer modules and rebinds the
wrapper under every name that any ``rabipi`` module (the package included)
holds for the original.  Rebinding only ``rabipi.estimate.estimate_pi``
would miss the calls ``montecarlo`` makes through its own binding, so the
Monte Carlo spans would silently vanish.

Each call becomes a span: name, start, end and parent span, kept in flat
arrays in memory until the run ends.  A few counters ride along at the same
boundaries (records sampled, bytes read, optimizer evaluations, estimator
failures by step).
"""

import inspect
import math
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

#: An estimate farther than this from pi is counted as wildly wrong.
WILD = 1.0

#: Layer modules, in the order their spans are reported.
LAYERS = ("model", "simulate", "estimate", "montecarlo", "dataio",
          "plotting", "cli")


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``rabipi.estimate``.

    Every callable it hands out adds the ``nfev`` of its result to the
    tracer's ``estimate.fit_model.nfev`` counter while a ``fit_model`` span
    is open.
    """

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if not callable(attr) or inspect.isclass(attr):
            return attr
        tracer = self._tracer

        def counted(*args, **kwargs):
            res = attr(*args, **kwargs)
            if tracer.inside("estimate.fit_model"):
                tracer.counters["estimate.fit_model.nfev"] += int(
                    getattr(res, "nfev", 0))
            return res

        return counted


class Tracer:
    """Records spans and counters for the calls into the rabipi layers."""

    def __init__(self):
        self.names = []                 # span name id -> name
        self._ids = {}
        self.name_of = array("i")       # per span: name id
        self.parent = array("i")        # per span: parent span index or -1
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self._stack = []                # open span indices
        self._patches = []              # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def inside(self, name):
        """True while a span called ``name`` is open."""
        nid = self._ids.get(name)
        return nid is not None and any(self.name_of[i] == nid for i in self._stack)

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, result)`` runs
        outside the span and may update the counters."""
        nid = self._name_id(name)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                step = getattr(exc, "step", None)
                if step is not None:
                    counters[f"{name}.failed"] += 1
                    counters[f"{name}.failed.{step}"] += 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every public layer function under all of its bindings."""
        import rabipi
        import rabipi.estimate

        hooks = self._hooks()
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"rabipi.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self.wrap(name, fn, hooks.get(name))
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rabipi" or n.startswith("rabipi."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        est = rabipi.estimate
        self._patches.append((est, "optimize", est.optimize))
        est.optimize = _OptimizeProxy(self, est.optimize)
        return self

    def _hooks(self):
        """Counter updates keyed by span name; each takes the call's
        positional arguments and its result."""
        c = self.counters

        def add(key, value):
            c[key] += value

        return {
            "simulate.sample_dataset": lambda args, res: add(
                "simulate.sample_dataset.records", len(res)),
            "dataio.parse_csv": lambda args, res: add(
                "dataio.parse_csv.records", len(res)),
            "dataio.load_csv": lambda args, res: add(
                "dataio.load_csv.bytes", os.path.getsize(args[0])),
            "plotting.render_svg": lambda args, res: add(
                "plotting.render_svg.bytes_out", len(res.encode("utf-8"))),
            "estimate.estimate_pi": lambda args, res: add(
                "estimate.estimate_pi.wild", int(abs(res.pi_hat - math.pi) > WILD)),
            "estimate.screen_dataset": lambda args, res: add(
                "estimate.screen_dataset.rejected", int(not res.accepted)),
        }

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "busy": 0.0, "self": 0.0} for name in self.names}
        for i in range(n):
            t = out[self.names[self.name_of[i]]]
            t["calls"] += 1
            t["busy"] += dur[i]
            t["self"] += dur[i] - child[i]
        return out
