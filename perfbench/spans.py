"""Outside-in tracer: records spans around relurand's public functions.

``Tracer.install`` rebinds every public function defined in the traced
modules, plus the copies other modules hold after ``from .x import f``, and
the public methods of ``RngStream`` on the class.  ``harness._map_trials`` is
wrapped so that each trial becomes a span carrying its index and parented to
the span that fanned it out, even when it runs on a worker thread.
``uninstall`` restores every original binding.

A span is (name, start, end, parent, trial).  Self time is a span's
duration minus the union of the intervals its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("rng", "linalg", "network", "adversarial", "probes", "collapse",
          "harness", "cli")

PROBE_FUNCS = ("probe_sign_flip", "probe_gaussian_spectral", "probe_segment_spectral",
               "probe_value_gradient", "probe_dist_equiv")

# Every per-layer metric, reported on every workload (0 where a workload
# never reaches the layer): (name, unit, better).  Times and counts are per
# iteration of the workload; "*_computed" values are derived from the
# architecture dims, not measured.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("rng.draws", "count", "lower"),
        ("rng.calls", "count", "lower"),
        ("rng.ns_per_draw", "ns", "lower"),
        ("linalg.gaussian_matrix.self_s", "s", "lower"),
        ("linalg.spectral_norm.calls", "count", "lower"),
        ("linalg.spectral_norm.self_s", "s", "lower"),
        ("linalg.ks_two_sample.self_s", "s", "lower"),
        ("network.build_network.self_s", "s", "lower"),
        ("network.forward.calls", "count", "lower"),
        ("network.forward.self_s", "s", "lower"),
        ("network.gradient.self_s", "s", "lower"),
        ("network.grad_difference_decomposition.self_s", "s", "lower"),
        ("network.forward.flops_computed", "flop", "lower"),
        ("network.forward.bytes_computed", "B", "lower"),
        ("adversarial.flip_search.calls", "count", "lower"),
        ("adversarial.flip_search.self_s", "s", "lower"),
        ("adversarial.flip_search.p50_ms", "ms", "lower"),
        ("adversarial.flip_search.p95_ms", "ms", "lower"),
        ("adversarial.evaluations", "count", "lower"),
        ("adversarial.flip_rate", "ratio", "higher"),
        ("adversarial.evals_per_flip", "count", "lower"),
    ]
    + [(f"probes.{f}.{m}", u, "lower") for f in PROBE_FUNCS
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("collapse.collapse_simulate.self_s", "s", "lower"),
        ("collapse.kernel_iterate.self_s", "s", "lower"),
        ("collapse.layer_flops_computed", "flop", "lower"),
        ("harness.run_experiment.self_s", "s", "lower"),
        ("harness.write_csv.s", "s", "lower"),
        ("harness.write_summary_json.s", "s", "lower"),
        ("harness.csv_bytes", "B", "lower"),
        ("harness.fanout_speedup", "ratio", "higher"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _size(size) -> int:
    if size is None:
        return 1
    if isinstance(size, (tuple, list)):
        return math.prod(int(s) for s in size)
    return int(size)


def _draws(method: str, args: tuple, kwargs: dict) -> int:
    """Normals plus uniforms one RngStream call consumes, by its contract."""
    if method in ("normal", "uniform"):
        return _size(args[0] if args else kwargs.get("size"))
    if method == "bernoulli":
        return _size(args[1] if len(args) > 1 else kwargs.get("size"))
    if method == "sphere_point":
        return int(args[0] if args else kwargs["dim"])
    if method == "ball_point":
        center = args[0] if args else kwargs["center"]
        return int(center.shape[0]) + 1
    return 0


def _forward_dims(net, x) -> tuple[int, int]:
    """(sum d_i d_{i+1} over every layer incl. the output row, input columns)."""
    dims = net.arch.dims
    macs = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    cols = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
    return macs, cols


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, trial]
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str, parent=None, trial=None) -> list:
        st = self._stack()
        if parent is None and st:
            parent = st[-1]
        span = [name, 0.0, 0.0, parent, trial]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        st.append(idx)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def _count(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _wrap_rng(self, method: str, fn):
        tracer = self
        name = "rng." + method.strip("_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._stack()
            outermost = not st or not tracer.spans[st[-1]][0].startswith("rng.")
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if outermost and method != "__init__":
                    tracer._count("rng.calls", 1)
                    tracer._count("rng.draws", _draws(method, args[1:], kwargs))

        return traced

    def _wrap_map_trials(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(cfg, trial_fn, n):
            st = tracer._stack()
            parent = st[-1] if st else None

            def trial(i):
                span = tracer._open("harness.trial", parent=parent, trial=i)
                try:
                    return trial_fn(i)
                finally:
                    tracer._close(span)

            return fn(cfg, trial, n)

        return traced

    # -- counters fed from return values -------------------------------
    def _after_forward(self, args, kwargs, out):
        net = args[0]
        x = args[1] if len(args) > 1 else kwargs["x"]
        macs, cols = _forward_dims(net, x)
        self._count("network.forward.flops_computed", 2 * macs * cols)
        self._count("network.forward.bytes_computed", 8 * macs)

    def _after_flip_search(self, args, kwargs, out):
        self._count("adversarial.evaluations", out.evaluations)
        self._count("adversarial.flipped", bool(out.flipped))

    def _after_collapse(self, args, kwargs, out):
        d, width, depth, n_pairs = out.d, out.width, out.depth, out.n_pairs
        self._count("collapse.layer_flops_computed",
                    2 * (2 * n_pairs) * width * (d + (depth - 1) * width))

    def _after_write_csv(self, args, kwargs, out):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._count("harness.csv_bytes", os.path.getsize(path))

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        import relurand.cli  # noqa: F401  (loads every traced module)
        from relurand.rng import RngStream

        after = {
            "network.forward": self._after_forward,
            "adversarial.flip_search": self._after_flip_search,
            "collapse.collapse_simulate": self._after_collapse,
            "harness.write_csv": self._after_write_csv,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "relurand" or n.startswith("relurand."))]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"relurand.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    replace[id(obj)] = (obj, self._wrap(name, obj, after.get(name)))
            map_trials = vars(mod).get("_map_trials")
            if map_trials is not None:
                replace[id(map_trials)] = (map_trials, self._wrap_map_trials(map_trials))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)][1])
        for attr, obj in list(vars(RngStream).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                self._saved.append((RngStream, attr, obj))
                setattr(RngStream, attr, self._wrap_rng(attr, obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> tuple[dict, dict, dict]:
        """Per-name self time, per-name inclusive time and per-name call
        count over the recorded spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        for idx, (name, t0, t1, _parent, _trial) in enumerate(self.spans):
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(idx, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            self_s[name] += (t1 - t0) - covered
            incl_s[name] += t1 - t0
            calls[name] += 1
        return self_s, incl_s, calls

    def dump(self, path) -> None:
        """Write the recorded spans as JSON rows [name, start_s, end_s,
        parent, trial], times relative to the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [[n, a - t0, b - t0, p, t] for n, a, b, p, t in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]


def _percentile_ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in ms; 0 if empty."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return 1e3 * ranked[max(0, math.ceil(q * len(ranked)) - 1)]


class LayerAccumulator:
    """Sums one traced run's iterations into the PER_LAYER metrics."""

    def __init__(self):
        self.n = 0
        self.walls: list[float] = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.flip_search_s: list[float] = []

    def add(self, tracer: Tracer, wall: float) -> None:
        self_s, incl_s, calls = tracer.self_times()
        for name, v in self_s.items():
            self.self_s[name] += v
        for name, v in incl_s.items():
            self.incl_s[name] += v
        for name, v in calls.items():
            self.calls[name] += v
        for name, v in tracer.counts.items():
            self.counts[name] += v
        self.flip_search_s += tracer.durations("adversarial.flip_search")
        self.walls.append(wall)
        self.n += 1

    def metrics(self, untraced: list[float], serial: list[float]) -> dict:
        """Per-iteration means.  untraced: wall of the untraced partner of
        each traced iteration; serial: the same at workers=1 (empty if the
        workload does not fan out)."""
        n = self.n
        out = {f"{layer}.self_s": sum(v for k, v in self.self_s.items()
                                      if k.startswith(layer + ".")) / n
               for layer in LAYERS}
        for name, _unit, _better in PER_LAYER:
            if name in out:
                continue
            base, _, stat = name.rpartition(".")
            if stat == "self_s":
                out[name] = self.self_s.get(base, 0.0) / n
            elif stat == "calls" and base != "rng":
                out[name] = self.calls.get(base, 0) / n
            elif stat == "s":
                out[name] = self.incl_s.get(base, 0.0) / n
            else:
                out[name] = self.counts.get(name, 0.0) / n
        draws = self.counts.get("rng.draws", 0.0)
        out["rng.ns_per_draw"] = 1e9 * out["rng.self_s"] * n / draws if draws else 0.0
        searches = self.calls.get("adversarial.flip_search", 0)
        flipped = self.counts.get("adversarial.flipped", 0.0)
        out["adversarial.flip_rate"] = flipped / searches if searches else 0.0
        out["adversarial.evals_per_flip"] = (
            self.counts.get("adversarial.evaluations", 0.0) / flipped if flipped else 0.0)
        out["adversarial.flip_search.p50_ms"] = _percentile_ms(self.flip_search_s, 0.50)
        out["adversarial.flip_search.p95_ms"] = _percentile_ms(self.flip_search_s, 0.95)
        wall = sum(self.walls) / n
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["trace.overhead_s"] = wall - sum(untraced) / len(untraced)
        out["harness.fanout_speedup"] = (
            (sum(serial) / len(serial)) / (sum(untraced) / len(untraced)) if serial else 0.0)
        return out
