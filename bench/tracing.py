"""Spans around calls into catbreed's public functions, recorded from outside
the package.

`Tracer.install` replaces each traced function in every loaded catbreed
module namespace that binds it (``catbreed.protocol.breed`` as well as
``catbreed.optics.breed``), so calls between modules are caught too.
Spans stay in memory as ``[name, parent, start, end]`` and are written out
when the run ends; a span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

# Public functions traced per layer, named ``<module>.<function>``.
TRACED = {
    "fock": ("wigner_grid", "target_cat", "fidelity_to_pure"),
    "optics": ("breed", "beam_splitter", "condition", "homodyne_povm",
               "loss_channel"),
    "protocol": ("fidelity_vs_storage_curve", "pipeline_states",
                 "simulate_timeline", "write_event_log"),
    "tomography": ("sample_homodyne_phases", "maxlik_reconstruct",
                   "bootstrap_many", "save_dataset_csv", "load_dataset_csv"),
}
# counters that keep the largest value seen; the others add up
PEAK_COUNTERS = frozenset({"optics.two_mode_bytes"})


def _merge(counters: dict, key: str, value) -> None:
    if key in PEAK_COUNTERS:
        counters[key] = max(counters.get(key, 0), value)
    else:
        counters[key] = counters.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        for layer in TRACED:
            importlib.import_module(f"catbreed.{layer}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "catbreed" or name.startswith("catbreed.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"catbreed.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self._count(name, result)
            return result
        return traced

    def _count(self, name, result) -> None:
        c = self.counters
        if name == "optics.beam_splitter":
            _merge(c, "optics.two_mode_bytes", result.matrix.nbytes)
        elif name == "protocol.simulate_timeline":
            _merge(c, "protocol.timeline_events", len(result[1]))
        elif name == "tomography.maxlik_reconstruct":
            _merge(c, "tomography.maxlik_iterations", result.iterations)
            _merge(c, "tomography.maxlik_capped_fits",
                   int(result.stop_reason == "max_iterations"))

    def absorb(self, path) -> None:
        """Add the spans and counters another process dumped to ``path``."""
        with open(path) as fh:
            other = json.load(fh)
        offset = len(self.spans)
        for name, parent, start, end in other["spans"]:
            self.spans.append([name, parent + offset if parent >= 0 else -1,
                               start, end])
        for key, value in other["counters"].items():
            _merge(self.counters, key, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def durations(self, name) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]


@contextlib.contextmanager
def active(tracer: Tracer | None):
    """Install ``tracer`` for the duration of the block; no-op for None."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def layer_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """Per-round means of self time, calls and counters over traced rounds."""
    rounds = len(tracers)
    out: dict[str, float] = {}
    for tracer in tracers:
        for name, value in tracer.self_times().items():
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + value / rounds
        for name, value in tracer.calls().items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + value / rounds
        for name, value in tracer.counters.items():
            _merge(out, name, value if name in PEAK_COUNTERS else value / rounds)
    fits = [d for t in tracers for d in t.durations("tomography.maxlik_reconstruct")]
    if fits:
        out["tomography.maxlik_fit_s_p50"] = statistics.median(fits)
    return out
