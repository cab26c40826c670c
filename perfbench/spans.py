"""Spans around every call into the public functions of the seven layers.

`instrument(tracer)` wraps each function named in a layer's `__all__`
(and the `__post_init__` validation of each dataclass named there) and
rebinds every module attribute that refers to it, so calls the package
makes between its own modules are recorded too.  The program's source is
not touched; leaving the context restores every binding.

A span is (name, start, end, parent, unit).  Spans are kept in flat
arrays while the benchmark runs and written out once, at the end.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("model", "fisher", "ccrb", "hcrb", "estimators", "montecarlo", "cli")

# the root span of one unit of work; its self time is the benchmark's own
UNIT_SPAN = "bench.unit"

# estimator entry points are reported under their command line names
SPAN_ALIASES = {
    "estimators.estimate_oracle": "estimators.oracle",
    "estimators.estimate_ml_unit": "estimators.ml",
    "estimators.estimate_locally_unbiased": "estimators.unbiased",
    "estimators.estimate_noise_exploiting": "estimators.noise",
}


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self.unit_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.unit.append(self.unit_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def unit_span(self, unit_id: int):
        self.unit_id = unit_id
        i = self.open(self.name_id(UNIT_SPAN))
        try:
            yield
        finally:
            self.close(i)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def distinct(self, key: str, value) -> None:
        """Remember `value` among the distinct inputs seen by span `key`."""
        self.keys[key].add((self.unit_id, value))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,unit\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.unit[i]}\n"
                )


# ---------------------------------------------------------------------------
# per-call counters: work done and distinct inputs, measured at the boundary


def _matrix_key(A) -> tuple:
    """Cheap identity of a matrix's content: its shape and four entries.

    Content, not address: ProblemModel stores a fresh copy of A on every
    construction, and freed buffers are reused."""
    A = np.asarray(A)
    size = A.size
    return (A.shape, *(float(A.flat[i]) for i in (0, size // 3, size // 2, size - 1)))


def _note_problem_model(tr, args, kwargs, result):
    self = args[0]
    tr.count("model.ProblemModel.bytes_computed", self.A.nbytes)
    tr.distinct("model.ProblemModel", _matrix_key(self.A))


def _note_gaussian_matrix(tr, args, kwargs, result):
    tr.count("model.generate_gaussian_matrix.bytes_computed", result.nbytes)


def _note_oracle(tr, args, kwargs, result):
    model, _, support = args[:3]
    tr.distinct("estimators.oracle", (_matrix_key(model.A), tuple(sorted(support))))


def _note_ccrb_maximal(tr, args, kwargs, result):
    model, signal = args[:2]
    tr.distinct("ccrb.ccrb_maximal", (_matrix_key(model.A), signal.support))


def _note_rip(tr, args, kwargs, result):
    A, s = args[:2]
    if result.exact:
        supports = math.comb(np.asarray(A).shape[1], s)
    else:
        supports = kwargs.get("samples", args[3] if len(args) > 3 else 2000)
    tr.count("ccrb.rip_constants.supports", supports)


def _note_test_points(tr, args, kwargs, result):
    k = len(result.offsets)
    tr.count("hcrb.test_points.pairs", k * (k + 1) // 2)


def _note_fim_mc(tr, args, kwargs, result):
    model = args[0]
    samples = kwargs.get("samples", args[2] if len(args) > 2 else None)
    tr.count("fisher.fim_monte_carlo.samples", samples)
    # residual block r (samples x m) and score block S (samples x n)
    tr.count("fisher.fim_monte_carlo.bytes_computed", samples * (model.m + model.n) * 8)


def _note_run_trials(tr, args, kwargs, result):
    tr.count("montecarlo.failures", result.failures)


NOTES = {
    "model.ProblemModel": _note_problem_model,
    "model.generate_gaussian_matrix": _note_gaussian_matrix,
    "estimators.oracle": _note_oracle,
    "ccrb.ccrb_maximal": _note_ccrb_maximal,
    "ccrb.rip_constants": _note_rip,
    "hcrb.test_points": _note_test_points,
    "fisher.fim_monte_carlo": _note_fim_mc,
    "montecarlo.run_trials": _note_run_trials,
}


def _traced(tracer: Tracer, fn, span: str):
    name_id = tracer.name_id(span)
    note = NOTES.get(span)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = open_(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(i)
        if note is not None:
            note(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Record a span around every public call of every layer."""
    import sparsebounds

    layers = {name: sys.modules[f"sparsebounds.{name}"] for name in LAYERS}
    namespaces = [sparsebounds, *layers.values()]
    undo = []
    try:
        for layer, module in layers.items():
            for public in module.__all__:
                obj = getattr(module, public)
                span = SPAN_ALIASES.get(f"{layer}.{public}", f"{layer}.{public}")
                if isinstance(obj, type):
                    hook = obj.__dict__.get("__post_init__")
                    if hook is not None:
                        undo.append((obj, "__post_init__", hook))
                        setattr(obj, "__post_init__", _traced(tracer, hook, span))
                    continue
                wrapped = _traced(tracer, obj, span)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            undo.append((ns, attr, value))
                            setattr(ns, attr, wrapped)
        yield tracer
    finally:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)


# ---------------------------------------------------------------------------
# analysis


def self_times(tracer: Tracer) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    start = np.frombuffer(tracer.start, dtype=float)
    end = np.frombuffer(tracer.end, dtype=float)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def percentile_us(durations: np.ndarray, q: float) -> float:
    """The q-th percentile in microseconds, or 0.0 when fewer than ten
    samples lie beyond it."""
    if durations.size * (1.0 - q / 100.0) < 10:
        return 0.0
    return float(np.percentile(durations, q)) * 1e6


class SpanSummary:
    """Per-name totals over the traced units, normalised per unit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        names = np.frombuffer(tracer.name, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=float)
        end = np.frombuffer(tracer.end, dtype=float)
        self._dur = end - start
        self._self = self_times(tracer)
        self._names = names
        k = len(tracer.names)
        self.calls_total = np.bincount(names, minlength=k)
        self.self_total = np.bincount(names, weights=self._self, minlength=k)
        self.incl_total = np.bincount(names, weights=self._dur, minlength=k)
        self.wall = float(self.self_total.sum())
        unit_id = tracer._ids.get(UNIT_SPAN)
        self.units = int(self.calls_total[unit_id]) if unit_id is not None else 1

    def _id(self, name: str):
        return self.tracer._ids.get(name)

    def calls(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.calls_total[i]) / self.units

    def self_s(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.self_total[i]) / self.units

    def inclusive_s(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.incl_total[i]) / self.units

    def inclusive_frac(self, name: str) -> float:
        """Share of the traced wall time spent inside spans called `name`."""
        i = self._id(name)
        return 0.0 if i is None or not self.wall else float(self.incl_total[i]) / self.wall

    def durations(self, name: str) -> np.ndarray:
        i = self._id(name)
        if i is None:
            return np.zeros(0)
        return self._dur[self._names == i]

    def count(self, key: str) -> float:
        return float(self.tracer.counts.get(key, 0)) / self.units

    def distinct_frac(self, name: str) -> float:
        """Distinct inputs seen by span `name` per call."""
        calls = self.calls(name) * self.units
        return len(self.tracer.keys.get(name, ())) / calls if calls else 0.0

    def layer_self_frac(self) -> dict[str, float]:
        """Share of all self time spent in each layer (plus 'bench')."""
        out = {layer: 0.0 for layer in (*LAYERS, "bench")}
        for i, name in enumerate(self.tracer.names):
            out[name.split(".", 1)[0]] += float(self.self_total[i])
        return {k: (v / self.wall if self.wall else 0.0) for k, v in out.items()}
