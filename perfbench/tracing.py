"""Per-layer spans recorded from outside the program.

Tracer.install() replaces each traced function at every module attribute
of projstruct that names it (so names bound by `from ... import` are
covered) and each traced method in the class dict of every class that
defines it (every Family subclass's project_many and validate, for
example).  Each call then records one span: name, parent span, start and
end.  Spans live in flat arrays in memory and are summarised, and written
out, when the run ends.  A span's self time is its duration minus the time
covered by its child spans.  uninstall() puts every original back.

A traced function that no longer exists is listed in Tracer.absent and
does not stop the run.
"""

from __future__ import annotations

import array
import functools
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> public functions of projstruct.<layer> that get a span each
FUNCTIONS = {
    "linalg": ["orthonormal_span", "least_squares_project", "project_rows_onto_span"],
    "selection": ["select_penalized", "objective", "select_bruteforce", "segment_dp",
                  "alternating_bicluster", "search_candidates"],
    "ddm": ["log_elementary_symmetric", "sparsity_inclusion_probabilities",
            "structure_posterior", "log_unnormalized_weight", "ma_mean",
            "sample_conditional"],
    "oracle": ["oracle_rate"],
    "balls": ["ebr_ball", "quarter_ball", "contains", "duplicate_gaussian", "v_statistic",
              "highly_structured"],
    "noise": ["check_a1", "check_a2", "check_a3", "check_a4"],
    "experiments": ["build_family", "run_experiment", "point_estimate"],
    "cli": ["main"],
}

# (layer, base class, method, span name): wrapped in the base class and in
# every subclass that defines the method itself
METHODS = [
    ("structures", "Family", "project", "structures.project"),
    ("structures", "Family", "project_many", "structures.project_many"),
    ("structures", "Family", "validate", "structures.validate"),
    ("structures", "Family", "majorant", "structures.majorant"),
    ("structures", "Family", "enumerate_structures", "structures.enumerate"),
    ("noise", "NoiseModel", "sample", "noise.sample"),
    ("noise", "NoiseModel", "sample_many", "noise.sample"),
]

COLUMNS = "linalg.orthonormal_span.columns"
EMITTED = "structures.enumerate.emitted"


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []  # traced functions that no longer exist
        self.found: set[str] = set()  # span names installed at least once
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        tracer = self

        if name == "linalg.orthonormal_span":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                basis = np.asarray(args[0] if args else kwargs["basis"])
                if basis.ndim == 2:
                    tracer.counters[COLUMNS] += basis.shape[1]
                idx = tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        elif name == "structures.enumerate":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                return tracer._emitting(it, nid)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        return wrapper

    def _emitting(self, it, nid):
        """Yield from `it`, recording each step as a span of the enumerator,
        since lazy enumerators do their work inside next()."""
        it = iter(it)
        while True:
            idx = self._open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counters[EMITTED] += 1
            yield item

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("projstruct.") and mod is not None}
        for layer, fnames in FUNCTIONS.items():
            for fname in fnames:
                orig = getattr(modules.get(layer), fname, None)
                if not callable(orig):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(orig, f"{layer}.{fname}")
                self.found.add(f"{layer}.{fname}")
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        for layer, base_name, method, span in METHODS:
            base = getattr(modules.get(layer), base_name, None)
            owners = [c for c in _subclasses(base) if method in vars(c)] if base else []
            if not owners:
                self.absent.append(f"{layer}.{base_name}.{method}")
            for cls in owners:
                self.found.add(span)
                orig = vars(cls)[method]
                self._patches.append((cls, method, orig))
                setattr(cls, method, self._wrap(orig, span))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        own = dur - covered
        calls = np.bincount(names, minlength=len(self.names))
        self_ns = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_ns[i]) * 1e-9)
                for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64))


# Per-layer metrics: name -> (unit, how to read it from a round's summary).
#   ("calls", span)   number of spans of that name
#   ("self", spans)   self seconds, summed over the listed span names
#   ("counter", key)  a counter recorded at the span boundary
def _layer_metrics():
    out = {}

    def calls(span):
        out[f"{span}.calls"] = ("count", ("calls", [span]))

    def self_s(span, spans=None):
        out[f"{span}.self_s"] = ("s", ("self", spans or [span]))

    calls("linalg.orthonormal_span")
    out[COLUMNS] = ("count", ("counter", COLUMNS))
    self_s("linalg.orthonormal_span")
    calls("linalg.least_squares_project")
    calls("linalg.project_rows_onto_span")
    for method in ("project", "project_many", "validate", "majorant"):
        calls(f"structures.{method}")
        self_s(f"structures.{method}")
    out[EMITTED] = ("count", ("counter", EMITTED))
    self_s("structures.enumerate")
    for fn in ("select_penalized", "objective", "alternating_bicluster"):
        calls(f"selection.{fn}")
        self_s(f"selection.{fn}")
    for fn in ("select_bruteforce", "segment_dp", "search_candidates"):
        self_s(f"selection.{fn}")
    for fn in ("log_elementary_symmetric", "structure_posterior"):
        calls(f"ddm.{fn}")
        self_s(f"ddm.{fn}")
    self_s("ddm.sparsity_inclusion_probabilities")
    calls("ddm.log_unnormalized_weight")
    self_s("ddm.ma_mean")
    self_s("ddm.sample_conditional")
    calls("oracle.oracle_rate")
    self_s("oracle.oracle_rate")
    calls("balls.ebr_ball")
    calls("balls.quarter_ball")
    out["balls.self_s"] = ("s", ("self", [f"balls.{fn}" for fn in FUNCTIONS["balls"]]))
    calls("noise.sample")
    self_s("noise.sample")
    for which in ("a1", "a2", "a3", "a4"):
        self_s(f"noise.check_{which}")
    calls("experiments.build_family")
    self_s("experiments.run_experiment")
    self_s("experiments.point_estimate")
    calls("cli.main")
    self_s("cli.main")
    return out


LAYER_METRICS = _layer_metrics()


def absent_metrics(found: set[str]) -> list[str]:
    """Per-layer metrics none of whose spans could be installed."""
    out = []
    for metric, (_, (kind, ref)) in LAYER_METRICS.items():
        spans = [ref.rsplit(".", 1)[0]] if kind == "counter" else ref
        if not any(span in found for span in spans):
            out.append(metric)
    return out


def layer_values(summary: dict, counters: dict) -> dict[str, float]:
    values = {}
    for metric, (_, (kind, ref)) in LAYER_METRICS.items():
        if kind == "calls":
            values[metric] = float(sum(summary.get(s, (0, 0.0))[0] for s in ref))
        elif kind == "self":
            values[metric] = sum(summary.get(s, (0, 0.0))[1] for s in ref)
        else:
            values[metric] = float(counters.get(ref, 0))
    return values
