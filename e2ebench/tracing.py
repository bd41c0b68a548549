"""Benchmark-side spans around the program's public entry points.

The traced run wraps each layer's entry points from here — the program
itself is not edited — so per-layer self time can be compared across
commits even when the program's own instrumentation changes. A span is
``[name, layer, start, end, parent, op]``; spans live in memory and are
written out when the run ends. A layer's self time is the duration of
its spans minus the time their direct child spans cover; the op time no
root span covers is reported as unattributed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

from repro.ml.serving import CompiledPredictor
from repro.rejuvenation.fleet import FleetSource

#: The layers spans are attributed to, named after the program's modules.
LAYERS = ("system", "core", "ml", "serving", "rejuvenation", "campaign", "store")


class Recorder:
    """In-memory span tree of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Label stamped on new spans: the op they belong to.
        self.op = ""

    def begin(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def instrument(fn, name: str, layer: str, rec: "Recorder | None", cal):
    """*fn* inside a span (when tracing), then a calibration visit."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name, layer) if rec is not None else -1
        try:
            return fn(*args, **kwargs)
        finally:
            if rec is not None:
                rec.end(idx)
            if cal is not None:
                cal.pace()

    return wrapper


@contextmanager
def hooks(targets, rec: "Recorder | None", cal):
    """Instrument ``owner.attr`` for each ``(owner, attr, layer)`` while open."""
    saved = []
    for owner, attr, layer in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        name = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        setattr(owner, attr, instrument(original, name, layer, rec, cal))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class OpTrace:
    """The spans of one op (by label) and what they add up to."""

    def __init__(self, rec: Recorder, label: str) -> None:
        child: dict[int, float] = defaultdict(float)
        mine = [i for i, s in enumerate(rec.spans) if s[5] == label]
        for i in mine:
            span = rec.spans[i]
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        self.self_s = dict.fromkeys(LAYERS + ("calib",), 0.0)
        self.by_name: dict[str, list[float]] = defaultdict(list)
        roots = 0.0
        for i in mine:
            name, layer, start, end, parent, _ = rec.spans[i]
            self.self_s[layer] += (end - start) - child[i]
            self.by_name[name].append(end - start)
            if parent < 0:
                roots += end - start
        #: Op time inside layer spans; ops exclude the kernel's time.
        self.covered_s = roots - self.self_s["calib"]


class TracedSource(FleetSource):
    """Pass-through :class:`FleetSource`: times ``boot`` and ``step``
    when tracing, visits the calibrator after every step.

    ``step_delay`` busy-waits that share of each step's own duration
    after it returns — the layer-sensitivity self-test's slowdown.
    """

    def __init__(self, inner: FleetSource, rec: "Recorder | None", cal,
                 step_delay: float = 0.0) -> None:
        self.inner = inner
        self.rec = rec
        self.cal = cal
        self.step_delay = step_delay
        self.dt = inner.dt
        self.step_starts: list[float] = []

    def bind(self, rngs, horizon):
        self.inner.bind(rngs, horizon)
        self.n_nodes = self.inner.n_nodes

    def boot(self, node):
        if self.rec is None:
            return self.inner.boot(node)
        idx = self.rec.begin("FleetSource.boot", "system")
        try:
            return self.inner.boot(node)
        finally:
            self.rec.end(idx)

    def step(self, ids, walls, nows):
        t0 = time.perf_counter()
        # On a clock that stops while the kernel runs, so tick intervals
        # exclude the calibrator's visits.
        self.step_starts.append(t0 - (self.cal.spent if self.cal is not None else 0.0))
        idx = self.rec.begin("FleetSource.step", "system") if self.rec else -1
        try:
            out = self.inner.step(ids, walls, nows)
        finally:
            if self.rec is not None:
                self.rec.end(idx)
        if self.step_delay:
            t1 = time.perf_counter()
            until = t1 + self.step_delay * (t1 - t0)
            while time.perf_counter() < until:
                pass
        if self.cal is not None:
            self.cal.pace()
        return out


class TracedModel:
    """Pass-through policy model timing every scoring call."""

    def __init__(self, inner, rec: Recorder) -> None:
        self.inner = inner
        self.rec = rec
        self.rows: list[int] = []

    def predict(self, X):
        self.rows.append(len(X))
        idx = self.rec.begin("model.predict", "serving")
        try:
            return self.inner.predict(X)
        finally:
            self.rec.end(idx)


class TracedCompiled(CompiledPredictor):
    """:class:`TracedModel` for an already-compiled predictor, so the
    fleet's compiled plane serves it as-is instead of recompiling."""

    def __init__(self, inner: CompiledPredictor, rec: Recorder) -> None:
        super().__init__(inner.exact, inner._fast, inner.report)
        self.rec = rec
        self.rows: list[int] = []

    def predict(self, X):
        self.rows.append(len(X))
        idx = self.rec.begin("model.predict", "serving")
        try:
            return super().predict(X)
        finally:
            self.rec.end(idx)


def traced_model(model, rec: Recorder):
    if isinstance(model, CompiledPredictor):
        return TracedCompiled(model, rec)
    return TracedModel(model, rec)
