"""Process-wide metrics registry: named counters, gauges, histograms.

The pipeline's long-lived quantities — datapoints sampled, runs
simulated, fail events, predictions served, per-model fit/predict
latencies — accumulate here. The registry is append-cheap by design:

- instruments are created lazily on first use and kept in dicts;
- every recording call (``inc`` / ``set_gauge`` / ``observe``) starts
  with one ``enabled`` check and returns immediately when the registry
  is disabled, so instrumented hot paths (one counter bump per FMC
  datapoint) cost a single attribute read when observability is off;
- ``snapshot()`` produces a plain-dict view (JSON-ready) without
  stopping collection, and ``reset()`` starts a fresh window.

The process-wide default registry is reached via :func:`get_metrics`;
:class:`MetricsRegistry` instances can also be created standalone for
tests or isolated components.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any


class Counter:
    """Monotonically-increasing count (events, rows, failures)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counters only increase, got {n}")
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value (sizes, thresholds)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Log-bucket resolution: bucket boundaries at powers of ``2**(1/4)``
#: (four buckets per octave, ~19% relative width, so quantile estimates
#: carry at most ~±9% relative error around each bucket's midpoint).
_BUCKETS_PER_OCTAVE = 4
#: Bucket-index clamp range: values outside [2^-40, 2^24] (~1e-12 s to
#: ~1.6e7 s when observing latencies) land in the edge buckets. The
#: index space is therefore fixed at 257 possible bins regardless of
#: how many observations arrive.
_MIN_BUCKET = -40 * _BUCKETS_PER_OCTAVE
_MAX_BUCKET = 24 * _BUCKETS_PER_OCTAVE


def bucket_index(value: float) -> int:
    """Fixed log-bucket index of a positive value (clamped)."""
    idx = math.ceil(_BUCKETS_PER_OCTAVE * math.log2(value))
    if idx < _MIN_BUCKET:
        return _MIN_BUCKET
    if idx > _MAX_BUCKET:
        return _MAX_BUCKET
    return idx


def bucket_upper_bound(index: int) -> float:
    """Inclusive upper bound of a log bucket (``2**(index/4)``)."""
    return 2.0 ** (index / _BUCKETS_PER_OCTAVE)


def bucket_midpoint(index: int) -> float:
    """Geometric midpoint of a log bucket (the quantile representative)."""
    return 2.0 ** ((index - 0.5) / _BUCKETS_PER_OCTAVE)


class Histogram:
    """Distribution of observed values (latencies, durations).

    Count/total/min/max stay **exact**; the distribution body is held in
    fixed log-spaced buckets (four per octave), so memory is bounded by
    the 257-bin index space no matter how many observations arrive — a
    week-long campaign costs the same bytes as a unit test. Quantiles
    are read from the bucket boundaries with bounded (~±9%) relative
    error; two histograms merge **losslessly** (bucket counts add).
    Values ``<= 0`` (a generic histogram may see them) share one
    dedicated bucket and resolve to the exact ``min`` in quantiles.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets", "_nonpositive")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._buckets: dict[int, int] = {}
        self._nonpositive = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            idx = bucket_index(value)
            self._buckets[idx] = self._buckets.get(idx, 0) + 1
        else:
            self._nonpositive += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile from the log buckets (±~9% relative).

        The rank convention matches the previous exact-sample
        implementation (``round(q * (count - 1))``); the returned value
        is the geometric midpoint of the bucket holding that rank,
        clamped into the exact ``[min, max]`` envelope.
        """
        if self.count == 0:
            raise ValueError("empty histogram")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0,1], got {q}")
        rank = min(self.count - 1, int(round(q * (self.count - 1))))
        cumulative = self._nonpositive
        if rank < cumulative:
            return self.min
        for idx in sorted(self._buckets):
            cumulative += self._buckets[idx]
            if rank < cumulative:
                return min(max(bucket_midpoint(idx), self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def state(self) -> dict[str, Any]:
        """Mergeable full state (summary plus the bucket counts).

        Unlike :meth:`summary`, the output can be folded into another
        histogram with :meth:`merge_state` **losslessly** — the
        transport used to ship worker-process metrics back to the
        parent registry.
        """
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
            "nonpositive": self._nonpositive,
        }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Exact statistics add exactly; log-bucket counts add bin-by-bin
        (no information loss — the merged histogram is identical to one
        that observed every value itself, bucket-wise). Legacy states
        carrying raw ``samples`` re-observe them for compatibility.
        """
        count = int(state.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(state.get("total", 0.0))
        self.min = min(self.min, float(state.get("min", float("inf"))))
        self.max = max(self.max, float(state.get("max", float("-inf"))))
        if "buckets" in state or "nonpositive" in state:
            for key, n in (state.get("buckets") or {}).items():
                idx = int(key)
                self._buckets[idx] = self._buckets.get(idx, 0) + int(n)
            self._nonpositive += int(state.get("nonpositive", 0))
        else:  # legacy sample-buffer dump: bin the retained samples
            for v in state.get("samples", ()):
                v = float(v)
                if v > 0.0:
                    idx = bucket_index(v)
                    self._buckets[idx] = self._buckets.get(idx, 0) + 1
                else:
                    self._nonpositive += 1

    def summary(self) -> dict[str, float]:
        """JSON-ready summary (the snapshot representation)."""
        if self.count == 0:
            return {"count": 0, "total": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named instruments with a disabled mode that costs one branch."""

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- switch ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- instrument access (creates on demand) ---------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter())
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge())
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram())
        return h

    # -- recording (no-ops when disabled) --------------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        if not self._enabled:
            return
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        if not self._enabled:
            return
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if not self._enabled:
            return
        self.histogram(name).observe(value)

    # -- views -----------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time plain-dict view of every instrument."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
                "histograms": {
                    k: h.summary() for k, h in sorted(self._histograms.items())
                },
            }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    # -- cross-process transport -----------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """Full mergeable state (picklable / JSON-ready).

        The counterpart of :meth:`merge_state`: a worker process calls
        ``dump_state()`` on its (fresh) registry and ships the dict back
        with its results; the parent folds it in, so campaign metrics
        stay complete regardless of where each run executed.
        """
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
                "histograms": {
                    k: h.state() for k, h in sorted(self._histograms.items())
                },
            }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a :meth:`dump_state` dict (e.g. from a worker) into this
        registry: counters add, gauges last-write-wins, histograms pool.

        No-op while disabled, mirroring the recording methods.
        """
        if not self._enabled:
            return
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, hist_state in state.get("histograms", {}).items():
            self.histogram(name).merge_state(hist_state)

    def reset(self) -> None:
        """Drop every instrument (a fresh measurement window)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: Process-wide default registry used by all repro instrumentation.
_DEFAULT = MetricsRegistry(enabled=True)


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _DEFAULT
