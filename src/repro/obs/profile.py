"""Per-stage profiling whose own cost is measured, not assumed.

:class:`StageProfiler` wraps pipeline stages (``with profiler.stage(
"fleet.predict"): ...``) and hot-loop samples
(:meth:`StageProfiler.record`) into wall-clock **and** CPU latency
histograms in the metrics registry — which, being log-bucketed
(:class:`repro.obs.metrics.Histogram`), hold a hot path's full latency
distribution in bounded memory.

The profiler keeps itself honest two ways:

- at construction it **calibrates** the cost of one instrumented
  entry/exit pair by timing empty stages, exposing the estimate as
  ``entry_cost_s``;
- every stage exit additionally measures the bookkeeping it just did
  (the clock reads and histogram updates) with one extra clock read,
  accumulating the sum into the ``profile.overhead_seconds_total``
  counter — so ``overhead_fraction(run_wall_seconds)`` reports how much
  of a run the profiler itself consumed, from data, not assumption.

The committed ``benchmarks/BENCH_obs_overhead.json`` asserts the full
telemetry stack (metrics + spans + bus + profiler) under 5% on a fused
campaign; this module is what makes that number auditable.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.metrics import MetricsRegistry, get_metrics

#: Metric name accumulating the profiler's self-measured bookkeeping cost.
OVERHEAD_COUNTER = "profile.overhead_seconds_total"


class _Stage:
    """One open profiled stage (context manager)."""

    __slots__ = ("_profiler", "name", "_wall0", "_cpu0")

    def __init__(self, profiler: "StageProfiler", name: str) -> None:
        self._profiler = profiler
        self.name = name
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "_Stage":
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
        p = self._profiler
        registry = p._metrics
        registry.observe(f"profile.{self.name}.wall_seconds", wall1 - self._wall0)
        registry.observe(f"profile.{self.name}.cpu_seconds", cpu1 - self._cpu0)
        # Self-measurement: one more clock read prices the bookkeeping
        # this exit just performed, plus the calibrated entry cost.
        done = time.perf_counter()
        registry.inc(OVERHEAD_COUNTER, (done - wall1) + p.entry_cost_s)


class _NullStage:
    """No-op stage handed out while profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_STAGE = _NullStage()


class StageProfiler:
    """Wall+CPU per-stage profiler bound to a metrics registry.

    Enabled-ness follows the registry: when metrics are off (``--no-obs``,
    ``F2PM_OBS=0``), ``stage()`` returns a shared no-op and ``record()``
    returns after one branch — the hot paths pay nothing measurable.
    """

    def __init__(
        self,
        metrics: "MetricsRegistry | None" = None,
        calibration_reps: int = 256,
    ) -> None:
        self._metrics = metrics if metrics is not None else get_metrics()
        self.entry_cost_s = 0.0  # calibration stages price themselves at zero
        self.entry_cost_s = self._calibrate(calibration_reps)

    def _calibrate(self, reps: int) -> float:
        """Median-of-three cost of one empty ``stage()`` entry/exit pair."""
        if reps < 1:
            return 0.0
        estimates = []
        scratch = MetricsRegistry(enabled=True)
        saved, self._metrics = self._metrics, scratch
        try:
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(reps):
                    with _Stage(self, "calibration"):
                        pass
                estimates.append((time.perf_counter() - t0) / reps)
        finally:
            self._metrics = saved
        return sorted(estimates)[1]

    @property
    def enabled(self) -> bool:
        return self._metrics.enabled

    # -- recording -------------------------------------------------------------

    def stage(self, name: str) -> "_Stage | _NullStage":
        """Open a profiled stage: ``with profiler.stage("predict"): ...``."""
        if not self._metrics.enabled:
            return _NULL_STAGE
        return _Stage(self, name)

    def record(self, name: str, wall_seconds: float, cpu_seconds: "float | None" = None) -> None:
        """Record one externally-timed sample (hot-loop sampling API).

        Tight loops cannot afford a context manager per iteration; they
        time every K-th iteration themselves with two ``perf_counter``
        reads and hand the sample here. The bookkeeping cost is priced
        into the overhead counter exactly like :meth:`stage`.
        """
        registry = self._metrics
        if not registry.enabled:
            return
        t0 = time.perf_counter()
        registry.observe(f"profile.{name}.wall_seconds", wall_seconds)
        if cpu_seconds is not None:
            registry.observe(f"profile.{name}.cpu_seconds", cpu_seconds)
        done = time.perf_counter()
        # Two clock reads by the caller ≈ one calibrated entry pair.
        registry.inc(OVERHEAD_COUNTER, (done - t0) + self.entry_cost_s)

    # -- reporting -------------------------------------------------------------

    @property
    def overhead_seconds(self) -> float:
        """Self-measured total bookkeeping cost so far (seconds)."""
        return self._metrics.counter(OVERHEAD_COUNTER).value

    def overhead_fraction(self, total_wall_seconds: float) -> float:
        """Profiler cost as a fraction of a measured run's wall time."""
        if total_wall_seconds <= 0:
            return 0.0
        return self.overhead_seconds / total_wall_seconds

    def report(self) -> dict[str, Any]:
        """JSON-ready profile: per-stage summaries plus the self cost."""
        snap = self._metrics.snapshot()
        stages = {
            name[len("profile.") :]: summary
            for name, summary in snap.get("histograms", {}).items()
            if name.startswith("profile.")
        }
        return {
            "stages": stages,
            "overhead_seconds": self.overhead_seconds,
            "entry_cost_s": self.entry_cost_s,
        }


#: Process-wide default profiler (shares the default metrics registry).
_DEFAULT: "StageProfiler | None" = None


def get_profiler() -> StageProfiler:
    """The process-wide stage profiler (created, and calibrated, lazily)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = StageProfiler()
    return _DEFAULT
