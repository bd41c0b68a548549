"""Feature Monitor Client / Server (paper Sec. III-E).

The FMC periodically reads the 15 system features and emits a datapoint;
the FMS collects the stream. The paper's FMC "waits about 1.5 seconds
between the generation of one datapoint and the next one", where "about"
hides the load signal F2PM later exploits: under CPU saturation and
swap thrashing the sampling loop itself is delayed, so the datapoint
**inter-generation time stretches with overload** — that stretching is
the Fig. 3 correlation with client response time and the basis of the
``gen_time`` derived metric.

The jitter model: the effective interval is the nominal one inflated by
a saturation term (scheduler delay once utilization approaches 1) and a
thrashing term (the monitor's own pages being swapped), plus small
scheduling noise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.datapoint import FEATURES, Datapoint
from repro.obs import get_logger, get_metrics, kv
from repro.system.resources import MachineState
from repro.utils.rng import as_rng

_log = get_logger("system.monitor")


@dataclass(frozen=True)
class MonitorConfig:
    """FMC sampling parameters."""

    #: Nominal wait between datapoints (the paper's ~1.5 s).
    nominal_interval: float = 1.5
    #: Interval inflation at full CPU saturation.
    saturation_coef: float = 1.2
    #: Utilization above which scheduler delay kicks in.
    saturation_knee: float = 0.7
    #: Interval inflation at full swap pressure (monitor pages swapped out).
    thrash_coef: float = 4.0
    #: Seconds of extra delay per second of CPU queueing delay (the
    #: monitor's own loop waits in the same run queue as the requests).
    queue_coef: float = 0.6
    #: Multiplicative scheduling noise sigma.
    noise_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.nominal_interval <= 0:
            raise ValueError(
                f"nominal_interval must be positive, got {self.nominal_interval}"
            )


def stretched_interval(
    config: MonitorConfig,
    utilization: float,
    swap_pressure: float,
    queue_delay: float,
    noise: float,
) -> float:
    """Effective sampling interval under load, given a drawn noise factor.

    The deterministic part of :meth:`FeatureMonitorClient.interval`
    (which delegates here after drawing ``noise`` from its own stream);
    the fused substrate calls it directly with an identically drawn
    noise factor, keeping both substrates bit-identical.
    """
    saturation = max(0.0, utilization - config.saturation_knee) / max(
        1e-9, 1.0 - config.saturation_knee
    )
    inflation = (
        1.0
        + config.saturation_coef * saturation**2
        + config.thrash_coef * swap_pressure**2
    )
    return (
        config.nominal_interval * inflation + config.queue_coef * queue_delay
    ) * noise


class FeatureMonitorClient:
    """Samples the 15-feature tuple with load-dependent timing."""

    def __init__(
        self,
        config: MonitorConfig,
        seed: "int | None | np.random.Generator" = None,
    ) -> None:
        self.config = config
        self.rng = as_rng(seed)
        self.next_sample_time: float = 0.0
        self.last_interval: float = config.nominal_interval

    def reset(self, now: float = 0.0) -> None:
        self.next_sample_time = now + self.config.nominal_interval
        self.last_interval = self.config.nominal_interval

    def interval(
        self, utilization: float, swap_pressure: float, queue_delay: float = 0.0
    ) -> float:
        """Effective sampling interval under the given load.

        ``queue_delay`` is the current CPU-queue drain time in seconds;
        the monitor loop waits in the same run queue as the requests, so
        its interval stretches with it.
        """
        cfg = self.config
        noise = float(
            np.exp(self.rng.normal(0.0, cfg.noise_sigma))
        )
        return stretched_interval(cfg, utilization, swap_pressure, queue_delay, noise)

    def due(self, now: float) -> bool:
        return now >= self.next_sample_time

    def sample(
        self,
        now: float,
        state: MachineState,
        utilization: float,
        queue_delay: float = 0.0,
    ) -> Datapoint:
        """:meth:`read`, counted in ``monitor.samples_total``."""
        dp = self.read(now, state, utilization, queue_delay)
        get_metrics().inc("monitor.samples_total")
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "fmc sample %s",
                kv(
                    t=now,
                    interval=self.last_interval,
                    utilization=utilization,
                    swap_used_kb=state.swap_used_kb,
                ),
            )
        return dp

    def read(
        self,
        now: float,
        state: MachineState,
        utilization: float,
        queue_delay: float = 0.0,
    ) -> Datapoint:
        """Read the features and schedule the next sample.

        Emits nothing: the simulation episodes call this and leave the
        counting to their callers.
        """
        dp = Datapoint(
            tgen=now,
            n_threads=float(state.n_threads),
            mem_used=state.mem_used_kb,
            mem_free=state.mem_free_kb,
            mem_shared=state.config.shared_kb,
            mem_buffers=state.config.buffers_kb,
            mem_cached=state.mem_cached_kb,
            swap_used=state.swap_used_kb,
            swap_free=state.swap_free_kb,
            cpu_user=state.cpu.user,
            cpu_nice=state.cpu.nice,
            cpu_sys=state.cpu.sys,
            cpu_iowait=state.cpu.iowait,
            cpu_steal=state.cpu.steal,
            cpu_idle=state.cpu.idle,
        )
        step = self.interval(utilization, state.swap_pressure, queue_delay)
        self.last_interval = step
        self.next_sample_time = now + step
        return dp


@dataclass
class FeatureMonitorServer:
    """Collects the FMC's datapoint stream for one run.

    In the paper this is a TCP peer that may live on another machine; in
    the simulation it is an in-process accumulator with the same
    interface: receive datapoints, hand back the run's matrix.
    """

    _rows: list[np.ndarray] = field(default_factory=list)
    _response_times: list[float] = field(default_factory=list)

    def receive(self, datapoint: Datapoint, response_time: float) -> None:
        """Ingest one datapoint (+ the probe-measured RT ground truth)."""
        self._rows.append(datapoint.to_array())
        self._response_times.append(response_time)
        get_metrics().inc("monitor.datapoints_total")

    @property
    def n_datapoints(self) -> int:
        return len(self._rows)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(features (n,15), response_times (n,))``."""
        if not self._rows:
            return np.empty((0, len(FEATURES))), np.empty(0)
        return np.vstack(self._rows), np.asarray(self._response_times)

    def clear(self) -> None:
        self._rows.clear()
        self._response_times.clear()
