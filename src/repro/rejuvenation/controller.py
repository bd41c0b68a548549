"""Managed-system simulation: the testbed under a rejuvenation policy.

Runs the same node episode as :class:`~repro.system.simulator.TestbedSimulator`
(machine, TPC-W pool, app server, FMC), but closes the control loop: every
FMC datapoint feeds the sanitized streaming aggregator, and each
completed window is handed to the policy. A policy trigger performs a
*planned* restart (short downtime); a failure-condition trigger performs
a *crash* restart (long downtime — state recovery, fsck, cache warm-up).
The controller accounts wall-clock uptime and downtime over a fixed
horizon so that policies can be compared by availability.

:class:`ManagedSystem` is a fleet of one: it runs
:class:`~repro.rejuvenation.fleet.FleetController` over a single
:class:`~repro.rejuvenation.fleet.SimulatedFleetSource` node, so it
honours every campaign switch the fleet honours and emits the fleet's
telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rejuvenation.policy import RejuvenationPolicy
from repro.system.failure import FailureCondition
from repro.system.simulator import CampaignConfig
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class ManagedSystemConfig:
    """Horizon and downtime accounting for a managed simulation."""

    #: Total simulated wall-clock horizon (seconds).
    horizon_seconds: float = 20_000.0
    #: Downtime of a planned (rejuvenation) restart.
    rejuvenation_downtime: float = 30.0
    #: Downtime of an unplanned crash (recovery, fsck, warm-up).
    crash_downtime: float = 300.0
    #: Aggregation window for the online feature stream.
    window_seconds: float = 20.0
    #: Monitor-dropout tolerance: when no aggregation window has
    #: completed for this long (monitor wedged, every sample dropped by
    #: the sanitizer, ...), the controller *holds the last completed
    #: window* and keeps consulting the policy with it — degraded but
    #: alive — instead of going blind. ``None`` resolves to 5 windows.
    staleness_timeout: "float | None" = None

    def __post_init__(self) -> None:
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if self.rejuvenation_downtime < 0 or self.crash_downtime < 0:
            raise ValueError("downtimes must be non-negative")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.staleness_timeout is not None and self.staleness_timeout <= 0:
            raise ValueError("staleness_timeout must be positive (or None)")

    @property
    def resolved_staleness_timeout(self) -> float:
        if self.staleness_timeout is not None:
            return self.staleness_timeout
        return 5.0 * self.window_seconds


@dataclass(frozen=True)
class Episode:
    """One uptime stretch, ended by a crash, a rejuvenation, or the horizon."""

    start: float
    end: float
    outcome: str  # "crash" | "rejuvenation" | "horizon"
    predicted_rttf: "float | None" = None  # at the trigger, if predictive

    @property
    def uptime(self) -> float:
        return self.end - self.start


@dataclass
class ManagedRunLog:
    """Everything a managed simulation produced."""

    policy_name: str
    episodes: list[Episode] = field(default_factory=list)
    total_uptime: float = 0.0
    total_downtime: float = 0.0

    @property
    def n_crashes(self) -> int:
        return sum(1 for e in self.episodes if e.outcome == "crash")

    @property
    def n_rejuvenations(self) -> int:
        return sum(1 for e in self.episodes if e.outcome == "rejuvenation")

    @property
    def availability(self) -> float:
        total = self.total_uptime + self.total_downtime
        return self.total_uptime / total if total > 0 else 1.0


class ManagedSystem:
    """The testbed under a rejuvenation policy, simulated over a horizon.

    ``fault_profile`` (a :class:`repro.faults.FaultProfile`) corrupts the
    monitor stream before the stream sanitizer, configured by
    ``sanitize_config``, sees it. The policy must be one the fleet
    controller runs (``NoRejuvenation``, ``PeriodicRejuvenation``,
    ``PredictiveRejuvenation``); any other raises ``ValueError``.
    """

    def __init__(
        self,
        campaign: CampaignConfig,
        managed: ManagedSystemConfig,
        policy: RejuvenationPolicy,
        failure_condition: FailureCondition | None = None,
        fault_profile=None,
        sanitize_config=None,
    ) -> None:
        # fleet.py imports this module's records, so the controller comes
        # in here rather than at module level.
        from repro.rejuvenation.fleet import (
            FleetConfig,
            FleetController,
            SimulatedFleetSource,
        )

        self.campaign = campaign
        self._fleet = FleetController(
            SimulatedFleetSource(campaign, failure_condition, fault_profile),
            managed,
            policy,
            FleetConfig(n_nodes=1),
            sanitize_config,
        )

    def run(self, seed: "int | None | np.random.Generator" = None) -> ManagedRunLog:
        """Simulate the managed system for the configured horizon.

        The node is driven by ``as_rng(seed)`` itself — the generator
        ``TestbedSimulator.run_once(seed)`` runs on — or by the
        campaign's seed when ``seed`` is None.
        """
        rng = as_rng(seed if seed is not None else self.campaign.seed)
        return self._fleet._run_nodes([rng]).node_logs[0]
