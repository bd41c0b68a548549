"""Proactive software rejuvenation on top of F2PM models.

The paper's motivation (Sec. I): with an RTTF model in hand, "proper
actions could be executed in advance to prevent upcoming system failures"
— *proactive rejuvenation* restarts the application shortly before the
predicted failure, converting a long unplanned outage into a short
planned one. The S-MAE threshold T is exactly the planning margin: an
RTTF error below T is harmless because the restart fires T seconds early
anyway.

This package closes the loop:

- :mod:`~repro.rejuvenation.policy` — when to restart: never (crash-only
  baseline), periodically (classic rejuvenation), or predictively from a
  trained F2PM model;
- :mod:`~repro.rejuvenation.controller` — a managed testbed simulation
  that monitors the live system through the streaming aggregator,
  consults the policy at every completed window, and accounts uptime /
  downtime per episode; it runs as a fleet of one;
- :mod:`~repro.rejuvenation.metrics` — availability, crash counts,
  rejuvenation lead times;
- :mod:`~repro.rejuvenation.fleet` — the control loop, N node loops
  under one policy engine: struct-of-arrays stream state, batched RTTF
  scoring (one model call per tick), capacity-floor restart staggering,
  and drain before kill.
"""

from repro.rejuvenation.policy import (
    RejuvenationPolicy,
    NoRejuvenation,
    PeriodicRejuvenation,
    PredictiveRejuvenation,
)
from repro.rejuvenation.controller import (
    ManagedSystemConfig,
    Episode,
    ManagedRunLog,
    ManagedSystem,
)
from repro.rejuvenation.metrics import AvailabilityReport, summarize
from repro.rejuvenation.fleet import (
    FleetConfig,
    FleetController,
    FleetReport,
    FleetRunLog,
    FleetSource,
    FleetStream,
    SimulatedFleetSource,
    SyntheticFleetSource,
    SyntheticFleetSpec,
    summarize_fleet,
)

__all__ = [
    "RejuvenationPolicy",
    "NoRejuvenation",
    "PeriodicRejuvenation",
    "PredictiveRejuvenation",
    "ManagedSystemConfig",
    "Episode",
    "ManagedRunLog",
    "ManagedSystem",
    "AvailabilityReport",
    "summarize",
    "FleetConfig",
    "FleetController",
    "FleetReport",
    "FleetRunLog",
    "FleetSource",
    "FleetStream",
    "SimulatedFleetSource",
    "SyntheticFleetSource",
    "SyntheticFleetSpec",
    "summarize_fleet",
]
