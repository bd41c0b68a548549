"""Simulated testbed substituting the paper's VMware/TPC-W deployment.

The paper collects training data from a real two-VM testbed: a TPC-W
bookstore (Tomcat + MySQL) modified to leak memory and spawn unterminated
threads proportionally to the request load, monitored by an FMC/FMS pair.
That hardware is not available offline, so this package provides a
discrete-time simulation with the same observable surface:

- :mod:`~repro.system.resources` — machine memory/swap/CPU accounting;
- :mod:`~repro.system.tpcw` — TPC-W interaction mix and emulated browsers;
- :mod:`~repro.system.server` — closed-loop application-server model whose
  service times inflate under thread bloat and swap thrashing;
- :mod:`~repro.system.anomalies` — the paper's Sec. III-E injector design;
- :mod:`~repro.system.failure` — user-defined failure conditions;
- :mod:`~repro.system.monitor` — FMC/FMS with load-dependent sampling
  jitter (the source of the Fig. 3 inter-generation-time signal);
- :mod:`~repro.system.simulator` — run-until-crash campaigns producing
  :class:`~repro.core.history.DataHistory`, and the per-tick node
  episode they drive (:func:`~repro.system.simulator.loop_episode`);
- :mod:`~repro.system.fused` — the event-fused execution substrate, a
  bit-identical fast path for the same episode
  (:func:`~repro.system.fused.fused_episode`; see ``docs/PERFORMANCE.md``).
"""

from repro.system.resources import MACHINE_PROFILES, MachineConfig, MachineState
from repro.system.anomalies import (
    AnomalyProfile,
    MemoryLeakInjector,
    ThreadLeakInjector,
    LockContentionInjector,
    FdLeakInjector,
    ConnectionPoolInjector,
    HeapFragmentationInjector,
)
from repro.system.tpcw import (
    Interaction,
    TPCWMix,
    BROWSING_MIX,
    SHOPPING_MIX,
    ORDERING_MIX,
    EmulatedBrowserPool,
)
from repro.system.server import ServerConfig, AppServer
from repro.system.failure import (
    FailureCondition,
    MemoryExhaustion,
    ResponseTimeLimit,
    GenerationTimeLimit,
    FdExhaustion,
    AnyOf,
    parse_failure,
)
from repro.system.schedule import (
    LoadSchedule,
    ConstantLoad,
    DiurnalLoad,
    StepLoad,
    FlashCrowdLoad,
)
from repro.system.monitor import MonitorConfig, FeatureMonitorClient, FeatureMonitorServer
from repro.system.simulator import CampaignConfig, TestbedSimulator
from repro.system.fused import run_once_fused

__all__ = [
    "MACHINE_PROFILES",
    "MachineConfig",
    "MachineState",
    "AnomalyProfile",
    "MemoryLeakInjector",
    "ThreadLeakInjector",
    "LockContentionInjector",
    "FdLeakInjector",
    "ConnectionPoolInjector",
    "HeapFragmentationInjector",
    "Interaction",
    "TPCWMix",
    "BROWSING_MIX",
    "SHOPPING_MIX",
    "ORDERING_MIX",
    "EmulatedBrowserPool",
    "ServerConfig",
    "AppServer",
    "FailureCondition",
    "MemoryExhaustion",
    "ResponseTimeLimit",
    "GenerationTimeLimit",
    "FdExhaustion",
    "AnyOf",
    "parse_failure",
    "LoadSchedule",
    "ConstantLoad",
    "DiurnalLoad",
    "StepLoad",
    "FlashCrowdLoad",
    "MonitorConfig",
    "FeatureMonitorClient",
    "FeatureMonitorServer",
    "CampaignConfig",
    "TestbedSimulator",
    "run_once_fused",
]
