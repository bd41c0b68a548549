"""The four workloads. Each puts one layer in charge:

* ``paper-pipeline`` — the ROADMAP's full run (simulate → aggregate →
  Lasso select → train and validate → compile → control); training leads.
* ``scenario-sweep`` — every scenario preset through the campaign
  manager into a fresh store, then warm reruns; batch simulation leads.
* ``fleet-testbed`` — fleets of full testbed nodes under the predictive
  policy; tick-by-tick node stepping leads.
* ``fleet-scale`` — thousands of closed-form nodes; the control plane
  (stream ingest, batched scoring, restart arbitration) leads.

An op is a list of timed stages. Benchmark-side hooks on each layer's
entry points visit the calibrator (see ``harness``) inside the stages and
open spans when a :class:`~tracing.Recorder` is given; stage times
exclude the kernel, and the kernel samples taken during them calibrate
the op. ``op(k, cal, rec)`` runs op *k*, whose inputs depend
on the seed and *k* only, so a traced op reproduces its untraced twin.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.campaign import CampaignManager, CampaignSpec
from repro.campaign import stages as campaign_stages
from repro.cli import demo_campaign
from repro.core import F2PM, AggregationConfig, F2PMConfig
from repro.core import framework
from repro.core.feature_selection import LassoFeatureSelector
from repro.experiments.common import default_f2pm_config
from repro.ml.model_selection import train_test_split
from repro.ml.serving import compile_predictor
from repro.rejuvenation import (
    FleetConfig,
    FleetController,
    ManagedSystemConfig,
    PredictiveRejuvenation,
    SimulatedFleetSource,
    SyntheticFleetSource,
    SyntheticFleetSpec,
)
from repro.scenarios import SCENARIOS
from repro.store import ArtifactStore
from repro.system import CampaignConfig, TestbedSimulator

from tracing import TracedSource, hooks, instrument, traced_model


#: Warm-up ops touch every code path; their inputs stay fixed so set-up
#: time does not depend on the seed.
WARMUP_SEED = 0


def derive(seed: int, *keys) -> int:
    """A 32-bit seed derived from the benchmark seed and *keys*."""
    words = [seed] + [zlib.crc32(str(k).encode()) for k in keys]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def fresh_op_state() -> None:
    """Every timed op starts from a fresh observability window and heap."""
    obs.reset()
    gc.collect()


@dataclass
class Op:
    """One timed op: raw stage seconds plus what it produced."""

    label: str
    stages: list[float] = field(default_factory=list)
    #: Simulated or controlled node-seconds behind each stage.
    work: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: Output fingerprints: recorded for review, never gated on.
    digests: dict[str, str] = field(default_factory=dict)
    #: Per-layer counts and program-measured timings.
    counts: dict[str, float] = field(default_factory=dict)
    #: A warm rerun (scenario-sweep), timed apart from the sweep.
    warm: bool = False
    #: Fleet tick start times and rows per scoring call (traced ops).
    tick_starts: list[float] = field(default_factory=list)
    predict_rows: list[int] = field(default_factory=list)
    #: Calibration kernel samples taken during the stages.
    kernel: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.stages)

    def timed(self, cal, fn, *args, work: float = 0.0, **kwargs):
        """Run *fn* as a stage; its time excludes the calibration kernel."""
        spent = cal.spent if cal is not None else 0.0
        first = len(cal.samples) if cal is not None else 0
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        if cal is not None:
            cal.pace(force=True)
            spent = cal.spent - spent
            self.kernel.extend(cal.samples[first:])
        self.stages.append(time.perf_counter() - t0 - spent)
        self.work.append(work)
        return out

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _managed(horizon: float, window: float) -> ManagedSystemConfig:
    return ManagedSystemConfig(
        horizon_seconds=horizon,
        rejuvenation_downtime=30.0,
        crash_downtime=300.0,
        window_seconds=window,
    )


def _run_fleet(op, cal, rec, source, managed, policy, fleet, seed, step_delay=0.0):
    """One controller run as a stage, with the fleet output checks."""
    source = TracedSource(source, rec, cal, step_delay)
    if rec is not None:
        policy.model = traced_model(policy.model, rec)
    controller = FleetController(source, managed, policy, fleet)
    with hooks([(FleetController, "run", "rejuvenation")], rec, None):
        log = op.timed(cal, controller.run, seed=seed)
    # Down nodes are not stepped: the work is the node-seconds served.
    op.work[-1] = log.total_uptime
    if rec is not None:
        op.tick_starts = source.step_starts
        op.predict_rows = policy.model.rows
    horizon = managed.horizon_seconds
    for i, nl in enumerate(log.node_logs):
        total = nl.total_uptime + nl.total_downtime
        op.check(math.isclose(total, horizon, rel_tol=1e-9),
                 f"node {i}: uptime + downtime = {total}, horizon {horizon}")
    op.check(log.scoring_calls < log.scored_rows,
             f"scoring_calls {log.scoring_calls} >= scored_rows {log.scored_rows}")
    op.counts.update({
        "rejuvenation.restarts": log.n_rejuvenations,
        "rejuvenation.restarts_deferred": log.restarts_deferred,
        "rejuvenation.crashes": log.n_crashes,
    })
    op.digests["fleet"] = digest(
        [[nl.total_uptime, nl.total_downtime, nl.n_crashes, nl.n_rejuvenations]
         for nl in log.node_logs]
    )


class Workload:
    name = ""
    #: Fewest ops an untraced run measures, whatever --seconds says.
    min_ops = 1
    #: Whether the calibration kernel adds its array part to the Python
    #: part (``harness.Calibrator``), because the workload also spends
    #: much of its time in vector loops. Chosen once per workload by the
    #: spread of calibrated ``sim_s_per_s`` over five seeds (2-vCPU
    #: Xeon): paper-pipeline 4.0% with both parts against 6.2% with the
    #: Python part, scenario-sweep 5.0% against 8.0%; fleet-testbed 3.7%
    #: with the Python part against 6.6%, fleet-scale 4.8% against 5.6%.
    array_kernel = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Input generation (and any fit the inputs need)."""

    def warmup(self, cal=None) -> None:
        """A small op that touches every code path once; timed only as
        part of set-up, with *cal* pacing the kernel through it."""

    def op(self, k: int, cal, rec=None) -> list[Op]:
        raise NotImplementedError

    def rate(self, op: Op) -> float:
        """Raw node-seconds per second for one op."""
        return sum(op.work) / op.seconds


# -- paper-pipeline -----------------------------------------------------------------

#: The training corpus is pinned. Over six campaign seeds the two SMO
#: fits took 126k-192k iterations, and over three split seeds of one
#: campaign 150k-169k, so a seed-drawn corpus would measure the corpus,
#: not the code. The benchmark seed drives the compile gate's split, the
#: Nystrom landmarks and the controlled fleet.
PAPER_CORPUS = CampaignConfig(n_runs=10, seed=7)
PAPER_FLEET_NODES = 5
PAPER_FLEET_HORIZON = 1000.0
LASSO_NAMES = tuple(f"lasso(1e{k})" for k in range(10))


class PaperPipeline(Workload):
    name = "paper-pipeline"
    array_kernel = True

    def setup(self) -> None:
        self.config = default_f2pm_config()
        self.fleet = FleetConfig(
            n_nodes=PAPER_FLEET_NODES, capacity_floor=0.8, scoring="compiled"
        )

    def warmup(self, cal=None) -> None:
        corpus = dataclasses.replace(PAPER_CORPUS, n_runs=1,
                                     seed=WARMUP_SEED)
        self._pipeline(Op("warmup"), cal, None, corpus, 0, 100.0)

    def op(self, k: int, cal, rec=None) -> list[Op]:
        op = Op(str(k))
        self._pipeline(op, cal, rec, PAPER_CORPUS, k, PAPER_FLEET_HORIZON)
        return [op]

    def _pipeline(self, op, cal, rec, corpus, k, fleet_horizon):
        cfg = self.config
        with hooks([(TestbedSimulator, "run_campaign", "system"),
                    (TestbedSimulator, "run_once", "system")], rec, cal):
            history = op.timed(cal, TestbedSimulator(corpus).run_campaign)
        op.work[-1] = sum(r.fail_time for r in history)
        op.digests["history"] = history.content_fingerprint()[:16]
        with hooks([(framework, "aggregate_history", "core"),
                    (LassoFeatureSelector, "fit", "core"),
                    (framework, "evaluate_model", "ml")], rec, cal):
            result = op.timed(cal, F2PM(cfg).run, history)
        reports, models = result.reports, result.models
        dataset, thr = result.dataset, result.smae_threshold
        self._check_reports(op, reports, models, dataset)

        best = min((r for r in reports if r.name in ("svm", "svm2")
                    and r.feature_set == "all"), key=lambda r: r.s_mae)
        gate_seed = derive(self.seed, "gate", k)
        _, X_val, _, y_val = train_test_split(dataset.X, dataset.y,
                                              test_size=0.25, seed=gate_seed)
        tol = 0.10 * thr
        compile_fn = instrument(compile_predictor, "compile_predictor", "serving",
                                rec, None)
        compiled = op.timed(cal, compile_fn, models[(best.name, "all")], tol=tol,
                            X_val=X_val, y_val=y_val, smae_threshold=thr,
                            landmark_seed=gate_seed)
        rep = compiled.report
        op.check(not rep.accepted or rep.gate_delta is None or rep.gate_delta <= tol,
                 f"accepted compile has gate_delta {rep.gate_delta} > tol {tol}")
        op.counts["ml.compile_kept_frac"] = (
            rep.n_reference_rows / rep.n_reference_rows_exact
            if rep.n_reference_rows_exact else 1.0
        )
        op.digests["compile"] = digest([rep.reason, rep.n_reference_rows, rep.gate_delta])

        policy = PredictiveRejuvenation(compiled, rttf_margin=thr)
        managed = _managed(fleet_horizon, cfg.aggregation.window_seconds)
        _run_fleet(op, cal, rec, SimulatedFleetSource(corpus), managed, policy,
                   self.fleet, derive(self.seed, "fleet", k))

    def _check_reports(self, op, reports, models, dataset):
        have = {(r.name, r.feature_set): r for r in reports}
        for fs in ("all", "selected"):
            for name in self.config.models + LASSO_NAMES:
                r = have.get((name, fs))
                op.check(r is not None and math.isfinite(r.s_mae),
                         f"report ({name}, {fs}) missing or non-finite")
        op.digests["reports"] = digest(
            [[r.name, r.feature_set, r.n_features, r.mae, r.rae, r.max_ae, r.s_mae,
              r.s_mae_threshold] for r in reports]
        )
        for fam in ("svm", "svm2", "m5p", "reptree", "linear", "lasso"):
            op.counts[f"ml.train_s.{fam}"] = sum(
                r.train_time for r in reports
                if r.name == fam or (fam == "lasso" and r.name.startswith("lasso"))
            )
        op.counts["ml.validate_s"] = sum(r.validation_time for r in reports)
        op.counts["ml.svr_iters"] = sum(
            m.inner_.n_iter_ for (name, _), m in models.items() if name == "svm"
        )
        op.counts["core.rows"] = dataset.n_samples


# -- scenario-sweep -----------------------------------------------------------------

SWEEP_RUNS_PER_PRESET = 5
SWEEP_WARM_RERUNS = 5


class ScenarioSweep(Workload):
    name = "scenario-sweep"
    array_kernel = True

    def setup(self) -> None:
        base = CampaignConfig(n_runs=SWEEP_RUNS_PER_PRESET, seed=derive(self.seed, "sweep"))
        self.specs = [
            CampaignSpec(name=preset, base=base, axes={"scenario": (preset,)},
                         stages=("simulate", "aggregate"))
            for preset in SCENARIOS
        ]

    def warmup(self, cal=None) -> None:
        base = CampaignConfig(n_runs=1, seed=WARMUP_SEED)
        specs = [CampaignSpec(name=p, base=base, axes={"scenario": (p,)},
                              stages=("simulate", "aggregate"))
                 for p in ("baseline-shopping", "fd-leak")]
        store = ArtifactStore(self.work_dir / "sweep-warmup")
        warm = Op("warmup")
        for _ in range(2):
            for spec in specs:
                warm.timed(cal, CampaignManager(spec, store).run)
        shutil.rmtree(store.root, ignore_errors=True)

    def op(self, k: int, cal, rec=None) -> list[Op]:
        """The cold sweep into a fresh store, then warm reruns of it, each
        warm rerun an op of its own."""
        store = ArtifactStore(self.work_dir / f"sweep-{k}")
        targets = [
            (TestbedSimulator, "run_campaign", "system"),
            (TestbedSimulator, "run_once", "system"),
            (campaign_stages, "aggregate_history", "core"),
            (ArtifactStore, "get_or_produce", "store"),
            (ArtifactStore, "contains", "store"),
            (CampaignManager, "run", "campaign"),
        ]
        with hooks(targets, rec, cal):
            ops = [self._cold(k, cal, store)]
            for j in range(SWEEP_WARM_RERUNS):
                fresh_op_state()
                warm = Op(f"{k}.warm{j}", warm=True)
                if rec is not None:
                    rec.op = warm.label
                results = warm.timed(cal, self._rerun, store)
                ran = sum(r.cells_run for r in results)
                cached = sum(r.cells_cached for r in results)
                warm.check(ran == 0 and cached == len(self.specs),
                           f"warm rerun ran {ran} cells, {cached} cached")
                warm.counts["campaign.cells_cached"] = cached
                ops.append(warm)
        shutil.rmtree(store.root, ignore_errors=True)
        return ops

    def _cold(self, k, cal, store) -> Op:
        cold = Op(str(k))
        metrics = obs.get_metrics()
        fallbacks = rows = 0
        for spec in self.specs:
            before = _counter(metrics, "sim.fused_fallback_total")
            result = cold.timed(cal, CampaignManager(spec, store).run)
            outcome = result.outcomes[0]
            history = outcome.results["simulate"]
            cold.work[-1] = sum(r.fail_time for r in history)
            cold.digests[spec.name] = history.content_fingerprint()[:16]
            cold.check(result.cells_run == 1 and result.cells_cached == 0,
                       f"{spec.name}: cold pass ran {result.cells_run} cells")
            taken = _counter(metrics, "sim.fused_fallback_total") - before
            if spec.name == "fd-leak":
                cold.check(taken == SWEEP_RUNS_PER_PRESET,
                           f"fd-leak: {taken} loop fallbacks, "
                           f"expected {SWEEP_RUNS_PER_PRESET}")
            fallbacks += taken
            rows += outcome.results["aggregate"].n_samples
        cold.counts.update({
            "system.fallback_runs": fallbacks,
            "core.rows": rows,
            "campaign.cells_run": len(self.specs),
            "store.bytes": sum(p.stat().st_size for p in store.root.rglob("*")
                               if p.is_file()),
        })
        return cold

    def _rerun(self, store):
        return [CampaignManager(spec, store).run() for spec in self.specs]

    def rate(self, op: Op) -> float:
        """Geometric mean over presets of simulated seconds per second:
        the seed sets how long each preset's runs live, and presets differ
        up to 5x in cost per simulated second, so a pooled rate would
        measure the seed's preset mix."""
        return math.exp(statistics.fmean(
            math.log(w / s) for w, s in zip(op.work, op.stages)))


def _counter(metrics, name: str) -> float:
    return float(metrics.snapshot()["counters"].get(name, 0.0))


# -- fleet-testbed ------------------------------------------------------------------

TESTBED_NODES = 5
TESTBED_HORIZON = 1200.0
TESTBED_WINDOW = 20.0
#: The policy is the one ``f2pm rejuvenate`` trains at its default seed:
#: the model decides how long nodes age between restarts, which moved
#: the cost per node-second by up to 40% between policy seeds. The
#: benchmark seed drives the fleets.
POLICY_SEED = 0


class FleetTestbed(Workload):
    name = "fleet-testbed"
    min_ops = 3

    def setup(self) -> None:
        """The predictive policy, trained the way ``f2pm rejuvenate`` does."""
        fit_seed = POLICY_SEED
        self.campaign = demo_campaign(8, fit_seed)
        history = TestbedSimulator(self.campaign).run_campaign()
        f2pm = F2PM(F2PMConfig(
            aggregation=AggregationConfig(window_seconds=TESTBED_WINDOW),
            models=("m5p", "reptree"), lasso_predictor_lambdas=(), seed=fit_seed,
        )).run(history)
        best = f2pm.best_by_smae("all")
        self.model = f2pm.models[(best.name, "all")]
        self.margin = f2pm.smae_threshold
        # Five nodes: at a 0.8 floor, four would never be granted a restart.
        self.fleet = FleetConfig(n_nodes=TESTBED_NODES, capacity_floor=0.8)

    def warmup(self, cal=None) -> None:
        self._op(Op("warmup"), cal, None, 200.0, WARMUP_SEED)

    def op(self, k: int, cal, rec=None, step_delay: float = 0.0) -> list[Op]:
        op = Op(str(k))
        self._op(op, cal, rec, TESTBED_HORIZON, derive(self.seed, "op", k), step_delay)
        return [op]

    def _op(self, op, cal, rec, horizon, seed, step_delay=0.0):
        policy = PredictiveRejuvenation(self.model, rttf_margin=self.margin)
        _run_fleet(op, cal, rec, SimulatedFleetSource(self.campaign),
                   _managed(horizon, TESTBED_WINDOW), policy, self.fleet, seed, step_delay)


# -- fleet-scale --------------------------------------------------------------------

SCALE_NODES = 2000
SCALE_HORIZON = 2000.0
#: Over 2,000 s at 2,000 nodes a floor of 0.9 never defers a restart and
#: 0.95 lets thousands of crashes through; 0.92 defers ~1.9k requests
#: with no crash.
SCALE_FLOOR = 0.92


class FleetScale(Workload):
    name = "fleet-scale"
    min_ops = 2

    def setup(self) -> None:
        self.spec = SyntheticFleetSpec()
        self.model = self.spec.linear_model()
        self.fleet = FleetConfig(n_nodes=SCALE_NODES, capacity_floor=SCALE_FLOOR)

    def warmup(self, cal=None) -> None:
        fleet = dataclasses.replace(self.fleet, n_nodes=200)
        self._op(Op("warmup"), cal, None, fleet, 400.0, WARMUP_SEED)

    def op(self, k: int, cal, rec=None, step_delay: float = 0.0) -> list[Op]:
        op = Op(str(k))
        self._op(op, cal, rec, self.fleet, SCALE_HORIZON, derive(self.seed, "op", k),
                 step_delay)
        op.check(op.counts["rejuvenation.restarts"] > 0, "no planned restarts")
        op.check(op.counts["rejuvenation.restarts_deferred"] > 0,
                 "the capacity floor never deferred a restart")
        return [op]

    def _op(self, op, cal, rec, fleet, horizon, seed, step_delay=0.0):
        policy = PredictiveRejuvenation(self.model, rttf_margin=150.0)
        _run_fleet(op, cal, rec, SyntheticFleetSource(self.spec),
                   _managed(horizon, 20.0), policy, fleet, seed, step_delay)


WORKLOADS = {w.name: w for w in (PaperPipeline, ScenarioSweep, FleetTestbed, FleetScale)}
