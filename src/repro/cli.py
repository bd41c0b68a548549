"""Command-line interface: ``f2pm <command>`` (or ``python -m repro``).

Commands mirror the F2PM workflow:

==============  ========================================================
simulate        run a monitoring campaign, save the DataHistory (.npz)
scenarios       list the named scenario presets (`simulate --scenario`)
aggregate       aggregate a history into a training set (.npz)
select          print the Lasso regularization path (Fig. 4 / Table I)
train           run the full F2PM workflow, print the comparison tables
experiments     regenerate every paper table/figure (runall)
rejuvenate      compare rejuvenation policies on a managed horizon
obs             pretty-print a saved trace/metrics/manifest JSON file
top             live dashboard over a --telemetry-jsonl stream
cache           inspect/maintain the artifact store (ls, info, gc, clear)
campaign        plan/run/report a declarative campaign spec (run-missing)
==============  ========================================================

Every command that draws random numbers accepts ``--seed``. A flag
backed by a config field reads its default from that field, except the
demonstration defaults (``DEMO_WINDOW``, ``DEMO_RUNS``, ...) that size
commands to finish quickly on the small demonstration VM.
The commands that simulate campaigns or train model grids (simulate,
train, experiments, rejuvenate, campaign run) accept ``--jobs N``
(default: all cores) to fan the work out to worker processes — outputs
are identical for any worker count (see ``docs/PARALLELISM.md``).

Observability flags (valid after any command): ``-v`` / ``-vv`` raise
the log level of the ``repro`` logger hierarchy to INFO / DEBUG,
``--trace-json PATH`` writes the command's span tree, ``--metrics-json
PATH`` writes the metrics-registry snapshot, ``--telemetry-jsonl PATH``
streams live telemetry points/events as tailable JSONL (watch it with
``f2pm top --follow``), ``--telemetry-prom PATH`` writes a
Prometheus-style text snapshot at command end, and ``--no-obs``
disables the whole stack (minimum-overhead runs). All JSON/text
exports are written atomically (``repro.store.atomic``) except the
JSONL stream, which is append-only by design.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import obs
from repro._version import __version__
from repro.core import (
    AggregationConfig,
    DataHistory,
    F2PM,
    F2PMConfig,
    LassoFeatureSelector,
    aggregate_history,
)
from repro.obs import configure_logging, get_logger, get_metrics, get_tracer, kv
from repro.obs.trace import Span
from repro.parallel import resolve_jobs
from repro.system import CampaignConfig, MachineConfig, TestbedSimulator
from repro.utils.tables import render_table

_log = get_logger("cli")

#: Aggregation window (seconds) of the analysis commands' ``--window``.
DEMO_WINDOW = 20.0
#: Campaign size (``--runs``) of ``simulate`` and ``rejuvenate``.
DEMO_RUNS = 8

#: The compile gate of ``model compile`` and ``rejuvenate --compiled``:
#: its held-out fraction, and its tolerance as a fraction of the S-MAE
#: threshold.
COMPILE_VAL_FRACTION = 0.25
COMPILE_TOL_FRAC = 0.10

#: Anomaly-injector switches of ``simulate``: ``CampaignConfig`` field ->
#: (flag, the anomaly family it enables).
INJECTOR_FLAGS = {
    "use_time_injectors": ("--time-injectors", "Sec. III-E time-based leak/thread storms"),
    "use_lock_injector": ("--lock-injector", "stuck application locks"),
    "use_fd_injector": ("--fd-injector", "fd/socket leaks"),
    "use_conn_injector": ("--conn-injector", "connection-pool depletion"),
    "use_frag_injector": ("--frag-injector", "heap fragmentation"),
}


def demo_machine() -> MachineConfig:
    """The small VM used by the CLI defaults (fast demonstrations)."""
    return MachineConfig(
        ram_kb=524_288.0,
        swap_kb=262_144.0,
        os_base_kb=131_072.0,
        app_working_set_kb=65_536.0,
        min_cache_kb=16_384.0,
        shared_kb=8_192.0,
        buffers_kb=4_096.0,
    )


def demo_campaign(n_runs: int, seed: int) -> CampaignConfig:
    return CampaignConfig(
        n_runs=n_runs,
        seed=seed,
        machine=demo_machine(),
        n_browsers=40,
        p_leak_range=(0.3, 0.5),
        leak_kb_range=(1024.0, 4096.0),
        max_run_seconds=3000.0,
    )


def _load_history(path: str) -> DataHistory:
    file = Path(path)
    _log.info("loading history %s", kv(path=str(file.resolve())))
    if not file.exists():
        raise SystemExit(f"error: history file not found: {path}")
    try:
        return DataHistory.load(file)
    except Exception as exc:
        raise SystemExit(
            f"error: could not load history {path}: {exc}"
        ) from exc


# -- commands --------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = demo_campaign(args.runs, args.seed)
    if args.scenario is not None:
        from repro.scenarios import get_scenario

        try:
            config = get_scenario(args.scenario).apply(config)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    if args.browsers is not None:
        config = replace(config, n_browsers=args.browsers)
    if args.max_run is not None:
        config = replace(config, max_run_seconds=args.max_run)
    enabled = {field: True for field in INJECTOR_FLAGS if getattr(args, field)}
    if enabled:
        config = replace(config, **enabled)
    if args.failure is not None:
        try:
            config = replace(config, failure=args.failure)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    history = TestbedSimulator(config).run_campaign(jobs=resolve_jobs(args.jobs))
    history.save(args.output)
    print(
        f"saved {len(history)} runs ({history.n_datapoints} datapoints, "
        f"mean TTF {history.mean_run_length:.0f}s) to {args.output}"
    )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List the scenario catalog (``f2pm simulate --scenario NAME``)."""
    from repro.scenarios import SCENARIOS, scenario_names

    rows = [
        [s.name, s.workload, s.schedule, s.profile, s.anomaly]
        for s in (SCENARIOS[n] for n in scenario_names())
    ]
    print(
        render_table(
            ("scenario", "workload", "schedule", "machine", "anomaly family"),
            rows,
            title="scenario catalog (use with `f2pm simulate --scenario NAME`)",
        )
    )
    if args.describe:
        print()
        for name in scenario_names():
            print(f"{name}:\n  {SCENARIOS[name].description}")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    from repro.store import atomic_writer

    history = _load_history(args.history)
    quality = None
    if args.policy is not None:
        from repro.core.sanitize import QualityReport, as_policy

        quality = QualityReport(policy=as_policy(args.policy))
    dataset = aggregate_history(
        history,
        AggregationConfig(window_seconds=args.window),
        sanitize=args.policy,
        quality=quality,
    )
    with atomic_writer(args.output) as tmp:
        with tmp.open("wb") as fh:
            np.savez_compressed(
                fh,
                X=dataset.X,
                y=dataset.y,
                feature_names=np.array(dataset.feature_names),
                run_ids=dataset.run_ids,
            )
    print(
        f"aggregated {history.n_datapoints} datapoints into "
        f"{dataset.n_samples} windows x {dataset.n_features} features "
        f"-> {args.output}"
    )
    if quality is not None and not quality.clean:
        print(quality.summary())
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    history = _load_history(args.history)
    dataset = aggregate_history(
        history, AggregationConfig(window_seconds=args.window)
    )
    selector = LassoFeatureSelector().fit(dataset)
    rows = [[f"1e{int(round(np.log10(r.lam)))}", r.count_label] for r in selector.results_]
    print(render_table(("lambda", "selected"), rows, title="Lasso regularization path"))
    audit = selector.audit_
    print(f"\ndesign matrix rank {audit.rank} of {audit.n_features}; exact dependencies:")
    for line in audit.relations():
        print(f"  {line}")
    strongest = selector.strongest_with_at_least(args.min_features)
    print(f"\nstrongest selection (lambda = {strongest.lam:.0e}):")
    for name, weight in strongest.weight_table():
        print(f"  {name:24s} {weight:+.12f}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    history = _load_history(args.history)
    models = tuple(args.models.split(","))
    config = F2PMConfig(
        aggregation=AggregationConfig(window_seconds=args.window),
        models=models,
        lasso_predictor_lambdas=(1e0, 1e4, 1e9) if args.lasso_predictors else (),
        smae_threshold_frac=args.smae_frac,
        seed=args.seed,
    )
    result = F2PM(config).run(history, jobs=resolve_jobs(args.jobs))
    print(result.smae_table())
    print()
    print(result.training_time_table())
    print()
    print(result.validation_time_table())
    best = result.best_by_smae("all")
    print(f"\nbest model: {best.name} (S-MAE {best.s_mae:.1f}s)")
    if args.report:
        from repro.core.report import write_markdown_report

        path = write_markdown_report(result, args.report)
        print(f"wrote report to {path}")
    if args.save_model:
        from repro.core.persistence import save_model

        path = save_model(
            result.models[(best.name, "all")],
            args.save_model,
            feature_names=result.dataset.feature_names,
            metadata={"model": best.name, "s_mae": best.s_mae},
        )
        print(f"saved best model ({best.name}) to {path}")
    manifest_target = args.manifest
    if manifest_target is None and (args.report or args.save_model):
        # Default: provenance lands next to whichever output was written.
        from repro.obs import manifest_path_for

        manifest_target = manifest_path_for(args.report or args.save_model)
    if manifest_target:
        from repro.obs import write_manifest

        path = write_manifest(result.manifest(), manifest_target)
        print(f"wrote manifest to {path}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.core.ingest import CSVTraceSpec, read_campaign_csv
    from repro.core.sanitize import DataQualityError, QualityReport, as_policy

    spec = CSVTraceSpec.identity(
        response_time_column=args.rt_column if args.rt_column else None
    )
    quality = QualityReport(policy=as_policy(args.policy))
    try:
        history = read_campaign_csv(
            args.directory,
            spec,
            pattern=args.pattern,
            policy=args.policy,
            quality=quality,
        )
    except DataQualityError as exc:
        raise SystemExit(f"error: dirty trace rejected under --policy=strict\n{exc}")
    history.save(args.output)
    print(
        f"ingested {len(history)} runs ({history.n_datapoints} datapoints) "
        f"from {args.directory} -> {args.output}"
    )
    if not quality.clean:
        print(quality.summary())
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Corrupt a saved history with a deterministic fault profile.

    Writes one CSV per corrupted run (the canonical 15-column layout, so
    ``f2pm ingest`` reads the output back) and, with ``--check``, routes
    every dirty run through the sanitize layer and prints the verdicts.
    """
    import csv as _csv

    from repro.core.datapoint import FEATURES
    from repro.core.sanitize import (
        DataQualityError,
        QualityReport,
        as_policy,
        sanitize_run,
    )
    from repro.faults import FaultProfile

    history = _load_history(args.history)
    profile = (
        FaultProfile.from_spec(args.spec)
        if args.spec
        else FaultProfile.preset(args.preset)
    )
    dirty = profile.apply_history(history, seed=args.seed)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, run in enumerate(dirty):
        path = outdir / f"run{i:03d}.csv"
        with path.open("w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(FEATURES)
            for row in run.features:
                writer.writerow(format(float(v), ".17g") for v in row)
    n_rows = sum(r.n_datapoints for r in dirty)
    source = args.spec if args.spec else f"preset {args.preset!r}"
    print(
        f"corrupted {len(dirty)} runs ({n_rows} datapoints) with {source} "
        f"(seed {args.seed}) -> {outdir}/"
    )
    if args.check:
        policy = as_policy(args.check)
        quality = QualityReport(policy=policy)
        rejected = 0
        for i, run in enumerate(dirty):
            try:
                _, report = sanitize_run(
                    run, policy=policy, run_index=i, label=f"run{i:03d}.csv"
                )
                quality.add(report)
            except DataQualityError as exc:
                rejected += 1
                first = exc.issues[0].message if exc.issues else str(exc)
                print(f"run{i:03d}: REJECTED ({len(exc.issues)} issues; {first})")
        if rejected:
            print(f"{rejected}/{len(dirty)} runs rejected under policy {policy!r}")
        if quality.runs:
            print(quality.summary())
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.core import AggregationConfig, aggregate_history
    from repro.core.persistence import load_model

    envelope = load_model(args.model)
    history = _load_history(args.history)
    dataset = aggregate_history(
        history, AggregationConfig(window_seconds=args.window)
    )
    envelope.check_features(dataset.feature_names)
    pred = envelope.predict(dataset.X)
    print(f"model: {envelope.metadata.get('model', '?')} "
          f"(package {envelope.package_version})")
    n = min(args.limit, pred.shape[0])
    print(f"predicted RTTF for the last {n} windows (seconds):")
    for t, p, actual in zip(
        dataset.X[-n:, 0], pred[-n:], dataset.y[-n:]
    ):
        print(f"  t={t:8.1f}s  predicted={p:8.1f}  actual={actual:8.1f}")
    return 0


def _gated_compile(
    model,
    dataset,
    smae_threshold: float,
    *,
    seed: int,
    val_fraction: float = COMPILE_VAL_FRACTION,
    tol: "float | None" = None,
    **options,
):
    """``compile_predictor`` gated on a held-out split of ``dataset``;
    ``tol`` defaults to ``COMPILE_TOL_FRAC`` of the S-MAE threshold."""
    from repro.ml.model_selection import train_test_split
    from repro.ml.serving import compile_predictor

    _, X_val, _, y_val = train_test_split(
        dataset.X, dataset.y, test_size=val_fraction, seed=seed
    )
    return compile_predictor(
        model,
        tol=COMPILE_TOL_FRAC * smae_threshold if tol is None else tol,
        X_val=X_val,
        y_val=y_val,
        smae_threshold=smae_threshold,
        **options,
    )


def cmd_model(args: argparse.Namespace) -> int:
    from repro.core import AggregationConfig, aggregate_history
    from repro.core.evaluation import resolve_smae_threshold
    from repro.core.persistence import load_model, save_model

    try:
        envelope = load_model(args.model)
    except FileNotFoundError:
        raise SystemExit(f"error: model file not found: {args.model}")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    history = _load_history(args.history)
    dataset = aggregate_history(
        history, AggregationConfig(window_seconds=args.window)
    )
    envelope.check_features(dataset.feature_names)
    smae_threshold = resolve_smae_threshold(
        None, args.smae_frac, history.mean_run_length
    )
    compiled = _gated_compile(
        envelope.model,
        dataset,
        smae_threshold,
        seed=args.seed,
        val_fraction=args.val_fraction,
        tol=args.tol,
        budget=args.budget,
        dtype=args.dtype,
        landmark_seed=args.seed,
    )
    rep = compiled.report
    print(
        f"compile: {rep.reason} "
        f"(refs {rep.n_reference_rows_exact} -> {rep.n_reference_rows}, "
        f"pruned {rep.n_pruned}, merged {rep.n_merged}, "
        f"landmarks {rep.n_landmarks}, dtype {rep.dtype}, "
        f"{rep.compile_seconds * 1e3:.1f} ms)"
    )
    if rep.gate_delta is not None:
        print(
            f"gate: S-MAE exact {rep.smae_exact:.2f}s, "
            f"compiled {rep.smae_compiled:.2f}s, "
            f"delta {rep.gate_delta:+.2f}s (tol {rep.tol:.2f}s, "
            f"threshold {rep.smae_threshold:.1f}s)"
        )
    out = args.output or args.model
    path = save_model(
        envelope.model,
        out,
        feature_names=envelope.feature_names,
        metadata={**envelope.metadata, "compiled": rep.reason},
        compiled=compiled,
    )
    print(f"saved envelope with compiled artifact to {path}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    try:
        from repro.experiments.runall import main as runall_main
    except ValueError as exc:  # a bad F2PM_DEFAULT_RUNS, read on import
        raise SystemExit(f"error: {exc}") from None

    runall_main(jobs=resolve_jobs(args.jobs))
    return 0


def _slowest_spans(trees: "list[Span]", limit: int) -> "list[list[object]]":
    """Aggregate a span forest into the ``limit`` slowest span names.

    Groups every span in every tree by name and ranks by *self* time
    (duration minus direct children), so a parent that merely contains
    slow children doesn't crowd out the actual hot spots. Returns table
    rows: name, count, total self seconds, total inclusive seconds.
    """
    agg: dict[str, list[float]] = {}  # name -> [count, self_s, total_s]
    for tree in trees:
        for span in tree.walk():
            child_s = sum(c.duration for c in span.children)
            self_s = max(0.0, span.duration - child_s)
            entry = agg.setdefault(span.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self_s
            entry[2] += span.duration
    ranked = sorted(agg.items(), key=lambda kv: kv[1][1], reverse=True)
    return [
        [name, int(count), self_s, total_s]
        for name, (count, self_s, total_s) in ranked[:limit]
    ]


def cmd_obs(args: argparse.Namespace) -> int:
    """Pretty-print a saved observability document.

    Accepts any of the three JSON layouts the pipeline emits — a trace
    (``--trace-json``), a metrics snapshot (``--metrics-json``) or a run
    manifest — and renders the human view: the indented span tree and/or
    the metric tables. ``--top N`` swaps the tree for a ranked table of
    the N slowest span names aggregated over the whole forest.
    """
    file = Path(args.file)
    if not file.exists():
        raise SystemExit(f"error: file not found: {args.file}")
    try:
        doc = json.loads(file.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: could not parse {args.file}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SystemExit(f"error: {args.file} is not an observability document")

    printed = False
    if "schema" in doc:  # manifest
        pkg = doc.get("package", {})
        print(
            f"manifest: kind={doc.get('kind', '?')} "
            f"package={pkg.get('name', '?')}-{pkg.get('version', '?')} "
            f"python={doc.get('python', '?')}"
        )
        printed = True
    trees = []
    if "trace" in doc and doc["trace"]:
        trees = [doc["trace"]]
    elif "spans" in doc:
        trees = doc["spans"]
    if trees:
        parsed = [Span.from_dict(t) for t in trees]
        if getattr(args, "top", None):
            rows = _slowest_spans(parsed, args.top)
            print(
                render_table(
                    ("span", "count", "self_s", "total_s"),
                    rows,
                    title=f"top {args.top} slowest spans (by self time)",
                    float_fmt=".6f",
                )
            )
        else:
            print("\n".join(s.render() for s in parsed))
        printed = True
    metrics_doc = doc.get("metrics", doc if "counters" in doc else None)
    if metrics_doc:
        for section in ("counters", "gauges"):
            values = metrics_doc.get(section)
            if values:
                print(
                    render_table(
                        ("name", "value"),
                        [[k, v] for k, v in values.items()],
                        title=section,
                    )
                )
                printed = True
        histograms = metrics_doc.get("histograms")
        if histograms:
            rows = [
                [
                    name,
                    h.get("count", 0),
                    h.get("mean", 0.0),
                    h.get("min", 0.0),
                    h.get("p50", 0.0),
                    h.get("p99", 0.0),
                    h.get("max", 0.0),
                ]
                for name, h in histograms.items()
            ]
            print(
                render_table(
                    ("histogram", "count", "mean", "min", "p50", "p99", "max"),
                    rows,
                    title="histograms",
                    float_fmt=".6g",
                )
            )
            printed = True
    if not printed:
        raise SystemExit(
            f"error: {args.file} contains neither a trace, metrics, nor a manifest"
        )
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a ``--telemetry-jsonl`` stream.

    ``--once`` renders a single frame and exits (scriptable/CI mode);
    the default follows the stream, redrawing every ``--interval``
    seconds until interrupted.
    """
    from repro.obs.dashboard import run_top

    return run_top(
        args.file,
        follow=not args.once,
        interval=args.interval,
        once=args.once,
        max_frames=args.frames,
    )


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain the experiment artifact store (``repro.store``)."""
    import datetime

    from repro.store import ArtifactStore, StoreCorruption

    store = ArtifactStore(args.dir)  # None -> F2PM_CACHE_DIR / default

    if args.cache_command == "ls":
        entries = store.entries()
        if not entries:
            print(f"cache {store.root}: empty")
            return 0
        rows = []
        for e in entries:
            created = (
                datetime.datetime.fromtimestamp(e.created_unix).isoformat(
                    sep=" ", timespec="seconds"
                )
                if e.created_unix
                else "?"
            )
            rows.append(
                [
                    e.name,
                    e.kind,
                    f"{e.size_bytes / 1024:.1f}",
                    "ok" if e.ok else "CORRUPT",
                    created,
                ]
            )
        print(
            render_table(
                ("entry", "kind", "KiB", "status", "created"),
                rows,
                title=f"artifact store: {store.root}",
            )
        )
        bad = [e for e in entries if not e.ok]
        if bad:
            print(f"\n{len(bad)} corrupt entr{'y' if len(bad) == 1 else 'ies'} "
                  "(run `f2pm cache gc` to sweep):")
            for e in bad:
                print(f"  {e.name}: {e.detail}")
        return 0

    if args.cache_command == "info":
        try:
            meta = store.verify(args.name)
        except FileNotFoundError:
            raise SystemExit(f"error: no cache entry named {args.name}")
        except StoreCorruption as exc:
            raise SystemExit(f"error: entry is corrupt: {exc}")
        print(json.dumps({"name": args.name, **meta}, indent=2))
        return 0

    if args.cache_command == "gc":
        fingerprints = None
        if getattr(args, "spec", None):
            from repro.campaign import CampaignSpec

            try:
                spec = CampaignSpec.from_json_file(args.spec)
            except ValueError as exc:
                raise SystemExit(f"error: {exc}")
            fingerprints = spec.artifact_fingerprints()
        report = store.gc(fingerprints=fingerprints)
        print(
            f"removed {len(report.removed)} file(s), "
            f"freed {report.freed_bytes / 1024:.1f} KiB"
        )
        for name in report.removed:
            print(f"  {name}")
        return 0

    if args.cache_command == "clear":
        count = store.clear()
        print(f"cleared {count} file(s) from {store.root}")
        return 0

    raise SystemExit(f"error: unknown cache command {args.cache_command!r}")


def cmd_campaign(args: argparse.Namespace) -> int:
    """Plan, run, or report a declarative campaign spec.

    ``plan`` prints the spec-vs-store diff (which cells/stages are cached,
    which are missing) without executing anything; ``run`` executes only
    the missing frontier; ``status`` emits the machine-readable JSON form
    of the diff.
    """
    from repro.campaign import CampaignError, CampaignManager, CampaignSpec
    from repro.store import ArtifactStore

    try:
        spec = CampaignSpec.from_json_file(args.spec)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    manager = CampaignManager(spec, ArtifactStore(args.dir))

    if args.campaign_command == "plan":
        print(manager.plan().summary())
        return 0

    if args.campaign_command == "status":
        print(json.dumps(manager.status(), indent=2, sort_keys=True))
        return 0

    if args.campaign_command == "run":
        print(manager.plan().summary())
        try:
            result = manager.run(
                jobs=resolve_jobs(args.jobs), cooperate=not args.no_cooperate
            )
        except CampaignError as exc:
            raise SystemExit(f"error: {exc}")
        print(
            f"done: cached={result.cells_cached} run={result.cells_run} "
            f"failed={result.cells_failed}"
        )
        return 0

    raise SystemExit(f"error: unknown campaign command {args.campaign_command!r}")


def cmd_rejuvenate(args: argparse.Namespace) -> int:
    from repro.core import F2PM, F2PMConfig
    from repro.rejuvenation import (
        ManagedSystem,
        ManagedSystemConfig,
        NoRejuvenation,
        PeriodicRejuvenation,
        PredictiveRejuvenation,
        summarize,
    )
    from repro.rejuvenation.metrics import AvailabilityReport

    jobs = resolve_jobs(args.jobs)
    campaign = demo_campaign(args.runs, args.seed)
    history = TestbedSimulator(campaign).run_campaign(jobs=jobs)
    f2pm = F2PM(
        F2PMConfig(
            aggregation=AggregationConfig(window_seconds=args.window),
            models=("m5p", "reptree"),
            lasso_predictor_lambdas=(),
            seed=args.seed,
        )
    ).run(history, jobs=jobs)
    best = f2pm.best_by_smae("all")
    model = f2pm.models[(best.name, "all")]
    if args.compiled:
        model = _gated_compile(
            model, f2pm.dataset, f2pm.smae_threshold, seed=args.seed
        )
        print(f"compiled scoring model: {model.report.reason}")

    managed = ManagedSystemConfig(horizon_seconds=args.horizon, window_seconds=args.window)
    policies = [
        NoRejuvenation(),
        PeriodicRejuvenation(0.5 * min(r.fail_time for r in history)),
        PredictiveRejuvenation(model, rttf_margin=f2pm.smae_threshold),
    ]
    rows = []
    for policy in policies:
        log = ManagedSystem(campaign, managed, policy).run(seed=args.seed + 1)
        rows.append(summarize(log).row())
    print(
        render_table(
            AvailabilityReport.HEADERS,
            rows,
            title=f"Rejuvenation policies over {args.horizon:.0f}s "
            f"(model: {best.name})",
            float_fmt=".4f",
        )
    )
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.rejuvenation import (
        FleetConfig,
        FleetController,
        FleetReport,
        ManagedSystemConfig,
        NoRejuvenation,
        PeriodicRejuvenation,
        PredictiveRejuvenation,
        SyntheticFleetSource,
        SyntheticFleetSpec,
        summarize_fleet,
    )

    spec = SyntheticFleetSpec()
    managed = ManagedSystemConfig(horizon_seconds=args.horizon, window_seconds=args.window)
    fleet = FleetConfig(
        n_nodes=args.nodes,
        capacity_floor=args.capacity_floor,
        drain_seconds=args.drain,
        scoring="compiled" if args.compiled else "exact",
    )
    policies = [
        NoRejuvenation(),
        PeriodicRejuvenation(0.5 * spec.mean_ttf),
        PredictiveRejuvenation(spec.linear_model(), rttf_margin=150.0),
    ]
    rows = []
    for policy in policies:
        controller = FleetController(
            SyntheticFleetSource(spec), managed, policy, fleet
        )
        rows.append(summarize_fleet(controller.run(seed=args.seed)).row())
    print(
        render_table(
            FleetReport.HEADERS,
            rows,
            title=f"Fleet of {args.nodes} nodes over {args.horizon:.0f}s "
            f"({fleet.scoring} scoring, floor {args.capacity_floor:.0%})",
            float_fmt=".4f",
        )
    )
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from repro.core.ingest import read_campaign_csv
    from repro.core.sanitize import POLICIES
    from repro.faults import PRESETS
    from repro.ml.serving import compile_predictor
    from repro.rejuvenation import FleetConfig, ManagedSystemConfig

    compile_defaults = compile_predictor.__kwdefaults__

    parser = argparse.ArgumentParser(
        prog="f2pm",
        description="F2PM: failure-prediction-model framework (IPDPS-W 2015 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)

    # Observability flags, valid after every subcommand (``f2pm train h.npz
    # -v --trace-json t.json``); a parent parser gives each subparser the
    # same group without repeating it.
    obs_parent = argparse.ArgumentParser(add_help=False)
    group = obs_parent.add_argument_group("observability")
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v: phase-level INFO events; -vv: DEBUG firehose",
    )
    group.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="write the command's span tree as JSON",
    )
    group.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write the metrics-registry snapshot as JSON",
    )
    group.add_argument(
        "--telemetry-jsonl",
        metavar="PATH",
        default=None,
        help="stream live telemetry points/events to PATH as tailable "
        "JSONL (watch with `f2pm top --follow PATH`)",
    )
    group.add_argument(
        "--telemetry-prom",
        metavar="PATH",
        default=None,
        help="write a Prometheus text-exposition snapshot at command end",
    )
    group.add_argument(
        "--no-obs",
        action="store_true",
        help="disable tracing, metrics and telemetry for this command",
    )

    # Execution flags for the commands that simulate campaigns or train
    # model grids; results are identical for any --jobs value (the
    # determinism guarantee of docs/PARALLELISM.md).
    exec_parent = argparse.ArgumentParser(add_help=False)
    exec_parent.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation runs and model fits "
        "(default: all cores)",
    )

    # The seed of every command that draws random numbers.
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument("--seed", type=int, default=CampaignConfig.seed)

    # The artifact store of `cache` and `campaign`.
    dir_parent = argparse.ArgumentParser(add_help=False)
    dir_parent.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help="store directory (default: $F2PM_CACHE_DIR or ~/.cache/f2pm-repro)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, *parents, **kwargs):
        return sub.add_parser(name, parents=[obs_parent, *parents], **kwargs)

    p = add_parser(
        "simulate", exec_parent, seed_parent, help="run a monitoring campaign"
    )
    p.add_argument("-o", "--output", default="history.npz")
    p.add_argument("--runs", type=int, default=DEMO_RUNS)
    p.add_argument("--browsers", type=int, default=None)
    p.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="apply a named catalog preset over the demo campaign "
        "(list them with `f2pm scenarios`)",
    )
    p.add_argument(
        "--max-run",
        type=float,
        default=None,
        metavar="S",
        help="per-run horizon in seconds (default: the demo campaign's; "
        "slow-aging scenarios such as lock-contention need more)",
    )
    p.add_argument(
        "--failure",
        default=CampaignConfig.failure,
        metavar="SPEC",
        help="failure condition spec: mem[:headroom], rt>SECONDS, "
        "gen>SECONDS, fd[:fill]; '|' combines alternatives",
    )
    for field, (flag, family) in INJECTOR_FLAGS.items():
        p.add_argument(
            flag, dest=field, action="store_true", help=f"enable the {family} injector"
        )
    p.set_defaults(func=cmd_simulate)

    p = add_parser("scenarios", help="list the named scenario presets")
    p.add_argument(
        "--describe",
        action="store_true",
        help="also print each preset's one-paragraph description",
    )
    p.set_defaults(func=cmd_scenarios)

    p = add_parser("aggregate", help="aggregate a history into a training set")
    p.add_argument("history")
    p.add_argument("-o", "--output", default="dataset.npz")
    p.add_argument("--window", type=float, default=DEMO_WINDOW)
    p.add_argument(
        "--policy",
        choices=POLICIES,
        default=None,
        help="route the history through the sanitize layer first "
        "(default: trust the input; see docs/ROBUSTNESS.md)",
    )
    p.set_defaults(func=cmd_aggregate)

    p = add_parser("select", help="print the Lasso regularization path")
    p.add_argument("history")
    p.add_argument("--window", type=float, default=DEMO_WINDOW)
    p.add_argument(
        "--min-features", type=int, default=F2PMConfig.selection_min_features
    )
    p.set_defaults(func=cmd_select)

    p = add_parser(
        "train", exec_parent, seed_parent, help="run the full F2PM workflow"
    )
    p.add_argument("history")
    p.add_argument("--window", type=float, default=DEMO_WINDOW)
    p.add_argument("--models", default="linear,m5p,reptree,svm2")
    p.add_argument("--lasso-predictors", action="store_true")
    p.add_argument("--smae-frac", type=float, default=F2PMConfig.smae_threshold_frac)
    p.add_argument("--report", default=None, help="write a Markdown report here")
    p.add_argument(
        "--save-model", default=None, help="persist the best fitted model here"
    )
    p.add_argument(
        "--manifest",
        default=None,
        help="write the run manifest here (defaults to beside --report/--save-model)",
    )
    p.set_defaults(func=cmd_train)

    p = add_parser("ingest", help="ingest a directory of CSV run traces")
    p.add_argument("directory")
    p.add_argument("-o", "--output", default="history.npz")
    p.add_argument("--pattern", default="*.csv")
    p.add_argument("--rt-column", default=None)
    p.add_argument(
        "--policy",
        choices=POLICIES,
        default=read_campaign_csv.__kwdefaults__["policy"],
        help="data-quality policy for dirty traces (default: %(default)s; "
        "see docs/ROBUSTNESS.md)",
    )
    p.set_defaults(func=cmd_ingest)

    p = add_parser(
        "faults", seed_parent, help="corrupt a history with a fault profile"
    )
    p.add_argument("history", help="clean history (.npz) to corrupt")
    p.add_argument(
        "-o", "--output", default="dirty", help="directory for the dirty run CSVs"
    )
    p.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="default",
        help="named fault profile (default: a bit of everything)",
    )
    p.add_argument(
        "--spec",
        default=None,
        metavar="MODEL=RATE,...",
        help="explicit profile, e.g. 'nan=0.05,dup=0.02,reset=1' "
        "(overrides --preset)",
    )
    p.add_argument(
        "--check",
        choices=POLICIES,
        default=None,
        help="also run the sanitize layer over the dirty runs and print "
        "its verdicts",
    )
    p.set_defaults(func=cmd_faults)

    p = add_parser("predict", help="apply a saved model to a history")
    p.add_argument("model")
    p.add_argument("history")
    p.add_argument("--window", type=float, default=DEMO_WINDOW)
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(func=cmd_predict)

    p = add_parser("model", help="manage saved model envelopes")
    model_sub = p.add_subparsers(dest="model_cmd", required=True)
    sp = model_sub.add_parser(
        "compile",
        parents=[seed_parent],
        help="compile a saved model for fast serving (accuracy-gated; "
        "see docs/PERFORMANCE.md)",
    )
    sp.add_argument("model", help="saved envelope (from train --save-model)")
    sp.add_argument("history", help="history (.npz) to gate accuracy against")
    sp.add_argument(
        "-o",
        "--output",
        default=None,
        help="output envelope path (default: rewrite MODEL in place)",
    )
    sp.add_argument("--window", type=float, default=DEMO_WINDOW)
    sp.add_argument(
        "--budget",
        type=int,
        default=compile_defaults["budget"],
        help="max serving reference rows before Nystrom factorization",
    )
    sp.add_argument(
        "--tol",
        type=float,
        default=None,
        metavar="S",
        help="max tolerated S-MAE increase in seconds "
        f"(default: {COMPILE_TOL_FRAC:g} x the S-MAE threshold)",
    )
    sp.add_argument(
        "--dtype", choices=("float32", "float64"), default=compile_defaults["dtype"]
    )
    sp.add_argument("--smae-frac", type=float, default=F2PMConfig.smae_threshold_frac)
    sp.add_argument(
        "--val-fraction",
        type=float,
        default=COMPILE_VAL_FRACTION,
        help="held-out fraction the accuracy gate scores against",
    )
    p.set_defaults(func=cmd_model)

    p = add_parser(
        "experiments", exec_parent, help="regenerate all paper tables/figures"
    )
    p.set_defaults(func=cmd_experiments)

    p = add_parser(
        "rejuvenate", exec_parent, seed_parent, help="compare rejuvenation policies"
    )
    p.add_argument("--runs", type=int, default=DEMO_RUNS)
    p.add_argument("--horizon", type=float, default=10_000.0)
    p.add_argument("--window", type=float, default=ManagedSystemConfig.window_seconds)
    p.add_argument(
        "--compiled",
        action="store_true",
        help="serve the predictive policy through the compiled predict "
        "plane (accuracy-gated; see docs/PERFORMANCE.md)",
    )
    p.set_defaults(func=cmd_rejuvenate)

    p = add_parser(
        "fleet",
        seed_parent,
        help="simulate a fleet of managed nodes under one policy engine",
    )
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--horizon", type=float, default=3000.0)
    p.add_argument("--window", type=float, default=ManagedSystemConfig.window_seconds)
    p.add_argument(
        "--capacity-floor",
        type=float,
        default=0.8,
        metavar="FRAC",
        help="defer planned restarts while live capacity would drop "
        "below this fraction (default: %(default)s)",
    )
    p.add_argument(
        "--drain",
        type=float,
        default=FleetConfig.drain_seconds,
        metavar="S",
        help="drain a node for S seconds before a planned restart",
    )
    p.add_argument(
        "--compiled",
        action="store_true",
        help="score RTTF through the compiled predict plane "
        "(see docs/PERFORMANCE.md)",
    )
    p.set_defaults(func=cmd_fleet)

    p = add_parser("obs", help="pretty-print a saved trace/metrics/manifest")
    p.add_argument("file", help="JSON written by --trace-json/--metrics-json/--manifest")
    p.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show the N slowest span names aggregated over the span "
        "tree (ranked by self time) instead of the full tree",
    )
    p.set_defaults(func=cmd_obs)

    p = add_parser("top", help="live dashboard over a --telemetry-jsonl stream")
    p.add_argument("file", help="JSONL stream written by --telemetry-jsonl")
    p.add_argument(
        "--once",
        action="store_true",
        help="render one frame from the stream as-is and exit",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="redraw period in follow mode (default: %(default)ss)",
    )
    p.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames in follow mode (default: run forever)",
    )
    p.set_defaults(func=cmd_top)

    p = add_parser(
        "cache", dir_parent, help="inspect/maintain the experiment artifact store"
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("ls", help="list entries with verification status")
    sp = cache_sub.add_parser("info", help="print one entry's verified metadata")
    sp.add_argument("name", help="entry name as shown by `cache ls`")
    sp = cache_sub.add_parser(
        "gc", help="sweep unpublished temporaries and corrupt entries"
    )
    sp.add_argument(
        "--spec",
        default=None,
        metavar="SPEC.json",
        help="additionally evict every artifact owned by this campaign "
        "spec (scoped by fingerprint; other campaigns' entries stay)",
    )
    cache_sub.add_parser("clear", help="remove every cached artifact")
    p.set_defaults(func=cmd_cache)

    p = add_parser(
        "campaign",
        dir_parent,
        help="plan/run/report a declarative campaign spec (run-missing)",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)
    sp = campaign_sub.add_parser(
        "plan", help="print the missing/cached cell diff without executing"
    )
    sp.add_argument("spec", help="campaign spec JSON file")
    sp = campaign_sub.add_parser(
        "run",
        parents=[exec_parent],
        help="execute only the missing cells, load the rest",
    )
    sp.add_argument("spec", help="campaign spec JSON file")
    sp.add_argument(
        "--no-cooperate",
        action="store_true",
        help="block on busy cells instead of deferring them (single-driver "
        "mode; cooperating drivers defer and circle back)",
    )
    sp = campaign_sub.add_parser(
        "status", help="emit the spec-vs-store diff as JSON"
    )
    sp.add_argument("spec", help="campaign spec JSON file")
    p.set_defaults(func=cmd_campaign)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", 0))
    was_enabled = obs.enabled()
    # Fresh measurement window per CLI invocation, so the exported
    # trace/metrics describe exactly this command (and nothing leaks
    # into a --no-obs export from earlier work in this process).
    obs.reset()
    if getattr(args, "no_obs", False):
        obs.disable()
    exporter = None
    if getattr(args, "telemetry_jsonl", None) and not getattr(args, "no_obs", False):
        from repro.obs.telemetry import JsonlExporter, get_telemetry

        exporter = JsonlExporter(
            args.telemetry_jsonl, meta={"command": args.command}
        )
        get_telemetry().add_sink(exporter)
    try:
        rc = args.func(args)
        # Post-run exports are snapshots, so they go through the atomic
        # writer (tmp + fsync + rename): a killed command leaves either
        # the previous file or the complete new one, never a torn JSON.
        from repro.store import atomic_write_text

        if getattr(args, "trace_json", None):
            atomic_write_text(args.trace_json, get_tracer().to_json() + "\n")
            print(f"wrote trace to {args.trace_json}", file=sys.stderr)
        if getattr(args, "metrics_json", None):
            atomic_write_text(args.metrics_json, get_metrics().to_json() + "\n")
            print(f"wrote metrics to {args.metrics_json}", file=sys.stderr)
        if getattr(args, "telemetry_prom", None):
            from repro.obs.telemetry import prometheus_text

            atomic_write_text(args.telemetry_prom, prometheus_text())
            print(
                f"wrote prometheus snapshot to {args.telemetry_prom}",
                file=sys.stderr,
            )
    finally:
        if exporter is not None:
            from repro.obs.telemetry import get_telemetry

            get_telemetry().remove_sink(exporter)
            exporter.close()
            print(
                f"wrote telemetry stream to {args.telemetry_jsonl}",
                file=sys.stderr,
            )
        if getattr(args, "no_obs", False) and was_enabled:
            obs.enable()
    return rc


if __name__ == "__main__":
    sys.exit(main())
