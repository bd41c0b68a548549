"""Tests for the command-line interface (repro.cli)."""

import argparse
import json

import numpy as np
import pytest

from repro.cli import DEMO_RUNS, DEMO_WINDOW, INJECTOR_FLAGS, build_parser, main
from repro.core import AggregationConfig, DataHistory, F2PMConfig
from repro.core.ingest import read_campaign_csv
from repro.core.sanitize import POLICIES
from repro.ml.serving import compile_predictor
from repro.rejuvenation import FleetConfig, ManagedSystemConfig
from repro.system import CampaignConfig


@pytest.fixture
def history_file(tmp_path, history):
    path = tmp_path / "hist.npz"
    history.save(path)
    return str(path)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv,defaults",
        [
            (["aggregate", "h"], {"output": "dataset.npz", "window": 20.0, "policy": None}),
            (["select", "h"], {"window": 20.0, "min_features": 6}),
            (
                ["train", "h"],
                {
                    "window": 20.0, "models": "linear,m5p,reptree,svm2",
                    "lasso_predictors": False, "smae_frac": 0.10, "seed": 0,
                    "report": None, "save_model": None, "manifest": None,
                },
            ),
            (["predict", "m", "h"], {"window": 20.0, "limit": 10}),
            (
                ["model", "compile", "m", "h"],
                {
                    "output": None, "window": 20.0, "budget": 128, "tol": None,
                    "dtype": "float32", "smae_frac": 0.10, "val_fraction": 0.25,
                    "seed": 0,
                },
            ),
            (
                ["rejuvenate"],
                {
                    "runs": 8, "horizon": 10_000.0, "window": 20.0, "seed": 0,
                    "compiled": False,
                },
            ),
            (
                ["fleet"],
                {
                    "nodes": 100, "horizon": 3000.0, "window": 20.0, "seed": 0,
                    "capacity_floor": 0.8, "drain": 0.0, "compiled": False,
                },
            ),
        ],
        ids=["aggregate", "select", "train", "predict", "model-compile", "rejuvenate", "fleet"],
    )
    def test_defaults(self, argv, defaults):
        args = vars(build_parser().parse_args(argv))
        assert {name: args[name] for name in defaults} == defaults


def _flags(parser, command=""):
    """``(command, dest) -> action`` for every flag under ``parser``."""
    flags = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags.update(_flags(sub, f"{command} {name}".strip()))
        elif action.option_strings and action.dest not in ("help", "version"):
            flags[(command, action.dest)] = action
    return flags


SEEDED = ("simulate", "train", "faults", "model compile", "rejuvenate", "fleet")
ANALYSIS = ("aggregate", "select", "train", "predict", "model compile")

#: Config-backed flags: (command, dest) -> the default of the field or
#: function argument that owns the value.
CONFIG_DEFAULTS = {
    **{(command, "seed"): CampaignConfig.seed for command in SEEDED},
    ("simulate", "failure"): CampaignConfig.failure,
    **{("simulate", field): getattr(CampaignConfig, field) for field in INJECTOR_FLAGS},
    ("select", "min_features"): F2PMConfig.selection_min_features,
    ("train", "smae_frac"): F2PMConfig.smae_threshold_frac,
    ("model compile", "smae_frac"): F2PMConfig.smae_threshold_frac,
    ("model compile", "budget"): compile_predictor.__kwdefaults__["budget"],
    ("model compile", "dtype"): compile_predictor.__kwdefaults__["dtype"],
    ("ingest", "policy"): read_campaign_csv.__kwdefaults__["policy"],
    ("rejuvenate", "window"): ManagedSystemConfig.window_seconds,
    ("fleet", "window"): ManagedSystemConfig.window_seconds,
    ("fleet", "drain"): FleetConfig.drain_seconds,
}

#: Config-backed flags whose demonstration default differs from the
#: field on purpose: (command, dest) -> (field default, flag default).
DEMO_DEFAULTS = {
    **{
        (command, "window"): (AggregationConfig.window_seconds, DEMO_WINDOW)
        for command in ANALYSIS
    },
    ("simulate", "runs"): (CampaignConfig.n_runs, DEMO_RUNS),
    ("rejuvenate", "runs"): (CampaignConfig.n_runs, DEMO_RUNS),
    ("train", "models"): (",".join(F2PMConfig.models), "linear,m5p,reptree,svm2"),
    ("rejuvenate", "horizon"): (ManagedSystemConfig.horizon_seconds, 10_000.0),
    ("fleet", "horizon"): (ManagedSystemConfig.horizon_seconds, 3000.0),
    ("fleet", "nodes"): (FleetConfig.n_nodes, 100),
    ("fleet", "capacity_floor"): (FleetConfig.capacity_floor, 0.8),
}

#: Flags of every command that no config field backs.
EVERY_COMMAND = {
    "verbose", "trace_json", "metrics_json", "telemetry_jsonl",
    "telemetry_prom", "no_obs", "jobs",
}

#: Flags no config field backs, by command.
CLI_ONLY = {
    ("simulate", "output"), ("simulate", "browsers"), ("simulate", "scenario"),
    ("simulate", "max_run"), ("scenarios", "describe"),
    ("aggregate", "output"), ("aggregate", "policy"),
    ("train", "lasso_predictors"), ("train", "report"), ("train", "save_model"),
    ("train", "manifest"),
    ("ingest", "output"), ("ingest", "pattern"), ("ingest", "rt_column"),
    ("faults", "output"), ("faults", "preset"), ("faults", "spec"),
    ("faults", "check"), ("predict", "limit"),
    ("model compile", "output"), ("model compile", "tol"),
    ("model compile", "val_fraction"),
    ("rejuvenate", "compiled"), ("fleet", "compiled"), ("obs", "top"),
    ("top", "once"), ("top", "interval"), ("top", "frames"),
    ("cache", "dir"), ("cache gc", "spec"),
    ("campaign", "dir"), ("campaign run", "no_cooperate"),
}


class TestFlagDefaults:
    """Each config-backed flag states its default once: it reads the
    field that owns it, or is a demonstration default listed above."""

    def test_every_flag_is_classified(self):
        classified = {*CONFIG_DEFAULTS, *DEMO_DEFAULTS, *CLI_ONLY}
        flags = _flags(build_parser())
        unclassified = [
            key for key in flags if key[1] not in EVERY_COMMAND and key not in classified
        ]
        assert unclassified == []
        assert classified <= set(flags)  # no stale entries

    def test_config_backed_flags_read_their_field(self):
        flags = _flags(build_parser())
        assert {key: flags[key].default for key in CONFIG_DEFAULTS} == CONFIG_DEFAULTS

    def test_demo_defaults_differ_on_purpose(self):
        flags = _flags(build_parser())
        for key, (field_default, demo) in DEMO_DEFAULTS.items():
            assert flags[key].default == demo, key
            assert demo != field_default, key

    def test_injector_flags_keep_their_names(self):
        flags = _flags(build_parser())
        assert {
            field: flags[("simulate", field)].option_strings for field in INJECTOR_FLAGS
        } == {
            "use_time_injectors": ["--time-injectors"],
            "use_lock_injector": ["--lock-injector"],
            "use_fd_injector": ["--fd-injector"],
            "use_conn_injector": ["--conn-injector"],
            "use_frag_injector": ["--frag-injector"],
        }

    @pytest.mark.parametrize("key", [("aggregate", "policy"), ("ingest", "policy"),
                                     ("faults", "check")])
    def test_policy_choices_are_the_sanitize_policies(self, key):
        assert tuple(_flags(build_parser())[key].choices) == POLICIES


class TestSimulate:
    def test_writes_history(self, tmp_path, capsys):
        out = tmp_path / "h.npz"
        rc = main(["simulate", "-o", str(out), "--runs", "2", "--seed", "1"])
        assert rc == 0
        assert out.exists()
        loaded = DataHistory.load(out)
        assert len(loaded) == 2
        assert "saved 2 runs" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        main(["simulate", "-o", str(a), "--runs", "1", "--seed", "5"])
        main(["simulate", "-o", str(b), "--runs", "1", "--seed", "5"])
        ha, hb = DataHistory.load(a), DataHistory.load(b)
        assert np.array_equal(ha[0].features, hb[0].features)

    def test_scenario_preset(self, tmp_path, capsys):
        out = tmp_path / "h.npz"
        rc = main([
            "simulate", "-o", str(out), "--runs", "1", "--seed", "5",
            "--scenario", "heap-fragmentation", "--max-run", "900",
        ])
        assert rc == 0
        assert len(DataHistory.load(out)) == 1
        assert "saved 1 runs" in capsys.readouterr().out

    def test_unknown_scenario_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main([
                "simulate", "-o", str(tmp_path / "h.npz"),
                "--scenario", "bogus",
            ])

    def test_bad_failure_spec_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit, match="failure"):
            main([
                "simulate", "-o", str(tmp_path / "h.npz"),
                "--failure", "wat>3",
            ])


class TestScenariosCommand:
    def test_catalog_table(self, capsys):
        rc = main(["scenarios"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("baseline-shopping", "fd-leak", "mixed-aging"):
            assert name in out

    def test_describe_includes_descriptions(self, capsys):
        rc = main(["scenarios", "--describe"])
        assert rc == 0
        assert "EMFILE" in capsys.readouterr().out


class TestAggregate:
    def test_writes_dataset(self, tmp_path, history_file, capsys):
        out = tmp_path / "ds.npz"
        rc = main(["aggregate", history_file, "-o", str(out), "--window", "30"])
        assert rc == 0
        with np.load(out, allow_pickle=False) as data:
            assert data["X"].shape[1] == 30
            assert data["X"].shape[0] == data["y"].shape[0]
            assert len(data["feature_names"]) == 30

    def test_missing_history_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["aggregate", str(tmp_path / "nope.npz")])

    def test_corrupt_history_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_text("this is not an npz archive")
        with pytest.raises(SystemExit, match="could not load history"):
            main(["aggregate", str(bad)])


class TestSelect:
    def test_prints_path_and_weights(self, history_file, capsys):
        rc = main(["select", history_file, "--window", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Lasso regularization path" in out
        assert "strongest selection" in out
        assert "1e9" in out

    def test_prints_design_rank_and_dependencies(self, history_file, capsys):
        assert main(["select", history_file, "--window", "30"]) == 0
        out = capsys.readouterr().out
        assert "design matrix rank" in out
        assert "swap_free = -1*swap_used" in out


class TestTrain:
    def test_prints_tables(self, history_file, capsys):
        rc = main(
            [
                "train",
                history_file,
                "--window",
                "30",
                "--models",
                "linear,reptree",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Soft Mean Absolute Error" in out
        assert "Training time" in out
        assert "best model:" in out

    def test_lasso_predictor_flag(self, history_file, capsys):
        rc = main(
            [
                "train",
                history_file,
                "--window",
                "30",
                "--models",
                "linear",
                "--lasso-predictors",
            ]
        )
        assert rc == 0
        assert "lasso(1e9)" in capsys.readouterr().out


class TestIngest:
    def test_csv_directory_to_history(self, history, tmp_path, capsys):
        from repro.core.ingest import write_run_csv

        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        for i, run in enumerate(history):
            write_run_csv(run, trace_dir / f"run{i}.csv")
        out = tmp_path / "ingested.npz"
        rc = main(
            [
                "ingest",
                str(trace_dir),
                "-o",
                str(out),
                "--rt-column",
                "response_time",
            ]
        )
        assert rc == 0
        loaded = DataHistory.load(out)
        assert len(loaded) == len(history)
        assert "ingested" in capsys.readouterr().out


class TestPredict:
    def test_saved_model_applied(self, history, tmp_path, capsys):
        hist_file = tmp_path / "h.npz"
        history.save(hist_file)
        model_file = tmp_path / "m.pkl"
        main(
            [
                "train",
                str(hist_file),
                "--window",
                "30",
                "--models",
                "linear",
                "--save-model",
                str(model_file),
            ]
        )
        capsys.readouterr()
        rc = main(
            ["predict", str(model_file), str(hist_file), "--window", "30", "--limit", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted RTTF for the last 3 windows" in out
        assert out.count("t=") == 3

    def test_schema_mismatch_fails(self, history, tmp_path):
        from repro.core.persistence import save_model
        from repro.ml.linear import LinearRegression

        hist_file = tmp_path / "h.npz"
        history.save(hist_file)
        model_file = tmp_path / "bad.pkl"
        model = LinearRegression().fit(np.zeros((4, 2)) + np.arange(2.0), np.zeros(4))
        save_model(model, model_file, feature_names=["a", "b"])
        with pytest.raises(ValueError, match="schema mismatch"):
            main(["predict", str(model_file), str(hist_file), "--window", "30"])


class TestObservability:
    def test_train_writes_trace_and_metrics_json(self, tmp_path, history_file, capsys):
        trace_file = tmp_path / "t.json"
        metrics_file = tmp_path / "m.json"
        rc = main(
            [
                "train",
                history_file,
                "--window",
                "30",
                "--models",
                "linear",
                "--trace-json",
                str(trace_file),
                "--metrics-json",
                str(metrics_file),
            ]
        )
        assert rc == 0
        trace = json.loads(trace_file.read_text())
        root = trace["spans"][0]
        assert root["name"] == "f2pm.run"
        names = set()

        def collect(node):
            names.add(node["name"])
            assert node["duration_s"] > 0
            for child in node["children"]:
                collect(child)

        collect(root)
        assert {"aggregate", "select", "train", "validate"} <= names
        metrics = json.loads(metrics_file.read_text())
        assert metrics["counters"]["f2pm.runs_total"] >= 1
        assert any(
            k.startswith("model.fit_seconds.") for k in metrics["histograms"]
        )
        assert any(
            k.startswith("model.predict_seconds.") for k in metrics["histograms"]
        )

    def test_train_writes_manifest(self, tmp_path, history_file, capsys):
        manifest_file = tmp_path / "run.manifest.json"
        rc = main(
            [
                "train",
                history_file,
                "--window",
                "30",
                "--models",
                "linear",
                "--manifest",
                str(manifest_file),
            ]
        )
        assert rc == 0
        doc = json.loads(manifest_file.read_text())
        assert doc["schema"] == "f2pm.manifest/1"
        assert doc["kind"] == "f2pm.run"
        assert doc["trace"]["name"] == "f2pm.run"
        assert {r["name"] for r in doc["reports"]} >= {"linear"}

    def test_no_obs_leaves_trace_empty(self, tmp_path, history_file, capsys):
        trace_file = tmp_path / "t.json"
        rc = main(
            [
                "train",
                history_file,
                "--window",
                "30",
                "--models",
                "linear",
                "--no-obs",
                "--trace-json",
                str(trace_file),
            ]
        )
        assert rc == 0
        assert json.loads(trace_file.read_text()) == {"spans": []}
        # the switch is restored for later invocations in this process
        from repro import obs

        assert obs.enabled()

    def test_verbose_logs_phases_to_stderr(self, history_file, capsys):
        rc = main(
            ["train", history_file, "--window", "30", "--models", "linear", "-v"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "INFO repro.core.framework" in err
        assert "aggregate rows_in=" in err

    def test_obs_renders_trace_file(self, tmp_path, history_file, capsys):
        trace_file = tmp_path / "t.json"
        main(
            [
                "train",
                history_file,
                "--window",
                "30",
                "--models",
                "linear",
                "--trace-json",
                str(trace_file),
            ]
        )
        capsys.readouterr()
        rc = main(["obs", str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "f2pm.run" in out
        assert "aggregate" in out

    def test_obs_renders_metrics_file(self, tmp_path, history_file, capsys):
        metrics_file = tmp_path / "m.json"
        main(
            [
                "train",
                history_file,
                "--window",
                "30",
                "--models",
                "linear",
                "--metrics-json",
                str(metrics_file),
            ]
        )
        capsys.readouterr()
        rc = main(["obs", str(metrics_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "f2pm.runs_total" in out

    def test_obs_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["obs", str(tmp_path / "nope.json")])

    def test_obs_unparseable_file_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="could not parse"):
            main(["obs", str(bad)])


class TestRejuvenate:
    def test_prints_policy_table(self, capsys):
        rc = main(
            [
                "rejuvenate",
                "--runs",
                "3",
                "--horizon",
                "2000",
                "--seed",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Rejuvenation policies" in out
        assert "predictive" in out


class TestFleet:
    def test_prints_policy_table(self, capsys):
        rc = main(
            [
                "fleet",
                "--nodes",
                "6",
                "--horizon",
                "1500",
                "--seed",
                "1",
                "--capacity-floor",
                "0.5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fleet of 6 nodes" in out
        assert "predictive" in out


class TestCache:
    @pytest.fixture
    def store_dir(self, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "cache")
        store.write(
            "a.bin", lambda p: p.write_bytes(b"data"), kind="test", fingerprint="ab" * 32
        )
        return str(store.root)

    def test_ls_empty(self, tmp_path, capsys):
        rc = main(["cache", "--dir", str(tmp_path / "empty"), "ls"])
        assert rc == 0
        assert "empty" in capsys.readouterr().out

    def test_ls_lists_entries(self, store_dir, capsys):
        rc = main(["cache", "--dir", store_dir, "ls"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "a.bin" in out and "ok" in out

    def test_ls_flags_corruption(self, store_dir, capsys):
        from pathlib import Path

        (Path(store_dir) / "a.bin").write_bytes(b"tampered")
        main(["cache", "--dir", store_dir, "ls"])
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "checksum mismatch" in out

    def test_info(self, store_dir, capsys):
        rc = main(["cache", "--dir", store_dir, "info", "a.bin"])
        assert rc == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["name"] == "a.bin"
        assert meta["kind"] == "test"
        assert meta["fingerprint"] == "ab" * 32

    def test_info_missing_entry_errors(self, store_dir):
        with pytest.raises(SystemExit, match="no cache entry"):
            main(["cache", "--dir", store_dir, "info", "nope.bin"])

    def test_gc_sweeps_corrupt(self, store_dir, capsys):
        from pathlib import Path

        (Path(store_dir) / "a.bin").write_bytes(b"tampered")
        rc = main(["cache", "--dir", store_dir, "gc"])
        assert rc == 0
        assert "removed 2 file(s)" in capsys.readouterr().out
        main(["cache", "--dir", store_dir, "ls"])
        assert "empty" in capsys.readouterr().out

    def test_clear(self, store_dir, capsys):
        rc = main(["cache", "--dir", store_dir, "clear"])
        assert rc == 0
        assert "cleared" in capsys.readouterr().out
        from pathlib import Path

        assert list(Path(store_dir).iterdir()) == []
