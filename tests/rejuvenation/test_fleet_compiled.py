"""Fleet compiled-scoring contracts (FleetConfig.scoring="compiled").

Three guarantees layered on the PR-8 equivalence battery:

1. the default stays exact — ``scoring="exact"`` serves the policy
   model object itself, so the existing batched==scalar bit-identity
   contract is untouched;
2. a passthrough compile (non-kernel model, or an identity-compiled
   kernel model) under ``scoring="compiled"`` reproduces the exact run
   bit-for-bit;
3. a genuinely approximate compile stays within its accuracy gate on
   held-out data while the fleet still runs to completion.
"""

import numpy as np
import pytest

from repro.ml import LSSVMRegressor
from repro.ml.metrics import soft_mean_absolute_error
from repro.ml.serving import compile_predictor
from repro.rejuvenation import (
    FleetConfig,
    FleetController,
    ManagedSystemConfig,
    PredictiveRejuvenation,
    SyntheticFleetSource,
    SyntheticFleetSpec,
)
from repro.rejuvenation.fleet import _N_RAW

SPEC = SyntheticFleetSpec()


def episode_key(node_log):
    return [
        (e.start, e.end, e.outcome, e.predicted_rttf) for e in node_log.episodes
    ]


def fleet_key(log):
    return [episode_key(nl) for nl in log.node_logs]


def run_fleet(policy, scoring, seed=3, n_nodes=8, horizon=1500.0):
    controller = FleetController(
        SyntheticFleetSource(SPEC),
        ManagedSystemConfig(horizon_seconds=horizon, window_seconds=20.0),
        policy,
        FleetConfig(n_nodes=n_nodes, scoring=scoring),
    )
    return controller.run(seed=seed)


@pytest.fixture(scope="module")
def rttf_model():
    """An LS-SVM fitted to window-shaped features with an RTTF target."""
    from repro.core.datapoint import FEATURE_INDEX

    rng = np.random.default_rng(0)
    n = 400
    X = rng.uniform(0.0, 1.0, size=(n, 2 * _N_RAW))
    X[:, FEATURE_INDEX["mem_used"]] = rng.uniform(2e5, 7.8e5, size=n)
    X[:, FEATURE_INDEX["swap_used"]] = rng.uniform(0.0, 2.6e5, size=n)
    y = SPEC.linear_model().predict(X) + rng.normal(scale=5.0, size=n)
    model = LSSVMRegressor(gam=10.0, kernel="rbf", gamma="scale").fit(X, y)
    return model, X, y


class TestConfigValidation:
    def test_default_is_exact(self):
        assert FleetConfig().scoring == "exact"

    def test_unknown_scoring_rejected(self):
        with pytest.raises(ValueError, match="scoring"):
            FleetConfig(scoring="fast")


class TestPassthroughParity:
    def test_unsupported_model_is_bit_identical(self):
        # The synthetic linear model has no kernel expansion: compiled
        # scoring degrades to a passthrough wrapper around the exact
        # model, so the whole fleet run must be bit-identical.
        exact = run_fleet(
            PredictiveRejuvenation(SPEC.linear_model(), rttf_margin=150.0),
            "exact",
        )
        compiled = run_fleet(
            PredictiveRejuvenation(SPEC.linear_model(), rttf_margin=150.0),
            "compiled",
        )
        assert fleet_key(exact) == fleet_key(compiled)

    def test_identity_compiled_model_is_bit_identical(self, rttf_model):
        model, _, _ = rttf_model
        exact = run_fleet(
            PredictiveRejuvenation(model, rttf_margin=150.0), "exact"
        )
        identity = compile_predictor(
            model, budget=10_000, prune_tol=0.0, dtype="float64"
        )
        assert identity.compiled
        compiled = run_fleet(
            PredictiveRejuvenation(identity, rttf_margin=150.0), "compiled"
        )
        assert fleet_key(exact) == fleet_key(compiled)


class TestCompiledScoring:
    def test_gated_compile_parity_within_gate(self, rttf_model):
        # Parity-within-gate: the compiled plane's predictions may
        # drift from exact only as far as the accuracy gate allowed.
        model, X, y = rttf_model
        tol = 10.0
        cp = compile_predictor(
            model, budget=96, tol=tol, X_val=X[:150], y_val=y[:150]
        )
        assert cp.compiled and cp.report.reason == "gated-accept"
        held_out = slice(150, 300)
        smae_exact = soft_mean_absolute_error(
            y[held_out], model.predict(X[held_out]), 0.0
        )
        smae_compiled = soft_mean_absolute_error(
            y[held_out], cp.predict(X[held_out]), 0.0
        )
        # held-out drift stays the same order as the gate tolerance
        assert smae_compiled - smae_exact <= 2.0 * tol

        log = run_fleet(
            PredictiveRejuvenation(cp, rttf_margin=150.0), "compiled"
        )
        assert log.n_episodes >= 8
        assert log.scoring_calls > 0

    def test_plain_model_compiled_in_plane(self, rttf_model):
        # Handing the plane an uncompiled kernel model compiles it
        # (ungated) at construction; the run must still complete.
        model, _, _ = rttf_model
        log = run_fleet(
            PredictiveRejuvenation(model, rttf_margin=150.0),
            "compiled",
            horizon=800.0,
        )
        assert log.n_episodes >= 8
        assert log.scored_rows > 0
