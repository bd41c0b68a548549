"""Per-worker context shipping (``run_tasks(..., context=...)``).

The training grid fans ~12 cells out per feature set, and every cell in
a feature set fits the same train/validation split — the split must
ship once per *worker*, not once per *task*. These tests pin the pool
mechanics and that no grid payload carries a split.
"""

from __future__ import annotations

import numpy as np

from repro.parallel import run_tasks, worker_context


def _read_context(key: str):
    return worker_context()[key]


def _context_is_none(_payload) -> bool:
    return worker_context() is None


def test_context_visible_in_every_worker():
    context = {"a": 1, "b": 2}
    results = run_tasks(_read_context, ["a", "b", "a", "b"], jobs=2, context=context)
    assert results == [1, 2, 1, 2]


def test_no_context_reads_none():
    assert run_tasks(_context_is_none, [0, 1, 2], jobs=2) == [True] * 3


def test_parent_process_context_is_none():
    # the accessor is only meaningful inside a worker
    assert worker_context() is None


class TestGridPayloadDedup:
    """``F2PM.run(jobs=2)`` ships each feature set's split once per worker."""

    @staticmethod
    def _config():
        from repro.core import AggregationConfig, F2PMConfig

        return F2PMConfig(
            aggregation=AggregationConfig(window_seconds=30.0),
            models=("linear", "reptree"),
            lasso_predictor_lambdas=(),
            seed=0,
        )

    def test_shared_split_ships_via_context_not_payload(
        self, serial_history, monkeypatch
    ):
        """Grid cells sharing a split must not re-pickle it per task."""
        import repro.parallel
        from repro.core import F2PM
        from repro.core.dataset import TrainingSet

        captured = {}
        original = repro.parallel.run_tasks

        def spy(worker, payloads, **kwargs):
            captured["payloads"] = list(payloads)
            captured["context"] = kwargs.get("context")
            return original(worker, payloads, **kwargs)

        monkeypatch.setattr(repro.parallel, "run_tasks", spy)
        result = F2PM(self._config()).run(serial_history, jobs=2)

        assert len(captured["payloads"]) == len(result.reports) == 4
        # every payload leans on the context; none carries a split inline
        for payload in captured["payloads"]:
            fields = payload.values() if isinstance(payload, dict) else payload
            assert not any(isinstance(f, TrainingSet) for f in fields)
        context = captured["context"]
        assert set(context) == {"all", "selected"}
        for train, validation in context.values():
            assert isinstance(train, TrainingSet)
            assert isinstance(validation, TrainingSet)
        assert np.array_equal(context["all"][1].y, result.y_validation)
        assert context["selected"][0].n_features == result.selection.n_selected

    def test_grid_results_match_serial(self, serial_history):
        from repro.core import F2PM

        parallel = F2PM(self._config()).run(serial_history, jobs=2)
        serial = F2PM(self._config()).run(serial_history, jobs=1)
        assert [r.mae for r in parallel.reports] == [r.mae for r in serial.reports]
        for key, pred in serial.predictions.items():
            assert np.array_equal(parallel.predictions[key], pred)
