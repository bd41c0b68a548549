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
    def _grid(self):
        from repro.core.dataset import TrainingSet
        from repro.ml.linear import LinearRegression

        rng = np.random.default_rng(0)
        mk = lambda n: TrainingSet(  # noqa: E731
            X=rng.normal(size=(n, 2)), y=rng.normal(size=n), feature_names=("a", "b")
        )
        train, val = mk(40), mk(10)
        grid = [("all", f"lr{i}", LinearRegression()) for i in range(3)]
        return grid, {"all": (train, val)}

    def test_shared_split_ships_via_context_not_payload(self):
        """Grid cells sharing a split must not re-pickle it per task."""
        from repro.parallel import training

        grid, splits = self._grid()
        train, val = splits["all"]
        captured = {}
        original = training.run_tasks

        def spy(worker, payloads, **kwargs):
            captured["payloads"] = list(payloads)
            captured["context"] = kwargs.get("context")
            return original(worker, payloads, **kwargs)

        training.run_tasks = spy
        try:
            results = training.evaluate_grid_parallel(
                grid, splits, smae_threshold=10.0, jobs=2
            )
        finally:
            training.run_tasks = original

        assert len(results) == 3
        # every payload leans on the context; none carries the split inline
        for payload in captured["payloads"]:
            assert "train" not in payload
        assert captured["context"]["all"] == (train, val)

    def test_grid_results_match_serial(self):
        from repro.parallel import training

        grid, splits = self._grid()
        parallel = training.evaluate_grid_parallel(
            grid, splits, smae_threshold=10.0, jobs=2
        )
        serial = training.evaluate_grid_parallel(
            grid, splits, smae_threshold=10.0, jobs=1
        )
        for (rp, _, pp), (rs, _, ps) in zip(parallel, serial):
            assert rp.mae == rs.mae
            assert np.array_equal(pp, ps)
