"""Data history: the output of the initial monitoring phase.

A :class:`DataHistory` is a sequence of :class:`RunRecord` — one per
system run between restarts. Each run carries the raw datapoint matrix,
the fail-event time, and optional ground-truth response-time samples
(the paper instruments the emulated browsers *only* to validate the
inter-generation-time correlation of Fig. 3; the models themselves never
see RT).

Histories serialize to ``.npz`` so an expensive monitoring campaign can
be collected once and re-used across experiments — mirroring the paper's
incremental data-collection support ("further system runs can be executed
to collect new data into the training set").
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.core.datapoint import FEATURES
from repro.store.atomic import atomic_writer


@dataclass
class RunRecord:
    """One run of the monitored system, from (re)start to fail event.

    Attributes
    ----------
    features : (n, 15) float array
        Raw datapoints in :data:`~repro.core.datapoint.FEATURES` order,
        sorted by ``tgen``.
    fail_time : float
        Elapsed seconds from run start to the fail event.
    response_times : (n,) float array or None
        Mean client response time at each datapoint instant (ground truth
        for the Fig. 3 correlation; optional).
    metadata : mapping
        Free-form provenance (anomaly rates, seeds, crash reason, ...).
    """

    features: np.ndarray
    fail_time: float
    response_times: np.ndarray | None = None
    metadata: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] != len(FEATURES):
            raise ValueError(
                f"features must be (n, {len(FEATURES)}), got {self.features.shape}"
            )
        if self.features.shape[0] == 0:
            raise ValueError("run has no datapoints")
        tgen = self.features[:, 0]
        # NaN timestamps make every comparison below vacuously pass, so
        # they must be rejected first (a NaN-laden trace otherwise slips
        # through and poisons window binning and RTTF labels downstream).
        if not np.isfinite(tgen).all():
            bad = int(np.flatnonzero(~np.isfinite(tgen))[0])
            raise ValueError(
                f"timestamps must be finite; row {bad} has tgen {tgen[bad]!r} "
                "(route dirty traces through repro.core.sanitize)"
            )
        if (np.diff(tgen) < 0).any():
            raise ValueError("datapoints must be sorted by tgen")
        self.fail_time = float(self.fail_time)
        if not np.isfinite(self.fail_time):
            raise ValueError(f"fail_time must be finite, got {self.fail_time!r}")
        if self.fail_time < tgen[-1]:
            raise ValueError(
                f"fail_time {self.fail_time} precedes last datapoint {tgen[-1]}: "
                "RTTF labels would go negative (fix the fail event or use "
                "repro.core.sanitize repair mode)"
            )
        if self.response_times is not None:
            self.response_times = np.asarray(self.response_times, dtype=np.float64)
            if self.response_times.shape != (self.features.shape[0],):
                raise ValueError(
                    "response_times must align with datapoints: "
                    f"{self.response_times.shape} vs {self.features.shape[0]}"
                )

    @property
    def n_datapoints(self) -> int:
        return self.features.shape[0]

    @property
    def duration(self) -> float:
        """Run length in seconds (equals the fail-event time)."""
        return self.fail_time

    def column(self, name: str) -> np.ndarray:
        """Raw values of one named feature across the run."""
        try:
            idx = FEATURES.index(name)
        except ValueError:
            raise KeyError(f"unknown feature {name!r}") from None
        return self.features[:, idx]


@dataclass
class DataHistory:
    """All runs collected during a monitoring campaign."""

    runs: list[RunRecord] = field(default_factory=list)

    def add_run(self, run: RunRecord) -> None:
        self.runs.append(run)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.runs)

    def __getitem__(self, i: int) -> RunRecord:
        return self.runs[i]

    @property
    def n_datapoints(self) -> int:
        return sum(run.n_datapoints for run in self.runs)

    @property
    def mean_run_length(self) -> float:
        """Mean time-to-failure across runs (seconds).

        Used to resolve fractional S-MAE thresholds (the paper's "10%
        threshold") into seconds.
        """
        if not self.runs:
            raise ValueError("history is empty")
        return float(np.mean([run.fail_time for run in self.runs]))

    def extend(self, other: "DataHistory") -> None:
        """Merge another campaign in (incremental data collection)."""
        self.runs.extend(other.runs)

    # -- content identity ------------------------------------------------------

    def content_fingerprint(self) -> str:
        """sha256 over the history's *content* (runs, in order).

        Two histories with identical runs fingerprint identically no
        matter where the objects live or which path produced them. It is
        the equality check of the bit-identity contracts (resumed,
        parallel, sanitized and cached campaigns against their reference)
        and the benchmark's per-op history digest; the artifact store
        keys histories by their config fingerprint instead.
        """
        digest = hashlib.sha256(b"f2pm-history-v1")
        digest.update(struct.pack("<q", len(self.runs)))
        for run in self.runs:
            features = np.ascontiguousarray(run.features, dtype=np.float64)
            digest.update(struct.pack("<qq", *features.shape))
            digest.update(features.tobytes())
            digest.update(struct.pack("<d", float(run.fail_time)))
            if run.response_times is None:
                digest.update(b"rt:none")
            else:
                rt = np.ascontiguousarray(run.response_times, dtype=np.float64)
                digest.update(b"rt:")
                digest.update(rt.tobytes())
            for key in sorted(run.metadata):
                digest.update(key.encode())
                digest.update(struct.pack("<d", float(run.metadata[key])))
        return digest.hexdigest()

    # -- serialization --------------------------------------------------------

    def save(self, path: "str | Path") -> None:
        """Write the history to a ``.npz`` archive.

        The write is atomic (temp file + ``os.replace``): a crash mid-save
        leaves either the previous complete file or none — never a
        truncated archive that :meth:`load` would choke on.
        """
        payload: dict[str, np.ndarray] = {"n_runs": np.array(len(self.runs))}
        for i, run in enumerate(self.runs):
            payload[f"run{i}_features"] = run.features
            payload[f"run{i}_fail_time"] = np.array(run.fail_time)
            if run.response_times is not None:
                payload[f"run{i}_rt"] = run.response_times
            if run.metadata:
                keys = sorted(run.metadata)
                payload[f"run{i}_meta_keys"] = np.array(keys)
                payload[f"run{i}_meta_vals"] = np.array(
                    [float(run.metadata[k]) for k in keys]
                )
        with atomic_writer(path) as tmp:
            # Write through a file object so numpy cannot re-suffix the
            # temporary name and break the atomic replace.
            with tmp.open("wb") as fh:
                np.savez_compressed(fh, **payload)

    @classmethod
    def load(cls, path: "str | Path") -> "DataHistory":
        """Read a history previously written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            n_runs = int(data["n_runs"])
            runs = []
            for i in range(n_runs):
                rt = data[f"run{i}_rt"] if f"run{i}_rt" in data else None
                meta: dict[str, float] = {}
                if f"run{i}_meta_keys" in data:
                    meta = {
                        str(k): float(v)
                        for k, v in zip(
                            data[f"run{i}_meta_keys"], data[f"run{i}_meta_vals"]
                        )
                    }
                runs.append(
                    RunRecord(
                        features=data[f"run{i}_features"],
                        fail_time=float(data[f"run{i}_fail_time"]),
                        response_times=rt,
                        metadata=meta,
                    )
                )
        return cls(runs=runs)
