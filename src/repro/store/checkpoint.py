"""Crash-safe campaign checkpoints: resume instead of restart.

A long monitoring campaign (tens of runs, possibly fanned out with
``--jobs``) used to be all-or-nothing: a killed driver restarted from
run 0. :class:`CampaignCheckpoint` persists the completed *prefix* of a
campaign every K runs — atomically, checksummed, tagged with the
producing config's fingerprint and the campaign's total run count — so
a restarted driver validates the checkpoint, reloads the prefix, and
simulates only the remaining runs.

Because every run's random stream is pre-spawned from the campaign seed
(independent of worker count *and* of where a resume happened), a
resumed campaign is bit-identical to an uninterrupted one; the test
battery enforces this.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs import get_logger, get_metrics, kv
from repro.store.atomic import atomic_write_text, atomic_writer, sha256_file
from repro.store.store import STORE_VERSION, META_SUFFIX

if TYPE_CHECKING:  # lazy: repro.core.history imports repro.store.atomic
    from repro.core.history import RunRecord

_log = get_logger("store.checkpoint")

#: Runs between checkpoint saves when the caller names no cadence: a
#: killed campaign loses at most this many runs minus one.
CHECKPOINT_EVERY = 5


class CampaignCheckpoint:
    """Atomic, fingerprint-validated partial-campaign persistence.

    Parameters
    ----------
    path : checkpoint payload location (an ``.npz``; a ``.meta.json``
        sidecar rides along).
    key : fingerprint of the producing configuration — a checkpoint
        written under a different config is ignored, never resumed.
    total_runs : the campaign size the checkpoint counts toward.
    """

    def __init__(self, path: "str | Path", *, key: str, total_runs: int) -> None:
        self.path = Path(path)
        self.key = key
        self.total_runs = total_runs

    @property
    def _meta_path(self) -> Path:
        return self.path.with_name(self.path.name + META_SUFFIX)

    # -- persistence -----------------------------------------------------------

    def save(self, records: "list[RunRecord]", extra: "dict[str, Any] | None" = None) -> None:
        """Atomically persist the completed prefix (payload, then sidecar)."""
        from repro.core.history import DataHistory

        with atomic_writer(self.path) as tmp:
            DataHistory(runs=list(records)).save(tmp)
            digest = sha256_file(tmp)
        meta = {
            "store_version": STORE_VERSION,
            "kind": "campaign-checkpoint",
            "sha256": digest,
            "key": self.key,
            "total_runs": self.total_runs,
            "n_done": len(records),
            "extra": extra or {},
        }
        atomic_write_text(self._meta_path, json.dumps(meta, indent=2) + "\n")
        get_metrics().inc("store.checkpoint_saves_total")
        _log.info(
            "checkpoint saved %s",
            kv(path=self.path.name, done=len(records), total=self.total_runs),
        )

    def load(self) -> "tuple[list[RunRecord], dict[str, Any]]":
        """Validated resume state: ``(prefix records, extra)``.

        Anything untrustworthy — missing/corrupt files, checksum or key
        mismatch, a different campaign size — is logged, discarded, and
        reported as an empty prefix (fresh start), never an exception.
        """
        from repro.core.history import DataHistory

        if not self.path.exists() or not self._meta_path.exists():
            if self.path.exists() or self._meta_path.exists():
                self.discard()  # half a checkpoint is no checkpoint
            return [], {}
        try:
            meta = json.loads(self._meta_path.read_text())
            if int(meta.get("store_version", -1)) > STORE_VERSION:
                raise ValueError(f"store version {meta.get('store_version')} too new")
            if meta.get("key") != self.key:
                raise ValueError("config fingerprint mismatch")
            if int(meta.get("total_runs", -1)) != self.total_runs:
                raise ValueError("campaign size mismatch")
            if sha256_file(self.path) != meta.get("sha256"):
                raise ValueError("checksum mismatch (torn write or bit rot)")
            history = DataHistory.load(self.path)
            if len(history) != int(meta.get("n_done", -1)):
                raise ValueError("run count disagrees with sidecar")
            if not 0 < len(history) <= self.total_runs:
                raise ValueError(f"unusable prefix of {len(history)} runs")
        except Exception as exc:
            get_metrics().inc("store.corrupt_total")
            _log.warning(
                "checkpoint invalid, restarting campaign %s",
                kv(path=self.path.name, error=str(exc)),
            )
            self.discard()
            return [], {}
        get_metrics().inc("store.checkpoint_resumes_total")
        _log.info(
            "checkpoint resumed %s",
            kv(path=self.path.name, done=len(history), total=self.total_runs),
        )
        extra = meta.get("extra") or {}
        return list(history.runs), extra if isinstance(extra, dict) else {}

    def discard(self) -> None:
        """Remove the checkpoint (campaign finished, or state untrusted)."""
        self.path.unlink(missing_ok=True)
        self._meta_path.unlink(missing_ok=True)
