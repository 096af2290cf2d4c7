"""The checkpoint directory: stage 1's group slots under a manifest.

Stage 1 — the rate-limited scan — is the one stage worth persisting,
and it persists one way: every UR nameserver group is written to
``groups/`` as it folds (a :class:`~repro.incremental.GroupResultStore`
slot), and a resumed stage 1 replays each stored group instead of
re-querying its server.  Beside the slots sits a ``manifest.json``
carrying a fingerprint of the :class:`~repro.core.hunter.HunterConfig`
(plus an optional scenario fingerprint supplied by the caller — the
CLI's is :meth:`repro.runspec.RunSpec.fingerprint`), and,
after an aborted run, ``failure.json``.  Stages 2 and 3 are never
written out: they are cheap offline joins over stage 1's result, and a
resume recomputes them faster than it could read them back.  A resumed
run first verifies the fingerprint — resuming a checkpoint produced
under a different configuration would silently mix incompatible
intermediate state, so a mismatch raises
:class:`~repro.pipeline.errors.CheckpointError` instead.

Writes are atomic (:func:`~repro.incremental.store.atomic_write`) so a
crash mid-write leaves either the previous file or none, never a torn
one.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..digest import json_digest
from ..dns.name import Name
from ..incremental.store import atomic_write
from ..obs.events import STAGE1, STAGE2, STAGE3
from .errors import CheckpointError

#: checkpoint format version; bump when the payload schema changes
#: (v2: stage-1 ``now`` became the classification epoch, stage-2
#: metrics dropped their wall-clock fields, stream segments added;
#: v3: ``shed`` joined the per-stage scan counters; v4: the scan-plan
#: hash joined the manifest fingerprint and per-shard partial files
#: were added; v5: the partials gave way to a group result store under
#: ``groups/``, and files are written compact; v6: retry waits under
#: hedging are read from the round-trip estimator — the stage-1 clock
#: and latency histogram of a hedged run mean something else; v7: the
#: correct collection and the UR scan run side by side — stage-1
#: ``now`` is the scan start, not the end of the preamble, and the
#: stage's ``end`` is added; v8: the stage-2 metrics drop ``workers``
#: and stream segments are gone; the ``stage1-collect.json`` and
#: stage-2/3 snapshots a v8 run wrote are never read; v9: the manifest
#: fingerprint digests the run spec, a chaos script's content included;
#: v10: the group slots are store format 5, whose ScanMetrics carry the
#: resilience counters — a v9 directory is refused before a slot is read;
#: v11: the group slots are store format 6, which keep only the UR
#: outcomes that carried URs; v12: the run spec's scenario keeps only
#: its seed and scale knobs, so the fingerprint digests a smaller
#: document — a v11 directory is refused by its format, not as a
#: different configuration)
FORMAT_VERSION = 12


# -- generic json helpers ---------------------------------------------------


def _jsonify(value: Any) -> Any:
    """Reduce config values to a canonical JSON-compatible form."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonify(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonify(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Name):
        return value.to_text()
    return value


def config_fingerprint(
    config: Any, extra: Optional[Dict[str, Any]] = None
) -> str:
    """A stable digest of the run configuration — every field of it.

    ``extra`` lets callers fold in anything else that must match between
    the checkpointing run and the resuming run (e.g. a scenario seed).
    """
    return json_digest(
        {"config": _jsonify(config), "extra": _jsonify(extra or {})}
    )


# -- the store --------------------------------------------------------------


class CheckpointStore:
    """One directory holding stage 1's group slots and a manifest."""

    MANIFEST = "manifest.json"
    FAILURE = "failure.json"
    #: the runner-owned group result store, stage 1's resume medium
    #: (:class:`repro.incremental.GroupResultStore` slots)
    GROUPS = "groups"
    #: the files a checkpoint run writes beside ``groups/`` — with the
    #: stage snapshots older builds wrote — and a fresh run removes;
    #: nothing else in the directory is touched
    OWNED = (
        MANIFEST,
        FAILURE,
        *(f"{stage}.json" for stage in (STAGE1, STAGE2, STAGE3)),
    )

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    @property
    def groups_path(self) -> Path:
        return self.path / self.GROUPS

    # -- lifecycle ---------------------------------------------------------

    def prepare(self, fingerprint: str, resume: bool) -> None:
        """Open the store for a run.

        A fresh run removes every file an earlier run wrote — the group
        slots, and any stage snapshot an older build wrote — and stamps
        a new manifest; a resumed run demands an existing manifest with
        a matching configuration fingerprint, and keeps the slots.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        manifest_path = self.path / self.MANIFEST
        if resume:
            if not manifest_path.exists():
                raise CheckpointError(
                    f"cannot resume: no manifest in {self.path}"
                )
            manifest = self._read(manifest_path)
            if manifest.get("format") != FORMAT_VERSION:
                raise CheckpointError(
                    "cannot resume: checkpoint format "
                    f"{manifest.get('format')!r} != {FORMAT_VERSION}"
                )
            if manifest.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    "cannot resume: checkpoint was written under a "
                    "different configuration (fingerprint mismatch)"
                )
            self.clear_failure()
            return
        for stale in (
            *(self.path / owned for owned in self.OWNED),
            *self.groups_path.glob("group-*.json"),
        ):
            stale.unlink(missing_ok=True)
        self.save(
            self.MANIFEST,
            {"format": FORMAT_VERSION, "fingerprint": fingerprint},
        )

    def save(self, filename: str, payload: Dict[str, Any]) -> None:
        """Write one file of the directory (the manifest, or
        ``failure.json``) atomically."""
        self._write(self.path / filename, payload)

    #: benchmarks/e2e reads this; ROADMAP item 2 deletes it
    save_segment = save

    # -- failure provenance ---------------------------------------------------

    def record_failure(self, stage: str, error: BaseException) -> None:
        self.save(
            self.FAILURE,
            {
                "stage": stage,
                "error": type(error).__name__,
                "message": str(error),
            },
        )

    def last_failure(self) -> Optional[Dict[str, Any]]:
        path = self.path / self.FAILURE
        if not path.exists():
            return None
        return self._read(path)

    def clear_failure(self) -> None:
        path = self.path / self.FAILURE
        if path.exists():
            path.unlink()

    # -- raw io ---------------------------------------------------------------

    @staticmethod
    def _read(path: Path) -> Dict[str, Any]:
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"unreadable checkpoint file {path}: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"malformed checkpoint file {path}: expected a JSON "
                f"object, found {type(payload).__name__}"
            )
        return payload

    @staticmethod
    def _write(path: Path, payload: Dict[str, Any]) -> None:
        try:
            with atomic_write(path) as handle:
                json.dump(payload, handle, separators=(",", ":"))
                handle.write("\n")
        except OSError as error:
            raise CheckpointError(
                f"cannot write checkpoint file {path}: {error}"
            ) from error
