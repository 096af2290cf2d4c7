"""Stage checkpoints: durable, resumable snapshots of pipeline state.

Each completed stage is serialized to one JSON file inside a checkpoint
directory, next to a ``manifest.json`` carrying a fingerprint of the
:class:`~repro.core.hunter.HunterConfig` (plus an optional scenario
fingerprint supplied by the caller).  A resumed run first verifies the
fingerprint — resuming a checkpoint produced under a different
configuration would silently mix incompatible intermediate state, so a
mismatch raises :class:`~repro.pipeline.errors.CheckpointError` instead.

Determinism notes, because resume is verified *byte-for-byte* against an
uninterrupted run:

* every set-valued field (tags, profile facts, protective fingerprints)
  is serialized as a **sorted** list — set iteration order is hash-seed
  dependent and does not survive process boundaries;
* insertion-ordered mappings (``ip_verdicts``, per-source health) are
  serialized as **lists of entries**, because their order is meaningful
  (first-seen order drives report iteration) and must round-trip;
* the stage-1 virtual timestamps ride in the checkpoint: ``now`` so a
  resumed stage 2 classifies against the same clock the live run did,
  ``end`` so its §4.2 sample starts where the live run's did.

Writes are atomic (:func:`~repro.incremental.store.atomic_write`) so a
crash mid-write leaves either the previous checkpoint or none, never a
torn file.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.analysis import MaliciousAnalysisResult
from ..core.collector import CollectionResult, ProtectiveFingerprint
from ..core.correctness import CorrectRecordDatabase
from ..core.hunter import Stage1Result, Stage2Result, Stage3Result
from ..core.parallel import Stage2Metrics
from ..core.records import (
    ClassifiedUR,
    IpVerdict,
    URCategory,
    URTable,
    URVerdicts,
    UndelegatedRecord,
)
from ..core.suspicion import SuspicionOutcome
from ..dns.name import Name, name
from ..engine.metrics import LatencyHistogram, ScanMetrics, StageCounters
from ..incremental.store import atomic_write
from ..intel.ipinfo import IpInfoDatabase
from .errors import CheckpointError
from .resilience import SourceHealth

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
#: and stream segments are gone)
FORMAT_VERSION = 8


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
    payload = {"config": _jsonify(config), "extra": _jsonify(extra or {})}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- record codecs ----------------------------------------------------------


def encode_record(record: UndelegatedRecord) -> Dict[str, Any]:
    return {
        "domain": record.domain.to_text(),
        "nameserver_ip": record.nameserver_ip,
        "provider": record.provider,
        "rrtype": record.rrtype,
        "rdata_text": record.rdata_text,
        "nameserver_name": (
            record.nameserver_name.to_text()
            if record.nameserver_name is not None
            else None
        ),
        "ttl": record.ttl,
    }


def decode_record(payload: Dict[str, Any]) -> UndelegatedRecord:
    return UndelegatedRecord(
        domain=name(payload["domain"]),
        nameserver_ip=payload["nameserver_ip"],
        provider=payload["provider"],
        rrtype=payload["rrtype"],
        rdata_text=payload["rdata_text"],
        nameserver_name=(
            name(payload["nameserver_name"])
            if payload["nameserver_name"] is not None
            else None
        ),
        ttl=payload["ttl"],
    )


def encode_classified(entry: ClassifiedUR) -> Dict[str, Any]:
    return {
        "record": encode_record(entry.record),
        "category": entry.category.value,
        "reasons": list(entry.reasons),
        "corresponding_ips": list(entry.corresponding_ips),
        "txt_category": entry.txt_category,
    }


def decode_classified(payload: Dict[str, Any]) -> ClassifiedUR:
    return ClassifiedUR(
        record=decode_record(payload["record"]),
        category=URCategory(payload["category"]),
        reasons=tuple(payload["reasons"]),
        corresponding_ips=tuple(payload["corresponding_ips"]),
        txt_category=payload["txt_category"],
    )


def encode_ip_verdict(verdict: IpVerdict) -> Dict[str, Any]:
    return {
        "address": verdict.address,
        "intel_flagged": verdict.intel_flagged,
        "ids_flagged": verdict.ids_flagged,
        "vendor_count": verdict.vendor_count,
        # sorted: frozensets do not iterate deterministically across
        # processes, and resume must reproduce the report byte-for-byte
        "tags": sorted(verdict.tags),
        "alert_categories": list(verdict.alert_categories),
        "intel_partial": verdict.intel_partial,
    }


def decode_ip_verdict(payload: Dict[str, Any]) -> IpVerdict:
    return IpVerdict(
        address=payload["address"],
        intel_flagged=payload["intel_flagged"],
        ids_flagged=payload["ids_flagged"],
        vendor_count=payload["vendor_count"],
        tags=frozenset(payload["tags"]),
        alert_categories=tuple(payload["alert_categories"]),
        intel_partial=payload["intel_partial"],
    )


def encode_fingerprint(fingerprint: ProtectiveFingerprint) -> Dict[str, Any]:
    return {
        "nameserver_ip": fingerprint.nameserver_ip,
        "records": sorted(
            [rrtype, rdata] for rrtype, rdata in fingerprint.records
        ),
    }


def decode_fingerprint(payload: Dict[str, Any]) -> ProtectiveFingerprint:
    return ProtectiveFingerprint(
        nameserver_ip=payload["nameserver_ip"],
        records={
            (rrtype, rdata) for rrtype, rdata in payload["records"]
        },
    )


def encode_profiles(database: CorrectRecordDatabase) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for domain in database.domains():
        profile = database.profile(domain)
        out.append(
            {
                "domain": profile.domain.to_text(),
                "ips": sorted(profile.ips),
                "asns": sorted(profile.asns),
                "countries": sorted(profile.countries),
                "cert_orgs": sorted(profile.cert_orgs),
                "txt_values": sorted(profile.txt_values),
                "mx_values": sorted(profile.mx_values),
            }
        )
    return out


def decode_profiles(
    payload: List[Dict[str, Any]], ipinfo: IpInfoDatabase
) -> CorrectRecordDatabase:
    database = CorrectRecordDatabase(ipinfo)
    for item in payload:
        profile = database.profile(name(item["domain"]))
        profile.ips.update(item["ips"])
        profile.asns.update(item["asns"])
        profile.countries.update(item["countries"])
        profile.cert_orgs.update(item["cert_orgs"])
        profile.txt_values.update(item["txt_values"])
        profile.mx_values.update(item["mx_values"])
    return database


def encode_metrics(metrics: Optional[ScanMetrics]) -> Optional[Dict[str, Any]]:
    if metrics is None:
        return None
    return {
        "stages": {
            stage: {
                "queries": counters.queries,
                "responses": counters.responses,
                "timeouts": counters.timeouts,
                "retries": counters.retries,
                "giveups": counters.giveups,
                "skipped": counters.skipped,
                "shed": counters.shed,
                "rate_limit_wait": counters.rate_limit_wait,
            }
            for stage, counters in sorted(metrics.stages.items())
        },
        "latency": {
            "bounds": list(metrics.latency.bounds),
            "counts": list(metrics.latency.counts),
            "total": metrics.latency.total,
            "sum": metrics.latency.sum,
        },
    }


def decode_metrics(
    payload: Optional[Dict[str, Any]],
) -> Optional[ScanMetrics]:
    if payload is None:
        return None
    metrics = ScanMetrics()
    for stage, counters in payload["stages"].items():
        metrics.stages[stage] = StageCounters(**counters)
    latency = LatencyHistogram(tuple(payload["latency"]["bounds"]))
    latency.counts = list(payload["latency"]["counts"])
    latency.total = payload["latency"]["total"]
    latency.sum = payload["latency"]["sum"]
    metrics.latency = latency
    return metrics


def encode_stage2_metrics(
    metrics: Optional[Stage2Metrics],
) -> Optional[Dict[str, Any]]:
    """Deterministic stage-2 counters only.

    The wall-clock fields (``wall_s``, ``condition_s``) are deliberately
    *not* checkpointed: they leak host timing into payloads that must be
    reproducible, and a resumed run could not honestly restore them
    anyway.  ``decode_stage2_metrics`` leaves them at their dataclass
    defaults (0.0 / empty).
    """
    if metrics is None:
        return None
    return {
        "records": metrics.records,
        "protective_matches": metrics.protective_matches,
        "distinct_keys": metrics.distinct_keys,
        "cache_hits": metrics.cache_hits,
        "cache_misses": metrics.cache_misses,
        "memoized": metrics.memoized,
        "pdns_cache_hits": metrics.pdns_cache_hits,
        "pdns_cache_misses": metrics.pdns_cache_misses,
        "ipinfo_cache_hits": metrics.ipinfo_cache_hits,
        "ipinfo_cache_misses": metrics.ipinfo_cache_misses,
    }


def decode_stage2_metrics(
    payload: Optional[Dict[str, Any]],
) -> Optional[Stage2Metrics]:
    if payload is None:
        return None
    return Stage2Metrics(**payload)


def encode_health(health: Dict[str, SourceHealth]) -> List[Dict[str, Any]]:
    return [
        dataclasses.asdict(ledger) for ledger in health.values()
    ]


def decode_health(payload: List[Dict[str, Any]]) -> Dict[str, SourceHealth]:
    out: Dict[str, SourceHealth] = {}
    for item in payload:
        ledger = SourceHealth(**item)
        out[ledger.name] = ledger
    return out


# -- stage codecs -----------------------------------------------------------


def encode_stage1(stage1: Stage1Result) -> Dict[str, Any]:
    collection = stage1.collection
    if collection.correct_db is None:
        raise CheckpointError(
            "stage-1 checkpoint requires the correct-record database"
        )
    return {
        "undelegated": [
            encode_record(record) for record in collection.undelegated
        ],
        "protective": [
            encode_fingerprint(fingerprint)
            for fingerprint in collection.protective.values()
        ],
        "profiles": encode_profiles(collection.correct_db),
        "responses_seen": collection.responses_seen,
        "queries_sent": collection.queries_sent,
        "timeouts": collection.timeouts,
        "correct_successes": collection.correct_successes,
        "metrics": encode_metrics(collection.metrics),
        "now": stage1.now,
        "end": stage1.end,
        "notes": list(stage1.notes),
    }


def decode_stage1(
    payload: Dict[str, Any], ipinfo: IpInfoDatabase
) -> Stage1Result:
    correct_db = decode_profiles(payload["profiles"], ipinfo)
    collection = CollectionResult(
        undelegated=URTable(
            decode_record(item) for item in payload["undelegated"]
        ),
        correct_db=correct_db,
        protective={
            item["nameserver_ip"]: decode_fingerprint(item)
            for item in payload["protective"]
        },
        responses_seen=payload["responses_seen"],
        queries_sent=payload["queries_sent"],
        timeouts=payload["timeouts"],
        correct_successes=payload["correct_successes"],
        metrics=decode_metrics(payload["metrics"]),
    )
    return Stage1Result(
        collection=collection,
        now=payload["now"],
        end=payload["end"],
        notes=tuple(payload["notes"]),
    )


def encode_stage2(stage2: Stage2Result, validated: bool) -> Dict[str, Any]:
    return {
        "classified": [
            encode_classified(entry)
            for entry in stage2.outcome.classified
        ],
        "fn_rate": stage2.fn_rate,
        "source_health": encode_health(stage2.source_health),
        "skipped_conditions": dict(
            sorted(stage2.skipped_conditions.items())
        ),
        "metrics": encode_stage2_metrics(stage2.metrics),
        # resume honesty: a checkpoint written by a validate=False run
        # must not satisfy a validate=True resume
        "validated": validated,
    }


def decode_stage2(payload: Dict[str, Any]) -> Stage2Result:
    return Stage2Result(
        outcome=SuspicionOutcome(
            classified=URVerdicts.from_entries(
                decode_classified(item) for item in payload["classified"]
            )
        ),
        fn_rate=payload["fn_rate"],
        source_health=decode_health(payload["source_health"]),
        skipped_conditions=dict(payload["skipped_conditions"]),
        metrics=decode_stage2_metrics(payload.get("metrics")),
    )


def encode_stage3(stage3: Stage3Result) -> Dict[str, Any]:
    analysis = stage3.analysis
    return {
        "classified": [
            encode_classified(entry) for entry in analysis.classified
        ],
        # a list, not a sorted mapping: first-seen order is the report's
        # iteration order and must survive the round-trip
        "ip_verdicts": [
            encode_ip_verdict(verdict)
            for verdict in analysis.ip_verdicts.values()
        ],
        "txt_without_ip": analysis.txt_without_ip,
        "source_health": encode_health(stage3.source_health),
    }


def decode_stage3(payload: Dict[str, Any]) -> Stage3Result:
    verdicts = [decode_ip_verdict(item) for item in payload["ip_verdicts"]]
    return Stage3Result(
        analysis=MaliciousAnalysisResult(
            classified=[
                decode_classified(item) for item in payload["classified"]
            ],
            ip_verdicts={
                verdict.address: verdict for verdict in verdicts
            },
            txt_without_ip=payload["txt_without_ip"],
        ),
        source_health=decode_health(payload["source_health"]),
    )


# -- the store --------------------------------------------------------------


class CheckpointStore:
    """One directory of per-stage JSON checkpoints plus a manifest."""

    MANIFEST = "manifest.json"
    FAILURE = "failure.json"
    #: the runner-owned group result store, stage 1's resume medium
    #: (:class:`repro.incremental.GroupResultStore` slots)
    GROUPS = "groups"

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def stage_file(self, stage: str) -> Path:
        return self.path / f"{stage}.json"

    @property
    def groups_path(self) -> Path:
        return self.path / self.GROUPS

    # -- lifecycle ---------------------------------------------------------

    def prepare(self, fingerprint: str, resume: bool) -> None:
        """Open the store for a run.

        A fresh run wipes stale stage files and group slots and stamps
        a new manifest; a resumed run demands an existing manifest with
        a matching configuration fingerprint.
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
            *self.path.glob("*.json"),
            *self.groups_path.glob("*.json"),
        ):
            stale.unlink()
        self._write(
            manifest_path,
            {"format": FORMAT_VERSION, "fingerprint": fingerprint},
        )

    # -- stage persistence ---------------------------------------------------

    def has(self, stage: str) -> bool:
        return self.stage_file(stage).exists()

    def load(self, stage: str) -> Dict[str, Any]:
        path = self.stage_file(stage)
        if not path.exists():
            raise CheckpointError(f"no checkpoint for stage {stage!r}")
        return self._read(path)

    def save(self, stage: str, payload: Dict[str, Any]) -> None:
        self._write(self.stage_file(stage), payload)

    #: benchmarks/e2e reads this; ROADMAP item 1 deletes it
    save_segment = save

    def invalidate_from(self, stages: List[str]) -> None:
        """Drop checkpoints for ``stages`` (a live re-run upstream makes
        downstream snapshots inconsistent)."""
        for stage in stages:
            path = self.stage_file(stage)
            if path.exists():
                path.unlink()

    # -- failure provenance ---------------------------------------------------

    def record_failure(self, stage: str, error: BaseException) -> None:
        self._write(
            self.path / self.FAILURE,
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

    def _write(self, path: Path, payload: Dict[str, Any]) -> None:
        # compact, and streamed: a stage snapshot is the largest object
        # a run serialises and is written at the run's memory peak,
        # where ``dumps`` would hold it twice more (+5.7 MiB at default
        # scale for 0.15 s saved)
        try:
            with atomic_write(path) as handle:
                json.dump(payload, handle, separators=(",", ":"))
                handle.write("\n")
        except OSError as error:
            raise CheckpointError(
                f"cannot write checkpoint file {path}: {error}"
            ) from error
