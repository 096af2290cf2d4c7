"""Schema-stability tests pinning the trace/metrics formats.

These tests are the compatibility contract: any change to the JSONL
layout, the canonical key sets, or the deterministic/timing split must
bump the corresponding format version *and* update the pins here.

CI reuses this module to validate real artifacts: when
``URHUNTER_TRACE_FILE`` / ``URHUNTER_METRICS_FILE`` point at files
produced by a ``--trace-out``/``--metrics-out`` run, those files are
validated instead of generating fresh ones in-process.
"""

import json
import os
from pathlib import Path

import pytest

from repro import cli
from repro.obs import METRICS_FORMAT_VERSION, TRACE_FORMAT_VERSION

#: pinned versions — bump deliberately, with a changelog entry
#: (v2: resilience layer — shed counters, hedge/aimd/budget events,
#: optional "resilience" deterministic metrics section;
#: metrics v3: optional "scan_path" timing block — cache hit/miss
#: tallies vary with the fast-lane knobs, so they are timing, never
#: deterministic;
#: trace v3: scan-plan hash in the header of plan-bound traces, the
#: "plan.built" deterministic event, and "shard.*" timing events;
#: metrics v4: optional "incremental" timing block — group-result-store
#: hit/miss counters depend on prior-run state, so timing, never
#: deterministic; trace v4: no checkpoint or stage-resumed events, and
#: "run.end" without "resumed"/"executed"; metrics v5: the
#: "stage2_exclusion" timing block without pdns/ipinfo cache counters)
PINNED_TRACE_FORMAT = 4
PINNED_METRICS_FORMAT = 5

#: every run.end must account for queries with exactly these counters
RUN_END_REQUIRED = {
    "event",
    "seq",
    "status",
    "classified",
    "suspicious",
    "queries",
    "responses",
    "timeouts",
    "giveups",
    "skipped",
    "shed",
    "unaccounted",
}

REPORT_BLOCK_KEYS = {
    "classified",
    "categories",
    "suspicious",
    "queries_sent",
    "responses_seen",
    "timeouts",
    "txt_without_ip",
    "false_negative_rate",
}

SCAN_ENGINE_KEYS = {
    "queries",
    "responses",
    "timeouts",
    "retries",
    "giveups",
    "skipped",
    "shed",
    "loss_rate",
    "stages",
    "latency",
}

STAGE2_KEYS = {
    "records",
    "protective_matches",
    "distinct_keys",
    "cache_hits",
    "cache_misses",
    "memoized",
    "dedup_factor",
    "cache_hit_rate",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """(trace path, metrics path): CI artifacts if provided, else a
    fresh small run."""
    trace_env = os.environ.get("URHUNTER_TRACE_FILE")
    metrics_env = os.environ.get("URHUNTER_METRICS_FILE")
    if trace_env and metrics_env:
        return Path(trace_env), Path(metrics_env)
    base = tmp_path_factory.mktemp("obs-artifacts")
    trace_path = base / "trace.jsonl"
    metrics_path = base / "metrics.json"
    code = cli.main(
        [
            "--scale",
            "small",
            "--seed",
            "9",
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(metrics_path),
            "-q",
            "run",
        ]
    )
    assert code == 0
    return trace_path, metrics_path


@pytest.fixture(scope="module")
def trace_lines(artifacts):
    return [
        json.loads(line)
        for line in artifacts[0].read_text().splitlines()
        if line.strip()
    ]


@pytest.fixture(scope="module")
def metrics_doc(artifacts):
    return json.loads(artifacts[1].read_text())


class TestVersionPins:
    def test_trace_format_is_pinned(self):
        assert TRACE_FORMAT_VERSION == PINNED_TRACE_FORMAT

    def test_metrics_format_is_pinned(self):
        assert METRICS_FORMAT_VERSION == PINNED_METRICS_FORMAT


class TestTraceSchema:
    def test_header_line(self, trace_lines):
        header = trace_lines[0]
        assert header["event"] == "trace.header"
        assert header["format"] == PINNED_TRACE_FORMAT
        # CLI runs bind the scan plan, stamping its content hash into
        # the header; nothing else may appear there
        assert set(header) <= {"event", "format", "plan"}
        if "plan" in header:
            assert len(header["plan"]) == 64
            int(header["plan"], 16)

    def test_every_line_has_an_event_name(self, trace_lines):
        assert all("event" in line for line in trace_lines)

    def test_deterministic_lines_never_carry_section(self, trace_lines):
        deterministic = [
            line
            for line in trace_lines[1:]
            if line.get("section") != "timing"
        ]
        assert deterministic, "trace has no deterministic events"
        assert all("section" not in line for line in deterministic)

    def test_deterministic_seq_is_dense(self, trace_lines):
        seqs = [
            line["seq"]
            for line in trace_lines[1:]
            if line.get("section") != "timing"
        ]
        assert seqs == list(range(len(seqs)))

    def test_run_boundaries(self, trace_lines):
        deterministic = [
            line
            for line in trace_lines[1:]
            if line.get("section") != "timing"
        ]
        assert deterministic[0]["event"] == "run.start"
        assert "fingerprint" in deterministic[0]
        assert deterministic[-1]["event"] == "run.end"

    def test_run_end_loss_accounting(self, trace_lines):
        (run_end,) = [
            line for line in trace_lines if line["event"] == "run.end"
        ]
        assert RUN_END_REQUIRED <= set(run_end)
        assert run_end["unaccounted"] == 0

    def test_run_end_carries_the_loss_ledger_only(self, trace_lines):
        """Trace v4: a resume runs every stage, so ``run.end`` no longer
        names resumed and executed stages."""
        (run_end,) = [
            line for line in trace_lines if line["event"] == "run.end"
        ]
        assert set(run_end) == RUN_END_REQUIRED

    def test_stage_spans_are_balanced(self, trace_lines):
        opens = sum(
            1 for line in trace_lines if line["event"] == "stage.start"
        )
        closes = sum(
            1 for line in trace_lines if line["event"] == "stage.end"
        )
        assert opens == closes


class TestMetricsSchema:
    def test_top_level_layout(self, metrics_doc):
        assert set(metrics_doc) == {"format", "deterministic", "timing"}
        assert metrics_doc["format"] == PINNED_METRICS_FORMAT

    def test_report_block_keys(self, metrics_doc):
        report = metrics_doc["deterministic"]["report"]
        assert set(report) == REPORT_BLOCK_KEYS

    def test_scan_engine_keys(self, metrics_doc):
        scan = metrics_doc["deterministic"]["scan_engine"]
        assert set(scan) == SCAN_ENGINE_KEYS

    def test_stage2_keys(self, metrics_doc):
        stage2 = metrics_doc["deterministic"]["stage2_exclusion"]
        assert set(stage2) == STAGE2_KEYS

    def test_fingerprint_present(self, metrics_doc):
        assert "fingerprint" in metrics_doc["deterministic"]

    def test_wall_clock_confined_to_timing(self, metrics_doc):
        for token in ("wall_s", "records_per_s", "condition_s"):
            assert token not in json.dumps(metrics_doc["deterministic"])
        assert "wall_s" in json.dumps(metrics_doc["timing"])
