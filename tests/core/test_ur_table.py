"""The UR table and its views against the object path they replaced.

Stage 1 keeps each unique UR as a row of interned columns
(:class:`URTable`), stage 2 writes its verdicts as columns beside the
rows (:class:`URVerdicts`), and the report reads both through
:class:`ReportEntries`.  Stage 2 used to build one ``ClassifiedUR`` per
record and the report a second list over the same entries; that object
path is kept here as the reference, and the views must equal it row for
row — order, category, reasons, TXT category — on a clean scan, under
5 % loss, and under a chaos script.

The memory gate pins what stages 1 and 2 leave live per unique UR
(rows, verdicts and everything else they keep), one ceiling at small
and default scale.
"""

import gc
import tracemalloc

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.collector import ProtectiveFingerprint
from repro.core.correctness import CorrectnessVerdict
from repro.core.records import (
    ClassifiedUR,
    ReportEntries,
    URCategory,
    URTable,
    URVerdicts,
    UndelegatedRecord,
)
from repro.core.suspicion import SuspicionFilter
from repro.core.txt import classify_txt
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.resilience.scenario import apply_scenario, load_scenario
from repro.scenario import ScenarioConfig, build_world, small_config

SEED = 7


def _record(domain, server="10.0.0.1", rrtype=RRType.A, rdata="1.1.1.1"):
    return UndelegatedRecord(
        name(domain), server, "prov", rrtype, rdata, name("ns1.prov"), 60
    )


RECORDS = [
    _record("a.example"),
    _record("A.example", rdata="2.2.2.2"),
    _record("b.example", server="10.0.0.2", rrtype=RRType.TXT, rdata="v=spf1"),
    _record("a.example", server="10.0.0.2"),
]


class TestURTable:
    def test_rows_read_back_as_appended(self):
        table = URTable(RECORDS)
        assert len(table) == len(RECORDS)
        assert table == RECORDS and RECORDS == table
        assert list(table) == RECORDS
        assert [table[i] for i in range(len(table))] == RECORDS
        assert table[-1] == RECORDS[-1]
        assert table[1:3] == RECORDS[1:3]
        with pytest.raises(IndexError):
            table[len(RECORDS)]

    def test_values_are_interned_and_spellings_kept(self):
        table = URTable(RECORDS)
        assert [row.domain.labels[0] for row in table] == ["a", "A", "b", "a"]
        assert len(table.domains) == 3
        assert len(table.servers) == 2
        assert table.rdatas == ["1.1.1.1", "2.2.2.2", "v=spf1"]

    def test_take_is_sealed_and_in_the_given_order(self):
        taken = URTable(RECORDS).take([3, 0])
        assert taken == [RECORDS[3], RECORDS[0]]
        with pytest.raises(TypeError):
            taken.append(RECORDS[0])

    def test_equality_is_by_value(self):
        assert URTable() == []
        assert URTable(RECORDS) != RECORDS[:2]
        assert URTable(RECORDS) != RECORDS[::-1]
        assert URTable(RECORDS) == URTable(RECORDS)
        with pytest.raises(TypeError):
            hash(URTable())


class TestVerdictViews:
    def _entries(self):
        categories = (
            URCategory.CORRECT,
            URCategory.UNKNOWN,
            URCategory.PROTECTIVE,
            URCategory.UNKNOWN,
        )
        return [
            ClassifiedUR(
                record,
                category,
                ("survived-exclusion",)
                if category.is_suspicious
                else (category.value,),
                (),
                "spf" if record.rrtype == RRType.TXT else None,
            )
            for record, category in zip(RECORDS, categories)
        ]

    def test_verdicts_equal_their_entries(self):
        entries = self._entries()
        verdicts = URVerdicts.from_entries(entries)
        assert verdicts == entries
        assert verdicts[2] == entries[2]
        assert verdicts.select([URCategory.UNKNOWN]) == [
            entries[1],
            entries[3],
        ]
        # one reasons tuple per distinct verdict
        assert verdicts[1].reasons is verdicts[3].reasons

    def test_a_stage2_entry_names_no_corresponding_ip(self):
        entry = self._entries()[0]
        entry.corresponding_ips = ("192.0.2.1",)
        with pytest.raises(ValueError):
            URVerdicts.from_entries([entry])

    def test_report_entries_are_the_clean_rows_then_the_refined(self):
        entries = self._entries()
        refined = [
            ClassifiedUR(entry.record, URCategory.MALICIOUS, entry.reasons)
            for entry in entries
            if entry.is_suspicious
        ]
        report = ReportEntries(URVerdicts.from_entries(entries), refined)
        expected = [entries[0], entries[2], *refined]
        assert list(report) == expected
        assert report == expected
        assert [report[i] for i in range(-len(expected), 0)] == expected
        assert report[1:3] == expected[1:3]
        with pytest.raises(IndexError):
            report[len(expected)]


class _Checker:
    """A deterministic checker that notes what it is asked: an A record
    at 1.1.1.1 is correct, every other record survives."""

    memoizable = True
    memo_hits = memo_misses = 0
    pdns = ipinfo = None

    def __init__(self):
        self.asked = []

    def check_cached(self, record, now):
        self.asked.append(record)
        if record.rdata_text == "1.1.1.1":
            return CorrectnessVerdict(True, "ip")
        return CorrectnessVerdict(False)

    check = check_cached


def test_both_stage2_paths_fill_the_same_verdict_columns():
    records = [
        *RECORDS,
        _record("A.EXAMPLE", server="10.0.0.3", rdata="2.2.2.2"),
        _record("b.example", rrtype=RRType.TXT, rdata="v=spf1"),
    ]
    protective = {
        "10.0.0.2": ProtectiveFingerprint(
            "10.0.0.2", {(RRType.A, "1.1.1.1")}
        )
    }
    checker = _Checker()
    grouped = SuspicionFilter(checker, protective).classify(records, 0.0)
    naive = SuspicionFilter(_Checker(), protective, memoize=False)
    assert grouped.classified == naive.classify(records, 0.0).classified
    assert grouped.classified.table == records
    assert [entry.category for entry in grouped.classified] == [
        URCategory.CORRECT,
        URCategory.UNKNOWN,
        URCategory.UNKNOWN,
        URCategory.PROTECTIVE,
        URCategory.UNKNOWN,
        URCategory.UNKNOWN,
    ]
    # one evaluation per (domain, type, rdata) key, a domain's spellings
    # being one key, asked with its first row
    assert checker.asked == [records[0], records[1], records[2]]
    assert grouped.classified[4].record.domain.labels == ("A", "EXAMPLE")
    assert grouped.classified[1].reasons is grouped.classified[4].reasons


# -- the object path ---------------------------------------------------------


def _object_classify(suspicion, records, now):
    """Stage 2 as it was before the table: one ``ClassifiedUR`` per
    record, each distinct key evaluated once (in first-occurrence
    order) when the checker may memoize, every record on its own
    otherwise."""
    checker = suspicion.checker

    def protective(record):
        fingerprint = suspicion.protective.get(record.nameserver_ip)
        return fingerprint is not None and fingerprint.matches(
            record.rrtype, record.rdata_text
        )

    def entry(record, verdict):
        txt = (
            classify_txt(record.rdata_text)
            if record.rrtype == RRType.TXT
            else None
        )
        if verdict is None:
            return ClassifiedUR(
                record, URCategory.PROTECTIVE, ("protective-fingerprint",),
                txt_category=txt,
            )  # fmt: skip
        if verdict.is_correct:
            return ClassifiedUR(
                record,
                URCategory.CORRECT,
                (verdict.matched_condition or "uniformity",),
                txt_category=txt,
            )
        reasons = ("survived-exclusion",)
        if verdict.degraded_conditions:
            reasons += (
                "unverifiable:"
                + "+".join(sorted(verdict.degraded_conditions)),
            )
        return ClassifiedUR(
            record, URCategory.UNKNOWN, reasons, txt_category=txt
        )

    if not checker.memoizable:
        return [
            entry(
                record,
                None if protective(record) else checker.check(record, now),
            )
            for record in records
        ]
    pending = {}
    for record in records:
        if not protective(record):
            key = (record.domain, record.rrtype, record.rdata_text)
            pending.setdefault(key, record)
    verdicts = {
        key: checker.check_cached(record, now)
        for key, record in pending.items()
    }
    return [
        entry(
            record,
            None
            if protective(record)
            else verdicts[(record.domain, record.rrtype, record.rdata_text)],
        )
        for record in records
    ]


def _hunter(mode):
    world = build_world(small_config(seed=SEED))
    if mode == "lossy":
        world.network.inject_faults(loss_rate=0.05, seed=SEED)
    hunter = URHunter.from_world(world, HunterConfig())
    if mode == "chaos":
        apply_scenario(load_scenario("tail-latency-storm"), world, hunter)
    return hunter


@pytest.mark.parametrize("mode", ["clean", "lossy", "chaos"])
def test_views_equal_the_object_path_row_for_row(mode):
    hunter = _hunter(mode)
    reference = _hunter(mode)
    stage1 = hunter.stage1_collect()
    table = stage1.collection.undelegated
    assert isinstance(table, URTable)
    records = list(table)
    reference_stage1 = reference.stage1_collect()
    assert reference_stage1.collection.undelegated == records

    stage2 = hunter.stage2_exclude(stage1)
    verdicts = stage2.outcome.classified
    assert isinstance(verdicts, URVerdicts) and verdicts.table is table
    expected = _object_classify(
        reference._stage2_filter(reference_stage1.collection.protective),
        records,
        reference_stage1.now,
    )
    assert len(verdicts) == len(expected)
    for row, (got, want) in enumerate(zip(verdicts, expected)):
        assert got == want, row
    assert [verdicts[row] for row in range(len(expected))] == expected
    suspicious = [entry for entry in expected if entry.is_suspicious]
    assert stage2.outcome.suspicious == suspicious
    assert suspicious, "no suspicious UR to refine"
    reasons = {entry.reasons for entry in expected}
    assert len(verdicts.reason_table) == len(reasons)

    stage3 = hunter.stage3_analyze(stage2)
    report = hunter.build_report(stage1, stage2, stage3)
    assert isinstance(report.classified, ReportEntries)
    clean = [entry for entry in expected if not entry.is_suspicious]
    assert report.classified == clean + stage3.analysis.classified
    assert {entry.category for entry in clean} == {
        URCategory.CORRECT,
        URCategory.PROTECTIVE,
    }


# -- memory ceiling ----------------------------------------------------------

#: bytes stages 1 and 2 leave live per unique UR at seed 7, plus 15 %:
#: 727 at small scale (1,661 URs) and 579 at default scale (6,070) on
#: CPython 3.11, 763 / 587 on 3.10, 726 / 577 on 3.12.  The object path
#: (a record object per row, a classified entry per row, each answer's
#: codec key nested per section) kept 1,189 / 1,021 on 3.11.
STAGE12_BYTES_PER_UR_CEILING = 727 * 1.15


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(small_config(seed=SEED), id="small"),
        pytest.param(ScenarioConfig(seed=SEED), id="default"),
    ],
)
def test_stage12_bytes_retained_per_unique_ur_stay_under_one_ceiling(config):
    hunter = URHunter.from_world(build_world(config))
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        stage1 = hunter.stage1_collect()
        stage2 = hunter.stage2_exclude(stage1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    urs = len(stage2.outcome.classified)
    assert urs > 1000
    assert retained / urs <= STAGE12_BYTES_PER_UR_CEILING
