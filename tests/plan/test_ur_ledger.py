"""The stage-1 ledger is the only count of the UR scan's wire traffic.

Every UR outcome is counted by its group's engine into the group's
``ScanMetrics``; the pipeline keeps an outcome only if it carried URs,
and then only as its unit index and its URs.  The report's
``queries_sent``, ``responses_seen`` and ``timeouts`` are read from the
merged ledger's ``"ur"`` stage.  Both halves are pinned at small scale,
seed 7:

* the report's counters equal the ledger's, and both equal the sums
  over every raw UR outcome — attempts, answered outcomes, attempts
  minus answers — under loss, hedging, AIMD, deadlines and a chaos
  script;
* every slot a cold ``--result-store`` run writes holds only outcomes
  that carry URs, each as ``[index, urs]``.
"""

import json

import pytest

from repro.cli import EXIT_OK, build_parser, main
from repro.runspec import RunSpec

SMALL = ["--scale", "small", "--seed", "7"]
LOSSY_HEDGED = ["--loss-rate", "0.05", "--hedge-delay", "0.5", "--aimd"]

COUNTER_RUNS = {
    "clean": [],
    "lossy-hedged-aimd": LOSSY_HEDGED,
    "run-deadline-0.36": ["--run-deadline", "0.36"],
    "lossy-run-deadline-20": ["--loss-rate", "0.05", "--run-deadline", "20"],
    "tail-latency-storm": ["--chaos-script", "tail-latency-storm"],
}


@pytest.mark.parametrize("flags", COUNTER_RUNS.values(), ids=COUNTER_RUNS)
def test_report_counters_are_the_ledgers_and_the_raw_outcomes_sums(flags):
    spec = RunSpec.from_args(build_parser().parse_args(SMALL + flags + ["run"]))
    _, hunter = spec.build()
    collector = hunter.collector
    reduce_ur = collector.reduce_ur
    raw = []

    def counting(index, outcome):
        raw.append((outcome.attempts, outcome.answered))
        return reduce_ur(index, outcome)

    collector.reduce_ur = counting
    report = hunter.run(validate=False)
    ur = collector.metrics.stages["ur"]
    attempts = sum(sent for sent, _ in raw)
    answered = sum(1 for _, ok in raw if ok)
    assert len(raw) == hunter.plan.unit_counts()["ur"]
    assert attempts > 0
    if "--run-deadline" in flags:
        assert 0 < ur.shed < len(raw)
    assert (
        report.queries_sent,
        report.responses_seen,
        report.timeouts,
    ) == (ur.queries, ur.responses, ur.timeouts) == (
        attempts,
        answered,
        attempts - answered,
    )


@pytest.mark.parametrize(
    "flags", [[], LOSSY_HEDGED], ids=["clean", "lossy-hedged-aimd"]
)
def test_a_cold_store_keeps_only_outcomes_that_carry_urs(
    flags, tmp_path, capsys
):
    argv = SMALL + flags + ["--result-store", str(tmp_path), "run"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    slots = sorted(tmp_path.glob("group-*.json"))
    assert len(slots) == 145
    kept = 0
    for slot in slots:
        outcomes = json.loads(slot.read_text())["group"]["outcomes"]
        for outcome in outcomes:
            index, urs = outcome
            assert isinstance(index, int) and urs, slot.name
            assert all(record["rdata_text"] for record in urs)
        indices = [index for index, _ in outcomes]
        assert indices == sorted(set(indices))
        kept += len(outcomes)
    assert kept > 0
