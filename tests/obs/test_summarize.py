"""``repro trace summarize``'s virtual-time table: every phase is placed
on the run's clock, and phases that ran side by side are not added up."""

import pytest

from repro.core import URHunter
from repro.obs import RunTrace
from repro.obs.summarize import summarize_trace
from repro.scenario import build_world, small_config


def test_total_is_the_latest_phase_end_not_the_sum(tmp_path):
    path = tmp_path / "trace.jsonl"
    trace = RunTrace(path)
    hunter = URHunter.from_world(build_world(small_config(seed=7)))
    hunter.attach_trace(trace)
    origin = hunter.network.now
    hunter.run()
    trace.finalize()
    elapsed = hunter.network.now - origin

    phases = {
        event["phase"]: event
        for event in trace.timing_events()
        if event["event"] == "phase.makespan"
    }
    assert list(phases) == ["protective", "correct", "ur", "sample"]
    assert phases["protective"]["start"] == 0.0
    # the correct collection and the UR scan share the scan start
    assert phases["correct"]["start"] == phases["ur"]["start"] > 0
    ends = [event["start"] + event["makespan"] for event in phases.values()]
    assert max(ends) == pytest.approx(elapsed, abs=1e-9)
    # adding the makespans up counts the side-by-side phases twice
    assert sum(event["makespan"] for event in phases.values()) > elapsed + 1

    table = summarize_trace(path)
    table = table[table.index("virtual time:"):].splitlines()
    assert table[0].startswith(f"virtual time: {elapsed:.2f}s in 4 phases")
    assert round(elapsed, 2) == 2.93
    windows = [line.split()[2:4] for line in table[1:5]]
    assert windows == [
        ["[0.00,", "0.05]"],
        ["[0.05,", "2.69]"],
        ["[0.05,", "2.05]"],
        ["[2.69,", "2.93]"],
    ]
