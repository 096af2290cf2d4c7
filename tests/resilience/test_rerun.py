"""One hunter run twice: each run keeps its own stage-1 ledger and
measures its run deadline from its own start.

A second run is a fresh measurement of the same world: its resilience
counters are its own (not the first run's plus its own), the first
report does not change under it, and its run deadline is not spent
before it starts.
"""

from repro.core import HunterConfig, URHunter
from repro.scenario import build_world, small_config

SEED = 7


def _hunter(lossy=False, **knobs):
    world = build_world(small_config(seed=SEED))
    if lossy:
        world.network.inject_faults(loss_rate=0.05, seed=SEED)
    return URHunter.from_world(world, HunterConfig(**knobs))


def _resilience_block(report):
    lines = report.summary().splitlines()
    start = lines.index("resilience metrics:")
    block = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        block.append(line)
    return block


def _hedged():
    return _hunter(lossy=True, hedge_delay=0.5, aimd=True)


def test_second_run_reports_its_own_resilience_counters():
    hunter = _hedged()
    block = _resilience_block(hunter.run())
    assert "  hedges: fired=742 won=700 wasted=42" in block
    second = hunter.run()
    assert _resilience_block(second) == block
    assert hunter.resilience.to_dict() == second.resilience_metrics.to_dict()


def test_first_report_is_unchanged_by_a_second_run():
    hunter = _hedged()
    first = hunter.run()
    rendered = first.summary()
    resilience = first.resilience_metrics.to_dict()
    hunter.run()
    assert first.summary() == rendered
    assert first.resilience_metrics.to_dict() == resilience


def test_second_run_measures_its_deadline_from_its_own_start():
    rerun = _hunter(run_deadline=3.0)
    rerun.run()
    again = rerun.network.now
    second = rerun.run()

    fresh = _hunter(run_deadline=3.0)
    fresh.network.tick(again - fresh.network.now)
    alone = fresh.run()

    assert second.scan_metrics.shed == alone.scan_metrics.shed == 0
    assert len(second.classified) == len(alone.classified)
    assert second.summary() == alone.summary()
