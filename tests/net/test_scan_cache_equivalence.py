"""The scan-path fast lane against its reference path, end to end.

``SimulatedInternet.scan_cache_enabled = False`` keeps the naive path:
every exchange encoded and decoded, every answer built from the zone.
The switch has no CLI or config spelling, so this is where the two
paths are held equal over a whole run — report, deterministic trace
and deterministic metrics — clean, and under 5 % loss with hedging,
AIMD and the ``tail-latency-storm`` chaos script.
"""

import json

import pytest

from repro.core import HunterConfig, URHunter
from repro.net.scanpath import ScanPathMetrics
from repro.obs import RunTrace, build_metrics_document
from repro.resilience.scenario import apply_scenario, load_scenario
from repro.scenario import build_world, small_config

SEED = 7


def _cache_hits(network) -> int:
    path = ScanPathMetrics.from_network(network).to_dict()
    return sum(
        count for name, count in path.items() if name.endswith("_hits")
    )


def _run(faulted: bool, scan_cache: bool):
    world = build_world(small_config(seed=SEED))
    world.network.scan_cache_enabled = scan_cache
    hits_before = _cache_hits(world.network)
    knobs = {}
    if faulted:
        world.network.inject_faults(loss_rate=0.05, seed=SEED)
        knobs = {"hedge_delay": 0.25, "aimd": True}
    hunter = URHunter.from_world(world, HunterConfig(**knobs))
    if faulted:
        apply_scenario(load_scenario("tail-latency-storm"), world, hunter)
    trace = RunTrace()
    hunter.attach_trace(trace)
    report = hunter.run()
    document = build_metrics_document(report, fingerprint="pinned")
    surfaces = (
        report.summary(),
        trace.deterministic_lines(),
        json.dumps(document["deterministic"], sort_keys=True),
    )
    return surfaces, hunter, _cache_hits(world.network) - hits_before


@pytest.mark.parametrize(
    "faulted", [False, True], ids=["clean", "loss-5pct-storm"]
)
def test_naive_path_reproduces_the_fast_lane(faulted):
    fast, fast_hunter, fast_hits = _run(faulted, scan_cache=True)
    naive, naive_hunter, naive_hits = _run(faulted, scan_cache=False)
    assert naive == fast
    assert fast_hunter.network.now == naive_hunter.network.now
    # both paths really ran: the fast lane served from its caches, the
    # reference path never read one
    assert fast_hits > 10_000
    assert naive_hits == 0
    lane = ScanPathMetrics.from_network(fast_hunter.network)
    assert lane.compiled_hits > 0 and lane.query_hits > 0
    if faulted:
        assert fast_hunter.resilience.hedges_fired > 0
        assert fast_hunter.engine.metrics.retries > 0
