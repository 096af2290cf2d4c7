"""A detonation records the same traffic whenever it runs.

``URHunter.__init__`` used to write its capture-fidelity knob into the
world's one shared flow log, so after a hunter built with the knob off
every later detonation on that world recorded 0 flows and raised 0
alerts.  The sandbox now opens its own tap; nothing a hunter is built
with or does can thin what a detonation sees.
"""

import dataclasses

from repro.core import HunterConfig, URHunter
from repro.net.traffic import Protocol
from repro.sandbox.sandbox import Sandbox
from repro.scenario import build_world, small_config


def _observed(report, victim=None):
    """Flows (the clock aside; only ``victim``'s own if one is named),
    alerts, contacted IPs, DNS questions."""
    flows = [
        dataclasses.astuple(flow)[1:]
        for flow in report.capture
        if victim is None or flow.src == victim
    ]
    alerts = [
        (alert.sid, alert.severity, dataclasses.astuple(alert.flow)[1:])
        for alert in report.alerts
    ]
    questions = (
        list(report.capture.dns_questions()) if victim is None else None
    )
    contacted = {
        flow.dst
        for flow in report.capture
        if flow.protocol is not Protocol.DNS
    }
    return flows, alerts, contacted, questions


def test_a_detonation_records_the_same_traffic_whenever_it_runs():
    world = build_world(small_config(seed=7))
    victim = world.sandbox.victim_ip
    at_build = {}
    for report in world.sandbox_reports:
        at_build.setdefault(report.sample.family, report)
    assert len(at_build) == 6

    def detonate_again():
        sandbox = Sandbox(
            world.network, victim, world.sandbox.default_resolver_ip
        )
        return {
            family: sandbox.run(report.sample)
            for family, report in at_build.items()
        }

    URHunter.from_world(world, HunterConfig(retries=0))
    hunter = URHunter.from_world(world)
    # the recursive resolver is still warm from the build: it asks
    # upstream less, the victim's own exchanges are the same
    for family, report in detonate_again().items():
        assert report.capture.flows and report.alerts
        assert _observed(report, victim) == _observed(
            at_build[family], victim
        ), family
    hunter.run()
    # every group pin left the resolver cold, as it was at the build
    for family, report in detonate_again().items():
        assert _observed(report) == _observed(at_build[family]), family
