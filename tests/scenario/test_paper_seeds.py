"""Paper-scale worlds that used to die in ``_build_case_studies``.

At paper scale a generic campaign of the attacker's ClouDNS account
sometimes already hosts ``ibm.com`` (or another case-study domain) when
the Specter / Dark.IoT case study comes to plant it; the provider then
refuses the duplicate, and the build died on a bare assert — seeds 9,
18, 19, 37 and 39 of 0-39, ROADMAP's pinned ``--seed 9 --scale paper``
among them.  The case study now rides the account's existing zone.
"""

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.correctness import CorrectRecordDatabase
from repro.core.hunter import Stage1Result
from repro.core.records import URTable
from repro.scenario import (
    ScenarioError,
    build_world,
    paper_scale_config,
    small_config,
)
from repro.scenario.attacker import Attacker


@pytest.mark.parametrize("seed", [7, 9, 18, 19, 37, 39])
def test_paper_scale_seed_builds_with_fn_rate_zero(seed):
    world = build_world(paper_scale_config(seed))
    for family in ("Dark.IoT", "Specter", "SPF-masquerade"):
        assert world.case_studies[family].planted
    # the §4.2 validation reads the protective and correct collections
    # only, so the UR scan (most of a paper-scale run) is left out
    hunter = URHunter.from_world(world)
    correct_db = CorrectRecordDatabase(hunter.ipinfo)
    protective, scan_start = hunter.collector.collect_preamble(
        hunter.plan, correct_db, hunter.network.now
    )
    stage1 = Stage1Result(
        undelegated=URTable(),
        protective=protective,
        correct_db=correct_db,
        metrics=hunter.collector.metrics,
        now=scan_start,
        end=hunter.network.now,
    )
    assert hunter.stage2_exclude(stage1, validate=True).fn_rate == 0.0


def test_unplantable_case_study_names_provider_and_domain(monkeypatch):
    host = Attacker._host

    def refusing(self, campaign, provider, domain, *args):
        if domain == "ibm.com":
            return None
        return host(self, campaign, provider, domain, *args)

    monkeypatch.setattr(Attacker, "_host", refusing)
    with pytest.raises(ScenarioError, match="Specter.*ClouDNS.*ibm.com"):
        build_world(small_config(seed=7))
