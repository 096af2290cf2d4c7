"""The columnar scan plan against the object-per-unit plan it replaced.

``tests/plan/oracle.py`` keeps the old ``build_plan`` / ``_hash_plan`` /
``group_identity`` verbatim.  The columnar plan must be the same plan:
the same units in the same shuffled order (so the same ``Random(seed)``
draw sequence), the same groups, the same ``plan_hash`` (so the streamed
canonical JSON is byte-for-byte the old document), the same summaries,
and the same content address for every group (so a result store the old
code populated still replays) — on built worlds and on generated inputs,
duplicate and empty ones included.
"""

import json
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HunterConfig, URHunter
from repro.core.collector import DomainTarget, NameserverTarget
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.incremental import differ
from repro.incremental.store import group_identity
from repro.plan.scanplan import (
    COLLECTIONS,
    QueryUnit,
    _canonical_json,
    build_plan,
)
from repro.scenario import ScenarioConfig, build_world, small_config

from . import oracle

FIELDS = (
    "collection",
    "server_ip",
    "qname",
    "qtype",
    "recursion_desired",
    "tag",
)


def _fields(unit):
    return tuple(getattr(unit, field) for field in FIELDS)


def assert_same_plan(plan, expected, monkeypatch=None):
    assert plan.plan_hash == expected.plan_hash
    assert plan.unit_counts() == expected.unit_counts()
    for collection in COLLECTIONS:
        units = plan.units(collection)
        old_units = expected.units(collection)
        assert len(units) == len(old_units)
        for index, old in enumerate(old_units):
            unit = units[index]
            assert type(unit) is QueryUnit
            assert _fields(unit) == _fields(old)
            # the very objects the collector's handlers will be handed
            assert unit.tag is old.tag
            assert unit.qtype is old.qtype
        # the lazy task view stands for the same engine tasks
        tasks = plan.tasks(collection)
        assert len(tasks) == len(old_units)
        for task, old in zip(tasks, old_units):
            wanted = old.to_task()
            assert (
                task.server_ip,
                task.qname,
                task.qtype,
                task.stage,
                task.recursion_desired,
            ) == (
                wanted.server_ip,
                wanted.qname,
                wanted.qtype,
                wanted.stage,
                wanted.recursion_desired,
            )
            assert task.tag is wanted.tag
    assert [
        (group.index, group.server_ip, list(group.unit_indices))
        for group in plan.groups
    ] == [
        (group.index, group.server_ip, list(group.unit_indices))
        for group in expected.groups
    ]
    for group, old_group in zip(plan.groups, expected.groups):
        assert group_identity(plan, group) == oracle.group_identity(
            expected, old_group
        )
        group_tasks = plan.tasks("ur", group.unit_indices)
        assert [
            (task.server_ip, task.qname, task.qtype) for task in group_tasks
        ] == [
            (unit.server_ip, unit.qname, unit.qtype)
            for unit in map(
                expected.ur_units.__getitem__, old_group.unit_indices
            )
        ]
        assert {task.server_ip for task in group_tasks} == {group.server_ip}
    for shards in (1, 4):
        assert plan.summary(shards) == expected.summary(shards)
    if monkeypatch is not None:
        document = differ.plan_summary_json(plan)
        monkeypatch.setattr(differ, "group_identity", oracle.group_identity)
        assert document == differ.plan_summary_json(expected)


WORLDS = [
    pytest.param(small_config, 7, id="small-7"),
    pytest.param(small_config, 11, id="small-11"),
    pytest.param(ScenarioConfig, 7, id="default-7"),
    pytest.param(ScenarioConfig, 11, id="default-11"),
]


@pytest.mark.parametrize("scenario, seed", WORLDS)
def test_world_plan_equals_the_object_plan(scenario, seed, monkeypatch):
    hunter = URHunter.from_world(
        build_world(scenario(seed=seed)), HunterConfig()
    )
    expected = oracle.build_plan(
        hunter.nameservers,
        hunter.domains,
        hunter.delegated_to,
        hunter.open_resolver_ips,
        hunter.config,
    )
    assert len(expected.ur_units) > 1000
    assert_same_plan(hunter.plan, expected, monkeypatch)


def test_streamed_document_is_the_canonical_json():
    """Not only the digest: the pieces concatenate to the very string
    ``json.dumps(sort_keys=True, separators=(",", ":"))`` wrote."""
    hunter = URHunter.from_world(
        build_world(small_config(seed=7)), HunterConfig()
    )
    plan = hunter.plan
    scalars = dict(
        seed=plan.seed,
        probe_domain=plan.probe_domain,
        scanner_ip=plan.scanner_ip,
        query_types=plan.query_types,
    )
    streamed = "".join(
        _canonical_json(
            plan.protective_units,
            plan.correct_units,
            plan.ur_units,
            **scalars,
        )
    )
    document = json.loads(streamed)
    assert (
        json.dumps(document, sort_keys=True, separators=(",", ":"))
        == streamed
    )
    assert document["units"]["ur"][0] == [
        plan.ur_units[0].server_ip,
        plan.ur_units[0].qname.to_text(),
        int(plan.ur_units[0].qtype),
        False,
    ]
    assert len(document["units"]["correct"]) == len(plan.correct_units)


# -- generated inputs --------------------------------------------------------

#: addresses are opaque strings to the plan: two that need JSON
#: escaping ride along with the plain ones
ADDRESSES = [f"10.0.{index // 4}.{index % 4}" for index in range(10)] + [
    'quo"te\\slash',
    "caf\u00e9::1",
]
#: open resolvers come from a pool of their own: the correct collection
#: and the UR scan run side by side, so ``build_plan`` refuses a server
#: in both (``test_plan.TestSideBySideColumns``)
RESOLVER_ADDRESSES = [f"10.9.0.{index}" for index in range(4)] + [
    'res"olver\\',
    "caf\u00e9::53",
]
DOMAINS = [
    name(f"{label}.example") for label in ("a", "b", "shop", "_x", "y" * 40)
] + [name("deep.sub.example.org")]

nameserver_lists = st.lists(
    st.builds(
        NameserverTarget,
        address=st.sampled_from(ADDRESSES),
        provider=st.sampled_from(["p1", "p2"]),
    ),
    max_size=8,
)
domain_lists = st.lists(
    st.builds(
        DomainTarget,
        domain=st.sampled_from(DOMAINS),
        rank=st.integers(1, 1000),
    ),
    max_size=8,
)
delegations = st.dictionaries(
    st.sampled_from(DOMAINS),
    st.sets(st.sampled_from(ADDRESSES), max_size=6),
    max_size=8,
)
query_type_lists = st.lists(
    st.sampled_from([RRType.A, RRType.TXT, RRType.MX]),
    max_size=3,
    unique=True,
)


@settings(max_examples=150, deadline=None)
@given(
    nameservers=nameserver_lists,
    domains=domain_lists,
    delegated_to=delegations,
    resolvers=st.lists(st.sampled_from(RESOLVER_ADDRESSES), max_size=4),
    query_types=query_type_lists,
    seed=st.integers(0, 2**32),
)
def test_generated_plan_equals_the_object_plan(
    nameservers, domains, delegated_to, resolvers, query_types, seed
):
    config = SimpleNamespace(
        seed=seed,
        query_types=tuple(query_types),
        probe_domain="urhunter-probe-owned.net",
        scanner_ip="203.0.113.53",
    )
    args = (nameservers, domains, delegated_to, resolvers, config)
    assert_same_plan(build_plan(*args), oracle.build_plan(*args))


def test_views_are_values_not_identities():
    hunter = URHunter.from_world(
        build_world(small_config(seed=7)), HunterConfig()
    )
    units = hunter.plan.ur_units
    assert units[5] == units[5]
    assert units[5] is not units[5]
    assert units[-1] == units[len(units) - 1]
    with pytest.raises(IndexError):
        units[len(units)]
    tasks = hunter.plan.tasks("ur")
    assert tasks[5] is not tasks[5]
    assert tasks[5].tag is tasks[5].tag
    with pytest.raises(IndexError):
        tasks[len(tasks)]
    with pytest.raises(KeyError):
        hunter.plan.tasks("nope")


# -- memory ceilings ---------------------------------------------------------

#: bytes a planned unit may retain (the object plan kept ~165)
PLAN_BYTES_PER_UNIT = 16
#: bytes per unit ``build_plan`` may hold at its transient peak (the
#: object plan plus its one-shot canonical JSON peaked at ~450)
PLAN_PEAK_BYTES_PER_UNIT = 64


def test_default_scale_plan_stays_under_its_byte_ceilings():
    hunter = URHunter.from_world(
        build_world(ScenarioConfig(seed=7)), HunterConfig()
    )
    units = sum(hunter.plan.unit_counts().values())
    assert units > 40_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        plan = build_plan(
            hunter.nameservers,
            hunter.domains,
            hunter.delegated_to,
            hunter.open_resolver_ips,
            hunter.config,
        )
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.plan_hash == hunter.plan.plan_hash
    assert (current - before) / units <= PLAN_BYTES_PER_UNIT
    assert (peak - before) / units <= PLAN_PEAK_BYTES_PER_UNIT
