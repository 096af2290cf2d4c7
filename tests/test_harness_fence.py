"""The names the frozen ``benchmarks/e2e`` harness still reads.

``benchmarks/e2e/runner.py`` imports, rebinds, wraps or reads each name
below; stages 2 and 3 no longer use any of them, and nothing calls
``WireCodecCache.decode``.  This test touches every one the way the
harness does, so none is deleted while the harness still reads it; the
stage-2/3 names go when the harness stops reading them (ROADMAP item 2).
"""

from collections import Counter

import repro.core.hunter as hunter_module
import repro.dns.wire as wire
import repro.net.network as network
from repro.core import HunterConfig, URHunter
from repro.dns.message import Message
from repro.dns.rdata import RRType
from repro.obs import build_metrics_document
from repro.pipeline import CheckpointStore, PipelineRunner
from repro.pipeline.checkpoint import config_fingerprint
from repro.scenario import build_world, small_config


def _never_called(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} is a fenced name; nothing calls it")

    return refuse


def test_fenced_names_are_read_and_never_called(tmp_path, monkeypatch):
    from repro.flow.nodes import AnalysisNode, SuspicionNode, TransformNode

    # install_wrappers: node steps rebound, run_flow and save_segment
    # wrapped (run is not: it stays the one executor)
    assert callable(TransformNode.step)
    monkeypatch.setattr(SuspicionNode, "step", _never_called("step"))
    monkeypatch.setattr(AnalysisNode, "step", _never_called("step"))
    assert URHunter.run_flow is URHunter.run
    monkeypatch.setattr(URHunter, "run_flow", _never_called("run_flow"))
    assert CheckpointStore.save_segment is CheckpointStore.save
    monkeypatch.setattr(
        CheckpointStore, "save_segment", _never_called("save_segment")
    )
    assert callable(hunter_module.run_shard_scan)

    # _run: the scan_durable workload's config, runner and metrics call
    config = HunterConfig(execution="stream")
    hunter = URHunter.from_world(build_world(small_config(seed=7)), config)
    runner = PipelineRunner(
        hunter,
        store=CheckpointStore(tmp_path / "checkpoints"),
        scenario_fingerprint="fence",
        checkpoint_every=200,
    )
    report = runner.run(validate=True).report
    assert hunter.last_flow_stats is None
    document = build_metrics_document(
        report,
        execution=config.execution,
        stage2_workers=config.stage2_workers,
        channel_depth=config.channel_depth,
        shards=config.shards,
        shard_workers=config.shard_workers,
        flow_metrics=None,
    )
    assert document["timing"]["context"] == {
        "execution": "batch",
        "stage2_workers": 1,
        "channel_depth": 64,
        "shards": 1,
        "shard_workers": 1,
    }


def test_fenced_constants_reach_no_fingerprint(monkeypatch):
    base = config_fingerprint(HunterConfig())
    monkeypatch.setattr(HunterConfig, "stage2_workers", 4)
    monkeypatch.setattr(HunterConfig, "channel_depth", 2)
    assert config_fingerprint(HunterConfig(execution="stream")) == base


def test_checkpoint_every_changes_no_checkpoint_byte(tmp_path):
    """The harness passes ``checkpoint_every=200``: the checkpoint
    directory it gets is the one a run without it writes."""

    def files(directory, checkpoint_every):
        hunter = URHunter.from_world(build_world(small_config(seed=7)))
        PipelineRunner(
            hunter,
            store=CheckpointStore(directory),
            scenario_fingerprint="fence",
            checkpoint_every=checkpoint_every,
        ).run()
        return {
            path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*.json"))
        }

    assert files(tmp_path / "every", 200) == files(tmp_path / "none", 0)


def test_wrapped_codec_names_are_the_ones_the_transport_calls(monkeypatch):
    """With ``--trace 1`` the harness wraps the codec cache's four
    methods and the transport module's two codec functions by name: the
    transport must reach them through those names, and the uncached
    ``WireCodecCache.decode`` alias must stay callable yet unused."""
    calls = Counter()

    def counting(label, function):
        def counted(*args, **kwargs):
            calls[label] += 1
            return function(*args, **kwargs)

        return counted

    codec = wire.WireCodecCache
    for attribute in ("encode", "decode", "query_hit", "query_store"):
        monkeypatch.setattr(
            codec, attribute, counting(attribute, getattr(codec, attribute))
        )
    for attribute in ("encode_message", "decode_message"):
        assert getattr(network, attribute) is getattr(wire, attribute)
        monkeypatch.setattr(
            network,
            attribute,
            counting(f"network.{attribute}", getattr(network, attribute)),
        )
    hunter = URHunter.from_world(build_world(small_config(seed=7)))
    hunter.stage1_collect()
    for label in (
        "encode",
        "query_hit",
        "query_store",
        "network.encode_message",
        "network.decode_message",
    ):
        assert calls[label] > 0, label
    assert calls["decode"] == 0
    query = wire.encode_message(Message.make_query("fence.example", RRType.A))
    assert codec().decode(query) == wire.decode_message(query)
