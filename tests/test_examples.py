"""The sub-second examples run to completion (the others build a
default-scale world: 2-5 s each)."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    ["provider_policy_audit.py", "related_attacks_comparison.py"],
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_covert_channel_demo_taps_the_victims_traffic(capsys):
    runpy.run_path(
        str(EXAMPLES / "covert_channel_demo.py"), run_name="__main__"
    )
    flows = capsys.readouterr().out.split("would see):\n")[1].splitlines()
    # the two UR retrievals and the C2 connection; the recursive
    # resolver's own lookups (step ④) are not the victim's
    assert [line.split("] ")[1] for line in flows] == [
        "192.0.2.50 -> 10.1.0.1:53 dns qname=trusted.com",
        "192.0.2.50 -> 10.1.0.1:53 dns qname=trusted.com",
        "192.0.2.50 -> 203.0.113.66:4444 tcp",
    ]
