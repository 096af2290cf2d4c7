"""Command-line flags spelled in prose are flags the CLI accepts."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ["README.md", ".claude/skills/verify/SKILL.md"]

#: flags of other command lines the documents show
#: (``python -m benchmarks.e2e``, pytest-benchmark)
OTHER_PROGRAMS = {
    "--smoke", "--out", "--workload", "--seconds", "--trace",
    "--benchmark-only",
}  # fmt: skip
#: flags a document names to say they are gone (PR 17: exit 2)
REMOVED = {
    "--engine", "--max-concurrency", "--no-scan-cache",
    "--no-stage2-memoize",
}  # fmt: skip

_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def accepted_flags(parser):
    """Every long option of ``parser`` and of its sub-commands."""
    flags = set()
    for action in parser._actions:
        flags.update(
            option for option in action.option_strings if option[:2] == "--"
        )
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                flags |= accepted_flags(subparser)
    return flags


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_flag_in_prose_is_accepted_by_the_cli(document):
    spelled = set(_FLAG.findall((ROOT / document).read_text()))
    accepted = accepted_flags(build_parser())
    assert not REMOVED & accepted
    assert sorted(spelled - accepted - OTHER_PROGRAMS - REMOVED) == []
