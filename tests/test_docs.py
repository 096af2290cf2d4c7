"""Command-line flags, modules and file paths spelled in prose exist."""

import argparse
import importlib
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


#: documents whose module names and file paths must resolve
MAPS = ["README.md", "DESIGN.md"]

_MODULE = re.compile(r"`(repro(?:\.\w+)+)`")
_PATH = re.compile(r"`((?:[\w-]+/)+[\w-]+\.py)`")


def resolves(dotted):
    """Import the longest module prefix of ``dotted``; the rest must be
    attributes of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize("document", MAPS)
def test_every_module_in_prose_exists(document):
    named = set(_MODULE.findall((ROOT / document).read_text()))
    assert sorted(dotted for dotted in named if not resolves(dotted)) == []


@pytest.mark.parametrize("document", MAPS)
def test_every_file_path_in_prose_exists(document):
    """A path names a file from the repository root or, for a package
    module such as ``dns/wire.py``, from ``src/repro``."""
    named = set(_PATH.findall((ROOT / document).read_text()))
    missing = [
        path
        for path in named
        if not (ROOT / path).is_file()
        and not (ROOT / "src" / "repro" / path).is_file()
    ]
    assert sorted(missing) == []
