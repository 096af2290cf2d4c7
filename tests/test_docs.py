"""Command-line flags, modules and file paths spelled in prose exist."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ["README.md", ".claude/skills/verify/SKILL.md"]

#: flags of other command lines the documents show
#: (``python -m benchmarks.e2e``, pytest-benchmark, ``tests/golden/runs.py``)
OTHER_PROGRAMS = {
    "--smoke", "--out", "--workload", "--seconds", "--trace",
    "--benchmark-only", "--tier", "--write",
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


#: a test file, directory or node id the CI workflow names
_CI_TARGET = re.compile(
    r"(?<![\w/.-])((?:tests|benchmarks)(?:/[\w.-]+)*)((?:::\w+)*)"
)


def _ci_targets():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return sorted(set(_CI_TARGET.findall(workflow)))


def test_ci_names_only_tests_that_exist():
    """Every path and ``::test`` node id ``ci.yml`` hands pytest exists:
    a renamed test fails here, not only when CI runs."""
    targets = _ci_targets()
    assert any(nodes for _, nodes in targets)
    missing = []
    for path, nodes in targets:
        target = ROOT / path
        if not target.exists():
            missing.append(path)
            continue
        if not nodes:
            continue
        scope = ast.parse(target.read_text()).body
        for node_name in nodes.split("::")[1:]:
            found = [
                node
                for node in scope
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and node.name == node_name
            ]
            if not found:
                missing.append(path + nodes)
                break
            scope = getattr(found[0], "body", [])
    assert missing == []
