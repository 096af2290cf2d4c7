"""Every ``src`` definition is reached by the program, not only by tests.

An AST scan: a function, class or method defined in ``src/repro`` must
have its name appear in ``src``, ``examples/`` or ``benchmarks/e2e`` --
as a name, an attribute, an import or a string.  A package
``__init__`` re-exporting a name does not count.  The few definitions
that only tests reach stay on purpose; each is listed below with its
reason, and the list is checked in both directions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``module path:name`` -> why it stays although only tests reach it
ALLOWED = {
    "src/repro/core/records.py:dedupe_urs": (
        "reference implementation: the URTable fold is tested against it"
    ),
    "src/repro/pipeline/checkpoint.py:last_failure": (
        "safety code: reads back the failure record a crashed stage left"
    ),
    "src/repro/dns/resolver.py:StubResolver": "test tool: a client stub",
    "src/repro/dns/resolver.py:is_manipulated": (
        "test tool: picks the rewriting resolvers of a world"
    ),
    "src/repro/dns/wire.py:roundtrip": "test tool: encode then decode",
    "src/repro/dns/zone.py:ensure_soa": "test tool: apex SOA for test zones",
    "src/repro/engine/batched.py:circuit_state": (
        "test tool: reads a server's breaker state"
    ),
    "src/repro/hosting/provider.py:issue_txt_challenge": (
        "test tool: drives the TXT-challenge verification path, which the "
        "world does not wire yet"
    ),
    "src/repro/hosting/registry.py:registrations": (
        "test tool: the world digest hashes every delegation"
    ),
    "src/repro/net/network.py:set_server_faults": (
        "test tool: per-server fault injection"
    ),
    "src/repro/net/network.py:clear_faults": "test tool: fault reset",
    "src/repro/net/network.py:set_online": "test tool: takes a host down",
    "src/repro/net/network.py:knows": "test tool: host registration check",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    yield item.name


def _references(tree, reexports_only):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif reexports_only:
            continue
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _unreached():
    sources = sorted((ROOT / "src").rglob("*.py"))
    readers = (
        sources
        + sorted((ROOT / "examples").rglob("*.py"))
        + sorted((ROOT / "benchmarks" / "e2e").rglob("*.py"))
    )
    trees = {path: ast.parse(path.read_text()) for path in readers}
    referenced = set()
    for path, tree in trees.items():
        referenced.update(
            _references(tree, reexports_only=path.name == "__init__.py")
        )
    return {
        f"{path.relative_to(ROOT).as_posix()}:{definition}"
        for path in sources
        for definition in _definitions(trees[path])
        if not (definition.startswith("__") and definition.endswith("__"))
        and definition not in referenced
    }


def test_every_src_definition_is_reached_or_allowed():
    unreached = _unreached()
    assert unreached - set(ALLOWED) == set(), (
        "delete these, give them a caller, or list them with a reason"
    )
    assert set(ALLOWED) - unreached == set(), (
        "these now have a caller (or are gone): drop them from ALLOWED"
    )
