"""Every ``src`` definition and option is used by the program, not only
by tests.

Two AST scans over the same readers -- ``src``, ``examples/`` and
``benchmarks/e2e``:

* a function, class or method defined in ``src/repro`` must have its
  name appear in a reader -- as a name, an attribute, an import or a
  string.  A package ``__init__`` re-exporting a name does not count.
  A method (not a property) named like a data attribute some reader
  assigns (``x.name = ...``) or declares (an annotated class field)
  counts only where a reader calls that name: ``world.domains`` read
  as a list does not reach a ``domains()`` method.
* an option -- a defaulted function or method parameter, or a
  dataclass field with a scalar default -- must be passed by some call
  in a reader.  A call matches by callee name: ``cls(...)`` and
  ``super().__init__(...)`` resolve to their class, a
  ``replace(x, f=...)`` passes field ``f``, and a ``*`` argument passes
  everything.  A ``**`` argument passes the string keys of the dict
  displays inside it -- ``**({"f": v} if c else {})`` passes ``f`` --
  unless it forwards the enclosing function's own ``**`` parameter,
  which passes everything.  A ``field(default_factory=...)`` container, and a
  field the program assigns through an attribute (state the object
  accumulates), are not options.

And one scan over ``src`` alone: every name a module imports must be
read in that module -- as a name, or listed in its ``__all__``.

What only tests reach stays on purpose; each such definition or option
is listed below with its reason, and both lists are checked in both
directions.
"""

import ast
import functools
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
    "src/repro/hosting/provider.py:issue_txt_challenge": (
        "test tool: drives the TXT-challenge verification path, which the "
        "world does not wire yet"
    ),
    "src/repro/hosting/registry.py:registrations": (
        "test tool: the world digest hashes every delegation"
    ),
    "src/repro/net/network.py:clear_faults": "test tool: fault reset",
    "src/repro/net/network.py:set_online": "test tool: takes a host down",
    "src/repro/net/network.py:knows": "test tool: host registration check",
    "src/repro/flow/nodes.py:step": (
        "fenced: the benchmarks/e2e harness rebinds it on a traced run, "
        "and ROADMAP item 2 deletes it"
    ),
}


#: ``module path:Owner.function(parameter)`` or ``module path:Class(field)``
#: -> why the option stays although no program call sets it.  Every
#: reason starts with one of :data:`OPTION_REASONS`.
OPTIONS_ALLOWED = {
    "src/repro/core/suspicion.py:SuspicionFilter.__init__(memoize)": (
        "reference path: the per-record stage 2 the memoized one is "
        "tested against"
    ),
    "src/repro/dns/resolver.py:RecursiveResolver.__init__(cache_enabled)": (
        "reference path: the uncached resolver the caches are tested "
        "against"
    ),
    "src/repro/cli.py:main(argv)": (
        "deployment setting: the command line, read from sys.argv"
    ),
    "src/repro/obs/reporter.py:Reporter.__init__(stream)": (
        "deployment setting: where operator messages go"
    ),
    **{
        f"src/repro/core/hunter.py:HunterConfig({field})": (
            "test tool parameter: an ablation hook "
            "benchmarks/test_bench_ablation.py sets (DESIGN §5, ROADMAP 4(b))"
        )
        for field in (
            "enabled_conditions",
            "min_severity",
            "use_intel",
            "use_ids",
            "use_cohost_join",
        )
    },
    "src/repro/core/hunter.py:HunterConfig(per_server_interval)": (
        "test tool parameter: benchmarks/test_bench_overview.py runs the "
        "paper's Appendix-A 130 s pacing with it"
    ),
    "src/repro/core/hunter.py:HunterConfig(probe_domain)": (
        "deployment setting: the measurer's own probe domain"
    ),
    "src/repro/core/hunter.py:HunterConfig(scanner_ip)": (
        "deployment setting: the scanner's source address"
    ),
    "src/repro/core/hunter.py:HunterConfig(seed)": (
        "persisted key: the plan hash digests it"
    ),
    "src/repro/core/hunter.py:HunterConfig(execution)": (
        "test tool parameter: benchmarks/e2e passes it, and ROADMAP item 2 "
        "deletes it"
    ),
    **{
        f"src/repro/scenario/config.py:ScenarioConfig({field})": (
            "persisted key: digested into the run-spec fingerprint and the "
            "store keys, so a change is a format bump of its own"
        )
        for field in (
            "behaviour_mix",
            "c2_observable_probability",
            "domains_per_campaign",
            "headline_hosting_fraction",
            "include_case_studies",
            "manipulated_resolver_fraction",
            "min_hosted_domains",
            "misconfigured_recursive_fraction",
            "observation_split",
            "origins_per_domain",
            "past_delegation_fraction",
            "providers_per_campaign",
            "tag_probabilities",
            "txt_campaign_probability",
            "vendor_count",
            "vendor_count_weights",
        )
    },
}

#: the only reasons an option may stay unset by the program
OPTION_REASONS = (
    "reference path",
    "deployment setting",
    "persisted key",
    "test tool parameter",
)


@functools.lru_cache(maxsize=None)
def _parsed():
    """``src`` module paths, and the syntax tree of every reader."""
    sources = sorted((ROOT / "src").rglob("*.py"))
    readers = (
        sources
        + sorted((ROOT / "examples").rglob("*.py"))
        + sorted((ROOT / "benchmarks" / "e2e").rglob("*.py"))
    )
    return sources, {path: ast.parse(path.read_text()) for path in readers}


def _definitions(tree):
    """``(name, is_method)`` of each top-level definition and each
    definition in a class body; a property is not a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.ClassDef):
                    yield item.name, False
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, not any(
                        "property" in ast.unparse(decorator)
                        or _name(decorator) == "setter"
                        for decorator in item.decorator_list
                    )


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


def _data_attributes(tree):
    """Names some reader assigns as an attribute or declares as an
    annotated class field."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    yield item.target.id


def _called(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield _name(node.func)


def _unreached():
    sources, trees = _parsed()
    referenced, data, called = set(), set(), set()
    for path, tree in trees.items():
        referenced.update(
            _references(tree, reexports_only=path.name == "__init__.py")
        )
        data.update(_data_attributes(tree))
        called.update(_called(tree))
    return {
        f"{path.relative_to(ROOT).as_posix()}:{definition}"
        for path in sources
        for definition, is_method in _definitions(trees[path])
        if not (definition.startswith("__") and definition.endswith("__"))
        and (
            definition not in referenced
            or (is_method and definition in data and definition not in called)
        )
    }


def test_every_src_definition_is_reached_or_allowed():
    unreached = _unreached()
    assert unreached - set(ALLOWED) == set(), (
        "delete these, give them a caller, or list them with a reason"
    )
    assert set(ALLOWED) - unreached == set(), (
        "these now have a caller (or are gone): drop them from ALLOWED"
    )


def _name(node):
    """The last name of a ``Name`` or ``Attribute``, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(klass):
    return any(
        _name(decorator.func if isinstance(decorator, ast.Call) else decorator)
        == "dataclass"
        for decorator in klass.decorator_list
    )


def _defaulted(function, skipped):
    """``(parameter, position)`` of each defaulted parameter; the
    position counts after ``skipped`` leading parameters, and is None
    for a keyword-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - skipped
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _fields(klass):
    """``(field, position)`` of each ``__init__`` field with a scalar
    default."""
    position = 0
    for item in klass.body:
        if not (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and "ClassVar" not in ast.unparse(item.annotation)
        ):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            keywords = {
                keyword.arg: keyword.value for keyword in value.keywords
            }
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in keywords
        else:
            has_default = value is not None
        if has_default:
            yield item.target.id, position
        position += 1


def _options(tree):
    """``(callee, owner, parameter, position, is_field)`` of each option
    a module defines; ``callee`` is the name a call to it goes by."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for parameter, position in _defaulted(node, 0):
                yield node.name, node.name, parameter, position, False
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [
            item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if _is_dataclass(node) and "__init__" not in {m.name for m in methods}:
            for field, position in _fields(node):
                yield node.name, node.name, field, position, True
        for method in methods:
            static = any(
                _name(decorator) == "staticmethod"
                for decorator in method.decorator_list
            )
            callee = node.name if method.name == "__init__" else method.name
            owner = f"{node.name}.{method.name}"
            for parameter, position in _defaulted(method, 0 if static else 1):
                yield callee, owner, parameter, position, False


def _dict_keys(node):
    """The string keys of every dict display under ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Dict):
            for key in child.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key.value


def _calls(node, klass=None, bases=(), forwarded=None):
    """``(callee, keywords, positional count)`` of every call under
    ``node``.  A call unpacking ``*``, or ``**`` of ``forwarded`` (the
    enclosing function's own ``**`` parameter), counts as passing
    everything (count None); any other ``**`` passes the string keys of
    the dict displays inside it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _calls(
                child, child.name, tuple(_name(base) for base in child.bases)
            )
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kwarg = child.args.kwarg
            yield from _calls(
                child, klass, bases, kwarg.arg if kwarg else forwarded
            )
            continue
        if isinstance(child, ast.Call):
            function = child.func
            if isinstance(function, ast.Name) and function.id == "cls":
                callees = (klass,)
            elif (
                _name(function) == "__init__"
                and isinstance(function.value, ast.Call)
                and _name(function.value.func) == "super"
            ):
                callees = bases
            else:
                callees = (_name(function),)
            spread = [
                keyword.value
                for keyword in child.keywords
                if keyword.arg is None
            ]
            unpacks = any(
                isinstance(arg, ast.Starred) for arg in child.args
            ) or any(
                isinstance(value, ast.Name) and value.id == forwarded
                for value in spread
            )
            keywords = frozenset(
                keyword.arg for keyword in child.keywords if keyword.arg
            ).union(*(_dict_keys(value) for value in spread))
            for callee in callees:
                yield callee, keywords, None if unpacks else len(child.args)
        yield from _calls(child, klass, bases, forwarded)


def _attribute_stores(node, in_init=False):
    """Attribute names assigned anywhere but in an ``__init__``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _attribute_stores(child, child.name == "__init__")
            continue
        if isinstance(child, ast.Attribute) and isinstance(
            child.ctx, ast.Store
        ):
            if not in_init:
                yield child.attr
        yield from _attribute_stores(child, in_init)


def _all_options():
    """``module path:owner(parameter)`` -> ``(callee, parameter,
    position, is_field)`` of every ``src`` option."""
    sources, trees = _parsed()
    return {
        f"{path.relative_to(ROOT).as_posix()}:{owner}({parameter})": (
            callee,
            parameter,
            position,
            is_field,
        )
        for path in sources
        for callee, owner, parameter, position, is_field in _options(
            trees[path]
        )
    }


def _unset_options():
    _, trees = _parsed()
    calls = {}
    stored = set()
    for tree in trees.values():
        for callee, keywords, count in _calls(tree):
            calls.setdefault(callee, []).append((keywords, count))
        stored.update(_attribute_stores(tree))
    replaced = set().union(
        *(keywords for keywords, _ in calls.get("replace", ()))
    )

    def passed(callee, parameter, position, is_field):
        if is_field and (parameter in stored or parameter in replaced):
            return True
        return any(
            count is None
            or parameter in keywords
            or (position is not None and position < count)
            for keywords, count in calls.get(callee, ())
        )

    return {
        option
        for option, found in _all_options().items()
        if not passed(*found)
    }


def test_every_src_option_is_set_by_the_program_or_allowed():
    unset = _unset_options()
    assert unset - set(OPTIONS_ALLOWED) == set(), (
        "make these constants or plain attributes, give them a caller, "
        "or list them with a reason"
    )
    assert set(OPTIONS_ALLOWED) - unset == set(), (
        "these are now set by a program call (or gone): drop them from "
        "OPTIONS_ALLOWED"
    )
    assert [
        option
        for option, reason in OPTIONS_ALLOWED.items()
        if reason.split(":")[0] not in OPTION_REASONS
    ] == []


def _unread_imports(tree):
    """Each name ``tree`` imports (``from __future__`` aside) that it
    neither reads as a name nor lists in ``__all__``, with its line."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in map(
            _name, node.targets
        ):
            read.update(
                item.value
                for item in node.value.elts
                if isinstance(item, ast.Constant)
            )
    return {
        (imported_name, line)
        for imported_name, line in imported.items()
        if imported_name not in read
    }


def test_every_src_import_is_read():
    sources, trees = _parsed()
    assert {
        f"{path.relative_to(ROOT).as_posix()}:{line}: {imported_name}"
        for path in sources
        for imported_name, line in _unread_imports(trees[path])
    } == set(), "delete these imports, or read them"
