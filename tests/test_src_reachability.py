"""Every ``src`` definition and option is used by the program, not only
by tests.

Two AST scans over the same readers -- ``src``, ``examples/`` and
``benchmarks/e2e``:

* a function, class or method defined in ``src/repro`` must have its
  name appear in a reader -- as a name, an attribute, an import or a
  string.  A package ``__init__`` re-exporting a name does not count.
* an option -- a defaulted function or method parameter, or a
  dataclass field with a scalar default -- must be passed by some call
  in a reader.  A call matches by callee name: ``cls(...)`` and
  ``super().__init__(...)`` resolve to their class, a
  ``replace(x, f=...)`` passes field ``f``, and a ``*``/``**`` argument
  passes everything.  A ``field(default_factory=...)`` container, and a
  field the program assigns through an attribute (state the object
  accumulates), are not options.

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
    "src/repro/net/network.py:set_server_faults": (
        "test tool: per-server fault injection"
    ),
    "src/repro/net/network.py:clear_faults": "test tool: fault reset",
    "src/repro/net/network.py:set_online": "test tool: takes a host down",
    "src/repro/net/network.py:knows": "test tool: host registration check",
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
    "src/repro/intel/ipinfo.py:IpInfoDatabase.__init__(cache_size)": (
        "reference path: the uncached prefix scan the index and its LRU "
        "are tested against"
    ),
    "src/repro/cli.py:main(argv)": (
        "deployment setting: the command line, read from sys.argv"
    ),
    "src/repro/obs/reporter.py:Reporter.__init__(stream)": (
        "deployment setting: where operator messages go"
    ),
    **{
        f"src/repro/net/network.py:SimulatedInternet.set_server_faults"
        f"({parameter})": (
            "test tool parameter: set_server_faults is on ALLOWED"
        )
        for parameter in (
            "loss_rate",
            "latency_jitter",
            "flap_up",
            "flap_down",
        )
    },
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
    sources, trees = _parsed()
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


def _calls(node, klass=None, bases=()):
    """``(callee, keywords, positional count)`` of every call under
    ``node``; a call unpacking ``*``/``**`` counts as passing
    everything (count None)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _calls(
                child, child.name, tuple(_name(base) for base in child.bases)
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
            unpacks = any(
                isinstance(arg, ast.Starred) for arg in child.args
            ) or any(keyword.arg is None for keyword in child.keywords)
            keywords = frozenset(
                keyword.arg for keyword in child.keywords if keyword.arg
            )
            for callee in callees:
                yield callee, keywords, None if unpacks else len(child.args)
        yield from _calls(child, klass, bases)


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
