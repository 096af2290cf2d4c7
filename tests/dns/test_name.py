"""Tests for repro.dns.name."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.name import (
    MAX_LABEL_LENGTH,
    MAX_NAME_LENGTH,
    Name,
    NameError_,
    ROOT,
    _intern,
    interned,
    name,
)


class TestParsing:
    def test_simple_name(self):
        parsed = Name.from_text("www.example.com")
        assert parsed.labels == ("www", "example", "com")

    def test_trailing_dot_ignored(self):
        assert Name.from_text("example.com.") == Name.from_text("example.com")

    def test_root_from_dot(self):
        assert Name.from_text(".") is ROOT

    def test_root_from_empty(self):
        assert Name.from_text("") is ROOT

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a..b")

    def test_leading_dot_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text(".example.com")

    def test_underscore_label_allowed(self):
        parsed = Name.from_text("_dmarc.example.com")
        assert parsed.labels[0] == "_dmarc"

    def test_wildcard_label_allowed(self):
        parsed = Name.from_text("*.example.com")
        assert parsed.labels[0] == "*"

    def test_invalid_characters_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("exa mple.com")

    def test_hyphen_edges_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("-bad.com")
        with pytest.raises(NameError_):
            Name.from_text("bad-.com")

    def test_interior_hyphen_allowed(self):
        assert Name.from_text("a-b.com").labels == ("a-b", "com")

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            Name.from_text("a" * (MAX_LABEL_LENGTH + 1) + ".com")

    def test_label_at_limit(self):
        parsed = Name.from_text("a" * MAX_LABEL_LENGTH + ".com")
        assert len(parsed.labels[0]) == MAX_LABEL_LENGTH

    def test_name_too_long(self):
        label = "a" * 63
        text = ".".join([label] * 4) + "." + "b" * 10
        with pytest.raises(NameError_):
            Name.from_text(text)


class TestEquality:
    def test_case_insensitive_equality(self):
        assert name("Example.COM") == name("example.com")

    def test_case_insensitive_hash(self):
        assert hash(name("Example.COM")) == hash(name("example.com"))

    def test_inequality(self):
        assert name("a.com") != name("b.com")

    def test_not_equal_to_string(self):
        assert name("a.com") != "a.com"

    def test_case_preserved_in_text(self):
        assert str(name("ExAmple.com")) == "ExAmple.com"

    def test_usable_as_dict_key(self):
        table = {name("A.com"): 1}
        assert table[name("a.COM")] == 1

    def test_lowercase_name_keeps_one_label_tuple(self):
        lower = Name(("www", "example", "com"))
        assert lower.lowered_labels is lower.labels
        mixed = Name(("WWW", "example", "com"))
        assert mixed.labels == ("WWW", "example", "com")
        assert mixed.lowered_labels == lower.labels
        assert mixed == lower and hash(mixed) == hash(lower)


class TestOrdering:
    def test_canonical_order_by_reversed_labels(self):
        # a.example < b.example because the suffix compares first.
        assert name("a.example") < name("b.example")

    def test_parent_sorts_before_child(self):
        assert name("example.com") < name("a.example.com")

    def test_sorting_groups_subtrees(self):
        names = [name("z.com"), name("a.z.com"), name("a.com")]
        ordered = sorted(names)
        assert ordered == [name("a.com"), name("z.com"), name("a.z.com")]


class TestRelations:
    def test_parent(self):
        assert name("www.example.com").parent() == name("example.com")

    def test_root_has_no_parent(self):
        with pytest.raises(NameError_):
            ROOT.parent()

    def test_ancestors(self):
        chain = list(name("a.b.c").ancestors())
        assert chain == [name("b.c"), name("c"), ROOT]

    def test_is_subdomain_of_self(self):
        assert name("example.com").is_subdomain_of(name("example.com"))

    def test_is_subdomain_of_parent(self):
        assert name("www.example.com").is_subdomain_of(name("example.com"))

    def test_is_subdomain_of_root(self):
        assert name("example.com").is_subdomain_of(ROOT)

    def test_not_subdomain_of_sibling(self):
        assert not name("a.com").is_subdomain_of(name("b.com"))

    def test_label_boundary_respected(self):
        # notexample.com is not under example.com.
        assert not name("notexample.com").is_subdomain_of(name("example.com"))

    def test_proper_subdomain(self):
        assert name("www.example.com").is_proper_subdomain_of(
            name("example.com")
        )
        assert not name("example.com").is_proper_subdomain_of(
            name("example.com")
        )

    def test_relativize(self):
        prefix = name("www.example.com").relativize(name("example.com"))
        assert prefix == ("www",)

    def test_relativize_out_of_zone(self):
        with pytest.raises(NameError_):
            name("www.other.com").relativize(name("example.com"))

    def test_prepend(self):
        assert name("example.com").prepend("www") == name("www.example.com")

    def test_split(self):
        prefix, suffix = name("a.b.c").split(2)
        assert prefix == name("a")
        assert suffix == name("b.c")

    def test_split_out_of_range(self):
        with pytest.raises(NameError_):
            name("a.b").split(5)

    def test_tld(self):
        assert name("www.example.com").tld() == name("com")
        assert ROOT.tld() is None


class TestInternedDerivations:
    """parent/prepend/split/tld hand out the shared interned names."""

    def test_derived_names_are_the_interned_objects(self):
        base = name("Www.Example.COM")
        parent = base.parent()
        assert parent is interned(("Example", "COM"))
        assert str(parent) == "Example.COM"
        child = base.prepend("API")
        assert child is interned(("API", "Www", "Example", "COM"))
        assert str(child) == "API.Www.Example.COM"
        prefix, suffix = base.split(2)
        assert prefix is interned(("Www",))
        assert suffix is interned(("Example", "COM"))
        assert base.tld() is interned(("COM",))
        assert str(base.tld()) == "COM"

    def test_derived_name_is_the_parsed_name(self):
        assert name("www.example.com").parent() is name("example.com")
        assert name("example.com").prepend("www") is name("www.example.com")
        assert name("example").parent() is ROOT
        assert name("a.b").split(0)[1] is ROOT

    def test_case_variants_stay_distinct_objects(self):
        lower = name("www.example.com").parent()
        upper = name("www.EXAMPLE.com").parent()
        assert lower == upper
        assert lower is not upper
        assert str(upper) == "EXAMPLE.com"

    def test_invalid_prepended_label_raises_and_is_not_cached(self):
        base = name("example.com")
        before = _intern.cache_info()
        for _ in range(2):
            with pytest.raises(NameError_):
                base.prepend("bad label")
        after = _intern.cache_info()
        assert after.hits == before.hits
        assert after.misses == before.misses + 2


class TestImmutability:
    def test_setattr_rejected(self):
        victim = name("example.com")
        with pytest.raises(AttributeError):
            victim.labels = ("x",)


class TestCoercion:
    def test_name_passthrough(self):
        original = name("example.com")
        assert name(original) is original

    def test_to_text_trailing_dot(self):
        assert name("example.com").to_text(trailing_dot=True) == "example.com."
        assert ROOT.to_text(trailing_dot=True) == "."


_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10
)


@given(st.lists(_label, min_size=1, max_size=5))
def test_roundtrip_through_text(labels):
    original = Name(labels)
    assert Name.from_text(str(original)) == original


@given(st.lists(_label, min_size=1, max_size=4), st.lists(_label, min_size=0, max_size=3))
def test_prepending_creates_subdomain(base_labels, extra_labels):
    base = Name(base_labels)
    child = base
    for label in extra_labels:
        child = child.prepend(label)
    assert child.is_subdomain_of(base)


@given(st.lists(_label, min_size=2, max_size=6))
def test_ancestors_are_suffixes(labels):
    original = Name(labels)
    for ancestor in original.ancestors():
        assert original.is_subdomain_of(ancestor)
