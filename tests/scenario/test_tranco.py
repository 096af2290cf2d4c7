"""Tests for repro.scenario.tranco."""

import random

from repro.dns.name import name
from repro.scenario.tranco import (
    DEFAULT_PINS,
    TrancoEntry,
    TrancoList,
    generate_tranco,
)


class TestGeneration:
    def test_size(self):
        assert len(generate_tranco(200)) == 200

    def test_ranks_are_contiguous(self):
        top = generate_tranco(50)
        assert [entry.rank for entry in top] == list(range(1, 51))

    def test_domains_unique(self):
        top = generate_tranco(500)
        domains = top.domains()
        assert len(domains) == len(set(domains))

    def test_deterministic_for_seed(self):
        first = generate_tranco(100, random.Random(5))
        second = generate_tranco(100, random.Random(5))
        assert first.domains() == second.domains()

    def test_different_seeds_differ(self):
        first = generate_tranco(100, random.Random(5))
        second = generate_tranco(100, random.Random(6))
        assert first.domains() != second.domains()


class TestPins:
    def test_case_study_domains_pinned_at_paper_ranks(self):
        top = generate_tranco(3000)
        assert top.rank_of("github.com") == 30
        assert top.rank_of("ibm.com") == 125
        assert top.rank_of("speedtest.net") == 415
        assert top.rank_of("gitlab.com") == 527
        assert top.rank_of("pastebin.com") == 2033

    def test_overflow_pins_folded_into_small_lists(self):
        top = generate_tranco(100)
        # pastebin (2033) and speedtest (415) must still exist somewhere.
        assert "pastebin.com" in top
        assert "speedtest.net" in top

    def test_overflow_pins_land_in_the_last_decile(self):
        top = generate_tranco(300)
        for domain in ("speedtest.net", "gitlab.com", "pastebin.com"):
            assert top.rank_of(domain) > 270
        assert top.rank_of("github.com") == 30


class TestListApi:
    def test_top(self):
        top = generate_tranco(100)
        assert len(top.top(10)) == 10
        assert top.top(10)[0].rank == 1

    def test_rank_of_missing(self):
        assert generate_tranco(10).rank_of("nope.example") is None

    def test_contains(self):
        top = generate_tranco(50)
        assert top.domains()[0] in top

    def test_entries_sorted_regardless_of_input(self):
        entries = [
            TrancoEntry(rank=3, domain=name("c.com")),
            TrancoEntry(rank=1, domain=name("a.com")),
        ]
        assert TrancoList(entries).entries[0].rank == 1
