"""Tests for repro.analysis.figures over the shared measurement."""

import pytest

from repro.analysis.figures import (
    PAPER_FIGURE3A,
    PAPER_FIGURE3C,
    compare_to_paper,
    figure2,
    figure3a,
    figure3b,
    figure3c,
    figure3d,
    overview_funnel,
)


class TestFigure2:
    def test_top_providers_by_volume(self, small_report):
        figure = figure2(small_report)
        totals = [sum(counts.values()) for _, counts in figure.rows]
        assert totals == sorted(totals, reverse=True)
        assert len(figure.rows) <= 5

    def test_cloudflare_among_top_providers(self, small_report):
        # At the small test scale Cloudflare's fleet-wide correct URs put
        # it near the top; full dominance (paper Figure 2) shows at the
        # benchmark scale.
        figure = figure2(small_report)
        top_names = [provider for provider, _ in figure.rows[:3]]
        assert "Cloudflare" in top_names

    def test_cloudns_is_protective_heavy(self, small_report):
        figure = figure2(small_report)
        by_name = dict(figure.rows)
        cloudns = by_name.get("ClouDNS")
        assert cloudns is not None
        assert cloudns["protective"] > cloudns["correct"]
        assert cloudns["protective"] > cloudns["malicious"]

    def test_rendered(self, small_report):
        assert "Figure 2" in figure2(small_report).text


class TestFigure3a:
    def test_shares_sum_to_100(self, small_report):
        figure = figure3a(small_report)
        assert sum(figure.series.values()) == pytest.approx(100.0)

    def test_all_three_sources_observed(self, small_report):
        figure = figure3a(small_report)
        for key in ("intel", "ids", "both"):
            assert figure.series[key] > 0, f"no {key}-labeled IPs"


class TestFigure3b:
    def test_low_bucket_dominates(self, small_report):
        figure = figure3b(small_report)
        # The paper: 77.9% of flagged IPs have 1-2 flagging vendors.
        assert figure.series["1-2"] == max(figure.series.values())

    def test_shares_sum_to_100(self, small_report):
        figure = figure3b(small_report)
        assert sum(figure.series.values()) == pytest.approx(100.0)


class TestFigure3c:
    def test_nonempty(self, small_report):
        figure = figure3c(small_report)
        assert figure.series

    def test_shares_sum_to_100(self, small_report):
        figure = figure3c(small_report)
        assert sum(figure.series.values()) == pytest.approx(100.0)

    def test_categories_are_known(self, small_report):
        known = set(PAPER_FIGURE3C) | {"Other"}
        figure = figure3c(small_report)
        assert set(figure.series) <= known


class TestFigure3d:
    def test_trojan_dominates(self, small_report):
        figure = figure3d(small_report)
        assert figure.series
        assert max(figure.series, key=figure.series.get) == "Trojan"

    def test_multilabel_shares_can_exceed_100(self, small_report):
        figure = figure3d(small_report)
        assert sum(figure.series.values()) >= 100.0


class TestOverviewFunnel:
    def test_funnel_shape(self, small_report):
        funnel = overview_funnel(small_report)
        assert funnel["unique_urs"] == (
            funnel["correct"] + funnel["protective"] + funnel["suspicious"]
        )
        assert funnel["malicious"] <= funnel["suspicious"]
        assert funnel["suspicious"] < funnel["unique_urs"]


class TestCompareToPaper:
    def test_renders_both_columns(self):
        text = compare_to_paper({"intel": 30.0}, PAPER_FIGURE3A)
        assert "34.20%" in text
        assert "30.00%" in text
        assert "measured" in text and "paper" in text
