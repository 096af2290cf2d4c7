"""Tests for repro.analysis.formatting."""

import pytest

from repro.analysis.formatting import (
    format_count_with_pct,
    render_bar_chart,
    render_stacked_shares,
    render_table,
)


class TestRenderTable:
    def test_alignment(self):
        text = render_table(
            ("Name", "Count"),
            [("alpha", 1), ("b", 100)],
            title="My table",
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "Name" in lines[1] and "Count" in lines[1]
        # All data lines have the same width.
        assert len(lines[3]) == len(lines[4])

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(("A", "B"), [("only-one",)])

    def test_empty_rows(self):
        text = render_table(("A", "B"), [])
        assert "A" in text


class TestRenderBarChart:
    def test_bars_scale_to_peak(self):
        text = render_bar_chart({"big": 100.0, "small": 50.0}, width=10)
        lines = text.splitlines()
        big_bar = lines[0].count("#")
        small_bar = lines[1].count("#")
        assert big_bar == 10
        assert small_bar == 5

    def test_values_printed(self):
        text = render_bar_chart({"x": 41.67})
        assert "41.67%" in text

    def test_empty_series(self):
        assert "(no data)" in render_bar_chart({})

    def test_zero_value_gets_no_bar(self):
        text = render_bar_chart({"a": 10.0, "b": 0.0})
        assert text.splitlines()[1].count("#") == 0


class TestRenderStacked:
    ORDER = ("correct", "protective", "unknown", "malicious")

    def test_proportions_rendered(self):
        text = render_stacked_shares(
            {"P1": {"correct": 3, "malicious": 1}},
            order=self.ORDER,
            width=40,
        )
        assert "c" * 30 in text
        assert "n=4" in text

    def test_legend_included(self):
        text = render_stacked_shares(
            {"P1": {"correct": 1}}, order=self.ORDER
        )
        assert "c=correct" in text

    def test_empty_rows(self):
        assert "(no data)" in render_stacked_shares({}, order=self.ORDER)

    def test_row_without_urs(self):
        text = render_stacked_shares(
            {"P1": {}}, order=self.ORDER
        )
        assert "(no URs)" in text


class TestScalarFormats:
    def test_format_count_with_pct(self):
        assert format_count_with_pct(401718, 25.41) == "401,718 (25.41%)"
