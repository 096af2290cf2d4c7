"""Tests for repro.analysis.textreport."""

import pytest

from repro.analysis import render_full_report


@pytest.fixture(scope="module")
def full_text(small_world, small_report):
    nameserver_provider = {
        target.address: target.provider
        for target in small_world.nameserver_targets
    }
    return render_full_report(
        small_report,
        sandbox_reports=small_world.sandbox_reports,
        nameserver_provider=nameserver_provider,
        world=small_world,
    )


class TestFullReport:
    def test_all_sections_present(self, full_text):
        for section in (
            "Overview (paper §5.1)",
            "Table 1",
            "Figure 2",
            "Figure 3(a)",
            "Figure 3(b)",
            "Figure 3(c)",
            "Figure 3(d)",
            "Malicious TXT records",
            "Case studies",
            "Ground truth",
        ):
            assert section in full_text, section

    def test_paper_comparisons_included(self, full_text):
        assert "25.41%" in full_text  # malicious share reference
        assert "90.95%" in full_text  # email-TXT reference
        assert "paper" in full_text

    def test_case_studies_listed(self, full_text):
        for case in ("Dark.IoT", "Specter", "SPF-masquerade"):
            assert case in full_text

    def test_ground_truth_summary(self, full_text):
        assert "precision=" in full_text

    def test_title_heads_the_report(self, full_text):
        assert full_text.startswith("URHunter measurement report\n")

    def test_minimal_invocation(self, small_report):
        text = render_full_report(small_report)
        assert "Table 1" in text
        assert "Case studies" not in text
        assert "Ground truth" not in text
