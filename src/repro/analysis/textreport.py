"""One-shot full measurement report in plain text.

Composes everything the evaluation section of the paper reports — the
§5.1 funnel, Table 1, Figure 2, Figures 3(a)-(d), the §5.2 TXT
statistic, the case studies, and (in simulation only) the ground-truth
score — into a single printable document.  Used by ``python -m repro
run --full`` and handy for archiving measurement results.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.report import MeasurementReport
from ..sandbox.sandbox import SandboxReport
from .casestudy import all_case_studies
from .figures import (
    PAPER_EMAIL_TXT_SHARE,
    PAPER_FIGURE3A,
    PAPER_FIGURE3B,
    PAPER_FIGURE3C,
    PAPER_FIGURE3D,
    PAPER_MALICIOUS_SHARE,
    compare_to_paper,
    figure2,
    figure3a,
    figure3b,
    figure3c,
    figure3d,
    overview_funnel,
)
from .groundtruth import score_against_ground_truth
from .tables import build_table1

_RULE = "=" * 72


def _section(title: str) -> str:
    return f"\n{_RULE}\n{title}\n{_RULE}\n"


def render_full_report(
    report: MeasurementReport,
    sandbox_reports: Sequence[SandboxReport] = (),
    nameserver_provider: Optional[Dict[str, str]] = None,
    world: Optional["object"] = None,
) -> str:
    """Render the complete evaluation document.

    ``sandbox_reports`` + ``nameserver_provider`` enable the case-study
    section; ``world`` enables the ground-truth section.
    """
    parts = ["URHunter measurement report", _RULE]

    # §5.1 overview
    parts.append(_section("Overview (paper §5.1)"))
    funnel = overview_funnel(report)
    for key, value in funnel.items():
        parts.append(f"  {key:12} {value:,}")
    if funnel["suspicious"]:
        share = 100.0 * funnel["malicious"] / funnel["suspicious"]
        parts.append(
            f"\nmalicious share of suspicious: {share:.2f}% "
            f"(paper: {PAPER_MALICIOUS_SHARE:.2f}%)"
        )
    if report.false_negative_rate is not None:
        parts.append(
            f"§4.2 validation false-negative rate: "
            f"{report.false_negative_rate:.4f} (paper: 0.0)"
        )

    # Table 1
    parts.append(_section("Table 1"))
    parts.append(build_table1(report).text)

    # Figure 2
    parts.append(_section("Figure 2"))
    parts.append(figure2(report).text)

    # Figure 3
    for figure, paper in (
        (figure3a(report), PAPER_FIGURE3A),
        (figure3b(report), PAPER_FIGURE3B),
        (figure3c(report), PAPER_FIGURE3C),
        (figure3d(report), PAPER_FIGURE3D),
    ):
        parts.append(_section(figure.text.splitlines()[0]))
        parts.append("\n".join(figure.text.splitlines()[1:]))
        parts.append("")
        parts.append(compare_to_paper(figure.series, paper))

    # §5.2 TXT statistic
    parts.append(_section("Malicious TXT records (paper §5.2)"))
    parts.append(
        f"email-related share of malicious TXT URs: "
        f"{report.email_related_txt_share():.2f}% "
        f"(paper: {PAPER_EMAIL_TXT_SHARE:.2f}%)"
    )
    parts.append(
        f"TXT URs excluded for lacking a corresponding IP: "
        f"{report.txt_without_ip}"
    )

    # Case studies
    if sandbox_reports and nameserver_provider is not None:
        cases = all_case_studies(
            report, sandbox_reports, nameserver_provider
        )
        if cases:
            parts.append(_section("Case studies (paper §5.3)"))
            for case_name, case in cases.items():
                parts.append(f"[{case_name}]")
                parts.append("  " + case.summary())

    # Ground truth (simulation only)
    if world is not None:
        parts.append(_section("Ground truth (simulation only)"))
        parts.append(score_against_ground_truth(report, world).summary())

    parts.append("")
    return "\n".join(parts)
