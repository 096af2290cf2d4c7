"""Figure builders: the data series behind Figures 2 and 3(a)-(d).

Each builder returns the raw series plus rendered text so benchmarks can
print paper-comparable output.  The paper's published values ship as
``PAPER_*`` constants for side-by-side comparison in EXPERIMENTS.md and
the benchmark output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.records import URCategory
from ..core.report import MeasurementReport
from .formatting import render_bar_chart, render_stacked_shares

#: Paper values for comparison (IMC '23, §5).
PAPER_FIGURE2_PROVIDERS = (
    ("Cloudflare", 3_039_369),
    ("ClouDNS", 90_783),
    ("Amazon", 84_256),
    ("Akamai", 53_100),
    ("NHN Cloud", 23_783),
)
PAPER_FIGURE3A = {"intel": 34.20, "ids": 36.62, "both": 29.18}
PAPER_FIGURE3B = {"1-2": 77.90, "3-4": 16.31, "5-6": 2.01, "7-11": 3.78}
PAPER_FIGURE3C = {
    "Trojan Activity": 41.67,
    "Other": 23.86,
    "Privacy Violation": 21.19,
    "C&C Activity": 10.82,
    "Bad Traffic": 2.46,
}
PAPER_FIGURE3D = {
    "Trojan": 89.01,
    "Scanner": 41.01,
    "Other": 33.33,
    "Malware": 19.11,
    "C&C": 16.25,
    "Botnet": 10.23,
}
PAPER_EMAIL_TXT_SHARE = 90.95
PAPER_MALICIOUS_SHARE = 25.41

_CATEGORY_ORDER = ("correct", "protective", "unknown", "malicious")


@dataclass
class Figure:
    """One rendered figure with its raw series."""

    series: Dict[str, float]
    text: str


@dataclass
class Figure2:
    """Per-provider category mix for the top providers by UR count."""

    rows: List[Tuple[str, Dict[str, int]]]
    text: str


#: providers Figure 2 shows, by UR count
FIGURE2_TOP = 5


def figure2(report: MeasurementReport) -> Figure2:
    """Figure 2: categories and proportions of URs, top providers."""
    rows = report.provider_category_mix(top=FIGURE2_TOP)
    text = render_stacked_shares(
        {provider: counts for provider, counts in rows},
        order=_CATEGORY_ORDER,
        title=(
            f"Figure 2: UR categories among the top {FIGURE2_TOP} providers "
            "by UR count"
        ),
    )
    return Figure2(rows=rows, text=text)


def figure3a(report: MeasurementReport) -> Figure:
    """Figure 3(a): why malicious IPs were labeled (intel / IDS / both)."""
    counts = report.label_provenance()
    total = sum(counts.values())
    series = {
        key: (100.0 * value / total if total else 0.0)
        for key, value in counts.items()
    }
    text = render_bar_chart(
        series, title="Figure 3(a): reasons IP addresses were labeled"
    )
    return Figure(series=series, text=text)


def figure3b(report: MeasurementReport) -> Figure:
    """Figure 3(b): how many vendors flag each blacklisted IP."""
    histogram = report.vendor_count_histogram()
    total = sum(histogram.values())
    series = {
        bucket: (100.0 * value / total if total else 0.0)
        for bucket, value in histogram.items()
    }
    text = render_bar_chart(
        series,
        title="Figure 3(b): # security vendors flagging each IP",
    )
    return Figure(series=series, text=text)


def figure3c(report: MeasurementReport) -> Figure:
    """Figure 3(c): IDS alert categories toward malicious IPs."""
    series = report.alert_category_shares()
    text = render_bar_chart(
        series,
        title="Figure 3(c): malicious activities detected in traffic",
    )
    return Figure(series=series, text=text)


def figure3d(report: MeasurementReport) -> Figure:
    """Figure 3(d): vendor tags on malicious IPs (multi-label)."""
    series = report.tag_shares()
    text = render_bar_chart(
        series,
        title="Figure 3(d): tags from security vendors (multi-label)",
    )
    return Figure(series=series, text=text)


def overview_funnel(report: MeasurementReport) -> Dict[str, int]:
    """§5.1's funnel: classified -> suspicious -> malicious."""
    counts = report.category_counts()
    return {
        "unique_urs": len(report.classified),
        "correct": counts[URCategory.CORRECT.value],
        "protective": counts[URCategory.PROTECTIVE.value],
        "suspicious": counts[URCategory.UNKNOWN.value]
        + counts[URCategory.MALICIOUS.value],
        "malicious": counts[URCategory.MALICIOUS.value],
    }


def compare_to_paper(measured: Dict[str, float], paper: Dict[str, float]) -> str:
    """Render a measured-vs-paper comparison block."""
    keys = list(paper)
    for key in measured:
        if key not in keys:
            keys.append(key)
    lines = [f"{'series':24} {'measured':>10} {'paper':>10}"]
    for key in keys:
        lines.append(
            f"{key:24} {measured.get(key, 0.0):9.2f}% "
            f"{paper.get(key, 0.0):9.2f}%"
        )
    return "\n".join(lines)
