"""URHunter core: the paper's measurement framework (§4)."""

from .analysis import MaliciousAnalysisResult, MaliciousBehaviorAnalyzer
from .collector import (
    DomainTarget,
    NameserverTarget,
    ProtectiveFingerprint,
    ResponseCollector,
)
from .correctness import (
    ALL_CONDITIONS,
    COND_AS,
    COND_CERT,
    COND_GEO,
    COND_HTTP,
    COND_IP,
    COND_PDNS,
    CorrectRecordDatabase,
    CorrectnessVerdict,
    DomainProfile,
    UniformityChecker,
)
from .hunter import HunterConfig, URHunter, WorldLike
from .longitudinal import (
    LongitudinalStudy,
    ReportDiff,
    Snapshot,
    diff_reports,
)
from .records import (
    ClassifiedUR,
    IpVerdict,
    ReportEntries,
    URCategory,
    URTable,
    URVerdicts,
    UndelegatedRecord,
    dedupe_urs,
)
from .report import MeasurementReport, TypeStats
from .suspicion import Stage2Metrics, SuspicionFilter, SuspicionOutcome
from .txt import (
    TxtCategory,
    classify_txt,
    extract_ips,
)

__all__ = [
    "ALL_CONDITIONS",
    "COND_AS",
    "COND_CERT",
    "COND_GEO",
    "COND_HTTP",
    "COND_IP",
    "COND_PDNS",
    "ClassifiedUR",
    "CorrectRecordDatabase",
    "CorrectnessVerdict",
    "DomainProfile",
    "DomainTarget",
    "HunterConfig",
    "IpVerdict",
    "LongitudinalStudy",
    "MaliciousAnalysisResult",
    "MaliciousBehaviorAnalyzer",
    "MeasurementReport",
    "NameserverTarget",
    "ProtectiveFingerprint",
    "ReportDiff",
    "ReportEntries",
    "ResponseCollector",
    "Stage2Metrics",
    "SuspicionFilter",
    "Snapshot",
    "SuspicionOutcome",
    "TxtCategory",
    "TypeStats",
    "URCategory",
    "URTable",
    "URVerdicts",
    "URHunter",
    "UndelegatedRecord",
    "UniformityChecker",
    "WorldLike",
    "classify_txt",
    "dedupe_urs",
    "diff_reports",
    "extract_ips",
]
