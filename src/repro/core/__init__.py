"""URHunter core: the paper's measurement framework (§4)."""

from .analysis import MaliciousAnalysisResult, MaliciousBehaviorAnalyzer
from .collector import (
    CollectionResult,
    DomainTarget,
    NameserverTarget,
    ProtectiveFingerprint,
    ResponseCollector,
    select_target_nameservers,
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
from .hunter import (
    HunterConfig,
    URHunter,
    WorldLike,
    recover_pdns_subdomains,
)
from .longitudinal import (
    LongitudinalStudy,
    ReportDiff,
    Snapshot,
    diff_reports,
)
from .parallel import Stage2Metrics
from .records import (
    ClassifiedUR,
    IpVerdict,
    URCategory,
    UndelegatedRecord,
    dedupe_urs,
)
from .report import MeasurementReport, TypeStats
from .suspicion import SuspicionFilter, SuspicionOutcome
from .txt import (
    TxtCategory,
    classify_txt,
    extract_ips,
    is_email_related,
    spf_mechanisms,
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
    "CollectionResult",
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
    "ResponseCollector",
    "Stage2Metrics",
    "SuspicionFilter",
    "Snapshot",
    "SuspicionOutcome",
    "TxtCategory",
    "TypeStats",
    "URCategory",
    "URHunter",
    "UndelegatedRecord",
    "UniformityChecker",
    "WorldLike",
    "classify_txt",
    "dedupe_urs",
    "diff_reports",
    "extract_ips",
    "is_email_related",
    "recover_pdns_subdomains",
    "select_target_nameservers",
    "spf_mechanisms",
]
