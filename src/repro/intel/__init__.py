"""Threat-intelligence substrate: IP metadata, vendors, passive DNS."""

from .aggregator import IntelReport, ThreatIntelAggregator
from .ipinfo import (
    HttpPage,
    IpInfoDatabase,
    IpMetadata,
    PAGE_KEYWORDS,
    PageKind,
)
from .pdns import SIX_YEARS, PassiveDnsStore, PdnsObservation
from .vendor import (
    SecurityVendor,
    VendorVerdict,
    default_vendor_fleet,
)

__all__ = [
    "HttpPage",
    "IntelReport",
    "IpInfoDatabase",
    "IpMetadata",
    "PAGE_KEYWORDS",
    "PageKind",
    "PassiveDnsStore",
    "PdnsObservation",
    "SIX_YEARS",
    "SecurityVendor",
    "ThreatIntelAggregator",
    "VendorVerdict",
    "default_vendor_fleet",
]
