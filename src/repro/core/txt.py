"""TXT record classification and embedded-IP extraction.

§4.2: "By matching regular expression, URHunter further classifies the
undelegated TXT records according to the known categories" — the taxonomy
follows van der Toorn et al.'s *TXTing 101* study of the TXT long tail.

§4.3 labels TXT URs via the IP addresses embedded in their resource data
(the masquerading-SPF case study's ``ip4:`` mechanisms being the canonical
example), so this module also extracts those.
"""

from __future__ import annotations

import re
from typing import List, Tuple


class TxtCategory:
    """Known TXT semantic categories (superset of what Figure/§5.2 uses)."""

    SPF = "spf"
    DKIM = "dkim"
    DMARC = "dmarc"
    VERIFICATION = "domain-verification"
    KEY_EXCHANGE = "key-exchange"
    PROVIDER_NOTICE = "provider-notice"
    OTHER = "other"

    #: categories that are email-related (the §5.2 90.95% statistic)
    EMAIL_RELATED = (SPF, DMARC, DKIM)


_CLASSIFIERS: Tuple[Tuple[str, re.Pattern], ...] = (
    (TxtCategory.SPF, re.compile(r"^\s*v=spf1\b", re.IGNORECASE)),
    (TxtCategory.DMARC, re.compile(r"^\s*v=dmarc1\b", re.IGNORECASE)),
    (TxtCategory.DKIM, re.compile(r"^\s*v=dkim1\b|(^|;)\s*k=rsa\b", re.IGNORECASE)),
    (
        TxtCategory.VERIFICATION,
        re.compile(
            r"(site-verification|domain-verification|verify|"
            r"_verification|validation-token)",
            re.IGNORECASE,
        ),
    ),
    (
        TxtCategory.KEY_EXCHANGE,
        re.compile(r"^\s*(k|p)=[A-Za-z0-9+/=]{16,}", re.IGNORECASE),
    ),
    (
        TxtCategory.PROVIDER_NOTICE,
        re.compile(r"^\s*v=parked\b|not hosted", re.IGNORECASE),
    ),
)

def _group_name(category: str) -> str:
    """A category's regex-group alias (group names cannot carry ``-``)."""
    return category.replace("-", "_")


#: every classifier fused into one alternation: a single scan decides
#: whether a value belongs to *any* category, and the named group
#: identifies which alternative fired at the leftmost position
_COMBINED_CLASSIFIER = re.compile(
    "|".join(
        f"(?P<{_group_name(category)}>{pattern.pattern})"
        for category, pattern in _CLASSIFIERS
    ),
    re.IGNORECASE,
)

_GROUP_TO_CATEGORY = {
    _group_name(category): category for category, _ in _CLASSIFIERS
}

_IPV4_PATTERN = re.compile(
    r"(?<![\d.])((?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)"
    r"(?:\.(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)){3})(?![\d.])"
)

_SPF_IP4_PATTERN = re.compile(r"\bip4:((?:\d{1,3}\.){3}\d{1,3})(?:/\d{1,2})?")


def classify_txt(value: str) -> str:
    """The semantic category of one TXT value.

    One combined-alternation scan answers the common cases: no match at
    all (``other``, the long tail) and a match whose alternative is also
    the highest-precedence category that fires.  Only when a *lower*
    precedence alternative matched leftmost does the precedence scan re-
    check the individual patterns, so the result is always identical to
    trying every classifier in declaration order.
    """
    match = _COMBINED_CLASSIFIER.search(value)
    if match is None:
        return TxtCategory.OTHER
    leftmost = {
        _GROUP_TO_CATEGORY[group]
        for group, text in match.groupdict().items()
        if text is not None
    }
    for category, pattern in _CLASSIFIERS:
        if category in leftmost or pattern.search(value):
            return category
    return TxtCategory.OTHER  # unreachable: the combined scan matched


def extract_ips(value: str) -> List[str]:
    """Every IPv4 address embedded anywhere in a TXT value.

    SPF ``ip4:`` mechanisms are matched first (they may carry prefix
    lengths); any other dotted-quads in the text are appended.  Order is
    preserved and duplicates dropped.
    """
    found: List[str] = []
    for address in _SPF_IP4_PATTERN.findall(value):
        if address not in found:
            found.append(address)
    for address in _IPV4_PATTERN.findall(value):
        if address not in found:
            found.append(address)
    return found
