"""Public suffix list handling.

The paper's Appendix C distinguishes second-level domains (SLDs) from
effective TLDs (eTLDs) — public suffixes such as ``gov.cn`` operated by
registries — because hosting providers treat them differently and attackers
can claim eTLDs to shadow entire namespaces.

We embed a snapshot of the public suffix list covering the suffixes that
appear in the paper plus a representative sample, and support the standard
algorithm (longest matching rule, wildcard rules, exception rules) from
https://publicsuffix.org/list/.
"""

from __future__ import annotations

from typing import Optional, Set, Union

from .name import Name, name

#: Suffix rules shipped by default.  A leading ``*.`` is a wildcard rule and
#: a leading ``!`` is an exception rule, as in the real PSL format.
DEFAULT_RULES = (
    # Generic TLDs.
    "com", "net", "org", "info", "biz", "io", "co", "dev", "app", "xyz",
    "online", "site", "top", "shop", "cloud", "me", "tv", "cc",
    # Country TLDs used in the paper and common ccTLD second levels.
    "cn", "com.cn", "net.cn", "org.cn", "gov.cn", "edu.cn", "ac.cn",
    "uk", "co.uk", "org.uk", "ac.uk", "gov.uk",
    "jp", "co.jp", "ne.jp", "ac.jp", "go.jp",
    "kr", "co.kr", "go.kr",
    "kp", "gov.kp", "edu.kp",
    "de", "fr", "cci.fr", "nl", "ru", "com.ru", "br", "com.br", "gov.br",
    "in", "co.in", "gov.in", "au", "com.au", "gov.au",
    "gd", "gov.gd", "fm", "edu.fm", "na", "info.na",
    "us", "ca", "it", "es", "se", "ch", "pl", "tr", "com.tr",
    "mx", "com.mx", "ar", "com.ar", "za", "co.za",
    # Wildcard and exception rules (mirroring real PSL constructs).
    "*.ck", "!www.ck",
    "*.bd",
)


class PublicSuffixList:
    """A public suffix list with the standard matching algorithm.

    >>> psl = PublicSuffixList()
    >>> str(psl.registrable_domain(name("www.example.gov.cn")))
    'example.gov.cn'
    >>> psl.is_public_suffix(name("gov.cn"))
    True
    """

    def __init__(self) -> None:
        self._exact: Set[Name] = set()
        self._wildcards: Set[Name] = set()
        self._exceptions: Set[Name] = set()
        for rule in DEFAULT_RULES:
            self.add_rule(rule)

    def add_rule(self, rule: str) -> None:
        """Add one PSL rule in presentation format."""
        rule = rule.strip().lower()
        if not rule:
            return
        if rule.startswith("!"):
            self._exceptions.add(name(rule[1:]))
        elif rule.startswith("*."):
            self._wildcards.add(name(rule[2:]))
        else:
            self._exact.add(name(rule))

    def public_suffix(self, domain: Union[str, Name]) -> Optional[Name]:
        """The longest public suffix of ``domain``, or None if there is none.

        Follows the PSL algorithm: exception rules beat wildcard rules,
        longer matches beat shorter ones, and an unlisted TLD is treated
        as a suffix of one label (the ``*`` implicit rule).
        """
        domain = name(domain)
        if domain.is_root:
            return None
        best: Optional[Name] = None
        candidates = [domain, *domain.ancestors()]
        for candidate in candidates:
            if candidate.is_root:
                continue
            if candidate in self._exceptions:
                # An exception rule makes the candidate registrable; its
                # parent is the suffix.
                return candidate.parent()
            if candidate in self._exact:
                if best is None or len(candidate) > len(best):
                    best = candidate
            if len(candidate) >= 2 and candidate.parent() in self._wildcards:
                if best is None or len(candidate) > len(best):
                    best = candidate
        if best is None:
            # Implicit "*" rule: the TLD itself is the suffix.
            best = domain.tld()
        return best

    def is_public_suffix(self, domain: Union[str, Name]) -> bool:
        """True when ``domain`` itself is a public suffix (an eTLD)."""
        domain = name(domain)
        suffix = self.public_suffix(domain)
        return suffix == domain

    def registrable_domain(self, domain: Union[str, Name]) -> Optional[Name]:
        """The eTLD+1 of ``domain`` (the unit a registrant can register).

        None when ``domain`` is itself a public suffix or the root.
        """
        domain = name(domain)
        suffix = self.public_suffix(domain)
        if suffix is None or suffix == domain:
            return None
        prefix = domain.relativize(suffix)
        return suffix.prepend(prefix[-1])


#: The one instance the program reads.
DEFAULT_PSL = PublicSuffixList()
