"""Domain name representation and manipulation.

DNS names are sequences of labels, case-insensitive for comparison but
case-preserving on the wire (RFC 1035 section 2.3.3, RFC 4343).  This module
provides an immutable :class:`Name` value type used throughout the library:
zone files, wire encoding, hosting-provider APIs, and the URHunter pipeline
all speak :class:`Name`.

The empty name (zero labels) is the DNS root and renders as ``"."``.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional, Tuple, Union

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255

_ALLOWED_LABEL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyz" "ABCDEFGHIJKLMNOPQRSTUVWXYZ" "0123456789-_*"
)


class NameError_(ValueError):
    """Raised for malformed domain names.

    Named with a trailing underscore to avoid shadowing the builtin
    ``NameError`` while staying recognizable at call sites.
    """


@functools.total_ordering
class Name:
    """An immutable, normalized DNS domain name.

    Instances compare case-insensitively and hash on the lowercased labels,
    so names can be used directly as dictionary keys in zone and cache
    structures.  Ordering is the DNSSEC canonical ordering (RFC 4034
    section 6.1): by reversed label sequence, lowercased.

    Construct with :meth:`from_text` (or the :func:`name` convenience
    function) rather than passing raw labels in most application code.
    """

    __slots__ = ("_labels", "_lower", "_hash")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        for label in labels:
            _validate_label(label)
        wire_length = sum(len(label) + 1 for label in labels) + 1
        if wire_length > MAX_NAME_LENGTH:
            raise NameError_(
                f"name too long: {wire_length} octets > {MAX_NAME_LENGTH}"
            )
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(
            self, "_lower", tuple(label.lower() for label in labels)
        )
        object.__setattr__(self, "_hash", hash(self._lower))

    # -- construction ---------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a dotted name; a trailing dot is accepted and ignored.

        ``""`` and ``"."`` both denote the root.  Results are interned:
        the pipeline parses the same domain text over and over (every
        record, checkpoint, and report round-trip), and Name is
        immutable, so equal texts may safely share one instance — the
        same one the wire decoder returns for those labels
        (:func:`interned`).
        """
        return _parse_interned(text)

    # -- core protocol --------------------------------------------------

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Name is immutable")

    @property
    def labels(self) -> Tuple[str, ...]:
        """The labels in presentation order (leftmost first)."""
        return self._labels

    @property
    def lowered_labels(self) -> Tuple[str, ...]:
        """The lowercased labels — the comparison/hash key.

        Suffix slices of this tuple key case-insensitive ancestor
        lookups (e.g. zone indexes) without building Name objects.
        """
        return self._lower

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._lower == other._lower

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return tuple(reversed(self._lower)) < tuple(reversed(other._lower))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._labels:
            return "."
        return ".".join(self._labels)

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    # -- queries ---------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return not self._labels

    def to_text(self, trailing_dot: bool = False) -> str:
        """Render in presentation format.

        With ``trailing_dot`` the output is fully qualified (``a.b.``);
        the root always renders as ``"."``.
        """
        if self.is_root:
            return "."
        text = str(self)
        return text + "." if trailing_dot else text

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        Raises :class:`NameError_` on the root, which has no parent.
        """
        if self.is_root:
            raise NameError_("the root name has no parent")
        return interned(self._labels[1:])

    def ancestors(self) -> Iterator["Name"]:
        """Yield every proper ancestor, nearest first, ending at the root.

        ``a.b.c`` yields ``b.c``, ``c``, ``.``.
        """
        current = self
        while not current.is_root:
            current = current.parent()
            yield current

    def is_subdomain_of(self, other: "Name") -> bool:
        """True when ``self`` is ``other`` or falls underneath it."""
        if len(other) > len(self):
            return False
        offset = len(self) - len(other)
        return self._lower[offset:] == other._lower

    def is_proper_subdomain_of(self, other: "Name") -> bool:
        """True when ``self`` falls strictly underneath ``other``."""
        return len(self) > len(other) and self.is_subdomain_of(other)

    def relativize(self, origin: "Name") -> Tuple[str, ...]:
        """Labels of ``self`` relative to ``origin``.

        Raises :class:`NameError_` when ``self`` is not a subdomain
        of ``origin``.
        """
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not a subdomain of {origin}")
        return self._labels[: len(self) - len(origin)]

    def prepend(self, *labels: str) -> "Name":
        """The name with ``labels`` added on the left (interned)."""
        return interned(tuple(labels) + self._labels)

    def split(self, depth: int) -> Tuple["Name", "Name"]:
        """Split into (prefix, suffix) where the suffix has ``depth`` labels."""
        if depth < 0 or depth > len(self):
            raise NameError_(f"cannot split {self} at depth {depth}")
        cut = len(self) - depth
        return interned(self._labels[:cut]), interned(self._labels[cut:])

    def tld(self) -> Optional["Name"]:
        """The rightmost label as a name, or None for the root."""
        if self.is_root:
            return None
        return interned(self._labels[-1:])


def _validate_label(label: str) -> None:
    if not label:
        raise NameError_("empty label")
    if len(label) > MAX_LABEL_LENGTH:
        raise NameError_(
            f"label too long: {len(label)} > {MAX_LABEL_LENGTH}: {label!r}"
        )
    # Permissive LDH plus underscore: real DNS allows arbitrary octets, and
    # operational names (e.g. _dmarc, SRV owners) rely on underscores.
    if not set(label) <= _ALLOWED_LABEL_CHARS:
        bad = set(label) - _ALLOWED_LABEL_CHARS
        raise NameError_(f"label contains invalid characters {bad!r}: {label!r}")
    if label.startswith("-") or label.endswith("-"):
        raise NameError_(f"label may not start or end with a hyphen: {label!r}")


#: The DNS root name.
ROOT = Name(())


@functools.lru_cache(maxsize=65536)
def _intern(labels: Tuple[str, ...]) -> Name:
    return Name(labels)


def interned(labels: Tuple[str, ...]) -> Name:
    """The one shared :class:`Name` for an exact label tuple.

    The wire and RDATA decoders, :meth:`Name.from_text` and the derived
    names (:meth:`Name.parent`, :meth:`~Name.prepend`, :meth:`~Name.split`,
    :meth:`~Name.tld`) all go through here, so a name held by many
    decoded messages and zone keys — in the codec's answer templates, the
    resolver caches, the collected records — is one object.
    The key is the exact labels: ``Ex.COM`` and ``ex.com`` are equal
    names but distinct objects, each keeping its own spelling.  A label
    is validated the first time its tuple is seen; a raised
    :class:`NameError_` is never cached (``lru_cache`` stores only
    results).
    """
    return _intern(labels) if labels else ROOT


@functools.lru_cache(maxsize=65536)
def _parse_interned(text: str) -> Name:
    """The uncached parse behind :meth:`Name.from_text`.

    Raised :class:`NameError_` is not cached — ``lru_cache`` only
    stores successful results, so malformed inputs stay cheap to reject
    repeatedly without poisoning the cache.
    """
    if text in ("", "."):
        return ROOT
    if text.endswith("."):
        text = text[:-1]
    if not text:
        return ROOT
    labels = text.split(".")
    if any(not label for label in labels):
        raise NameError_(f"empty label in name: {text!r}")
    return interned(tuple(labels))


def name(value: Union[str, Name]) -> Name:
    """Coerce a string or :class:`Name` to a :class:`Name`.

    The standard entry point for APIs that accept either form.
    """
    if isinstance(value, Name):
        return value
    return Name.from_text(value)
