"""SHA-256 without OpenSSL, and the one canonical-JSON digest.

``import hashlib`` maps OpenSSL's libcrypto, several MiB of resident
memory, to hash a few megabytes a run.  CPython also ships its own
SHA-256 as a small built-in module — ``_sha2`` since 3.12, ``_sha256``
before — whose digests are the same bytes; ``hashlib`` is only the
fallback for an interpreter built without it.  Every digest ``src``
writes (plan hash, group identities, store and checkpoint keys, fault
seeds) comes from here.
"""

from __future__ import annotations

import json
from typing import Any

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256", "json_digest"]


def json_digest(payload: Any) -> str:
    """The hex SHA-256 of ``payload`` as canonical JSON (sorted keys,
    no whitespace)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()
