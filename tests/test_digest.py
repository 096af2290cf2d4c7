"""Every digest a run writes comes from CPython's built-in SHA-256.

``import hashlib`` maps OpenSSL's libcrypto (several MiB resident), so
no module on the ``run`` path may import it: :mod:`repro.digest` binds
the built-in ``_sha2`` / ``_sha256`` instead.  Its digests must be
``hashlib``'s, byte for byte — plan hashes, group identities and store
and checkpoint keys are persisted.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.digest import json_digest, sha256

#: ``python -m repro ARGS``, then which OpenSSL-backed modules it loaded
PROBE = """
import runpy, sys
sys.argv = ["repro", *sys.argv[1:]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as done:
    code = done.code
loaded = [name for name in ("_hashlib", "hashlib") if name in sys.modules]
print("loaded:", loaded, "exit:", code, file=sys.stderr)
"""


def test_a_small_run_never_loads_openssl(tmp_path):
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            PROBE,
            "--scale",
            "small",
            "--result-store",
            str(tmp_path / "store"),
            "--checkpoint-dir",
            str(tmp_path / "checkpoint"),
            "--trace-out",
            str(tmp_path / "trace.jsonl"),
            "--metrics-out",
            str(tmp_path / "metrics.json"),
            "run",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.stderr.splitlines()[-1] == "loaded: [] exit: 0"
    assert "stage-2 exclusion metrics:" in completed.stdout
    # the run did write what the digests key
    assert list((tmp_path / "store").glob("group-*.json"))
    assert (tmp_path / "checkpoint" / "manifest.json").exists()


INPUTS = [
    b"",
    b"abc",
    "café ☃".encode("utf-8"),
    bytes(range(256)) * 4096 + b"!",  # 1 MiB and one byte
]


@pytest.mark.parametrize("data", INPUTS, ids=["empty", "abc", "utf8", "1MiB"])
def test_the_builtin_sha256_is_hashlibs(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    streamed = sha256()
    for start in range(0, len(data), 4093):
        streamed.update(data[start : start + 4093])
    assert streamed.hexdigest() == hashlib.sha256(data).hexdigest()


def test_json_digest_is_the_canonical_json_sha256():
    payload = {"z": [1, 2.5, None, True], "a": {"café": "☃"}}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert (
        json_digest(payload)
        == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    )
