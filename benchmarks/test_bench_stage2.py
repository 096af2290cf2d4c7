"""Benchmark: stage-2 exclusion, naive scan vs indexed fast path.

Builds a synthetic stage-2 workload — many candidate URs duplicated
across nameservers, a prefix-heavy IP-metadata database, a deep
passive-DNS history — and times classification twice per size:

* **naive**: linear prefix scans, full-history scans, every record
  evaluated on its own (the equivalence tests' reference stores +
  ``memoize=False`` filter);
* **indexed**: the length-bucketed prefix index, the per-domain pdns
  index, and one evaluation per distinct UR key (per-key dedup).

Both paths must classify identically (asserted), and the trajectory is
written to ``BENCH_stage2.json`` at the repo root so CI can track the
speedup across commits and fail if the fast path ever regresses below
the naive one.
"""

import json
import subprocess
import time
from pathlib import Path

from repro.core.correctness import CorrectRecordDatabase, UniformityChecker
from repro.core.records import UndelegatedRecord
from repro.core.suspicion import SuspicionFilter
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.intel.ipinfo import IpInfoDatabase
from repro.intel.pdns import PassiveDnsStore

from tests.intel.test_ipinfo_index import NaiveIpInfoDatabase
from tests.intel.test_pdns_index import NaivePassiveDnsStore

from .conftest import banner

#: (distinct UR keys, duplication across nameservers) per step
SIZES = [(60, 4), (240, 4), (960, 4)]
PREFIXES = 384
FILLER_OBSERVATIONS_PER_KEY = 6
NOW = 1_000.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_stage2.json"


def _record_address(index: int) -> str:
    return f"203.{(index // 200) % 64}.{index % 200}.{(index % 23) + 1}"


def _build_workload(n_keys: int, duplication: int, indexed: bool):
    """A self-contained stage-2 exclusion problem of the given size."""
    ipinfo = IpInfoDatabase() if indexed else NaiveIpInfoDatabase()
    # the profile block: one home network every domain resolves into
    ipinfo.register_prefix("10.0.0.0/8", 100, "HOME", "US")
    # a prefix-dense internet so the naive longest-match scan has to work
    for i in range(PREFIXES):
        ipinfo.register_prefix(
            f"203.{i // 64}.{(i % 64) * 4}.0/22",
            1_000 + i,
            f"AS{1_000 + i}",
            "JP",
        )
    pdns = PassiveDnsStore() if indexed else NaivePassiveDnsStore()
    correct_db = CorrectRecordDatabase(ipinfo)
    records = []
    for key in range(n_keys):
        domain = name(f"d{key}.bench.example")
        address = _record_address(key)
        correct_db.observe_a(domain, "10.0.0.1")
        # even keys were historically served -> excluded by pdns-history;
        # odd keys survive every condition (the expensive full walk)
        if key % 2 == 0:
            pdns.observe(domain, RRType.A, address, NOW - 100.0)
        for server in range(duplication):
            records.append(
                UndelegatedRecord(
                    domain=domain,
                    nameserver_ip=f"198.51.{server}.53",
                    provider=f"provider-{server}",
                    rrtype=RRType.A,
                    rdata_text=address,
                )
            )
    # deep unrelated history: the naive pdns path scans all of it per query
    for filler in range(n_keys * FILLER_OBSERVATIONS_PER_KEY):
        pdns.observe(
            f"filler{filler}.bench.example",
            RRType.A,
            _record_address(filler + 7),
            NOW - 50.0,
        )
    checker = UniformityChecker(correct_db, pdns=pdns)
    suspicion = SuspicionFilter(checker, protective={}, memoize=indexed)
    return suspicion, records


def _classify_timed(suspicion, records):
    start = time.perf_counter()
    outcome = suspicion.classify(records, now=NOW)
    return time.perf_counter() - start, outcome


def _git_rev() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
                cwd=Path(__file__).resolve().parent,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def test_stage2_perf_trajectory():
    sizes, naive_s, indexed_s, speedups = [], [], [], []
    banner("stage-2 exclusion: naive scan vs indexed fast path")
    for n_keys, duplication in SIZES:
        total = n_keys * duplication
        naive_filter, records = _build_workload(
            n_keys, duplication, indexed=False
        )
        fast_filter, fast_records = _build_workload(
            n_keys, duplication, indexed=True
        )
        naive_time, naive_outcome = _classify_timed(naive_filter, records)
        fast_time, fast_outcome = _classify_timed(fast_filter, fast_records)
        # the fast path must be an invisible optimization
        assert [
            (e.record.domain, e.record.nameserver_ip, e.category, e.reasons)
            for e in naive_outcome.classified
        ] == [
            (e.record.domain, e.record.nameserver_ip, e.category, e.reasons)
            for e in fast_outcome.classified
        ]
        speedup = naive_time / fast_time if fast_time > 0 else float("inf")
        sizes.append(total)
        naive_s.append(round(naive_time, 4))
        indexed_s.append(round(fast_time, 4))
        speedups.append(round(speedup, 2))
        metrics = fast_filter.last_metrics
        print(
            f"  {total:>6,} records  naive {naive_time * 1000:8.1f}ms  "
            f"indexed {fast_time * 1000:7.1f}ms  speedup {speedup:6.1f}x  "
            f"dedup {metrics.dedup_factor:.2f}x"
        )
    payload = {
        "timestamp": time.time(),
        "git_rev": _git_rev(),
        "sizes": sizes,
        "naive_s": naive_s,
        "indexed_s": indexed_s,
        "speedup": speedups,
    }
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"\nwrote {OUTPUT.name}: speedup trajectory {speedups}")
    # the fast path must never lose to the naive one at the largest size
    assert speedups[-1] >= 1.0
