"""Stage 1's result as one JSON-safe document: the equality oracle.

Two stage-1 runs that should agree — streamed and listed folds, any
group order, a warm and a cold store — are compared through
:func:`encode_stage1`: every UR in scan order, the protective
fingerprints, the correct-record profiles, the scan metrics (every wire
counter) and both timestamps.  Set-valued fields are written as sorted
lists, since set order is hash-seed dependent.
"""

from typing import Any, Dict, List

from repro.plan.shards import encode_metrics, encode_record


def encode_fingerprint(fingerprint) -> Dict[str, Any]:
    return {
        "nameserver_ip": fingerprint.nameserver_ip,
        "records": sorted(
            [rrtype, rdata] for rrtype, rdata in fingerprint.records
        ),
    }


def encode_profiles(database) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for domain in sorted(database._profiles):
        profile = database.profile(domain)
        out.append(
            {
                "domain": profile.domain.to_text(),
                "ips": sorted(profile.ips),
                "asns": sorted(profile.asns),
                "countries": sorted(profile.countries),
                "cert_orgs": sorted(profile.cert_orgs),
                "txt_values": sorted(profile.txt_values),
                "mx_values": sorted(profile.mx_values),
            }
        )
    return out


def encode_stage1(stage1) -> Dict[str, Any]:
    return {
        "undelegated": [
            encode_record(record) for record in stage1.undelegated
        ],
        "protective": [
            encode_fingerprint(fingerprint)
            for fingerprint in stage1.protective.values()
        ],
        "profiles": encode_profiles(stage1.correct_db),
        "metrics": encode_metrics(stage1.metrics),
        "now": stage1.now,
        "end": stage1.end,
    }
