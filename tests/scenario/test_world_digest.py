"""The built world, pinned byte for byte.

Two digests, each over every configuration below:

* :func:`world_digest` covers everything a scan can observe of the
  world's DNS: every zone every authoritative server serves (origin,
  serial, and each record in ``records()`` order) and every registry
  delegation.  Its pins were taken before world set-up was made linear.
* :func:`world_facts_digest` covers what stage 2 reads besides DNS: each
  vendor's verdicts (which IPs, with which tags), each sandbox report
  (the sample, the IPs it contacted, its alerts), every ipinfo host, and
  every passive-DNS observation.  Its pins were taken while the paper's
  calibration values (Figure 3's observation split, behaviour mix,
  vendor-count buckets and tag shares) were still scenario fields.

A set-up change that moves a single record, verdict, alert or sighting
fails here.
"""

import hashlib

import pytest

from repro.scenario import ScenarioConfig, build_world, small_config

CONFIGS = {
    "small-1": small_config(seed=1),
    "small-2": small_config(seed=2),
    "small-3": small_config(seed=3),
    "default-7": ScenarioConfig(seed=7),
}

DNS_PINS = {
    "small-1": "086546c066f1369895fb1176daf4d2fe102c2ed4b2a1d70aee5fde90188c1d98",
    "small-2": "07ec9c9ccd7374d54dc9a60c879e6ed3c06e62833ff478eafc49d60c327112e4",
    "small-3": "20ed289b7fb0a1c0b2b9d24e667e3e7e86f0c8af40245dcc4a91ce86cd0bce7a",
    "default-7": "90798a974739bb43c98abef1d43ddb1bc62d27d9e140d315f11c9dc50757e202",
}

FACTS_PINS = {
    "small-1": "fa0a0c47aa60a0fc81df81955af39a0cdc5ab5c6db9c764b28c37640060e2abb",
    "small-2": "b2e8e16e030735d72ff00fd7f30776a5a7f516f2ed11aee533fd08db97d2f805",
    "small-3": "32d6db4c4bacd26bd8f344d2eca4697b80d692f02e94e5b56c86ab6db15c17e5",
    "default-7": "97b2a11a41478bb5f0119046344d81f1a4edfa4ba32cddeaa7a91fdc638e9ae4",
}


class _Digest:
    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def feed(self, *parts) -> None:
        self._sha.update("\t".join(str(part) for part in parts).encode())
        self._sha.update(b"\n")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def world_digest(world) -> str:
    digest = _Digest()
    for address, service in world.network.dns_hosts().items():
        zones = getattr(service, "zones", None)
        if zones is None:
            continue
        digest.feed("server", address, service.hostname)
        for zone in zones:
            digest.feed("zone", zone.origin, zone.serial)
            for record in zone.records():
                digest.feed(record.to_text())
    for registration in world.root.registrations():
        digest.feed(
            "delegation",
            registration.domain,
            registration.registrant,
            registration.registered_at,
            *(f"{host}={address}" for host, address in registration.nameservers),
        )
    return digest.hexdigest()


def world_facts_digest(world) -> str:
    digest = _Digest()
    for vendor in world.vendors:
        digest.feed("vendor", vendor.name)
        for address, verdict in vendor._verdicts.items():
            digest.feed(
                "flag", address, verdict.first_seen, *sorted(verdict.tags)
            )
    for report in world.sandbox_reports:
        sample = report.sample
        digest.feed(
            "sample",
            sample.sample_id,
            sample.family,
            sample.variant,
            sample.vendor_detections,
            *sample.labels,
        )
        digest.feed("contacted", *report.capture.destinations())
        for alert in report.alerts:
            digest.feed(
                "alert", alert.sid, alert.severity.name, alert.category,
                alert.dst,
            )
    for address, meta in world.ipinfo._hosts.items():
        page = meta.http
        digest.feed(
            "host", address, meta.asn, meta.as_name, meta.country,
            meta.cert_org, page.status, page.title, page.body, page.kind.value,
        )
    for observations in world.pdns._by_domain.values():
        for seen in observations:
            digest.feed(
                "pdns", seen.domain, seen.rrtype, seen.rdata_text,
                seen.first_seen, seen.last_seen,
            )
    return digest.hexdigest()


@pytest.fixture(scope="module", params=list(CONFIGS))
def built(request):
    """``(configuration id, world)``: one world per configuration, shared
    by both digests."""
    return request.param, build_world(CONFIGS[request.param])


def test_world_digest_is_pinned(built):
    key, world = built
    assert world_digest(world) == DNS_PINS[key]


def test_world_facts_digest_is_pinned(built):
    key, world = built
    assert world_facts_digest(world) == FACTS_PINS[key]
