"""The built world, pinned byte for byte.

One digest covers everything a scan can observe of the world's DNS:
every zone every authoritative server serves (origin, serial, and each
record in ``records()`` order) and every registry delegation.  The pins
were taken before world set-up was made linear; a set-up change that
moves a single record, serial or delegation fails here.
"""

import hashlib

import pytest

from repro.scenario import ScenarioConfig, build_world, small_config


def world_digest(world) -> str:
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        digest.update("\t".join(str(part) for part in parts).encode())
        digest.update(b"\n")

    for address, service in world.network.dns_hosts().items():
        zones = getattr(service, "zones", None)
        if zones is None:
            continue
        feed("server", address, service.hostname)
        for zone in zones:
            feed("zone", zone.origin, zone.serial)
            for record in zone.records():
                feed(record.to_text())
    for registration in world.root.registrations():
        feed(
            "delegation",
            registration.domain,
            registration.registrant,
            registration.registered_at,
            *(f"{host}={address}" for host, address in registration.nameservers),
        )
    return digest.hexdigest()


@pytest.mark.parametrize(
    "config, expected",
    [
        (
            small_config(seed=1),
            "086546c066f1369895fb1176daf4d2fe102c2ed4b2a1d70aee5fde90188c1d98",
        ),
        (
            small_config(seed=2),
            "07ec9c9ccd7374d54dc9a60c879e6ed3c06e62833ff478eafc49d60c327112e4",
        ),
        (
            small_config(seed=3),
            "20ed289b7fb0a1c0b2b9d24e667e3e7e86f0c8af40245dcc4a91ce86cd0bce7a",
        ),
        (
            ScenarioConfig(seed=7),
            "90798a974739bb43c98abef1d43ddb1bc62d27d9e140d315f11c9dc50757e202",
        ),
    ],
    ids=["small-1", "small-2", "small-3", "default-7"],
)
def test_world_digest_is_pinned(config, expected):
    assert world_digest(build_world(config)) == expected
