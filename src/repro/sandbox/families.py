"""Malware family implementations.

The paper's case studies (§5.3) analyze concrete families; each is
reproduced here as behaviour code operating purely through the sandbox
environment:

* **Dark.IoT** — IoT botnet; 2021 variants resolve ``api.gitlab.com``
  URs at ClouDNS for their C2 and keep OpenNIC fallback domains on
  EmerDNS; the 2023-03-04 variant abandons EmerDNS and moves everything
  (including the OpenNIC domains) to ClouDNS URs for
  ``raw.pastebin.com``.
* **Specter** — a RAT holding C2 connections via URs for ``ibm.com`` and
  ``api.github.com`` on ClouDNS; undetected by all 74 AV engines.
* **Micropsia** — trojan consuming the masquerading SPF UR of
  ``speedtest.net`` and producing C2 traffic.
* **AgentTesla** — trojan consuming the same SPF UR and exfiltrating via
  an SMTP covert channel.
* generic **trojan / scanner / benign** samples for bulk scenarios.

Every behaviour extracts its rendezvous information from DNS responses at
runtime — nothing is hardcoded past the domain + nameserver pair, exactly
like the real samples.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..net.traffic import Protocol
from ..dns.rdata import RRType
from .malware import MalwareSample, SandboxEnvironment

SPF_IP4_PATTERN = re.compile(r"ip4:((?:\d{1,3}\.){3}\d{1,3})")


@dataclass
class UrTarget:
    """A (domain, nameserver IPs) pair a sample abuses."""

    domain: str
    nameserver_ips: Sequence[str]


def _first_a_via_urs(
    environment: SandboxEnvironment, target: UrTarget
) -> Optional[str]:
    """Resolve ``target.domain`` at each nameserver until an A comes back."""
    for nameserver_ip in target.nameserver_ips:
        response = environment.resolve_at(
            nameserver_ip, target.domain, RRType.A
        )
        addresses = environment.extract_a(response)
        if addresses:
            return addresses[0]
    return None


def _txt_via_urs(
    environment: SandboxEnvironment, target: UrTarget
) -> List[str]:
    values: List[str] = []
    for nameserver_ip in target.nameserver_ips:
        response = environment.resolve_at(
            nameserver_ip, target.domain, RRType.TXT
        )
        values.extend(environment.extract_txt(response))
        if values:
            break
    return values


# ---------------------------------------------------------------------------
# Dark.IoT
# ---------------------------------------------------------------------------


#: the OpenNIC domain Dark.IoT falls back to through EmerDNS
DARKIOT_OPENNIC_DOMAIN = "dark.libre"


def make_darkiot_2021_variants(
    gitlab_ur: UrTarget, emerdns_resolver_ip: str
) -> List[MalwareSample]:
    """The two 2021-12-12 variants: ClouDNS UR + EmerDNS fallback."""

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        env.connect(
            "192.88.99.1",
            80,
            b"GET /generate_204 HTTP/1.1\r\nHost: connectivity\r\n\r\n",
            protocol=Protocol.HTTP,
        )
        c2 = _first_a_via_urs(env, gitlab_ur)
        if c2 is None:
            # Fallback: the OpenNIC domain via the EmerDNS resolver.
            response = env.resolve_at(
                emerdns_resolver_ip, DARKIOT_OPENNIC_DOMAIN, RRType.A
            )
            addresses = env.extract_a(response)
            c2 = addresses[0] if addresses else None
            env.note(f"fell back to EmerDNS for {DARKIOT_OPENNIC_DOMAIN}")
        if c2 is None:
            env.note("no C2 found; sample went dormant")
            return
        env.connect(
            c2,
            1337,
            b"MIRAI-SYN dark.iot/checkin botid=%s" % sample.sample_id.encode(),
        )
        env.connect(c2, 1337, b"C2-HEARTBEAT seq=1")

    return [
        MalwareSample(
            sample_id=f"darkiot-2021-{index}",
            family="Dark.IoT",
            variant="2021-12-12",
            release_date="2021-12-12",
            behaviour=behaviour,
            vendor_detections=17,
            labels=("Trojan", "Botnet", "IoT"),
            description=(
                "Resolves api.gitlab.com at ClouDNS nameservers for C2; "
                "EmerDNS-hosted OpenNIC fallback"
            ),
        )
        for index in (1, 2)
    ]


def make_darkiot_2023_variant(
    pastebin_ur: UrTarget,
    opennic_ur: UrTarget,
) -> MalwareSample:
    """The 2023-03-04 variant: EmerDNS abandoned, everything rides URs."""

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        c2 = _first_a_via_urs(env, pastebin_ur)
        if c2 is None:
            # The OpenNIC domains themselves are now hosted as URs on
            # ClouDNS — no alternative root needed anymore.
            c2 = _first_a_via_urs(env, opennic_ur)
            env.note("used ClouDNS-hosted OpenNIC UR (EmerDNS abandoned)")
        if c2 is None:
            env.note("no C2 found; sample went dormant")
            return
        env.connect(c2, 1337, b"MIRAI-SYN dark.iot/checkin v2023")
        env.connect(c2, 1337, b"C2-HEARTBEAT seq=1")

    return MalwareSample(
        sample_id="darkiot-2023-1",
        family="Dark.IoT",
        variant="2023-03-04",
        release_date="2023-03-04",
        behaviour=behaviour,
        vendor_detections=9,
        labels=("Trojan", "Botnet", "IoT"),
        description=(
            "Resolves raw.pastebin.com at ClouDNS for C2; OpenNIC domains "
            "moved from EmerDNS onto ClouDNS URs"
        ),
    )


# ---------------------------------------------------------------------------
# Specter
# ---------------------------------------------------------------------------


def make_specter_variants(
    ibm_ur: UrTarget,
    github_ur: UrTarget,
) -> List[MalwareSample]:
    """Three Specter RAT variants maintaining C2 through URs.

    ``vendor_detections=0`` mirrors the paper: "they have not been
    flagged yet as malicious by 74 mainstream security vendors".
    """

    def behaviour_for(target: UrTarget):
        def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
            c2 = _first_a_via_urs(env, target)
            if c2 is None:
                env.note("no C2 via URs; retry later")
                return
            env.connect(c2, 4444, b"SPECTER-HELLO id=" + sample.sample_id.encode())
            env.connect(c2, 4444, b"SPECTER-HELLO keepalive")

        return behaviour

    targets = [ibm_ur, github_ur, ibm_ur]
    return [
        MalwareSample(
            sample_id=f"specter-{index + 1}",
            family="Specter",
            variant=f"v{index + 1}",
            release_date="2022-06-01",
            behaviour=behaviour_for(target),
            vendor_detections=0,
            labels=("RAT",),
            description=(
                f"RAT maintaining C2 via URs for {target.domain} on ClouDNS"
            ),
        )
        for index, target in enumerate(targets)
    ]


# ---------------------------------------------------------------------------
# The masquerading-SPF campaign (Micropsia + AgentTesla)
# ---------------------------------------------------------------------------


def extract_spf_ips(txt_values: Sequence[str]) -> List[str]:
    """IPv4 addresses from ``ip4:`` mechanisms in SPF-shaped TXT values."""
    addresses: List[str] = []
    for value in txt_values:
        addresses.extend(SPF_IP4_PATTERN.findall(value))
    return addresses


def make_micropsia_samples(
    spf_ur: UrTarget, count: int = 2
) -> List[MalwareSample]:
    """Micropsia trojans reading C2 addresses out of the SPF UR."""

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        txt_values = _txt_via_urs(env, spf_ur)
        addresses = extract_spf_ips(txt_values)
        if not addresses:
            env.note("SPF UR unavailable; dormant")
            return
        c2 = addresses[0]
        env.connect(c2, 8080, b"MICROPSIA-TASK fetch id=" + sample.sample_id.encode())

    return [
        MalwareSample(
            sample_id=f"micropsia-{index + 1}",
            family="Micropsia",
            variant=f"v{index + 1}",
            release_date="2022-09-15",
            behaviour=behaviour,
            vendor_detections=21,
            labels=("Trojan",),
            description=(
                f"Trojan obtaining C2 from the masquerading SPF record of "
                f"{spf_ur.domain}"
            ),
        )
        for index in range(count)
    ]


def make_tesla_samples(
    spf_ur: UrTarget, count: int = 3, detected: int = 2
) -> List[MalwareSample]:
    """AgentTesla trojans exfiltrating over an SMTP covert channel.

    ``detected`` of the ``count`` samples carry AV detections; the paper
    found one related sample "classified as harmless by all 74 vendors".
    """

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        txt_values = _txt_via_urs(env, spf_ur)
        addresses = extract_spf_ips(txt_values)
        if not addresses:
            env.note("SPF UR unavailable; dormant")
            return
        # Rotate across the advertised mail hosts like the real campaign.
        # (zlib.crc32, not hash(): str hashing is salted per process and
        # would break cross-process determinism.)
        digest = zlib.crc32(sample.sample_id.encode())
        mail_host = addresses[digest % len(addresses)]
        env.smtp_send(
            mail_host,
            [
                "EHLO victim.localdomain",
                "MAIL FROM:<update@speedtest.net>",
                "RCPT TO:<drop@speedtest.net>",
                "DATA",
                "X-Covert-Channel: v1",
                "Content-Transfer-Encoding: base64",
                "base64,U1RPTEVOLWNyZWRlbnRpYWxz",
                ".",
            ],
        )

    return [
        MalwareSample(
            sample_id=f"tesla-{index + 1}",
            family="AgentTesla",
            variant=f"v{index + 1}",
            release_date="2022-10-02",
            behaviour=behaviour,
            vendor_detections=33 if index < detected else 0,
            labels=("Trojan",) if index < detected else (),
            description=(
                "Trojan using the masquerading SPF UR for SMTP-based "
                "covert communication"
            ),
        )
        for index in range(count)
    ]


# ---------------------------------------------------------------------------
# Generic families for bulk scenarios
# ---------------------------------------------------------------------------


def make_generic_trojan(index: int, ur: UrTarget) -> MalwareSample:
    """A run-of-the-mill trojan wired to one UR."""

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        c2 = _first_a_via_urs(env, ur)
        if c2 is None:
            return
        env.connect(
            c2,
            8080,
            b"POST /gate.php HTTP/1.1\r\nX-Trojan-Session: "
            + sample.sample_id.encode(),
            protocol=Protocol.HTTP,
        )

    return MalwareSample(
        sample_id=f"trojan-{index:05d}",
        family="GenericTrojan",
        variant="bulk",
        release_date="2022-04-01",
        behaviour=behaviour,
        vendor_detections=5,
        labels=("Trojan",),
        description=f"Generic trojan using UR for {ur.domain}",
    )


def make_generic_scanner(index: int, ur: UrTarget) -> MalwareSample:
    """Reconnaissance malware: resolves its controller via a UR, then
    sweeps ten hosts of the /24 around it (the paper: scanning is 41% of
    flagged IPs)."""

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        base = _first_a_via_urs(env, ur)
        if base is None:
            return
        prefix = base.rsplit(".", 1)[0]
        for host in range(201, 211):
            env.connect(f"{prefix}.{host}", 445, b"\x00probe")
        env.connect(base, 445, b"\x00probe-report")

    return MalwareSample(
        sample_id=f"scanner-{index:05d}",
        family="GenericScanner",
        variant="bulk",
        release_date="2022-05-10",
        behaviour=behaviour,
        vendor_detections=3,
        labels=("Scanner",),
        description=f"Scanner coordinated through UR for {ur.domain}",
    )


def make_generic_exfil(index: int, ur: UrTarget) -> MalwareSample:
    """Spyware exfiltrating stolen data to a UR-provided server."""

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        c2 = _first_a_via_urs(env, ur)
        if c2 is None:
            return
        env.connect(
            c2,
            443,
            b"EXFIL-BEGIN X-Stolen-Data: password-dump chunk=1",
        )

    return MalwareSample(
        sample_id=f"exfil-{index:05d}",
        family="GenericStealer",
        variant="bulk",
        release_date="2022-07-19",
        behaviour=behaviour,
        vendor_detections=7,
        labels=("Trojan", "Malware"),
        description=f"Stealer exfiltrating via UR for {ur.domain}",
    )


def make_generic_c2(index: int, ur: UrTarget) -> MalwareSample:
    """Bot holding a long-lived C2 channel through a UR."""

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        c2 = _first_a_via_urs(env, ur)
        if c2 is None:
            return
        env.connect(c2, 6667, b"BOT-REGISTER id=" + sample.sample_id.encode())
        env.connect(c2, 6667, b"C2-HEARTBEAT seq=1")

    return MalwareSample(
        sample_id=f"bot-{index:05d}",
        family="GenericBot",
        variant="bulk",
        release_date="2022-03-11",
        behaviour=behaviour,
        vendor_detections=4,
        labels=("Botnet", "C&C"),
        description=f"Bot with C2 via UR for {ur.domain}",
    )


def make_generic_badtraffic(index: int, ur: UrTarget) -> MalwareSample:
    """Broken malware emitting malformed traffic (port 0) to its UR IP."""

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        c2 = _first_a_via_urs(env, ur)
        if c2 is None:
            return
        env.connect(c2, 0, b"\x00\x00\x00\x00garbled")

    return MalwareSample(
        sample_id=f"badtraffic-{index:05d}",
        family="GenericBroken",
        variant="bulk",
        release_date="2022-08-30",
        behaviour=behaviour,
        vendor_detections=2,
        labels=("Malware",),
        description=f"Malformed beacon toward UR for {ur.domain}",
    )


def make_benign_updater(index: int, domain: str) -> MalwareSample:
    """A benign sample (false-positive pressure for the pipeline): normal
    recursive resolution plus a connectivity check."""

    def behaviour(sample: MalwareSample, env: SandboxEnvironment) -> None:
        response = env.resolve(domain, RRType.A)
        addresses = env.extract_a(response)
        if addresses:
            env.connect(
                addresses[0],
                80,
                b"GET /connecttest.txt HTTP/1.1\r\nHost: updates\r\n\r\n",
                protocol=Protocol.HTTP,
            )

    return MalwareSample(
        sample_id=f"benign-{index:05d}",
        family="BenignUpdater",
        variant="bulk",
        release_date="2022-01-20",
        behaviour=behaviour,
        vendor_detections=0,
        labels=(),
        description=f"Benign updater fetching {domain} normally",
    )
