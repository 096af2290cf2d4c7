"""Simulated internet substrate: addressing, transport, traffic capture."""

from .address import (
    AddressError,
    AddressPool,
    Prefix,
    PrefixPlanner,
    int_to_ip,
    ip_to_int,
    same_slash24,
)
from .network import NetworkError, SimulatedInternet
from .traffic import DNS_PORT, FlowRecord, Protocol, TrafficCapture

__all__ = [
    "AddressError",
    "AddressPool",
    "DNS_PORT",
    "FlowRecord",
    "NetworkError",
    "Prefix",
    "PrefixPlanner",
    "Protocol",
    "SimulatedInternet",
    "TrafficCapture",
    "int_to_ip",
    "ip_to_int",
    "same_slash24",
]
