"""Circuit breaking for dead or flapping nameservers.

A scan of thousands of servers always meets some that are down.  Without
a breaker every task aimed at a dead server burns the full
timeout × (retries + 1) budget; with one, the engine stops paying after
a few consecutive failures and only re-probes after a cool-down.

States follow the classic pattern: CLOSED (healthy) → OPEN (failing,
queries skipped) → HALF_OPEN (one probe allowed) → CLOSED or back OPEN.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class CircuitState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class _Circuit:
    state: CircuitState = CircuitState.CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0


@dataclass
class CircuitBreaker:
    """Per-server circuits with a shared threshold and reset interval.

    The defaults are the scan engine's; the stage-2/3
    :class:`~repro.pipeline.resilience.SourceGuard` sets its own.
    """

    failure_threshold: int = 5
    reset_interval: float = 60.0
    _circuits: Dict[str, _Circuit] = field(default_factory=dict)

    def _circuit(self, server_ip: str) -> _Circuit:
        circuit = self._circuits.get(server_ip)
        if circuit is None:
            circuit = self._circuits[server_ip] = _Circuit()
        return circuit

    def state(self, server_ip: str) -> CircuitState:
        return self._circuit(server_ip).state

    def allow(self, server_ip: str, now: float) -> bool:
        """May a query be sent to ``server_ip`` right now?

        An OPEN circuit transitions to HALF_OPEN once the reset interval
        elapsed, letting exactly one probe through.
        """
        circuit = self._circuit(server_ip)
        if circuit.state is CircuitState.CLOSED:
            return True
        if circuit.state is CircuitState.HALF_OPEN:
            # one probe is already in flight; hold everything else
            return False
        if now - circuit.opened_at >= self.reset_interval:
            circuit.state = CircuitState.HALF_OPEN
            return True
        return False

    def record_success(self, server_ip: str) -> None:
        circuit = self._circuit(server_ip)
        circuit.consecutive_failures = 0
        circuit.state = CircuitState.CLOSED

    def record_failure(self, server_ip: str, now: float) -> bool:
        """Record one failure; ``True`` when it tripped the circuit.

        The return value marks the CLOSED/HALF_OPEN → OPEN transition,
        so callers can emit exactly one ``breaker.trip`` trace event per
        trip instead of one per failure.
        """
        circuit = self._circuit(server_ip)
        circuit.consecutive_failures += 1
        if circuit.state is CircuitState.HALF_OPEN:
            # the probe failed: straight back to OPEN, timer restarted
            circuit.state = CircuitState.OPEN
            circuit.opened_at = now
            return True
        if (
            circuit.state is CircuitState.CLOSED
            and circuit.consecutive_failures >= self.failure_threshold
        ):
            circuit.state = CircuitState.OPEN
            circuit.opened_at = now
            return True
        return False
