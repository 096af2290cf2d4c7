"""Leveled operator messaging: the one stderr API.

The CLI used to scatter ``print(..., file=sys.stderr)`` around its main
function; every operator-facing message now goes through one
:class:`Reporter`, which enforces the contract the byte-compared
transcripts rely on: **stdout carries machine-readable output only**,
stderr carries human diagnostics, and ``-q`` hides the routine part of
the latter.

Levels:

* :meth:`Reporter.error` — always shown (even ``--quiet``); failures
  the exit code also reports.
* :meth:`Reporter.warn` — always shown; degraded-run banners and
  recovery hints operators must not miss.
* :meth:`Reporter.info` — shown at normal verbosity; progress banners
  and per-run diagnostics (``# scenario: ...``).

The stream is resolved at call time (default ``sys.stderr``) so pytest
capture and stream redirection work without re-wiring the reporter.
"""

from __future__ import annotations

import enum
import sys
from typing import Any, Optional, TextIO


class Verbosity(enum.IntEnum):
    """How chatty stderr is; stdout is unaffected."""

    QUIET = 0
    NORMAL = 1


class Reporter:
    """Writes leveled operator messages to stderr (or a given stream)."""

    def __init__(
        self,
        verbosity: Verbosity = Verbosity.NORMAL,
        stream: Optional[TextIO] = None,
    ):
        self.verbosity = Verbosity(verbosity)
        self._stream = stream

    @property
    def stream(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stderr

    def _write(self, message: Any) -> None:
        print(message, file=self.stream)

    # -- levels ------------------------------------------------------------

    def error(self, message: Any) -> None:
        """A failure; shown at every verbosity."""
        self._write(message)

    def warn(self, message: Any) -> None:
        """An operator-critical condition; shown at every verbosity."""
        self._write(message)

    def info(self, message: Any) -> None:
        """Routine diagnostics; hidden by ``--quiet``."""
        if self.verbosity >= Verbosity.NORMAL:
            self._write(message)
