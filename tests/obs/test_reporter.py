"""Leveled stderr messaging (`repro.obs.reporter`)."""

import io
import sys

from repro.obs import Reporter, Verbosity


def lines(stream: io.StringIO):
    return stream.getvalue().splitlines()


class TestLevels:
    def test_normal_shows_every_level(self):
        stream = io.StringIO()
        reporter = Reporter(Verbosity.NORMAL, stream=stream)
        reporter.error("e")
        reporter.warn("w")
        reporter.info("i")
        assert lines(stream) == ["e", "w", "i"]

    def test_quiet_keeps_errors_and_warnings(self):
        """Degraded-run banners and failures must survive -q: the exit
        code contract routes operator-critical state through them."""
        stream = io.StringIO()
        reporter = Reporter(Verbosity.QUIET, stream=stream)
        reporter.error("error: boom")
        reporter.warn("warning: degraded")
        reporter.info("# scenario: ...")
        assert lines(stream) == ["error: boom", "warning: degraded"]


class TestStreamBinding:
    def test_default_stream_is_resolved_at_call_time(self, capsys):
        """pytest swaps sys.stderr per test; a reporter constructed
        before the swap must still write to the *current* stderr."""
        reporter = Reporter()
        reporter.warn("late-bound")
        assert "late-bound" in capsys.readouterr().err

    def test_explicit_stream_wins(self, capsys):
        stream = io.StringIO()
        reporter = Reporter(stream=stream)
        reporter.error("directed")
        assert capsys.readouterr().err == ""
        assert lines(stream) == ["directed"]

    def test_nothing_ever_goes_to_stdout(self, capsys):
        reporter = Reporter(Verbosity.NORMAL)
        reporter.error("a")
        reporter.warn("b")
        reporter.info("c")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["a", "b", "c"]


class TestVerbosityCoercion:
    def test_accepts_plain_ints(self):
        assert Reporter(1).verbosity is Verbosity.NORMAL
        assert Reporter(0).verbosity is Verbosity.QUIET
