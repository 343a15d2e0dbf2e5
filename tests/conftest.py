from unittest.mock import patch

from hypothesis import settings

from subpace import endpoint
from subpace.endpoint import TcpSender
from subpace.engine import Recorder

# `pytest --hypothesis-profile=thorough` runs every property test with ten
# times its examples and no deadline; the default profile is left as it is.
settings.register_profile("thorough", max_examples=10 * settings.default.max_examples,
                          deadline=None)


def examples(n: int) -> int:
    """A property test's example count: n by default, ten times n under `thorough`."""
    return n * settings.default.max_examples // settings.get_profile("default").max_examples


class LoggingRecorder(Recorder):
    """Keeps every observation as a (kind, now, *details) row, then passes it on.

    Install it in front of whatever recorder the engine already has, so a
    simulation's own metrics see the same calls:
    `engine.recorder = LoggingRecorder(engine.recorder)`.
    """

    def __init__(self, inner: Recorder):
        self.inner = inner
        self.rows: list[tuple] = []

    def of(self, kind: str) -> list[tuple]:
        """Rows of one kind, without the kind column."""
        return [row[1:] for row in self.rows if row[0] == kind]

    def backlog(self, now, backlog):
        self.rows.append(("backlog", now, backlog))
        self.inner.backlog(now, backlog)

    def departure(self, now, flow_id, size, backlog):
        self.rows.append(("departure", now, flow_id, size, backlog))
        self.inner.departure(now, flow_id, size, backlog)

    def drop(self, now):
        self.rows.append(("drop", now))
        self.inner.drop(now)

    def mark(self, now):
        self.rows.append(("mark", now))
        self.inner.mark(now)

    def rto(self, now, flow_id):
        self.rows.append(("rto", now, flow_id))
        self.inner.rto(now, flow_id)


class FixedWindowSender(TcpSender):
    """A sender whose congestion window never grows, so a test's window stays as it set it.

    Reductions still apply; only `_grow`, the one place the congestion window rises, does nothing.
    """

    __slots__ = ()

    def _grow(self, now, advance):
        pass


def rto_timers(rto_min: int, rto_initial: int):
    """Set the endpoint's RTO floor and initial RTO for a `with` block or a decorated test.

    Senders read both constants each time they arm the RTO, so the values hold
    for senders built before the block as well as inside it.  Each call makes
    a fresh patch, so it also serves inside a hypothesis test's body.
    """
    return patch.multiple(endpoint, RTO_MIN=rto_min, RTO_INITIAL=rto_initial)


def log_recorder(engine) -> LoggingRecorder:
    """Put a LoggingRecorder in front of the engine's recorder and return it."""
    engine.recorder = LoggingRecorder(engine.recorder)
    return engine.recorder


def log_sends(sender) -> list[tuple[int, int, int, bool]]:
    """Spy on a sender's transmit seam; rows are (time, seq, payload, is_retx)."""
    sends = []
    transmit = sender.transmit

    def spy(packet):
        sends.append((packet.sent_at, packet.seq_bytes,
                      packet.end_bytes - packet.seq_bytes, packet.is_retransmission))
        return transmit(packet)

    sender.transmit = spy
    return sends
