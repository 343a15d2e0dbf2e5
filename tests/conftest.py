from subpace.engine import Recorder


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
                      packet.size - sender.frame_overhead, packet.is_retransmission))
        return transmit(packet)

    sender.transmit = spy
    return sends
