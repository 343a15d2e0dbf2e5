"""Per-flow TCP-like sender and receiver state machines.

One window accounting serves both sender modes.  `window` is a signed
clocking balance: a new-data send moves its bytes into `unreclaimed`, the
credit in flight, and a cumulative ACK moves the acked bytes back.  The sum,
`conceptual_window`, is the congestion window; slow start ends at the first
congestion signal.  The sub-MSS change is the three places that read the
mode: `floor` (two segments, or `w_min` bytes below one); `_pump` (a short
window stalls baseline, while submss paces the deficit into a timed wait and
lets `window` go negative); and `_on_rto` (baseline collapses to the floor
and doubles the timer, submss halves and lets the growing wait back off).

The receiver implements standard delayed ACKs (every n segments or on a
timer), immediate duplicate ACKs for out-of-order arrivals, and ECE echo for
any ACK covering a CE-marked segment.
"""

from collections import deque
from dataclasses import dataclass

from .engine import MS, SEC, Engine, Timer
from .netpath import Packet
from .pacing import Pacer, segment_size

BASELINE = "baseline"
SUBMSS = "submss"
RENO_LIKE = "reno-like"
DCTCP_LIKE = "dctcp-like"
SENDER_MODES = (BASELINE, SUBMSS)
CC_VARIANTS = (RENO_LIKE, DCTCP_LIKE)

DCTCP_GAIN = 1.0 / 16.0

# Fixed endpoint timing; Tuning holds only what tests vary.
RTO_MAX = 60 * SEC
INITIAL_RTT = 100 * MS  # pacing and ECE-gate RTT before the first sample
DELACK_TIMEOUT = 40 * MS
ACK_EVERY = 2  # segments per delayed ACK


class ProtocolError(Exception):
    """An endpoint observed something the protocol forbids (e.g. ACK of unsent data)."""


def sender_problem(mode: str, cc_variant: str) -> tuple[str, str] | None:
    """The first scenario key that names an unknown sender choice and why, or None."""
    if mode not in SENDER_MODES:
        return "sender_mode", f"expected one of {', '.join(SENDER_MODES)}, got {mode!r}"
    if cc_variant not in CC_VARIANTS:
        return "cc_variant", f"expected one of {', '.join(CC_VARIANTS)}, got {cc_variant!r}"
    return None


@dataclass(frozen=True)
class Tuning:
    """Sender constants that tests vary; defaults follow common practice."""

    rto_min: int = 200 * MS
    rto_initial: int = 1 * SEC
    growth_enabled: bool = True

    def __post_init__(self):
        for name in ("rto_min", "rto_initial"):
            value = getattr(self, name)
            if not 0 < value <= RTO_MAX:
                raise ValueError(f"{name}: must be positive and at most {RTO_MAX} ns, got {value}")


DEFAULT_TUNING = Tuning()


@dataclass(slots=True)
class Ack:
    flow_id: int
    ack_bytes: int
    ece: bool


class TcpSender:
    def __init__(
        self,
        engine: Engine,
        flow_id: int,
        mss: int,
        frame_overhead: int,
        mode: str,
        cc_variant: str,
        ecn_capable: bool,
        w_min: int,
        transmit,
        tuning: Tuning = DEFAULT_TUNING,
    ):
        problem = sender_problem(mode, cc_variant)
        if problem:
            raise ValueError("%s: %s" % problem)
        self.engine = engine
        self.flow_id = flow_id
        self.mss = mss
        self.frame_overhead = frame_overhead
        self.mode = mode
        self.cc_variant = cc_variant
        self.ecn_capable = ecn_capable
        if w_min < 1:
            raise ValueError(f"w_min: must be at least 1 byte, got {w_min}")
        self.w_min = w_min
        self.transmit = transmit
        self.tuning = tuning

        self.window = 2 * mss  # signed clocking balance
        self.slow_start = True
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_q = 0
        self.unreclaimed = 0  # new-data bytes sent, neither acked nor written off by an RTO

        self.srtt: int | None = None
        self.rttvar = 0
        self.rto_backoff = 1

        self.dup_acks = 0
        self.recovery_until = 0
        self.ece_gate_until = 0
        self.segments: deque[Packet] = deque()  # sent and not yet acked, oldest first
        self.retx_head = False  # segments[0] is due for retransmission

        self._ca_acked = 0
        self.dctcp_alpha = 0.0
        self._dctcp_acked = 0
        self._dctcp_marked = 0
        self._dctcp_window_end = 0

        self.pacer = Pacer(engine, self.rtt, self._on_pacer_ready)
        self.rto_timer = Timer(engine, self._on_rto, "rto")

    # -- window bookkeeping -------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def floor(self) -> int:
        return 2 * self.mss if self.mode == BASELINE else self.w_min

    @property
    def conceptual_window(self) -> int:
        """The congestion window: the clocking balance plus the credit in flight.

        Reductions act on this sum, or a full pipe (balance near zero, credit
        holding the real window) would shrug them off.  In baseline mode the
        credit always equals `in_flight`.
        """
        return self.window + self.unreclaimed

    def rtt(self) -> int:
        """R for the pacer and the ECE gate: the smoothed RTT, or INITIAL_RTT before a sample."""
        return self.srtt or INITIAL_RTT

    def current_rto(self) -> int:
        if self.srtt is None:
            base = self.tuning.rto_initial
        else:
            base = self.srtt + max(1, 4 * self.rttvar)
        return min(RTO_MAX, max(self.tuning.rto_min, base) * self.rto_backoff)

    def _next_segment(self) -> tuple[bool, int]:
        """Pending retransmission first, then new data; returns (retx, payload)."""
        if self.retx_head:
            return True, self.segments[0].size - self.frame_overhead
        if self.snd_q > 0:
            return False, segment_size(self.mss, self.snd_q)
        return False, 0

    # -- application interface ----------------------------------------------

    def app_write(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("app_write needs a positive byte count")
        self.snd_q += nbytes
        self._pump(self.engine.now)

    # -- transmission -------------------------------------------------------

    def _pump(self, now: int) -> None:
        """Act on a window or queue change: send what the window allows.

        A balance that covers the next segment sends it in both modes.  A
        shorter one is where the modes part: baseline stalls until ACKs open
        the window (retransmissions bypass that gate), while submss has the
        pacer arm a wait for the deficit, or rebase the wait already pending.
        """
        while True:
            retx, payload = self._next_segment()
            if payload == 0:
                self.pacer.timer.stop()
                return
            if self.mode == BASELINE:
                if not retx and payload > self.window:
                    return
            elif self.pacer.waiting:
                self.pacer.window_changed(now, payload, self.window)
                return
            elif not self.pacer.request(now, payload, self.window):
                return
            self._send(now, retx, payload)

    def _on_pacer_ready(self, now: int) -> None:
        # The elapsed wait is the entitlement to send exactly one segment.
        retx, payload = self._next_segment()
        if payload:
            self._send(now, retx, payload)
        self._pump(now)

    def _send(self, now: int, retx: bool, payload: int) -> None:
        """Send the head again or the next payload bytes as one new Packet.

        A retransmission replaces the head with a fresh Packet, never the one
        still in flight (the link may have marked it), and never touches the
        window accounting.
        """
        seq = self.segments[0].seq_bytes if retx else self.snd_nxt
        packet = Packet(self.flow_id, seq, payload + self.frame_overhead, self.ecn_capable,
                        is_retransmission=retx, sent_at=now)
        if retx:
            self.segments[0] = packet
            self.retx_head = False
        else:
            self.segments.append(packet)
            self.snd_nxt += payload
            self.snd_q -= payload
            self.window -= payload
            self.unreclaimed += payload
            if self.window <= -self.mss:
                raise ProtocolError(f"flow {self.flow_id}: window fell to -MSS or below")
        self.transmit(packet)
        if retx or self.rto_timer.deadline is None:
            self.rto_timer.set(now + self.current_rto())

    # -- ACK processing -----------------------------------------------------

    def on_ack(self, ack: Ack) -> None:
        now = self.engine.now
        if ack.ack_bytes > self.snd_nxt:
            raise ProtocolError(
                f"flow {self.flow_id}: ACK for {ack.ack_bytes} beyond snd_nxt {self.snd_nxt}"
            )
        advance = ack.ack_bytes - self.snd_una
        if advance > 0:
            self._take_rtt_sample(now, ack.ack_bytes)
            self.snd_una = ack.ack_bytes
            self.window += advance
            self.unreclaimed = max(0, self.unreclaimed - advance)
            self.rto_backoff = 1
            self.dup_acks = 0

        ece = ack.ece and self.ecn_capable
        if ece:
            self.slow_start = False
        if self.cc_variant == DCTCP_LIKE:
            self._dctcp_account(advance, ece)
        elif ece and now >= self.ece_gate_until:
            self._reduce()
            self.ece_gate_until = now + self.rtt()
        if advance > 0 and (self.cc_variant == DCTCP_LIKE or not ece):
            self._grow(now, advance)

        if advance > 0:
            if self.snd_una < self.recovery_until and self.segments:
                # Partial advance inside a loss episode: next hole goes out now.
                self.retx_head = True
        elif self.in_flight > 0:
            self.dup_acks += 1
            if self.dup_acks == 3 and self.snd_una >= self.recovery_until:
                self._on_loss_detected()

        if self.in_flight == 0:
            self.rto_timer.stop()
        elif advance > 0:
            self.rto_timer.set(now + self.current_rto())

        self._pump(now)

    def _take_rtt_sample(self, now: int, acked_to: int) -> None:
        """Pop the segments the ACK covers and sample the RTT of the newest."""
        segments, overhead, newest = self.segments, self.frame_overhead, None
        while segments and segments[0].seq_bytes + segments[0].size - overhead <= acked_to:
            newest = segments.popleft()
            self.retx_head = False
        if newest is None or newest.is_retransmission:
            return  # Karn: no sample from a retransmitted segment
        sample = now - newest.sent_at
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample // 2
        else:
            self.rttvar = (3 * self.rttvar + abs(self.srtt - sample)) // 4
            self.srtt = (7 * self.srtt + sample) // 8

    def _grow(self, now: int, advance: int) -> None:
        if not self.tuning.growth_enabled:
            return
        if self.snd_una < self.recovery_until or now < self.ece_gate_until:
            return  # no growth while a congestion response is settling
        if self.slow_start:
            self.window += min(advance, self.mss)
            return
        # Byte-counted additive increase, so the growth rate per RTT does not
        # depend on how many segments each ACK covers.  One MSS per window per
        # RTT at large windows; below a few segments the step tapers with the
        # window so the 1/W form cannot overshoot a sub-segment window, while
        # the quarter-MSS lower bound keeps recovery from the floor additive
        # rather than proportional (a crushed flow must be able to climb back
        # against ambient marking).
        self._ca_acked += advance
        while True:
            conceptual = self.conceptual_window
            if conceptual <= 0:
                break
            threshold = max(conceptual, self.mss)
            if self._ca_acked < threshold:
                break
            self._ca_acked -= threshold
            self.window += min(self.mss, max(conceptual // 4, self.mss // 4))

    def _apply_conceptual(self, new_conceptual: int) -> None:
        self.window -= self.conceptual_window - new_conceptual
        self._ca_acked = 0

    def _reduce(self) -> None:
        """Multiplicative decrease with the mode's floor."""
        conceptual = self.conceptual_window
        if conceptual > 0:
            self._apply_conceptual(max(self.floor, conceptual // 2))
        if self.conceptual_window < self.floor:
            raise ProtocolError(f"flow {self.flow_id}: window fell below its floor")

    def _dctcp_account(self, advance: int, ece: bool) -> None:
        self._dctcp_acked += advance
        if ece:
            self._dctcp_marked += advance
        if self.snd_una >= self._dctcp_window_end and self._dctcp_acked > 0:
            fraction = self._dctcp_marked / self._dctcp_acked
            self.dctcp_alpha += DCTCP_GAIN * (fraction - self.dctcp_alpha)
            conceptual = self.conceptual_window
            if self._dctcp_marked > 0 and conceptual > 0:
                cut = int(round(conceptual * self.dctcp_alpha / 2))
                self._apply_conceptual(max(self.floor, conceptual - cut))
            self._dctcp_acked = 0
            self._dctcp_marked = 0
            self._dctcp_window_end = self.snd_nxt

    # -- loss handling ------------------------------------------------------

    def _on_loss_detected(self) -> None:
        self.slow_start = False
        self._reduce()
        self.recovery_until = self.snd_nxt
        self.retx_head = bool(self.segments)

    def _on_rto(self) -> None:
        now = self.engine.now
        if self.in_flight == 0:
            return
        self.engine.recorder.rto(now, self.flow_id)
        self.slow_start = False
        self._ca_acked = 0
        self.recovery_until = self.snd_nxt
        self.retx_head = bool(self.segments)
        if self.mode == BASELINE:
            # Classic response: collapse to the floor and back the timer off.
            self.window = self.floor - self.unreclaimed
            self.rto_backoff = min(self.rto_backoff * 2, 256)
        else:
            # Sub-MSS mode: reclaim the clocking credit written into flight, halve,
            # and let the pacer's growing wait replace the timer backoff.
            conceptual = self.conceptual_window
            if conceptual <= 0:
                raise ProtocolError(f"flow {self.flow_id}: clocking conservation violated")
            self.window = max(self.w_min, conceptual // 2)
            self.unreclaimed = 0
        self._pump(now)


class TcpReceiver:
    """In-order reassembly with delayed ACKs and ECE echo."""

    def __init__(
        self,
        engine: Engine,
        flow_id: int,
        frame_overhead: int,
        send_ack,
        delayed_acks: bool = True,
    ):
        self.engine = engine
        self.flow_id = flow_id
        self.frame_overhead = frame_overhead
        self.send_ack = send_ack
        self.ack_every = ACK_EVERY if delayed_acks else 1

        self.rcv_nxt = 0
        self.pending_segments = 0
        self.ece_latch = False
        self._ooo: dict[int, int] = {}  # start -> end of buffered ranges
        self.delack_timer = Timer(engine, self._on_delack_timer, "delack")

    def on_segment(self, packet: Packet) -> None:
        now = self.engine.now
        payload = packet.size - self.frame_overhead
        if payload <= 0:
            raise ProtocolError(f"flow {self.flow_id}: frame smaller than header overhead")
        if packet.ce_marked:
            self.ece_latch = True

        if packet.seq_bytes == self.rcv_nxt:
            self.rcv_nxt += payload
            filled_hole = self._absorb_buffered() if self._ooo else False
            self.pending_segments += 1
            if filled_hole or self.pending_segments >= self.ack_every:
                self._emit_ack()
            elif self.delack_timer.deadline is None:
                self.delack_timer.set(now + DELACK_TIMEOUT)
        elif packet.seq_bytes > self.rcv_nxt:
            end = packet.seq_bytes + payload
            if self._ooo.get(packet.seq_bytes, 0) < end:
                self._ooo[packet.seq_bytes] = end
            self._emit_ack()  # immediate duplicate ACK
        else:
            self._emit_ack()  # stale duplicate; re-state the cumulative point

    def _absorb_buffered(self) -> bool:
        filled = False
        while self.rcv_nxt in self._ooo:
            end = self._ooo.pop(self.rcv_nxt)
            self.rcv_nxt = max(self.rcv_nxt, end)
            filled = True
        return filled

    def _on_delack_timer(self) -> None:
        if self.pending_segments > 0:
            self._emit_ack()

    def _emit_ack(self) -> None:
        self.delack_timer.stop()
        self.pending_segments = 0
        ece = self.ece_latch
        self.ece_latch = False
        self.send_ack(Ack(self.flow_id, self.rcv_nxt, ece))
