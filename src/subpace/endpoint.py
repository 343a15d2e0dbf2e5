"""Per-flow TCP-like sender and receiver state machines.

One window accounting serves both sender modes.  `window` is a signed
clocking balance: a new-data send moves its bytes into `unreclaimed`, the
credit in flight, and a cumulative ACK moves the acked bytes back.  The sum,
`conceptual_window`, is the congestion window; slow start ends at the first
congestion signal.  The sub-MSS change is the three places that read the
mode: `floor` (two segments, or `w_min` bytes below one), `_pump` and
`_on_rto`.  Only `_apply_conceptual` lowers the window, so `conceptual_window
>= floor >= 1` holds throughout.  The RTO timer is armed only while data is
in flight: `on_ack`, the one mover of `snd_una`, stops it at `snd_nxt`.

The retained `segments` tile `[snd_una, snd_nxt)`: `_send` appends at
`snd_nxt` and an ACK pops only the segments it covers whole.  So a segment is
held exactly while data is in flight, and since `recovery_until <= snd_nxt`,
`snd_una < recovery_until` implies one.  A pacer wait is pending only while
`_next_segment` has a payload: `_pump` asks the pacer, which arms or rebases
a wait, only after `payload > 0`, nothing sends while it is pending, and
every call that can change the payload (`on_ack`, `_on_rto`, `app_write`)
ends in `_pump`, which stops the timer when the payload is 0.

The receiver implements standard delayed ACKs (every n segments or on a
timer), immediate duplicate ACKs for out-of-order arrivals, and ECE echo for
any ACK covering a CE-marked segment.
"""

from collections import deque

from .engine import MS, SEC, ConfigError, Engine, Timer
from .netpath import Packet
from .pacing import Pacer, segment_size

BASELINE = "baseline"
SUBMSS = "submss"
RENO_LIKE = "reno-like"
DCTCP_LIKE = "dctcp-like"
SENDER_MODES = (BASELINE, SUBMSS)
CC_VARIANTS = (RENO_LIKE, DCTCP_LIKE)

DCTCP_GAIN = 1.0 / 16.0

# Fixed endpoint timing.  `current_rto` reads the RTO bounds each time it runs.
RTO_MIN = 200 * MS
RTO_INITIAL = 1 * SEC
RTO_MAX = 60 * SEC
INITIAL_RTT = 100 * MS  # pacing and ECE-gate RTT before the first sample
DELACK_TIMEOUT = 40 * MS
ACK_EVERY = 2  # segments per delayed ACK


class ProtocolError(Exception):
    """An endpoint observed something the protocol forbids (e.g. ACK of unsent data)."""


def check_sender(mode: str, cc_variant: str) -> None:
    """Raise ConfigError naming the first scenario key that names an unknown sender choice."""
    if mode not in SENDER_MODES:
        raise ConfigError("sender_mode", f"expected one of {', '.join(SENDER_MODES)}, got {mode!r}")
    if cc_variant not in CC_VARIANTS:
        raise ConfigError("cc_variant",
                          f"expected one of {', '.join(CC_VARIANTS)}, got {cc_variant!r}")


class Ack:
    __slots__ = ("flow_id", "ack_bytes", "ece")

    def __init__(self, flow_id: int, ack_bytes: int, ece: bool):
        self.flow_id = flow_id
        self.ack_bytes = ack_bytes
        self.ece = ece


class TcpSender:
    # Slotted: at 30 attributes a CPython 3.11 instance dict stops sharing its
    # keys with the class, which would leave every read on the hint path.
    __slots__ = (
        "engine", "flow_id", "mss", "frame_overhead", "mode", "cc_variant", "ecn_capable",
        "floor", "transmit", "window", "slow_start", "snd_una", "snd_nxt", "snd_q",
        "unreclaimed", "srtt", "rttvar", "rto_backoff", "dup_acks", "recovery_until",
        "ece_gate_until", "segments", "retx_head", "_ca_acked", "dctcp_alpha", "_dctcp_acked",
        "_dctcp_marked", "_dctcp_window_end", "pacer", "rto_timer",
    )

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
    ):
        check_sender(mode, cc_variant)
        if mss < 1:
            raise ConfigError("mss", f"must be at least 1 byte, got {mss}")
        if w_min < 1:
            raise ConfigError("w_min", f"must be at least 1 byte, got {w_min}")
        if w_min > mss:
            raise ConfigError("w_min", f"must be at most one segment ({mss} bytes), got {w_min}")
        self.engine = engine
        self.flow_id = flow_id
        self.mss = mss
        self.frame_overhead = frame_overhead
        self.mode = mode
        self.cc_variant = cc_variant
        self.ecn_capable = ecn_capable
        self.floor = 2 * mss if mode == BASELINE else w_min  # the least congestion window
        self.transmit = transmit

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
        # Plain comparisons, not min/max: this runs on every send and ACK.
        if self.srtt is None:
            base = RTO_INITIAL
        else:
            spread = 4 * self.rttvar
            base = self.srtt + (spread if spread > 1 else 1)
        rto = (base if base > RTO_MIN else RTO_MIN) * self.rto_backoff
        return rto if rto < RTO_MAX else RTO_MAX

    def _next_segment(self) -> tuple[bool, int]:
        """Pending retransmission first, then new data; returns (retx, payload)."""
        if self.retx_head:
            return True, self.segments[0].end_bytes - self.segments[0].seq_bytes
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
        the window (retransmissions bypass that gate), while submss asks the
        pacer, which arms a wait for the deficit or rebases the one pending.
        """
        while True:
            retx, payload = self._next_segment()
            if payload == 0:
                self.pacer.timer.stop()
                return
            if self.mode == BASELINE:
                if not retx and payload > self.window:
                    return
            elif not self.pacer.request(now, payload, self.window):
                return
            self._send(now, retx, payload)

    def _on_pacer_ready(self) -> None:
        # The elapsed wait is the entitlement to send exactly one segment.
        now = self.engine.now
        retx, payload = self._next_segment()
        self._send(now, retx, payload)
        self._pump(now)

    def _send(self, now: int, retx: bool, payload: int) -> None:
        """Send the head again or the next payload bytes as one new Packet.

        A retransmission replaces the head with a fresh Packet, never the one
        still in flight (the link may have marked it), and never touches the
        window accounting.
        """
        seq = self.segments[0].seq_bytes if retx else self.snd_nxt
        # Positional, as ce_marked=False, is_retransmission=retx, sent_at=now.
        packet = Packet(self.flow_id, seq, seq + payload, payload + self.frame_overhead,
                        self.ecn_capable, False, retx, now)
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
            unreclaimed = self.unreclaimed - advance
            self.unreclaimed = unreclaimed if unreclaimed > 0 else 0
            self.rto_backoff = 1
            self.dup_acks = 0

        ece = ack.ece and self.ecn_capable
        if ece:
            self.slow_start = False
        if self.cc_variant == DCTCP_LIKE:
            self._dctcp_account(advance, ece)
        elif ece and now >= self.ece_gate_until:
            self._apply_conceptual(self.conceptual_window // 2)
            self.ece_gate_until = now + self.rtt()

        if advance > 0:
            if self.cc_variant == DCTCP_LIKE or not ece:
                self._grow(now, advance)
            if self.snd_una < self.recovery_until:
                # Partial advance inside a loss episode: next hole goes out now.
                self.retx_head = True
            if self.in_flight == 0:
                self.rto_timer.stop()
            else:
                self.rto_timer.set(now + self.current_rto())
        elif self.in_flight > 0:
            self.dup_acks += 1
            if self.dup_acks == 3 and self.snd_una >= self.recovery_until:
                self._enter_recovery(self.conceptual_window // 2)

        self._pump(now)

    def _take_rtt_sample(self, now: int, acked_to: int) -> None:
        """Pop the segments the ACK covers and sample the RTT of the newest."""
        segments, newest = self.segments, None
        while segments and segments[0].end_bytes <= acked_to:
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
        if self.snd_una < self.recovery_until or now < self.ece_gate_until:
            return  # no growth while a congestion response is settling
        if self.slow_start:
            self.window += advance if advance < self.mss else self.mss
            return
        # Byte-counted, so the growth per RTT does not depend on how many
        # segments each ACK covers.  Each window of bytes ACKed (at least one
        # MSS) adds a quarter of the window, at least MSS/4 and at most one MSS.
        # An RTT ACKs one window, so from 4 MSS up the window grows by one MSS
        # per RTT, and below 4 MSS by W/4 per RTT (x1.25): under one MSS the
        # MSS/4 per MSS ACKed also comes to W/4 per RTT.  So a crushed flow
        # climbs back from the floor geometrically, not additively.
        mss = self.mss
        self._ca_acked += advance
        while True:
            conceptual = self.conceptual_window
            threshold = conceptual if conceptual > mss else mss
            if self._ca_acked < threshold:
                break
            self._ca_acked -= threshold
            step, least = conceptual // 4, mss // 4
            if step < least:
                step = least
            self.window += step if step < mss else mss

    def _apply_conceptual(self, new_conceptual: int) -> None:
        """Set the congestion window, raised to the floor, by moving the balance."""
        if new_conceptual < self.floor:
            new_conceptual = self.floor
        self.window -= self.conceptual_window - new_conceptual
        self._ca_acked = 0

    def _dctcp_account(self, advance: int, ece: bool) -> None:
        self._dctcp_acked += advance
        if ece:
            self._dctcp_marked += advance
        if self.snd_una >= self._dctcp_window_end and self._dctcp_acked > 0:
            fraction = self._dctcp_marked / self._dctcp_acked
            self.dctcp_alpha += DCTCP_GAIN * (fraction - self.dctcp_alpha)
            if self._dctcp_marked > 0:
                conceptual = self.conceptual_window
                self._apply_conceptual(conceptual - round(conceptual * self.dctcp_alpha / 2))
            self._dctcp_acked = 0
            self._dctcp_marked = 0
            self._dctcp_window_end = self.snd_nxt

    # -- loss handling ------------------------------------------------------

    def _enter_recovery(self, new_conceptual: int) -> None:
        """Start a loss episode: set the window, and resend the head first."""
        self.slow_start = False
        self._apply_conceptual(new_conceptual)
        self.recovery_until = self.snd_nxt
        self.retx_head = True

    def _on_rto(self) -> None:
        now = self.engine.now
        self.engine.recorder.rto(now, self.flow_id)
        if self.mode == BASELINE:
            # Classic response: collapse to the floor and back the timer off.
            self._enter_recovery(0)
            self.rto_backoff = min(self.rto_backoff * 2, 256)
        else:
            # Sub-MSS mode: reclaim the clocking credit written into flight, halve,
            # and let the pacer's growing wait replace the timer backoff.
            self.window, self.unreclaimed = self.conceptual_window, 0
            self._enter_recovery(self.window // 2)
        self._pump(now)


class TcpReceiver:
    """In-order reassembly with delayed ACKs and ECE echo.

    The delayed-ACK timer runs exactly while a segment awaits its ACK:
    `(delack_timer.deadline is not None) == (pending_segments > 0)`.  Only
    `on_segment` arms it, when `pending_segments` has just become 1; only
    `_emit_ack` zeroes `pending_segments`, and it stops the timer.  With
    delayed ACKs off every in-order segment is ACKed at once, so the timer is
    never armed.  The timer's action is therefore `_emit_ack` itself.
    """

    def __init__(
        self,
        engine: Engine,
        flow_id: int,
        send_ack,
        delayed_acks: bool = True,
    ):
        self.engine = engine
        self.flow_id = flow_id
        self.send_ack = send_ack
        self.ack_every = ACK_EVERY if delayed_acks else 1

        self.rcv_nxt = 0
        self.pending_segments = 0
        self.ece_latch = False
        self._ooo: dict[int, int] = {}  # start -> end of buffered ranges
        self.delack_timer = Timer(engine, self._emit_ack, "delack")

    def on_segment(self, packet: Packet) -> None:
        now = self.engine.now
        seq, end = packet.seq_bytes, packet.end_bytes
        if end <= seq:
            raise ProtocolError(f"flow {self.flow_id}: segment carries no payload")
        if packet.ce_marked:
            self.ece_latch = True

        if seq == self.rcv_nxt:
            ooo = self._ooo
            filled_hole = end in ooo
            while end in ooo:
                end = ooo.pop(end)  # a buffered range ends past its start
            self.rcv_nxt = end
            self.pending_segments += 1
            if filled_hole or self.pending_segments >= self.ack_every:
                self._emit_ack()
            else:
                self.delack_timer.set(now + DELACK_TIMEOUT)
        else:  # out of order or stale: buffer only a new range ahead
            if seq > self.rcv_nxt and self._ooo.get(seq, 0) < end:
                self._ooo[seq] = end
            self._emit_ack()  # immediate duplicate ACK, re-stating rcv_nxt

    def _emit_ack(self) -> None:
        self.delack_timer.stop()
        self.pending_segments = 0
        ece = self.ece_latch
        self.ece_latch = False
        self.send_ack(Ack(self.flow_id, self.rcv_nxt, ece))
