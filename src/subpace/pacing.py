"""Sub-segment window pacing: turn a window deficit into an inter-send wait.

When the window W is smaller than the next segment size s, the sender waits
d = (s/W - 1) * R after the event that last changed the window, then sends
the full segment and lets W go negative.  For constant W the emission
interval is then d + R = s*R/W, so halving W exactly doubles the interval.
The wait is computed with wide integer arithmetic, (s - W) * R / W, rounded
half up, which is overflow-safe and exact at W = s.
"""

from .engine import Engine, Timer, div_round_half_up


def segment_size(mss: int, snd_q: int) -> int:
    """Next segment's payload: never smaller than needed, never above one MSS."""
    if snd_q <= 0:
        raise ValueError("segment_size requires queued data (snd_q > 0)")
    return mss if snd_q > mss else snd_q  # min(mss, snd_q), without the builtin's call


def pacing_delay(seg: int, window: int, rtt: int) -> int:
    """Extra wait in ns before sending `seg` bytes under window `window`.

    Zero whenever window >= seg; undefined (raises) for window <= 0, where the
    caller must instead wait for the next window increase.
    """
    if seg <= 0:
        raise ValueError("segment size must be positive")
    if rtt < 0:
        raise ValueError("rtt must be non-negative")
    if window <= 0:
        raise ValueError("pacing delay undefined for window <= 0; await the next window increase")
    if window >= seg:
        return 0
    return div_round_half_up((seg - window) * rtt, window)


class Pacer:
    """Per-flow wait bookkeeping on top of an engine timer.

    At most one wait is pending, and the timer calls `on_ready()` when it
    elapses.  A wait cycle is anchored at the time it was armed (the
    window-changing event); a request during the wait rebases it against
    that same epoch.  A non-positive window arms no wait: the sender asks
    again after the next increase.  R is read from the owner at each wait:
    `rtt()` is called whenever a wait is armed or rebased.
    """

    def __init__(self, engine: Engine, rtt, on_ready):
        self.rtt = rtt
        self.epoch: int | None = None
        self.timer = Timer(engine, on_ready, "pacer.fire")

    @property
    def waiting(self) -> bool:
        return self.timer.deadline is not None

    def request(self, now: int, seg: int, window: int) -> bool:
        """Ask to send `seg` bytes now.  True means send immediately.

        Otherwise either a timed wait is pending, and on_ready fires when it
        elapses, or the window is non-positive and nothing is armed.  A
        request while a wait is pending rebases that wait for `window`.
        """
        if self.waiting:
            self.window_changed(now, seg, window)
            return False
        if window >= seg:
            return True
        if window <= 0:
            return False
        delay = pacing_delay(seg, window, self.rtt())
        if delay == 0:
            return True
        self.epoch = now
        self.timer.set(now + delay)
        return False

    def window_changed(self, now: int, seg: int, window: int) -> None:
        """Rebase a pending wait after the window moved; drop it if it went <= 0."""
        if not self.waiting:
            return
        if window <= 0:
            self.timer.stop()
            return
        target = self.epoch + pacing_delay(seg, window, self.rtt())
        if target != self.timer.deadline:
            # An entitlement already earned fires through the queue at `now`,
            # so delivery order stays deterministic.
            self.timer.set(target if target > now else now)
