"""Deterministic virtual-time event engine.

Time is an integer count of simulated nanoseconds.  Durations derived from
rates and sizes are rounded to whole nanoseconds, half up, so that repeated
runs are bit-for-bit identical on any platform.
"""

import heapq
import random

NS_PER_SEC = 1_000_000_000

# Convenience multipliers for writing times as integers: 6 * MS == 6 ms.
US = 1_000
MS = 1_000_000
SEC = NS_PER_SEC


class ConfigError(ValueError):
    """A bad setting, from a scenario file, a CLI flag or a constructor; names its field."""

    def __init__(self, field_name: str, message: str):
        self.field_name, self.message = field_name, message
        super().__init__(f"{field_name}: {message}")

    def __reduce__(self):
        return ConfigError, (self.field_name, self.message)


def div_round_half_up(num: int, den: int) -> int:
    """Integer division of non-negative num by positive den, rounding half up."""
    if num < 0 or den <= 0:
        raise ValueError(f"div_round_half_up needs num >= 0, den > 0, got {num}/{den}")
    return (2 * num + den) // (2 * den)


def transmission_time_ns(bits: int, rate_bps: int) -> int:
    """Nanoseconds to move `bits` through a link of `rate_bps`, rounded half up."""
    return div_round_half_up(bits * NS_PER_SEC, rate_bps)


def _cancelled(_) -> None: ...  # the action of a cancelled heap entry


class Timer:
    """One pending `action` per owner, scheduled on `engine` under `tag`.

    `set(at)` replaces any pending firing with one at `at`; `stop()` drops it.
    `deadline` is the pending firing time, None when nothing is pending, and
    is already None while `action` runs, so the action may `set` again.

    Tie rule: the action fires in the order slot of the latest `set`, as if
    each `set` scheduled a fresh event and cancelled the old one.  Lazily,
    though: one entry stays queued, and a `set` no earlier than it only stores
    `deadline` and reserves the engine's next seq as its order key.  The entry
    that comes due fires, is dropped after `stop`, or queues again at that key.
    The timer is the handle on that entry (`entry`, None when none is queued):
    an earlier `set` queues a new entry and `cancel()`s the old one.
    """

    __slots__ = ("entry", "tag", "engine", "action", "deadline", "_order")

    def __init__(self, engine: "Engine", action, tag: str | None):
        self.entry: list | None = None
        self.tag = tag
        self.engine = engine
        self.action = action
        self.deadline: int | None = None
        self._order = 0  # engine seq that orders `deadline` among equal times

    cancelled = property(lambda self: self.entry[2] is _cancelled)

    def cancel(self) -> None:
        self.entry[2] = _cancelled

    def set(self, at: int) -> None:
        queued = self.entry
        if queued is None or at < queued[0]:
            entry = self.engine.schedule(at, Timer._fire, self.tag)  # raises before any change
            entry[3] = self
            if queued is not None:
                self.cancel()
            self.entry = entry
            self._order = entry[1]
        else:  # at >= the queued entry's time >= now, so `at` is not in the past
            self._order = self.engine._seq
            self.engine._seq += 1
        self.deadline = at

    def stop(self) -> None:
        self.deadline = None

    def _fire(self) -> None:
        entry, at = self.entry, self.deadline
        if at is None:
            self.entry = None
        elif self._order == entry[1]:  # seqs are unique, so the whole key matches
            self.entry = self.deadline = None
            self.action()
        else:  # the same list, so the action `schedule` queued fires again
            entry[0], entry[1] = at, self._order
            heapq.heappush(self.engine._heap, entry)


# perfbench/tracer.py wraps `ScheduledEvent.cancel`; the alias goes once it wraps `Timer.cancel`.
ScheduledEvent = Timer


class Recorder:
    """What the link and senders observe, stamped with its time; this base ignores it.

    `backlog`: a frame was admitted, and from then on the queue holds that many
    bytes.  `departure`: a frame left the link, and from then on the queue
    holds `backlog` bytes; the link reports it when it retires it.  `drop`,
    `mark`: an arriving frame was dropped or CE-marked.  `rto`: a
    retransmission timer fired with data in flight.
    """

    def backlog(self, now: int, backlog: int) -> None: ...
    def departure(self, now: int, flow_id: int, size: int, backlog: int) -> None: ...
    def drop(self, now: int) -> None: ...
    def mark(self, now: int) -> None: ...
    def rto(self, now: int, flow_id: int) -> None: ...


class Engine:
    """Ordered event queue plus a virtual clock.

    Every event enters through `schedule` as a plain heap entry; `tag` is for
    observers.  Events at equal times fire in insertion order; a `Timer` fires
    in the order slot of its latest `set`.  Scheduling in the past is a
    programming error and raises immediately.  Randomness is handed out as
    named streams derived from the master seed, one per stochastic entity, so
    that adding entities does not perturb the draws seen by existing ones.
    Observations go to `recorder`, which ignores them unless replaced.
    """

    def __init__(self, seed: int = 0):
        self.now = 0
        self.seed = seed
        self.recorder = Recorder()
        self._heap: list[list] = []  # entries [at, seq, action, arg]
        self._seq = 0

    def schedule(self, at: int, action, tag: str | None = None) -> list:
        """Queue `action(arg)` at `at`; returns its entry `[at, seq, action, arg]`, arg None."""
        if at < self.now:
            raise ValueError(f"cannot schedule event at t={at} before current t={self.now}")
        seq = self._seq
        self._seq = seq + 1
        entry = [at, seq, action, None]
        heapq.heappush(self._heap, entry)
        return entry

    def run_until(self, deadline: int) -> int:
        """Deliver every pending event due at or before deadline, in order.

        The clock ends at the deadline even if the queue drains early.
        """
        if deadline < self.now:
            raise ValueError(f"deadline {deadline} is before current t={self.now}")
        heap, pop = self._heap, heapq.heappop
        while heap and heap[0][0] <= deadline:
            self.now, _, action, arg = pop(heap)
            action(arg)
        self.now = deadline
        return self.now

    def stream(self, key: str) -> random.Random:
        """A new reproducible uniform stream keyed off the seed; each entity asks once.

        String seeding uses a stable hash inside random.Random, so the same
        (seed, key) pair yields the same draws on every platform.
        """
        return random.Random(f"{self.seed}:{key}")
