"""Spans and counters recorded from outside the simulator.

`Tracer` keeps a stack of open spans.  Each span adds its whole duration to
the span that encloses it, so a span's self time is its duration minus the
time covered by the spans it contains.  `install` wraps the simulator's
public entry points with spans by replacing them on their classes and
modules, so it belongs in a process that runs nothing untraced.
`layer_metrics` turns one traced run into the per-layer metrics that
BENCHMARK.json lists.
"""

import time
from collections import Counter

TAGS = ("link.depart", "link.deliver", "ack.deliver", "rto", "delack", "pacer.fire")

# Lengths of the simulator's public observation logs; a log that no longer
# exists counts as 0 rows.
_LINK_LOGS = ("backlog_steps", "departures", "drop_times", "mark_times")
_SENDER_LOGS = ("rto_times", "send_log")


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats = {}  # span name -> [calls, total_ns, self_ns]
        self.counts = Counter()
        self._open = []  # child time accumulated by each open span, innermost last

    def wrap(self, name, fn):
        """fn, with each call recorded as a span called `name`."""
        stat = self.stats.setdefault(name, [0, 0, 0])
        open_spans, clock = self._open, self.clock

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def calls(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, *names):
        return sum(self.stats.get(name, (0, 0, 0))[2] for name in names) / 1e9


def install(tracer):
    """Put spans around the simulator's public entry points."""
    from subpace import endpoint, engine, netpath, pacing, scenario

    wrap, counts = tracer.wrap, tracer.counts

    schedule = wrap("schedule", engine.Engine.schedule)

    def traced_schedule(eng, at, action, tag=None):
        counts["scheduled." + str(tag)] += 1
        return schedule(eng, at, wrap("fired." + str(tag), action), tag)

    cancel = wrap("cancel", engine.ScheduledEvent.cancel)

    def traced_cancel(event):
        if not event.cancelled:
            counts["cancelled." + str(event.tag)] += 1
        return cancel(event)

    enqueue = wrap("enqueue", netpath.AqmLink.enqueue)

    def traced_enqueue(link, packet):
        if packet.is_retransmission:
            counts["retransmissions"] += 1
        disposition = enqueue(link, packet)
        counts["disposition." + disposition] += 1
        return disposition

    on_segment = wrap("on_segment", endpoint.TcpReceiver.on_segment)

    def traced_on_segment(receiver, packet):
        if packet.seq_bytes > receiver.rcv_nxt:
            counts["ooo_segments"] += 1
        return on_segment(receiver, packet)

    request = wrap("request", pacing.Pacer.request)

    def traced_request(pacer, now, seg, window):
        send_now = request(pacer, now, seg, window)
        if send_now:
            counts["send_now"] += 1
        return send_now

    metrics = wrap("metrics", scenario.Simulation.metrics)

    def traced_metrics(sim):
        counts["retained_rows"] += retained_rows(sim)
        return metrics(sim)

    engine.Engine.schedule = traced_schedule
    engine.ScheduledEvent.cancel = traced_cancel
    netpath.AqmLink.enqueue = traced_enqueue
    endpoint.TcpSender.on_ack = wrap("on_ack", endpoint.TcpSender.on_ack)
    endpoint.TcpReceiver.on_segment = traced_on_segment
    pacing.Pacer.request = traced_request
    pacing.Pacer.window_changed = wrap("window_changed", pacing.Pacer.window_changed)
    pacing.pacing_delay = wrap("pacing_delay", pacing.pacing_delay)
    scenario.Simulation.__init__ = wrap("init", scenario.Simulation.__init__)
    scenario.Simulation.run = wrap("run", scenario.Simulation.run)
    scenario.Simulation.metrics = traced_metrics


def retained_rows(sim):
    """Rows held in the simulation's observation logs when its metrics are read."""
    def rows(obj, names):
        return sum(len(getattr(obj, name, None) or ()) for name in names)

    return (
        rows(sim.link, _LINK_LOGS)
        + sum(rows(sender, _SENDER_LOGS) for sender in sim.senders)
        + len(getattr(sim.engine, "trace", None) or ())
    )


def unit(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_pkt"):
        return "us"
    if name.endswith(("_ratio", "_per_segment")):
        return "ratio"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, import_s):
    """Per-layer metrics of one traced run, keyed by the names in BENCHMARK.json."""
    calls, counts, self_s, total_s = tracer.calls, tracer.counts, tracer.self_s, tracer.total_s

    out = {}
    for tag in TAGS:
        out["engine.scheduled." + tag] = counts["scheduled." + tag]
        out["engine.fired." + tag] = calls("fired." + tag)
        out["engine.cancelled." + tag] = counts["cancelled." + tag]
    out["engine.cancel_ratio"] = _ratio(
        sum(counts["cancelled." + tag] for tag in TAGS),
        sum(counts["scheduled." + tag] for tag in TAGS),
    )
    out["engine.schedule.calls"] = calls("schedule")
    out["engine.schedule.self_s"] = self_s("schedule")
    out["engine.cancel.self_s"] = self_s("cancel")
    out["engine.loop.self_s"] = self_s("run")

    enqueued = calls("enqueue")
    out["netpath.enqueue.calls"] = enqueued
    out["netpath.enqueue.self_s"] = self_s("enqueue")
    out["netpath.depart.self_s"] = self_s("fired.link.depart")
    out["netpath.us_per_pkt"] = _ratio(
        self_s("enqueue", "fired.link.depart") * 1e6, calls("fired.link.depart")
    )
    out["netpath.queued"] = counts["disposition.queued"]
    out["netpath.marked"] = counts["disposition.queued+marked"]
    out["netpath.dropped"] = counts["disposition.dropped"]
    out["netpath.drop_ratio"] = _ratio(counts["disposition.dropped"], enqueued)

    out["pacing.request.calls"] = calls("request")
    out["pacing.request.self_s"] = self_s("request")
    out["pacing.window_changed.calls"] = calls("window_changed")
    out["pacing.window_changed.self_s"] = self_s("window_changed")
    out["pacing.delay.calls"] = calls("pacing_delay")
    out["pacing.delay.self_s"] = self_s("pacing_delay")
    out["pacing.send_now_ratio"] = _ratio(counts["send_now"], calls("request"))
    out["pacing.fire_ratio"] = _ratio(calls("fired.pacer.fire"), counts["scheduled.pacer.fire"])

    # Fired pacer waits run the sender's emission code through its callback,
    # so they count as sender time.
    out["endpoint.on_ack.calls"] = calls("on_ack")
    out["endpoint.sender.self_s"] = self_s("on_ack", "fired.rto", "fired.pacer.fire")
    out["endpoint.on_segment.calls"] = calls("on_segment")
    out["endpoint.receiver.self_s"] = self_s("on_segment", "fired.delack")
    out["endpoint.acks_per_segment"] = _ratio(calls("on_ack"), calls("on_segment"))
    out["endpoint.retx_ratio"] = _ratio(counts["retransmissions"], enqueued)
    out["endpoint.rto_fire_ratio"] = _ratio(calls("fired.rto"), counts["scheduled.rto"])
    out["endpoint.delack_fire_ratio"] = _ratio(calls("fired.delack"), counts["scheduled.delack"])
    out["endpoint.ooo_segments"] = counts["ooo_segments"]

    out["scenario.metrics_s"] = total_s("metrics")
    out["scenario.render_s"] = total_s("render")
    out["scenario.wiring.self_s"] = self_s("fired.link.deliver", "fired.ack.deliver")
    out["scenario.sweep.rows"] = counts["sweep_rows"]
    out["scenario.retained_rows"] = counts["retained_rows"]

    out["setup.import_s"] = import_s
    out["config.load_s"] = total_s("load_scenario")
    out["scenario.init_s"] = total_s("init")
    return out
