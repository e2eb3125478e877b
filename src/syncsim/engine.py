"""Deterministic discrete-event core.

A single-threaded loop executes events in nondecreasing (time, sequence)
order; the sequence counter breaks ties in scheduling order.  Every
executed event emits exactly one trace record, so a run's trace bytes are a
pure function of (scenario, seed).

Every event enters the queue through `Engine.schedule_ps`, which builds the
event's trace record there and then: `sim_time_ps`, `sequence` and `kind`,
then the payload's fields.  A queue entry is the list `[time_ps, seq,
record, action, args]`; `(time_ps, seq)` is unique, so the heap never
compares past `seq`.  When the event executes, the loop calls
`action(*args)` and adds the fields it returns to the record.  `cancel`
clears the entry's record, and the loop skips entries without one.

Messages are routed once at send time; the chosen route is frozen for the
message's lifetime and hop arrivals, attack drops, and final delivery play
out as scheduled events.  Drops are rolled only at the nodes a ddos with
`drop_probability > 0` targets (`NetworkView.drop_targets`).  Blocked and
dropped messages surface to waiting sync logic as timeouts.
"""

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from . import attacks as attacks_mod
from .clocks import SoftwareClock
from .netview import NetworkView
from .routing import NoRoute, Route, RouteQuery, shortest_path
from .timebase import require_ps, seconds_to_ps
from .topology import NetworkGraph
from .trace import RECORD_KINDS

_KINDS = frozenset(RECORD_KINDS)


@dataclass
class Message:
    message_id: str
    source: str
    destination: str
    size_bits: int
    send_ps: int
    purpose: str = "data"
    timestamp_ps: int | None = None
    status: str = "pending"  # then in_flight, delivered, dropped or blocked
    route: Route | None = None
    delivery_ps: int | None = None
    on_delivery: Callable[["Message"], None] | None = None


class SchedulingError(Exception):
    """An event was scheduled in the engine's past (always a caller bug)."""


class Engine:
    """Event queue, network view, and per-node clocks for one run."""

    def __init__(self, graph: NetworkGraph, seed: int = 0, attacks=(),
                 medium_speeds: dict[str, float] | None = None):
        self.view = NetworkView(graph, seed, tuple(attacks), dict(medium_speeds or {}))
        self._baseline_view = self.view.without_attacks()
        self.seed = seed
        self.now_ps = 0
        self._seq = itertools.count()
        self._queue: list[list] = []  # [time_ps, seq, record, action, args]
        self._msg_counter = itertools.count(1)
        self.messages: dict[str, Message] = {}
        self.records: list[dict] = []
        self.sync_reports: list = []
        self.clocks: dict[str, SoftwareClock] = {}
        for node in graph.nodes.values():
            if node.clock is not None:
                self.clocks[node.node_id] = SoftwareClock(node.node_id, node.clock, seed)

    # -- clocks -------------------------------------------------------------

    def clock(self, node_id: str) -> SoftwareClock:
        return self.clocks[node_id]

    # -- scheduling ---------------------------------------------------------

    def schedule_ps(self, time_ps: int, kind: str, payload: dict | None = None,
                    action: Callable[..., dict | None] | None = None, *args) -> list:
        """Enqueue an event and return its queue entry, the handle `cancel`
        takes.  Its sequence number fixes same-time ordering.  The payload's
        fields are copied into the event's record now; when the event
        executes, `action(*args)` runs and the fields it returns are added."""
        require_ps(time_ps, "event time")
        if time_ps < self.now_ps:
            raise SchedulingError(
                f"cannot schedule {kind} at {time_ps} ps; engine is at {self.now_ps} ps")
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        seq = next(self._seq)
        record = {"sim_time_ps": time_ps, "sequence": seq, "kind": kind}
        if payload:
            record.update(payload)
        entry = [time_ps, seq, record, action, args]
        heappush(self._queue, entry)
        return entry

    @staticmethod
    def cancel(entry: list) -> None:
        """Mark a scheduled event so that it never executes or traces."""
        entry[2] = None

    def next_event_time_ps(self) -> int | None:
        """Time of the next live event, discarding cancelled queue heads."""
        while self._queue and self._queue[0][2] is None:
            heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    # -- execution ----------------------------------------------------------

    def run_until(self, t_end: float) -> list[dict]:
        return self.run_until_ps(seconds_to_ps(t_end))

    def run_until_ps(self, t_end_ps: int) -> list[dict]:
        """Execute all events with time <= t_end and advance the clock to t_end.

        Returns the trace records emitted during this call.
        """
        require_ps(t_end_ps, "run_until target")
        if t_end_ps < self.now_ps:
            raise SchedulingError("run_until target is in the past")
        queue, records = self._queue, self.records
        emitted_from = len(records)
        while queue and queue[0][0] <= t_end_ps:
            time_ps, _, record, action, args = heappop(queue)
            if record is None:
                continue
            self.now_ps = time_ps
            if action is not None:
                extra = action(*args)
                if extra:
                    record.update(extra)
            records.append(record)
        self.now_ps = t_end_ps
        return self.records[emitted_from:]

    # -- messaging ----------------------------------------------------------

    def send_message(self, source: str, destination: str, size_bits: int,
                     at_ps: int, purpose: str = "data",
                     timestamp_ps: int | None = None,
                     on_delivery: Callable[[Message], None] | None = None) -> Message:
        """Schedule a message send at wall time at_ps; returns the message handle.

        The route is chosen when the send event executes; a NoRoute outcome
        leaves the message blocked (the sender only learns via timeout).
        """
        message = Message(
            message_id=f"m{next(self._msg_counter):05d}",
            source=source, destination=destination, size_bits=size_bits,
            send_ps=at_ps, purpose=purpose, timestamp_ps=timestamp_ps,
            on_delivery=on_delivery)
        self.schedule_ps(at_ps, "message_send",
                         {"message_id": message.message_id, "src": source,
                          "dst": destination, "size_bits": size_bits,
                          "purpose": purpose},
                         self._start_message, message)
        self.messages[message.message_id] = message
        return message

    def _start_message(self, message: Message) -> dict:
        query = RouteQuery(message.source, message.destination, message.send_ps,
                           message.size_bits)
        try:
            route = shortest_path(self.view, query)
        except NoRoute:
            message.status = "blocked"
            return {"status": "blocked"}
        message.route = route
        message.status = "in_flight"
        self._hop(message, 0)
        bd = route.breakdown
        return {"status": "in_flight", "route": list(route.hops),
                "router_ps": bd.router_ps, "transmission_ps": bd.transmission_ps,
                "propagation_ps": bd.propagation_ps, "total_ps": bd.total_ps}

    def _hop(self, message: Message, leg: int) -> dict | None:
        """The message at route.hops[leg], leg 0 being its send: a drop roll
        there when a ddos that drops targets the node, then, unless dropped,
        the event at hops[leg + 1], arrivals_ps[leg] after the send (a
        hop_arrival, or the delivery at the last node)."""
        route = message.route
        hops = route.hops
        if leg and hops[leg] in self.view.drop_targets:
            drop = attacks_mod.drop_roll(self.view.attacks, self.seed, hops[leg],
                                         self.now_ps, message.message_id)
            if drop is not None:
                message.status = "dropped"
                return {"status": "dropped",
                        "attack": {"kind": drop.kind, "target": drop.target}}
        arrival_ps = message.send_ps + route.breakdown.arrivals_ps[leg]
        leg += 1
        payload = {"message_id": message.message_id, "node": hops[leg]}
        if leg + 1 == len(hops):
            self.schedule_ps(arrival_ps, "delivery", payload, self._deliver, message)
        else:
            self.schedule_ps(arrival_ps, "hop_arrival", payload, self._hop, message, leg)
        return None

    def _deliver(self, message: Message) -> dict:
        arrival_ps = self.now_ps
        message.status = "delivered"
        message.delivery_ps = arrival_ps
        extra: dict = {}
        if message.purpose == "sync_reply" and message.timestamp_ps is not None:
            forged, applied = attacks_mod.forge_reply_timestamp(
                self.view.attacks, message.destination, arrival_ps, message.timestamp_ps)
            if applied:
                message.timestamp_ps = forged
                extra["attack"] = [{"kind": a.kind, "target": a.target}
                                   for a in applied]
        clock = self.clocks.get(message.destination)
        if clock is not None:
            extra["clock_ps"] = clock.reading_ps(arrival_ps)
        if message.on_delivery is not None:
            message.on_delivery(message)
        return extra

    # -- timeouts -----------------------------------------------------------

    def baseline_rtt_ps(self, a: str, b: str, t_ps: int, size_forward: int,
                        size_backward: int) -> int | None:
        """Expected attack-free round-trip delay, used to budget sync timeouts."""
        baseline = self._baseline_view
        try:
            fwd = shortest_path(baseline, RouteQuery(a, b, t_ps, size_forward))
            t_back_ps = t_ps + fwd.breakdown.total_ps
            bwd = shortest_path(baseline, RouteQuery(b, a, t_back_ps, size_backward))
        except NoRoute:
            return None
        return fwd.breakdown.total_ps + bwd.breakdown.total_ps
