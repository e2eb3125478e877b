"""Deterministic discrete-event core.

A single-threaded loop executes events in nondecreasing (time, sequence)
order; the sequence counter breaks ties in scheduling order.  Every
executed event emits exactly one trace record, so a run's trace bytes are a
pure function of (scenario, seed).

Pending events sit in two heaps, split by lifetime.  `_queue` holds what
`Engine.schedule_ps` enqueues: message sends, sync steps and timeouts,
most of them queued when the scenario is built and due far ahead.
`_arrivals` holds each in-flight message's next hop arrival or its
delivery, one entry per message in flight, and the loop advances the
message itself.  A run keeps a backlog of hundreds to thousands of
scheduled events but only a handful of messages in flight, and every hop
re-sifts one entry, so keeping the arrivals apart makes each hop's heap
operation cost the log of the few messages in flight, not of the backlog.

A `_queue` entry is the list `[time_ps, seq, record, action]`:
`schedule_ps` builds the event's trace record when it enqueues it,
`sim_time_ps`, `sequence` and `kind`, then the payload's fields; when it
executes, the loop calls `action()`, which takes no arguments, and adds
the fields it returns to the record.  `cancel` clears the entry's
record, and the loop skips entries without one; only `_queue` entries
are handed out, so only they are cancelled.  An `_arrivals` entry is
`[time_ps, seq, message, leg, hops, arrivals_ps, send_ps, message_id,
last]`, the message arriving at `hops[leg]`: the route's hops and its
breakdown's relative `arrivals_ps`, the send time, the message's id and
its last leg, `len(hops) - 1`.  The loop builds its record, with the keys
in `schedule_ps`'s order, when the entry is the head.  At the last leg,
or where a drop roll drops it, the loop pops the entry; elsewhere the
message moves on in the same entry: the loop writes the next node's
time, `send_ps + arrivals_ps[leg]`, a new `seq` and `leg + 1` into it and
re-sifts it with `heapreplace`, one heap operation and no new list per
hop.  Both heaps take `seq` from one counter, so `(time_ps, seq)` is
unique, no comparison reaches past `seq`, and executing whichever head
compares smaller runs events in exactly the order one heap would.
`now_ps` is set before the code that reads it, a queued action or a
delivery; a hop that only moves the message on leaves it, and
`run_until_ps` ends at its target.

An arrival is queued without `schedule_ps`'s checks, which cannot fail
for it: `send_ps` passed them when the send was queued, and `arrivals_ps`
are exact, non-negative, nondecreasing sums of int terms, so each time is
an int no earlier than now; both kinds are constants in `RECORD_KINDS`.

Messages are routed once at send time; the chosen route is frozen for the
message's lifetime and hop arrivals, attack drops, and final delivery play
out as scheduled events.  Drops are rolled only at the nodes a ddos with
`drop_probability > 0` targets (`NetworkView.drop_targets`).  Blocked and
dropped messages surface to waiting sync logic as timeouts.

Reads often repeat, so three answers are kept, and no memo changes an
answer:
  - `Engine._route` keeps each route it took from a routing epoch's route
    cache under (epoch, endpoints, size) for the whole run.  At any later
    instant of that epoch it returns the route once `routing.route_holds`
    finds every router on it that a failure model can take down up, the
    rule `shortest_path`'s cache hit applies, and asks routing nothing.
    A route the search finds at t around a down router, and a NoRoute,
    hold for their instant only: they are kept for the instants from
    `now_ps` on and older ones are dropped, so the answer a timeout budget
    finds for a message is not searched again when the message is sent at
    that instant;
  - `NetworkView.router_flag` keeps each router's flag of the last
    instant it drew, shared with the baseline view, so a kept route's
    check, a route query's hit check, search and breakdown, and a baseline
    query at that instant draw it once;
  - `SoftwareClock.offset_ps` keeps the drift plus noise of the last
    instant it read, so a delivery, its callback and the sync logic draw
    the noise once; the corrections are added on every read, so a step
    applied between two reads at one instant shows in the second, and a
    reading at or after the clock's latest fold costs its live
    corrections only (see the clocks module).
"""

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import Callable

from . import attacks as attacks_mod
from .clocks import SoftwareClock
from .netview import NetworkView
from .routing import (NoRoute, Route, RouteQuery, require_size_bits, route_holds,
                      shortest_path)
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
        self.view = NetworkView(graph, seed, tuple(attacks), medium_speeds)
        self._baseline_view = self.view.without_attacks()
        self.now_ps = 0
        self._seq = itertools.count()
        # [time_ps, seq, record, action]: sends, sync steps and timeouts
        self._queue: list[list] = []
        # [time_ps, seq, message, leg, hops, arrivals_ps, send_ps, message_id,
        # last leg]: in-flight messages' next hop_arrival or delivery
        self._arrivals: list[list] = []
        # (epoch, source, destination, size_bits) -> a route of the epoch's
        # route cache; never evicted, as the route caches are not
        self._kept: dict[tuple, Route] = {}
        # t_ps -> {(epoch, source, destination, size_bits): Route or None},
        # the routes found at t and the NoRoutes
        self._answers: dict[int, dict[tuple, Route | None]] = {}
        self.messages: dict[str, Message] = {}
        self.records: list[dict] = []
        self.sync_reports: list = []
        self.clocks: dict[str, SoftwareClock] = {}
        for node in graph.nodes.values():
            if node.clock is not None:
                self.clocks[node.node_id] = SoftwareClock(node.node_id, node.clock, seed)

    # -- scheduling ---------------------------------------------------------

    def schedule_ps(self, time_ps: int, kind: str, payload: dict | None = None,
                    action: Callable[[], dict | None] | None = None) -> list:
        """Enqueue an event and return its queue entry, the handle `cancel`
        takes.  Its sequence number fixes same-time ordering.  The payload's
        fields are copied into the event's record now; when the event
        executes, `action()` runs and the fields it returns are added."""
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
        entry = [time_ps, seq, record, action]
        heappush(self._queue, entry)
        return entry

    @staticmethod
    def cancel(entry: list) -> None:
        """Mark a scheduled event so that it never executes or traces."""
        entry[2] = None

    def next_event_time_ps(self) -> int | None:
        """Time of the next live event, discarding cancelled queue heads."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heappop(queue)
        return min((heap[0][0] for heap in (queue, self._arrivals) if heap), default=None)

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
        queue, arrivals, records = self._queue, self._arrivals, self.records
        append, next_seq = records.append, self._seq.__next__
        view = self.view
        drop_targets = view.drop_targets
        emitted_from = len(records)
        while True:
            # the smaller head is the next event; it decides when to stop
            if arrivals and not (queue and queue[0] < arrivals[0]):
                entry = arrivals[0]
                time_ps, n, message, leg, hops, offsets, send_ps, message_id, last = entry
                if time_ps > t_end_ps:
                    break
                node = hops[leg]
                record = {"sim_time_ps": time_ps, "sequence": n,
                          "kind": "delivery" if leg == last else "hop_arrival",
                          "message_id": message_id, "node": node}
                if leg == last:
                    heappop(arrivals)
                    self.now_ps = time_ps
                    self._deliver(message, record)
                elif node in drop_targets and (drop := attacks_mod.drop_roll(
                        view.attacks, view.drop_stream, node, time_ps, message_id)) is not None:
                    heappop(arrivals)
                    message.status = record["status"] = "dropped"
                    record["attack"] = {"kind": drop.kind, "target": drop.target}
                else:
                    entry[0] = send_ps + offsets[leg]
                    entry[1] = next_seq()
                    entry[3] = leg + 1
                    heapreplace(arrivals, entry)
                    append(record)
                    continue
            else:
                if not queue or queue[0][0] > t_end_ps:
                    break
                time_ps, _, record, action = heappop(queue)
                if record is None:
                    continue
                self.now_ps = time_ps
                if action is not None:
                    extra = action()
                    if extra:
                        record.update(extra)
            append(record)
        self.now_ps = t_end_ps
        self._drop_past_answers()
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
        require_size_bits(size_bits)
        nodes = self.view.graph.nodes
        if source not in nodes or destination not in nodes:
            raise ValueError(f"unknown node {source if source not in nodes else destination!r}")
        if source == destination:
            raise ValueError(f"source and destination must differ, got {source!r} twice")
        message = Message(
            message_id=f"m{len(self.messages) + 1:05d}",
            source=source, destination=destination, size_bits=size_bits,
            send_ps=at_ps, purpose=purpose, timestamp_ps=timestamp_ps,
            on_delivery=on_delivery)
        # a send that schedule_ps rejects is not stored, so it takes no id
        self.schedule_ps(at_ps, "message_send",
                         {"message_id": message.message_id, "src": source,
                          "dst": destination, "size_bits": size_bits,
                          "purpose": purpose},
                         lambda: self._start_message(message))
        self.messages[message.message_id] = message
        return message

    def _start_message(self, message: Message) -> dict:
        route = self._route(self.view, message.source, message.destination,
                            message.send_ps, message.size_bits)
        if route is None:
            message.status = "blocked"
            return {"status": "blocked"}
        message.route = route
        message.status = "in_flight"
        bd, hops, send_ps = route.breakdown, route.hops, message.send_ps
        heappush(self._arrivals, [send_ps + bd.arrivals_ps[0], next(self._seq), message, 1,
                                  hops, bd.arrivals_ps, send_ps, message.message_id,
                                  len(hops) - 1])
        return {"status": "in_flight", "route": list(hops),
                "router_ps": bd.router_ps, "transmission_ps": bd.transmission_ps,
                "propagation_ps": bd.propagation_ps, "total_ps": bd.total_ps}

    def _deliver(self, message: Message, record: dict) -> None:
        arrival_ps = self.now_ps
        message.status = "delivered"
        message.delivery_ps = arrival_ps
        if message.purpose == "sync_reply" and message.timestamp_ps is not None:
            forged, applied = attacks_mod.forge_reply_timestamp(
                self.view.attacks, message.destination, arrival_ps, message.timestamp_ps)
            if applied:
                message.timestamp_ps = forged
                record["attack"] = [{"kind": a.kind, "target": a.target}
                                    for a in applied]
        clock = self.clocks.get(message.destination)
        if clock is not None:
            record["clock_ps"] = clock.reading_ps(arrival_ps)
        if message.on_delivery is not None:
            message.on_delivery(message)

    # -- routes -------------------------------------------------------------

    def _route(self, view: NetworkView, source: str, destination: str, t_ps: int,
               size_bits: int) -> Route | None:
        """`shortest_path` of the query on `view`, None for NoRoute.  Keyed
        on the epoch at t: a view and its baseline share the attack-free
        epoch and draw the same router flags, so the epoch settles the
        answer.  A route of the epoch's route cache is kept for the epoch
        and returned wherever `route_holds` at t; any other answer is kept
        for its instant only."""
        key = (view.epoch_at(t_ps), source, destination, size_bits)
        route = self._kept.get(key)
        if route is not None and route_holds(view, route, t_ps):
            return route
        answers = self._answers.get(t_ps)
        if answers is None:
            self._drop_past_answers()
            answers = self._answers[t_ps] = {}
        if key in answers:
            return answers[key]
        try:
            route = shortest_path(view, RouteQuery(source, destination, t_ps, size_bits))
        except NoRoute:
            route = None
        if route is not None and route.failures is not None:
            self._kept[key] = route
        else:
            answers[key] = route
        return route

    def _drop_past_answers(self) -> None:
        answers, now_ps = self._answers, self.now_ps
        for t_ps in list(answers):
            if t_ps < now_ps:
                del answers[t_ps]

    # -- timeouts -----------------------------------------------------------

    def baseline_rtt_ps(self, a: str, b: str, t_ps: int, size_forward: int,
                        size_backward: int) -> int | None:
        """Expected attack-free round-trip delay, used to budget sync timeouts."""
        baseline = self._baseline_view
        fwd = self._route(baseline, a, b, t_ps, size_forward)
        if fwd is None:
            return None
        bwd = self._route(baseline, b, a, t_ps + fwd.breakdown.total_ps, size_backward)
        if bwd is None:
            return None
        return fwd.breakdown.total_ps + bwd.breakdown.total_ps
