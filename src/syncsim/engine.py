"""Deterministic discrete-event core.

A single-threaded loop executes events in nondecreasing (time, sequence)
order; the sequence counter breaks ties in scheduling order.  Every
executed event emits exactly one trace record, so a run's trace bytes are a
pure function of (scenario, seed).

Messages are routed once at send time; the chosen route is frozen for the
message's lifetime and hop arrivals, attack drops, and final delivery play
out as scheduled events.  Blocked and dropped messages surface to waiting
sync logic as timeouts.
"""

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from .clocks import SoftwareClock
from .netview import NetworkView
from .routing import NoRoute, Route, RouteQuery, shortest_path
from .timebase import seconds_to_ps
from .topology import NetworkGraph
from .trace import RECORD_KINDS


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    duration: float = 10.0
    scenario_name: str = ""


class Event:
    __slots__ = ("time_ps", "seq", "kind", "payload", "action", "cancelled")

    def __init__(self, time_ps: int, seq: int, kind: str, payload: dict,
                 action: Callable[[], dict | None] | None):
        self.time_ps = time_ps
        self.seq = seq
        self.kind = kind
        self.payload = payload
        self.action = action
        self.cancelled = False


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
        self.seed = seed
        self.now_ps = 0
        self._seq = itertools.count()
        self._queue: list[tuple[int, int, Event]] = []
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

    def node_reading_ps(self, node_id: str, t_ps: int) -> int | None:
        clock = self.clocks.get(node_id)
        return clock.reading_ps(t_ps) if clock is not None else None

    # -- scheduling ---------------------------------------------------------

    def schedule_ps(self, time_ps: int, kind: str, payload: dict | None = None,
                    action: Callable[[], dict | None] | None = None) -> Event:
        """Enqueue an event; its sequence number fixes same-time ordering."""
        if time_ps < self.now_ps:
            raise SchedulingError(
                f"cannot schedule {kind} at {time_ps} ps; engine is at {self.now_ps} ps")
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        event = Event(time_ps, next(self._seq), kind, payload or {}, action)
        heappush(self._queue, (event.time_ps, event.seq, event))
        return event

    @staticmethod
    def cancel(event: Event) -> None:
        event.cancelled = True

    def next_event_time_ps(self) -> int | None:
        """Time of the next live event, discarding cancelled queue heads."""
        while self._queue and self._queue[0][2].cancelled:
            heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    # -- execution ----------------------------------------------------------

    def run_until(self, t_end: float) -> list[dict]:
        return self.run_until_ps(seconds_to_ps(t_end))

    def run_until_ps(self, t_end_ps: int) -> list[dict]:
        """Execute all events with time <= t_end and advance the clock to t_end.

        Returns the trace records emitted during this call.
        """
        if t_end_ps < self.now_ps:
            raise SchedulingError("run_until target is in the past")
        emitted_from = len(self.records)
        while self._queue and self._queue[0][0] <= t_end_ps:
            _, _, event = heappop(self._queue)
            if event.cancelled:
                continue
            self.now_ps = event.time_ps
            record = {"sim_time_ps": event.time_ps, "sequence": event.seq,
                      "kind": event.kind}
            record.update(event.payload)
            extra = event.action() if event.action is not None else None
            if extra:
                record.update(extra)
            self.records.append(record)
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
        self.messages[message.message_id] = message
        self.schedule_ps(at_ps, "message_send",
                         {"message_id": message.message_id, "src": source,
                          "dst": destination, "size_bits": size_bits,
                          "purpose": purpose},
                         action=lambda: self._start_message(message))
        return message

    def _start_message(self, message: Message) -> dict:
        query = RouteQuery(message.source, message.destination, message.send_ps,
                           message.size_bits, message.message_id)
        try:
            route = shortest_path(self.view, query)
        except NoRoute:
            message.status = "blocked"
            return {"status": "blocked"}
        message.route = route
        message.status = "in_flight"
        arrivals = self._hop_arrivals(route)
        self._schedule_leg(message, arrivals, 0)
        bd = route.breakdown
        return {"status": "in_flight", "route": list(route.hops),
                "router_ps": bd.router_ps, "transmission_ps": bd.transmission_ps,
                "propagation_ps": bd.propagation_ps, "total_ps": bd.total_ps}

    def _hop_arrivals(self, route: Route) -> list[tuple[str, int]]:
        """Cumulative arrival offset at each node after the source, from the
        breakdown's per-hop components (so timings sum exactly to its total)."""
        arrivals = []
        cumulative = 0
        components = list(route.breakdown.per_hop)
        index = 0
        for node_id in route.hops[1:]:
            cumulative += components[index].ps      # transmission
            cumulative += components[index + 1].ps  # propagation
            index += 2
            if self.view.node(node_id).is_router:
                cumulative += components[index].ps  # router processing
                index += 1
            arrivals.append((node_id, cumulative))
        return arrivals

    def _schedule_leg(self, message: Message, arrivals: list[tuple[str, int]],
                      leg_index: int) -> None:
        node_id, offset_ps = arrivals[leg_index]
        arrival_ps = message.send_ps + offset_ps
        final = leg_index == len(arrivals) - 1
        if final:
            self.schedule_ps(arrival_ps, "delivery",
                             {"message_id": message.message_id, "node": node_id},
                             action=lambda: self._deliver(message, arrival_ps))
        else:
            self.schedule_ps(arrival_ps, "hop_arrival",
                             {"message_id": message.message_id, "node": node_id},
                             action=lambda: self._hop(message, arrivals, leg_index))

    def _hop(self, message: Message, arrivals: list[tuple[str, int]],
             leg_index: int) -> dict:
        node_id, offset_ps = arrivals[leg_index]
        arrival_ps = message.send_ps + offset_ps
        drop = self.view.drop_attack_at(node_id, arrival_ps, message.message_id)
        if drop is not None:
            message.status = "dropped"
            return {"status": "dropped",
                    "attack": {"kind": drop.kind, "target": drop.target}}
        self._schedule_leg(message, arrivals, leg_index + 1)
        return {}

    def _deliver(self, message: Message, arrival_ps: int) -> dict:
        message.status = "delivered"
        message.delivery_ps = arrival_ps
        extra: dict = {}
        if message.purpose == "sync_reply" and message.timestamp_ps is not None:
            forged, applied = self.view.forge_timestamp(
                message.destination, arrival_ps, message.timestamp_ps)
            if applied:
                message.timestamp_ps = forged
                extra["attack"] = [{"kind": a.kind, "target": a.target}
                                   for a in applied]
        reading = self.node_reading_ps(message.destination, arrival_ps)
        if reading is not None:
            extra["clock_ps"] = reading
        if message.on_delivery is not None:
            message.on_delivery(message)
        return extra

    # -- timeouts -----------------------------------------------------------

    def baseline_rtt_ps(self, a: str, b: str, t_ps: int, size_forward: int,
                        size_backward: int | None = None) -> int | None:
        """Expected attack-free round-trip delay, used to budget sync timeouts."""
        baseline = self.view.without_attacks()
        if size_backward is None:
            size_backward = size_forward
        try:
            fwd = shortest_path(baseline, RouteQuery(a, b, t_ps, size_forward, "baseline"))
            t_back_ps = t_ps + fwd.breakdown.total_ps
            bwd = shortest_path(baseline, RouteQuery(b, a, t_back_ps, size_backward,
                                                     "baseline"))
        except NoRoute:
            return None
        return fwd.breakdown.total_ps + bwd.breakdown.total_ps
