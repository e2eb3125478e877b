"""Cristian's and Berkeley synchronization over simulated exchanges.

Cristian's algorithm: the client asks a time server for its reading and
adopts it plus half the measured round trip.  Under asymmetric one-way
delays the estimate is off by half the asymmetry, which the simulator can
verify exactly because it also knows the true per-leg delays.

Berkeley: a coordinator polls every member, estimates each member's offset
against its own clock with the same rtt/2 compensation, averages the
offsets (its own counts as 0, optionally discarding outliers relative to
the median), and sends every participant the delta that moves it onto the
average.

Both measure a peer with one class, `SyncExchange`.  A round owns its
polls and is its own report: once it ends, its `report` is the round, and
`cristian_sync`/`berkeley_round` return it.  Every wait (an exchange's
reply, a Berkeley round's corrections) ends exactly once: the last awaited
delivery cancels the deadline, or the deadline executes and whatever
arrives later is delivered and traced but changes nothing.

Residuals are measured against ground truth the protocol participants never
see: the wall clock drives both the true delays and the reference readings.
"""

import statistics
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import Engine, Message
from .timebase import require_finite, round_ratio, seconds_to_ps


@dataclass(frozen=True)
class SyncOptions:
    request_size_bits: int = 12000
    reply_size_bits: int = 12000
    server_service_time: float = 0.0
    outlier_threshold: float | None = None   # seconds; None disables discard
    correction_policy: str = "step"           # step | slew
    slew_rate: float | None = None            # seconds per second, for slew
    timeout_factor: float = 5.0               # multiple of baseline RTT
    default_timeout: float = 1.0              # seconds, when no baseline exists
    # the seconds fields the run reads, quantized once when built, and
    # timeout_factor's exact value as (numerator, denominator)
    server_service_ps: int = field(init=False, repr=False, compare=False)
    default_timeout_ps: int = field(init=False, repr=False, compare=False)
    outlier_threshold_ps: int | None = field(init=False, repr=False, compare=False)
    timeout_ratio: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_finite(self, "server_service_time", "timeout_factor", "default_timeout",
                       *(name for name in ("outlier_threshold", "slew_rate")
                         if getattr(self, name) is not None))
        for name in ("request_size_bits", "reply_size_bits"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.request_size_bits < 0 or self.reply_size_bits < 0:
            raise ValueError("request and reply sizes must be >= 0 bits")
        if self.server_service_time < 0 or (self.outlier_threshold or 0) < 0:
            raise ValueError("server_service_time and outlier_threshold must be >= 0 s")
        if self.timeout_factor <= 0 or self.default_timeout <= 0:
            raise ValueError("timeout_factor and default_timeout must be > 0")
        if self.correction_policy not in ("step", "slew"):
            raise ValueError(f"unknown correction policy: {self.correction_policy!r}")
        if self.correction_policy == "slew" and (self.slew_rate is None or self.slew_rate <= 0):
            raise ValueError("slew policy requires a positive slew_rate")
        object.__setattr__(self, "server_service_ps", seconds_to_ps(self.server_service_time))
        object.__setattr__(self, "default_timeout_ps", seconds_to_ps(self.default_timeout))
        object.__setattr__(self, "outlier_threshold_ps", None if self.outlier_threshold is None
                           else seconds_to_ps(self.outlier_threshold))
        object.__setattr__(self, "timeout_ratio", self.timeout_factor.as_integer_ratio())

    def timeout_ps(self, baseline_rtt_ps: int) -> int:
        """How long an exchange waits for its reply: timeout_factor times the
        attack-free round trip plus the server's service time, exact and
        rounded once."""
        numerator, denominator = self.timeout_ratio
        return round_ratio(numerator * (baseline_rtt_ps + self.server_service_ps), denominator)


class SyncExchange:
    """One request/reply measurement of a server's clock by a client: the
    client reads t0 and sends a request, the server stamps its reply with its
    own reading, and the client reads t1 on delivery and estimates the
    server's offset as stamp + rtt/2 - t1.  The true one-way delays and the
    signed post-correction error are ground truth, kept for verification."""

    def __init__(self, owner: "_Round", client: str, server: str, timeout_payload: dict):
        self.owner = owner
        self.client = client
        self.server = server
        self.timeout_payload = timeout_payload
        self.t0_client_ps = 0
        self.t_server_ps = 0
        self.t1_client_ps = 0
        self.rtt_ps = 0
        self.forward_delay_ps = 0
        self.backward_delay_ps = 0
        self.offset_error_ps: int | None = None  # client minus reference, after correction
        self.offset_ps: int | None = None  # server minus client; None unless replied
        self.messages_sent = 0
        self.settled = False
        self._timeout_event = None

    def begin(self) -> None:
        engine, opts = self.owner.engine, self.owner.options
        at_ps = engine.now_ps
        self.t0_client_ps = engine.clocks[self.client].reading_ps(at_ps)
        request = engine.send_message(self.client, self.server, opts.request_size_bits,
                                      at_ps, purpose="sync_request",
                                      on_delivery=self._request_arrived)
        self.messages_sent = 1
        baseline = engine.baseline_rtt_ps(self.client, self.server, at_ps,
                                          opts.request_size_bits, opts.reply_size_bits)
        wait_ps = opts.default_timeout_ps if baseline is None else opts.timeout_ps(baseline)
        self._timeout_event = engine.schedule_ps(
            at_ps + wait_ps, "timeout", {"message_id": request.message_id, "node": self.client},
            action=self._timed_out)

    def _request_arrived(self, request: Message) -> None:
        engine, opts = self.owner.engine, self.owner.options
        reply_at_ps = request.delivery_ps + opts.server_service_ps
        self.t_server_ps = engine.clocks[self.server].reading_ps(reply_at_ps)
        self.forward_delay_ps = request.route.breakdown.total_ps
        engine.send_message(self.server, self.client, opts.reply_size_bits,
                            reply_at_ps, purpose="sync_reply",
                            timestamp_ps=self.t_server_ps, on_delivery=self._reply_arrived)
        self.messages_sent = 2

    def _reply_arrived(self, reply: Message) -> None:
        if self.settled:
            return
        engine = self.owner.engine
        engine.cancel(self._timeout_event)
        self.backward_delay_ps = reply.route.breakdown.total_ps
        self.t1_client_ps = engine.clocks[self.client].reading_ps(reply.delivery_ps)
        self.rtt_ps = self.t1_client_ps - self.t0_client_ps
        # the client believes the server's clock now reads stamp + rtt/2
        self.offset_ps = reply.timestamp_ps + round_ratio(self.rtt_ps, 2) - self.t1_client_ps
        self.settled = True
        self.owner._exchange_settled()

    def _timed_out(self) -> dict:
        self.settled = True
        self.owner._exchange_settled()
        return self.timeout_payload


def _apply_policy(engine: Engine, node_id: str, delta_ps: int, at_ps: int,
                  options: SyncOptions) -> None:
    clock = engine.clocks[node_id]
    if options.correction_policy == "step":
        clock.apply_step(delta_ps, at_ps)
    else:
        clock.apply_slew(delta_ps, options.slew_rate, at_ps)


class _Round:
    """One sync round, which is also its own report: a `started` sync_step,
    one `SyncExchange` per polled peer, one decision (`_polled`) once every
    poll has settled, then exactly one terminal sync_step (`completed` or
    `aborted`).  `report` is None until the round ends, then the round."""

    algorithm = ""

    def __init__(self, engine: Engine, participants: list[str],
                 options: SyncOptions | None):
        if len(set(participants)) != len(participants):
            raise ValueError("participants must be distinct")
        for node_id in participants:
            if node_id not in engine.clocks:
                raise ValueError(f"participant {node_id!r} has no clock"
                                 if node_id in engine.view.graph.nodes
                                 else f"unknown participant {node_id!r}")
        self.engine = engine
        self.participants = participants
        self.options = options or SyncOptions()
        self.report: _Round | None = None
        self.start_ps = 0
        self._polls: list[SyncExchange] = []
        self._corrections: list[Message] = []  # correction messages sent
        self.corrections_ps: dict[str, int] = {}
        self.residuals_ps: dict[str, int] = {}  # absolute values
        self.messages_sent = 0
        self.convergence_ps = 0
        self.failed = False
        self.reason = ""

    @property
    def exchanges(self) -> list[SyncExchange]:
        """The polls that were replied to."""
        return [poll for poll in self._polls if poll.offset_ps is not None]

    def start(self, at_ps: int) -> None:
        """Schedule the round; all clock reads happen when events execute."""
        self.start_ps = at_ps
        self.engine.schedule_ps(at_ps, "sync_step",
                                {"algorithm": self.algorithm, "phase": "started",
                                 "participants": list(self.participants)},
                                action=self._begin)

    def _begin(self) -> None:
        for poll in self._polls:
            poll.begin()
        if not self._polls:
            self._polled()

    def _exchange_settled(self) -> None:
        if all(poll.settled for poll in self._polls):
            self._polled()

    def _end(self, end_ps: int | None = None, failed: bool = False, reason: str = "",
             messages_sent: int | None = None) -> None:
        """The one terminal path: the round becomes its report and is traced.
        It sent what its polls sent plus its correction messages."""
        engine = self.engine
        self.convergence_ps = (engine.now_ps if end_ps is None else end_ps) - self.start_ps
        self.failed, self.reason = failed, reason
        self.messages_sent = (sum(poll.messages_sent for poll in self._polls)
                              + len(self._corrections)
                              if messages_sent is None else messages_sent)
        self.report = self
        engine.sync_reports.append(self)
        engine.schedule_ps(engine.now_ps, "sync_step",
                           dict(phase="aborted" if failed else "completed",
                                **self.trace_payload()))

    def trace_payload(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "participants": list(self.participants),
            "corrections_ps": dict(sorted(self.corrections_ps.items())),
            "residuals_ps": dict(sorted(self.residuals_ps.items())),
            "messages_sent": self.messages_sent,
            "convergence_ps": self.convergence_ps,
            "failed": self.failed,
        }


class CristianExchange(_Round):
    """One Cristian round of participants (client, server): one exchange,
    then the client adopts the server."""

    algorithm = "cristian"

    def __init__(self, engine: Engine, participants: tuple[str, ...],
                 options: SyncOptions | None = None):
        if len(participants) != 2:
            raise ValueError("cristian needs exactly 2 participants")
        client, server = participants
        super().__init__(engine, [client, server], options)
        self._polls = [SyncExchange(self, client, server,
                                    {"sync_aborted": "cristian",
                                     "participants": [client, server]})]

    start = _Round.start  # in each class body, where the benchmark probe wraps it

    def _polled(self) -> None:
        (ex,) = self._polls
        if ex.offset_ps is None:
            # a failed round counts only the request the client knows it sent
            self._end(failed=True, reason="timeout", messages_sent=1)
            return
        engine = self.engine
        t1_ps = engine.now_ps
        _apply_policy(engine, ex.client, ex.offset_ps, t1_ps, self.options)
        ex.offset_error_ps = (engine.clocks[ex.client].reading_ps(t1_ps)
                              - engine.clocks[ex.server].reading_ps(t1_ps))
        self.corrections_ps[ex.client] = ex.offset_ps
        self.residuals_ps[ex.client] = abs(ex.offset_error_ps)
        self._end()


class BerkeleyRound(_Round):
    """One Berkeley round of participants (coordinator, *members): one
    exchange per member, then the coordinator sends everyone the delta onto
    the median-guarded average offset."""

    algorithm = "berkeley"

    def __init__(self, engine: Engine, participants: tuple[str, ...],
                 options: SyncOptions | None = None):
        # the coordinator may be listed as a member; it contributes offset 0
        # without polling itself
        members = [m for m in participants[1:] if m != participants[0]]
        if not members:
            raise ValueError("needs at least 2 participants")
        coordinator = participants[0]
        super().__init__(engine, [coordinator] + members, options)
        self.coordinator = coordinator
        self._polls = [SyncExchange(self, coordinator, m, {"unreachable": m})
                       for m in members]
        self._corrections_deadline_event = None

    start = _Round.start  # in each class body, where the benchmark probe wraps it

    def _polled(self) -> None:
        engine, opts = self.engine, self.options
        now_ps = engine.now_ps
        offsets = {self.coordinator: 0}
        offsets.update({poll.server: poll.offset_ps for poll in self.exchanges})
        if len(offsets) < 2:
            self._end(failed=True, reason="fewer than 2 reachable participants")
            return
        values = list(offsets.values())
        median = statistics.median(map(Fraction, values))
        surviving = values
        threshold_ps = opts.outlier_threshold_ps
        if threshold_ps is not None:
            # a degenerate threshold that keeps no one falls back to all
            surviving = [o for o in values if abs(o - median) <= threshold_ps] or values
        mean = Fraction(sum(surviving), len(surviving))
        for participant, offset_ps in offsets.items():
            delta_ps = self.corrections_ps[participant] = round(mean - offset_ps)
            if participant == self.coordinator:
                _apply_policy(engine, participant, delta_ps, now_ps, opts)
            else:
                self._corrections.append(engine.send_message(
                    self.coordinator, participant, opts.reply_size_bits,
                    now_ps, purpose="sync_correction", on_delivery=self._correction_arrived))
        # corrections that never arrive must not stall the round
        self._corrections_deadline_event = engine.schedule_ps(
            now_ps + opts.default_timeout_ps, "timeout",
            {"node": self.coordinator}, action=self._corrections_deadline)

    def _correction_arrived(self, message: Message) -> None:
        # the member applies a correction whenever it arrives, but one after
        # the deadline no longer moves the ended round
        member = message.destination
        _apply_policy(self.engine, member, self.corrections_ps[member],
                      message.delivery_ps, self.options)
        if self.report is None and all(m.status == "delivered" for m in self._corrections):
            self.engine.cancel(self._corrections_deadline_event)
            self._finish()

    def _corrections_deadline(self) -> dict:
        stragglers = sorted(m.destination for m in self._corrections
                            if m.status != "delivered")
        self._finish()
        return {"undelivered_corrections": stragglers}

    def _finish(self) -> None:
        engine = self.engine
        # the last correction took effect at the last delivery before the
        # round ended, or when the coordinator corrected itself and sent them
        t_f = max((m.delivery_ps for m in self._corrections if m.status == "delivered"),
                  default=self._corrections[0].send_ps)
        readings = {p: engine.clocks[p].reading_ps(t_f) for p in self.corrections_ps}
        ensemble_mean = Fraction(sum(readings.values()), len(readings))
        self.residuals_ps = {p: abs(round(reading - ensemble_mean))
                             for p, reading in readings.items()}
        unreachable = sorted(poll.server for poll in self._polls if poll.offset_ps is None)
        self._end(end_ps=t_f,
                  reason="unreachable: " + ", ".join(unreachable) if unreachable else "")


# algorithm name in a scenario's sync_schedule -> its round; each takes
# (engine, participants, options), participants as the schedule lists them
ALGORITHMS = {"cristian": CristianExchange, "berkeley": BerkeleyRound}


def _run_to_completion(engine: Engine, machine: _Round, at: float | None) -> _Round:
    """Start the round at `at` seconds (default now) and run until it ends."""
    machine.start(engine.now_ps if at is None else seconds_to_ps(at))
    while machine.report is None:
        next_ps = engine.next_event_time_ps()
        if next_ps is None:
            raise RuntimeError("sync round cannot complete: event queue is empty")
        engine.run_until_ps(next_ps)
    return machine.report


def cristian_sync(engine: Engine, client: str, server: str,
                  at: float | None = None,
                  options: SyncOptions | None = None) -> CristianExchange:
    """Run one Cristian round to completion and return it."""
    return _run_to_completion(engine, CristianExchange(engine, (client, server), options), at)


def berkeley_round(engine: Engine, coordinator: str, members: list[str],
                   at: float | None = None,
                   options: SyncOptions | None = None) -> BerkeleyRound:
    """Run one Berkeley round to completion and return it."""
    return _run_to_completion(engine, BerkeleyRound(engine, (coordinator, *members), options), at)
