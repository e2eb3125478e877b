"""Time-sync attacks as windowed mutations of model quantities.

Three kinds, each the minimal change to an existing quantity so its effect
stays analytically predictable:

  ddos           multiplies the target router's processing delay and drops
                 traversing messages with a fixed probability
  ip_spoof       shifts the server timestamp carried by sync replies to the
                 victim client
  router_hijack  forces the target router down, or adds a constant delay so
                 routing prefers other paths

Windows are half-open [t_start, t_end) in simulated time.  Outside every
window, behavior is bit-identical to the attack-free baseline: no stream
draws are consumed and no trace annotations appear.
"""

from dataclasses import dataclass, field

from . import randstream
from .timebase import require_finite, seconds_to_ps

ATTACK_KINDS = ("ddos", "ip_spoof", "router_hijack")
HIJACK_MODES = ("force_down", "added_delay")


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    target: str
    t_start: float
    t_end: float
    # ddos
    delay_multiplier: float = 1.0
    drop_probability: float = 0.0
    # ip_spoof
    forged_offset: float = 0.0
    # router_hijack
    mode: str = "force_down"
    added_delay: float = 0.0
    # the window quantized once, so per-hop activity checks compare integers
    start_ps: int = field(init=False, repr=False, compare=False)
    end_ps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_finite(self, "delay_multiplier", "drop_probability", "forged_offset",
                       "added_delay")
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind: {self.kind!r}")
        if self.t_start > self.t_end:
            raise ValueError("attack window must have t_start <= t_end")
        if self.kind == "ddos":
            if self.delay_multiplier < 1.0:
                raise ValueError("ddos delay_multiplier must be >= 1")
            if not 0.0 <= self.drop_probability <= 1.0:
                raise ValueError("ddos drop_probability must be in [0, 1]")
        if self.kind == "router_hijack":
            if self.mode not in HIJACK_MODES:
                raise ValueError(f"unknown hijack mode: {self.mode!r}")
            if self.mode == "added_delay" and self.added_delay < 0:
                raise ValueError("hijack added_delay must be >= 0")
        object.__setattr__(self, "start_ps", seconds_to_ps(self.t_start))
        object.__setattr__(self, "end_ps", seconds_to_ps(self.t_end))

    def active_at_ps(self, t_ps: int) -> bool:
        return self.start_ps <= t_ps < self.end_ps


def effective_flag(attacks: tuple[AttackSpec, ...], node_id: str, t_ps: int,
                   base_flag: int) -> int:
    """Router activity after force_down hijacks are applied."""
    for attack in attacks:
        if (attack.kind == "router_hijack" and attack.mode == "force_down"
                and attack.target == node_id and attack.active_at_ps(t_ps)):
            return 0
    return base_flag


def effective_router_delay(attacks: tuple[AttackSpec, ...], node_id: str, t_ps: int,
                           base_delay: float) -> float:
    """Router processing delay in seconds after active attacks.

    added_delay hijacks add to the base delay first; ddos multipliers then
    scale the sum.
    """
    delay = base_delay
    for attack in attacks:
        if (attack.kind == "router_hijack" and attack.mode == "added_delay"
                and attack.target == node_id and attack.active_at_ps(t_ps)):
            delay += attack.added_delay
    for attack in attacks:
        if attack.kind == "ddos" and attack.target == node_id and attack.active_at_ps(t_ps):
            delay *= attack.delay_multiplier
    return delay


def drop_roll(attacks: tuple[AttackSpec, ...], stream, node_id: str, t_ps: int,
              message_id: str) -> AttackSpec | None:
    """Decide whether a message traversing node_id at t is dropped by a ddos.

    The roll draws from `stream`, the (seed, "ddos_drop") state the view
    holds, extended by (attack index, message id), so it is deterministic
    and consumed only while the attack window is active.
    """
    for index, attack in enumerate(attacks):
        if (attack.kind == "ddos" and attack.target == node_id and attack.active_at_ps(t_ps)
                and randstream.draw_bernoulli(stream, attack.drop_probability, index,
                                              message_id)):
            return attack
    return None


def forge_reply_timestamp(attacks: tuple[AttackSpec, ...], victim: str, t_ps: int,
                          timestamp_ps: int) -> tuple[int, list[AttackSpec]]:
    """Shift a sync reply's server timestamp for active spoofs on the victim."""
    applied: list[AttackSpec] = []
    for attack in attacks:
        if (attack.kind == "ip_spoof" and attack.target == victim
                and attack.active_at_ps(t_ps)):
            timestamp_ps += seconds_to_ps(attack.forged_offset)
            applied.append(attack)
    return timestamp_ps, applied
