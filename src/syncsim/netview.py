"""Attack-aware view over a network graph at query time.

Bundles the graph with the global seed, the attack list, and any medium
speed overrides, and answers the time-dependent questions routing and delay
computation ask: is this router up, what does a traversal cost, does a ddos
drop this message.  All answers are pure functions of (view, t), so
concurrent queries are safe and repeat queries are identical.  The
time-independent terms come from the view's compiled topology.
"""

from dataclasses import dataclass, field

from . import attacks as attacks_mod
from .attacks import AttackSpec
from .delay import CompiledTopology
from .topology import NetworkGraph, NodeSpec


@dataclass(frozen=True)
class NetworkView:
    graph: NetworkGraph
    seed: int = 0
    attacks: tuple[AttackSpec, ...] = ()
    medium_speeds: dict[str, float] = field(default_factory=dict)
    # compiled from graph and medium_speeds when not given; without_attacks
    # passes its own, so a view and its baseline share one route cache
    topology: CompiledTopology = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.topology is None:
            object.__setattr__(self, "topology",
                               CompiledTopology(self.graph, self.medium_speeds))

    def node(self, node_id: str) -> NodeSpec:
        return self.graph.node(node_id)

    def router_active(self, node_id: str, t_ps: int) -> bool:
        """Flag(t) with force_down hijacks applied; non-routers are always up."""
        node = self.graph.node(node_id)
        if not node.is_router:
            return True
        base = node.failure_model.flag_at_ps(node_id, t_ps, self.seed)
        return attacks_mod.effective_flag(self.attacks, node_id, t_ps, base) == 1

    def router_delay_at(self, node_id: str, t_ps: int) -> float:
        """Traversal delay in seconds for an active router, with attack effects."""
        node = self.graph.node(node_id)
        if not node.is_router:
            return 0.0
        return attacks_mod.effective_router_delay(self.attacks, node_id, t_ps,
                                                  node.router_delay)

    def drop_attack_at(self, node_id: str, t_ps: int, message_id: str) -> AttackSpec | None:
        return attacks_mod.drop_roll(self.attacks, self.seed, node_id, t_ps, message_id)

    def forge_timestamp(self, victim: str, t_ps: int,
                        timestamp_ps: int) -> tuple[int, list[AttackSpec]]:
        return attacks_mod.forge_reply_timestamp(self.attacks, victim, t_ps, timestamp_ps)

    def without_attacks(self) -> "NetworkView":
        """The attack-free baseline view (used for timeout budgeting)."""
        if not self.attacks:
            return self
        return NetworkView(self.graph, self.seed, (), self.medium_speeds, self.topology)
