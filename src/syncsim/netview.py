"""Attack-aware view over a network graph at query time.

Bundles the graph with the global seed and the attack list, and answers
the time-dependent question routing and delay computation ask: the router
term of a hop into a node at t, None when the node is down.
`hop_router_ps` is that rule on the terms of t's routing epoch, which
`delay.total_path_delay` looks up once per path; the route search reads
the same epoch terms and `router_flag` itself.  Everything that depends only
on those inputs is built with the view, so a query only indexes: the
compiled topology with its time-independent terms, the routing epochs,
and the router_flag stream state of every router a failure model can take
down.  All answers are pure functions of (view, t); `router_flag` keeps
each router's flags of the last two instants it drew (see the engine
module).

Attacks are piecewise constant in time.  Between two consecutive edges of
the windows of the routing attacks (router_hijack of either mode, and ddos
with a delay multiplier other than 1) the set of active ones, the view's
routing epoch, is fixed, and so is every router's term while its failure
model has it up.  The view builds the attack-free epoch first, then one
epoch per distinct set of active routing attacks, so a set that recurs
shares one epoch: its terms and its routes.  Each term is
`topology.up_router_ps`, the one router rule, which `NodeSpec` applies
with no attacks: the exact delay under the attacks, rounded once, so it
is an integer at any magnitude.  `epoch_at` looks the epoch of an instant
up, and `attack_free_epoch` is the epoch with no routing attack.
`without_attacks` is a copy of the view with no attacks and only the
attack-free epoch, so the baseline shares the view's compiled topology,
its attack-free route tables and its router flags, which both draw alike:
a flag kept for an instant is drawn once, not once per view.

`router_active` and `router_delay_at` are the direct definition of the
same terms, scanning the attack list at t; the DOT export draws from
them.  `drop_targets` holds the nodes where a hop can be dropped: the
targets of the ddos attacks with `drop_probability > 0`, and `drop_stream`
the ddos_drop stream state their rolls draw from.
"""

from bisect import bisect_right
from copy import copy

from . import attacks as attacks_mod
from . import randstream
from .attacks import AttackSpec
from .delay import CompiledTopology
from .timebase import float_ratio
from .topology import NetworkGraph, up_router_ps


def _reroutes(attack: AttackSpec) -> bool:
    """Whether the attack can change a router term while its window is open."""
    return attack.kind == "router_hijack" or (
        attack.kind == "ddos" and attack.delay_multiplier != 1.0)


def routing_epoch(attacks: tuple[AttackSpec, ...], t_ps: int) -> tuple[AttackSpec, ...]:
    """The routing attacks active at t_ps, in list order."""
    return tuple(a for a in attacks if _reroutes(a) and a.active_at_ps(t_ps))


def epoch_edges(attacks: tuple[AttackSpec, ...]) -> tuple[int, ...]:
    """The distinct window edges of the routing attacks, ascending: the
    routing epoch is constant on each [edges[k], edges[k + 1]), and empty
    before the first edge."""
    return tuple(sorted({edge for a in attacks if _reroutes(a)
                         for edge in (a.start_ps, a.end_ps)}))


class Epoch:
    """One routing epoch of a view: the attack-free one, or the epoch of
    `attacks`, the routing attacks active at t_ps, over the attack-free
    epoch `base`.

    `terms[i]` is node i's `up_router_ps` under the epoch's attacks;
    `raised` holds the indices whose term is not the attack-free epoch's
    (attacks only raise terms, None meaning down).  `routes` holds the
    routing module's routes for the epoch; `tables`, its exhaustive fills
    with their attack-free distances, is filled in the attack-free epoch
    only, as an attacked epoch's routes are found by goal-directed searches.
    """

    __slots__ = ("terms", "raised", "tables", "routes")

    def __init__(self, topology: CompiledTopology, attacks: tuple[AttackSpec, ...] = (),
                 t_ps: int = 0, base: "Epoch | None" = None):
        terms = list(base.terms if base
                     else (up_router_ps(node, (), 0) for node in topology.nodes))
        targets = [topology.index[target] for target in dict.fromkeys(a.target for a in attacks)
                   if target in topology.index]
        for index in targets:
            terms[index] = up_router_ps(topology.nodes[index], attacks, t_ps)
        self.terms = tuple(terms)
        # only an epoch with attacks, and so with a base, has targets
        self.raised = frozenset(index for index in targets if terms[index] != base.terms[index])
        self.tables: dict = {}
        self.routes: dict = {}


class NetworkView:
    __slots__ = ("graph", "seed", "attacks", "topology", "flag_streams", "attack_free_epoch",
                 "drop_targets", "drop_stream", "_epoch_edges", "_epochs", "_flags")

    def __init__(self, graph: NetworkGraph, seed: int = 0,
                 attacks: tuple[AttackSpec, ...] = (),
                 medium_speeds: dict[str, float] | None = None):
        self.graph = graph
        self.seed = seed
        self.attacks = attacks
        self.topology = topology = CompiledTopology(graph, medium_speeds)
        # the router_flag stream of each router a failure model can take down
        self.flag_streams = tuple(
            None if model is None else randstream.stream(seed, "router_flag", node_id)
            for node_id, model in zip(topology.ids, topology.failure_models))
        # per router index, (t_ps, flag, t_ps, flag) of the last two instants
        # `router_flag` drew, the latest first
        self._flags = [(None, 1, None, 1)] * len(topology.ids)
        # epoch k covers [edges[k - 1], edges[k]); the first one, before any
        # window opens, is the attack-free epoch
        self._epoch_edges = epoch_edges(attacks)
        self.attack_free_epoch = attack_free = Epoch(topology)
        by_set = {(): attack_free}
        self._epochs = [attack_free]
        for edge in self._epoch_edges:
            active = routing_epoch(attacks, edge)
            if active not in by_set:
                by_set[active] = Epoch(topology, active, edge, attack_free)
            self._epochs.append(by_set[active])
        # the only nodes where a hop can be dropped; the engine rolls nowhere else
        self.drop_targets = frozenset(
            a.target for a in attacks if a.kind == "ddos" and a.drop_probability > 0)
        self.drop_stream = randstream.stream(seed, "ddos_drop")

    def router_active(self, node_id: str, t_ps: int) -> bool:
        """Flag(t) with force_down hijacks applied; non-routers are always up."""
        node = self.graph.nodes[node_id]
        if not node.is_router:
            return True
        base = node.failure_model.flag_at_ps(node_id, t_ps, self.seed)
        return attacks_mod.effective_flag(self.attacks, node_id, t_ps, base) == 1

    def router_delay_at(self, node_id: str, t_ps: int) -> float:
        """Traversal delay in seconds for an active router, with attack
        effects, as the nearest float (inf beyond the float range)."""
        node = self.graph.nodes[node_id]
        if not node.is_router:
            return 0.0
        delay = attacks_mod.effective_router_delay(self.attacks, node_id, t_ps,
                                                   node.router_delay)
        return float_ratio(delay.numerator, delay.denominator)

    def hop_router_ps(self, node: int, t_ps: int, terms: tuple[int | None, ...]) -> int | None:
        """The router term of a hop into node index `node` at t_ps, where
        `terms` are the terms of the routing epoch holding t_ps
        (`epoch_at(t_ps).terms`, read once per path): its term while its
        failure model has it up, else None.  The flag is read only for a
        router a failure model can take down."""
        term = terms[node]
        if (term is None or self.topology.failure_models[node] is None
                or self.router_flag(node, t_ps)):
            return term
        return None

    def router_flag(self, node: int, t_ps: int) -> int:
        """The failure flag at t_ps (1 up, 0 down) of router index `node`,
        which a failure model can take down: `FailureModel.flag_from` on the
        router's held stream.  The flags of the last two instants it drew
        are kept, so asks that alternate between two instants, such as a
        timeout budget's legs and the request and reply sent at their
        instants, draw each flag once."""
        last_ps, last, before_ps, before = self._flags[node]
        if t_ps == last_ps:
            return last
        if t_ps == before_ps:
            return before
        flag = self.topology.failure_models[node].flag_from(self.flag_streams[node], t_ps)
        self._flags[node] = (t_ps, flag, last_ps, last)
        return flag

    def epoch_at(self, t_ps: int) -> Epoch:
        """The routing epoch holding t_ps.  Window starts belong to the
        interval they open (windows are half-open), hence bisect_right."""
        return self._epochs[bisect_right(self._epoch_edges, t_ps)]

    def without_attacks(self) -> "NetworkView":
        """The attack-free baseline view (used for timeout budgeting): a copy
        of this view with no attacks, sharing its compiled topology, router
        flags and attack-free epoch."""
        if not self.attacks:
            return self
        baseline = copy(self)
        baseline.attacks = baseline._epoch_edges = ()
        baseline._epochs = (self.attack_free_epoch,)
        baseline.drop_targets = frozenset()
        return baseline
