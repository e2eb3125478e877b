#!/usr/bin/env python3
"""Path delays and least-delay routing.

Builds a small mesh, decomposes a path delay into its router, transmission
and propagation components, and shows Dijkstra picking different routes as
router state and message size change.
"""

from syncsim import (FailureModel, LinkSpec, NetworkGraph, NetworkView,
                     NodeSpec, RouteQuery, shortest_path, total_path_delay,
                     export_graph)
from syncsim.clocks import preset_parameters
from syncsim.timebase import ps_to_seconds, seconds_to_ps

perfect = preset_parameters("perfect")

nodes = [
    NodeSpec("c1", "client", clock=perfect),
    NodeSpec("s1", "time_server", clock=preset_parameters("gps")),
    NodeSpec("fast", "router", router_delay=20e-6,
             failure_model=FailureModel("alternating", up_duration=2.0,
                                        down_duration=2.0)),
    NodeSpec("slow", "router", router_delay=800e-6),
]
links = [
    LinkSpec("c1", "fast", 1e9, 50_000.0, "fiber"),
    LinkSpec("fast", "s1", 1e9, 50_000.0, "fiber"),
    LinkSpec("c1", "slow", 1e7, 80_000.0, "copper"),
    LinkSpec("slow", "s1", 1e7, 80_000.0, "copper"),
]
view = NetworkView(NetworkGraph(nodes, links), seed=3)

print("=" * 70)
print("1. Delay breakdown along c1 -> fast -> s1 for a 12000-bit message")
print("=" * 70)
breakdown = total_path_delay(view, ["c1", "fast", "s1"], 12000, 0)
print(f"  router       {breakdown.router_ps:>12} ps")
print(f"  transmission {breakdown.transmission_ps:>12} ps")
print(f"  propagation  {breakdown.propagation_ps:>12} ps")
print(f"  total        {breakdown.total_ps:>12} ps "
      f"(= {ps_to_seconds(breakdown.total_ps) * 1e3:.3f} ms, components sum exactly)")

print()
print("=" * 70)
print("2. Route choice over time (the fast router is up 2 s, down 2 s)")
print("=" * 70)
for t in (0.5, 1.5, 2.5, 3.5, 4.5):
    try:
        route = shortest_path(view, RouteQuery("c1", "s1", seconds_to_ps(t), 12000))
        print(f"  t={t:4}s  via {' -> '.join(route.hops):28} "
              f"total {ps_to_seconds(route.breakdown.total_ps) * 1e3:7.3f} ms")
    except Exception as exc:
        print(f"  t={t:4}s  {exc}")

print()
print("=" * 70)
print("3. Transmission cost is per message: big payloads reroute")
print("=" * 70)
# with the fast path down, compare message sizes on the slow copper path
for size in (1_000, 10_000_000):
    route = shortest_path(view, RouteQuery("c1", "s1", seconds_to_ps(2.5), size))
    print(f"  {size:>10} bits via {' -> '.join(route.hops):28} "
          f"total {ps_to_seconds(route.breakdown.total_ps) * 1e3:9.3f} ms")

print()
print("=" * 70)
print("4. DOT snapshot (render with graphviz: dot -Tpng topo.dot)")
print("=" * 70)
print(export_graph(view, 2.5))
