#!/usr/bin/env python3
"""Time-sync attacks: DDoS slowdown/drops, reply spoofing, router hijack.

Runs the same sync workload with and without each attack and compares what
the victim ends up believing.  Everything is windowed: outside the attack
window the traces are byte-identical to the clean run.
"""

from syncsim import AttackSpec, Engine, LinkSpec, NetworkGraph, NodeSpec
from syncsim.clocks import preset_parameters
from syncsim.sync import cristian_sync
from syncsim.trace import trace_sha256

perfect = preset_parameters("perfect")


def build_engine(attacks=()):
    nodes = [NodeSpec("c1", "client", clock=perfect),
             NodeSpec("s1", "time_server", clock=perfect),
             NodeSpec("r1", "router", router_delay=50e-6),
             NodeSpec("r2", "router", router_delay=400e-6)]
    links = [LinkSpec("c1", "r1", 1e9, 50_000.0), LinkSpec("r1", "s1", 1e9, 50_000.0),
             LinkSpec("c1", "r2", 1e9, 70_000.0), LinkSpec("r2", "s1", 1e9, 70_000.0)]
    return Engine(NetworkGraph(nodes, links), seed=5, attacks=attacks)


print("=" * 70)
print("1. Baseline: symmetric route through r1, residual 0")
print("=" * 70)
engine = build_engine()
base = cristian_sync(engine, "c1", "s1", at=1.0)
print(f"  route residual: {base.residuals_ps['c1']} ps, "
      f"rtt {base.exchanges[0].rtt_ps / 1e9:.3f} ms")

print()
print("=" * 70)
print("2. IP spoofing: forged server timestamps move the client wholesale")
print("=" * 70)
spoof = AttackSpec("ip_spoof", "c1", 0.0, 10.0, forged_offset=1.0)
report = cristian_sync(build_engine((spoof,)), "c1", "s1", at=1.0)
print(f"  forged offset +1 s -> client lands {report.exchanges[0].offset_error_ps/1e12:+.6f} s "
      "from the server")
print("  the client cannot tell: the reply is well-formed, only the value lies")

print()
print("=" * 70)
print("3. DDoS on r1: delays scale, drops force timeouts, routing detours")
print("=" * 70)
ddos = AttackSpec("ddos", "r1", 0.0, 10.0, delay_multiplier=20.0)
report = cristian_sync(build_engine((ddos,)), "c1", "s1", at=1.0)
route = report.exchanges[0]
print(f"  with r1 slowed 20x the round trips detour via r2: "
      f"rtt {route.rtt_ps / 1e9:.3f} ms")
flood = AttackSpec("ddos", "r1", 0.0, 10.0, drop_probability=1.0)
lossy = build_engine((flood,))
report = cristian_sync(lossy, "c1", "s1", at=1.0)
print("  with drop probability 1.0 routing still prefers r1 (drops are")
print(f"  invisible to it), so the request vanished and the sync "
      f"{'aborted on timeout' if report.failed else 'completed anyway'}")

print()
print("=" * 70)
print("4. Router hijack: force r1 down inside a window")
print("=" * 70)
hijack = AttackSpec("router_hijack", "r1", 0.9, 1.5, mode="force_down")
engine = build_engine((hijack,))
during = cristian_sync(engine, "c1", "s1", at=1.0)
after = cristian_sync(engine, "c1", "s1", at=3.0)
print(f"  at t=1.0 s (window active) the request took "
      f"{during.exchanges[0].forward_delay_ps/1e9:.3f} ms via the detour")
print(f"  at t=3.0 s (window over)   it took "
      f"{after.exchanges[0].forward_delay_ps/1e9:.3f} ms via r1 again")

print()
print("=" * 70)
print("5. Outside the window, nothing happened: traces are byte-identical")
print("=" * 70)
def run_records(attacks):
    engine = build_engine(attacks)
    cristian_sync(engine, "c1", "s1", at=1.0)
    engine.run_until(5.0)
    return engine.records

inert = AttackSpec("ddos", "r1", 100.0, 200.0, delay_multiplier=50.0,
                   drop_probability=1.0)
clean_sha = trace_sha256(run_records(()))
inert_sha = trace_sha256(run_records((inert,)))
print(f"  clean run sha256 {clean_sha[:16]}...")
print(f"  inert-attack run {inert_sha[:16]}...  identical: {clean_sha == inert_sha}")
