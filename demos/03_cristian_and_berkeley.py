#!/usr/bin/env python3
"""The two synchronization algorithms over simulated exchanges.

Cristian's algorithm against a time server, including how one-way delay
asymmetry poisons the rtt/2 assumption, then a Berkeley round averaging a
coordinator and two members.
"""

from syncsim import Engine, LinkSpec, NetworkGraph, NodeSpec
from syncsim.clocks import ClockParameters, preset_parameters
from syncsim.sync import SyncOptions, berkeley_round, cristian_sync


def offset_clock(seconds):
    return ClockParameters(alpha0=seconds, model_kind="linear")


print("=" * 70)
print("1. Cristian's algorithm, symmetric path: exact recovery")
print("=" * 70)
graph = NetworkGraph(
    [NodeSpec("c1", "client", clock=offset_clock(0.75)),
     NodeSpec("s1", "time_server", clock=preset_parameters("perfect"))],
    [LinkSpec("c1", "s1", 1e6, 100_000.0)])
engine = Engine(graph, seed=1)
report = cristian_sync(engine, "c1", "s1", at=1.0)
ex = report.exchanges[0]
print(f"  client started 750 ms fast; correction {report.corrections_ps['c1']/1e12:+.6f} s")
print(f"  rtt {ex.rtt_ps / 1e9:.3f} ms, residual {report.residuals_ps['c1']/1e3:.1f} ns")

print()
print("=" * 70)
print("2. Asymmetric one-way delays: the rtt/2 estimate misses by half the gap")
print("=" * 70)
print("  request bits  reply bits  fwd (ms)  bwd (ms)  residual (ms)  (bwd-fwd)/2")
for request, reply in ((4000, 4000), (4000, 20000), (30000, 6000)):
    engine = Engine(graph, seed=1)
    options = SyncOptions(request_size_bits=request, reply_size_bits=reply)
    rep = cristian_sync(engine, "c1", "s1", at=1.0, options=options)
    e = rep.exchanges[0]
    law = (e.backward_delay_ps - e.forward_delay_ps) / 2e9
    print(f"  {request:>12}  {reply:>10}  {e.forward_delay_ps/1e9:8.3f}  "
          f"{e.backward_delay_ps/1e9:8.3f}  {-e.offset_error_ps/1e9:13.3f}  {law:11.3f}")
print("  (the simulator knows the true one-way delays; the client never does)")

print()
print("=" * 70)
print("3. One Berkeley round: everyone moves to the ensemble average")
print("=" * 70)
star = NetworkGraph(
    [NodeSpec("co", "time_server", clock=preset_parameters("perfect")),
     NodeSpec("m1", "client", clock=offset_clock(0.010)),
     NodeSpec("m2", "client", clock=offset_clock(-0.004))],
    [LinkSpec("co", "m1", 1e6, 1000.0), LinkSpec("co", "m2", 1e6, 1000.0)])
engine = Engine(star, seed=2)
first = berkeley_round(engine, "co", ["m1", "m2"], at=0.0)
print("  offsets going in: m1 +10 ms, m2 -4 ms, coordinator 0 -> mean +2 ms")
for node, delta in sorted(first.corrections_ps.items()):
    print(f"    correction {node}: {delta/1e9:+8.3f} ms")
print(f"  messages sent: {first.messages_sent} "
      f"(poll + reply + correction per member)")
second = berkeley_round(engine, "co", ["m1", "m2"], at=5.0)
print("  second round corrections (ns):",
      {n: round(c / 1e3, 3) for n, c in sorted(second.corrections_ps.items())})

print()
print("=" * 70)
print("4. A straggler beyond the outlier threshold is excluded but corrected")
print("=" * 70)
wild = NetworkGraph(
    [NodeSpec("co", "time_server", clock=preset_parameters("perfect")),
     NodeSpec("m1", "client", clock=offset_clock(10.0)),
     NodeSpec("m2", "client", clock=offset_clock(0.004))],
    [LinkSpec("co", "m1", 1e6, 1000.0), LinkSpec("co", "m2", 1e6, 1000.0)])
engine = Engine(wild, seed=2)
guarded = berkeley_round(engine, "co", ["m1", "m2"], at=0.0,
                         options=SyncOptions(outlier_threshold=1.0))
for node, delta in sorted(guarded.corrections_ps.items()):
    print(f"    correction {node}: {delta/1e12:+10.6f} s")
print("  m1's +10 s offset was kept out of the average, yet it was steered")
print("  back toward the group.")
