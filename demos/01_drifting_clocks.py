#!/usr/bin/env python3
"""Software clock models: drift polynomials, presets, and the offset extremum.

Walks through reading drifting clocks, shows why a negative frequency-drift
term makes the offset peak and then shrink on its own, and prints the
second-derivative analysis for the stock quartz parameters.
"""

from syncsim import ClockParameters, SoftwareClock, extremum_analysis
from syncsim.clocks import preset_parameters
from syncsim.timebase import ps_to_seconds, seconds_to_ps

print("=" * 70)
print("1. Reading the preset clocks at a few instants")
print("=" * 70)
times = [0.0, 1.0, 3600.0, 86400.0, 5e4, 1e5]
names = ["perfect", "cesium", "quartz", "gps"]
clocks = {name: SoftwareClock(name, preset_parameters(name), seed=1)
          for name in names}
header = "t (s)".rjust(12) + "".join(n.rjust(18) for n in names)
print(header)
for t in times:
    row = f"{t:12g}"
    for name in names:
        row += f"{ps_to_seconds(clocks[name].offset_ps(seconds_to_ps(t))) * 1e6:18.6f}"
    print(row)
print("(offsets in microseconds; gps jitters within its 30 ns bound)")

print()
print("=" * 70)
print("2. The quadratic model's built-in turning point")
print("=" * 70)
quartz = preset_parameters("quartz")
report = extremum_analysis(quartz)
print(f"quartz drift: beta={quartz.beta}, gamma={quartz.gamma}")
print(f"stationary point t* = -beta/(2*gamma) = {report.t_star:g} s "
      f"({report.classification}, concavity {report.concavity:g} 1/s)")
qc = SoftwareClock("q", quartz)
for t in (report.t_star - 100, report.t_star, report.t_star + 100, 1e5):
    print(f"  offset({t:8g} s) = {ps_to_seconds(qc.offset_ps(seconds_to_ps(t))):+.9f} s")
print("After t* the offset falls back toward zero by itself, which real")
print("oscillators do not do; constant drift coefficients are a modeling")
print("convenience, not physics. The user_defined table model is the")
print("escape hatch when that matters:")

table = ClockParameters(model_kind="user_defined",
                        offset_table=((0.0, 0.0), (3600.0, 0.04),
                                      (7200.0, 0.05), (10800.0, 0.11)))
tc = SoftwareClock("tabled", table)
for t in (0.0, 1800.0, 5400.0, 20000.0):
    print(f"  table offset({t:7g} s) = {ps_to_seconds(tc.offset_ps(seconds_to_ps(t))):+.4f} s")

print()
print("=" * 70)
print("3. Determinism: same parameters, seed and id = same readings")
print("=" * 70)
noisy = ClockParameters(beta=1e-6, noise_sigma=1e-8, model_kind="linear")
a = SoftwareClock("node-7", noisy, seed=123)
b = SoftwareClock("node-7", noisy, seed=123)
print("readings agree:",
      all(a.reading_ps(t_ps) == b.reading_ps(t_ps)
          for t_ps in map(seconds_to_ps, (0.5, 1.5, 2.5))))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\n(matplotlib not installed; skipping the drift plot)")
else:
    ts = [i * 500.0 for i in range(401)]
    plt.figure(figsize=(8, 4.5))
    for name in ("cesium", "quartz"):
        clock = SoftwareClock(name, preset_parameters(name))
        offsets = [ps_to_seconds(clock.offset_ps(seconds_to_ps(t))) for t in ts]
        plt.plot(ts, offsets, label=name)
    plt.axvline(5e4, linestyle=":", color="gray")
    plt.xlabel("wall-clock time (s)")
    plt.ylabel("offset (s)")
    plt.title("Drift offset: linear cesium vs quadratic quartz")
    plt.legend()
    plt.tight_layout()
    plt.savefig("clock_drift.png", dpi=150)
    print("\nwrote clock_drift.png")
