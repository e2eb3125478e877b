import importlib.util
import itertools
from collections import Counter
from pathlib import Path

import pytest

from syncsim.clocks import ClockParameters
from syncsim.engine import Engine
from syncsim.netview import NetworkView
from syncsim.topology import LinkSpec, NetworkGraph, NodeSpec

PERFECT = ClockParameters(model_kind="linear")
ROOT = Path(__file__).resolve().parent.parent

# "ACCEPTANCE n <name>: PASS|FAIL (<runtime>)", one per criterion run in
# tests/test_acceptance.py; printed in the terminal summary, so they show
# under pytest's default output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def make_node(node_id, kind="client", **kwargs):
    if kind in ("client", "time_server") and "clock" not in kwargs:
        kwargs["clock"] = PERFECT
    return NodeSpec(node_id, kind, **kwargs)


def line_graph(router_delays, bandwidth_bps=1e9, distance_m=100_000.0,
               medium="fiber", client_clock=PERFECT, server_clock=PERFECT,
               failure_models=None):
    """client -- r1 -- ... -- rN -- server with identical links."""
    failure_models = failure_models or {}
    nodes = [NodeSpec("c1", "client", clock=client_clock)]
    for i, delay in enumerate(router_delays, start=1):
        rid = f"r{i}"
        nodes.append(NodeSpec(rid, "router", router_delay=delay,
                              failure_model=failure_models.get(rid)))
    nodes.append(NodeSpec("s1", "time_server", clock=server_clock))
    ids = [n.node_id for n in nodes]
    links = [LinkSpec(a, b, bandwidth_bps, distance_m, medium)
             for a, b in zip(ids, ids[1:])]
    return NetworkGraph(nodes, links)


@pytest.fixture
def simple_view():
    """client -- 50us router -- server over two 100 km / 1 Gbps fiber links."""
    return NetworkView(line_graph([50e-6]), seed=7)


@pytest.fixture
def cancelled_seqs(monkeypatch):
    """The sequence numbers of the queue entries passed to `Engine.cancel`."""
    seqs = []
    cancel = Engine.cancel

    def recording_cancel(entry):
        seqs.append(entry[1])
        cancel(entry)
    monkeypatch.setattr(Engine, "cancel", staticmethod(recording_cancel))
    return seqs


def assert_every_seq_accounted_for(engine, cancelled_seqs):
    """Each sequence number the engine handed out, 0 to next(engine._seq) - 1,
    is on exactly one trace record, one cancelled entry or one live entry of
    either heap, the scheduled events' or the in-flight arrivals'; a lost or
    reused number shows as a count other than 1.  Reading the counter draws
    a number, so the counter restarts at it: the run can go on and be
    checked again."""
    n = next(engine._seq)
    engine._seq = itertools.count(n)
    counts = Counter(record["sequence"] for record in engine.records)
    counts.update(cancelled_seqs)
    counts.update(entry[1] for heap in (engine._queue, engine._arrivals)
                  for entry in heap if entry[2] is not None)
    wrong = {seq: counts[seq] for seq in counts.keys() | range(n)
             if counts[seq] != 1 or not 0 <= seq < n}
    assert wrong == {}, f"of {n} sequence numbers, these are seen other than once"


def benchmark_workloads():
    """perfbench/workloads.py, the benchmark's scenario generators."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads
