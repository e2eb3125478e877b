import pytest

from syncsim.clocks import ClockParameters
from syncsim.netview import NetworkView
from syncsim.topology import LinkSpec, NetworkGraph, NodeSpec

PERFECT = ClockParameters(model_kind="linear")

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
