"""DOT export of a topology snapshot for external rendering.

Nodes are labeled with their kind and, for clock-bearing nodes, their clock
offset at the snapshot time; links carry (bandwidth, distance, medium)
labels.  Routers that are inactive at the snapshot instant (through their
failure model or an active hijack) are drawn dashed and gray.  Output is
deterministic: nodes and links are emitted in sorted order.  Node ids,
edge endpoints and label text escape `\\` and `"` alike, so any id is one
quoted DOT string.
"""

from .clocks import SoftwareClock
from .netview import NetworkView
from .timebase import ps_to_ns, seconds_to_ps

_SHAPES = {"client": "ellipse", "time_server": "box", "router": "diamond"}


def _escape(text: str) -> str:
    """`text` as the inside of a DOT quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _format_bandwidth(bps: float) -> str:
    for factor, unit in ((1e9, "Gbps"), (1e6, "Mbps"), (1e3, "Kbps")):
        if bps >= factor:
            return f"{bps / factor:g} {unit}"
    return f"{bps:g} bps"


def _format_distance(meters: float) -> str:
    return f"{meters / 1000:g} km" if meters >= 1000 else f"{meters:g} m"


def export_graph(view: NetworkView, t: float) -> str:
    """Render the graph state at wall time t as DOT digraph text."""
    t_ps = seconds_to_ps(t)
    lines = ["digraph topology {", "  graph [rankdir=LR];",
             "  edge [dir=none];"]
    for node_id, node in sorted(view.graph.nodes.items()):
        label_parts = [node_id, node.kind if not node.is_router
                       else f"{node.router_kind} router"]
        attrs = [f'shape={_SHAPES[node.kind]}']
        if node.is_router:
            label_parts.append(f"{view.router_delay_at(node_id, t_ps) * 1e6:g} us")
            if not view.router_active(node_id, t_ps):
                label_parts.append("inactive")
                attrs.append('style=dashed')
                attrs.append('color=gray50')
                attrs.append('fontcolor=gray50')
        else:
            offset_ns = ps_to_ns(SoftwareClock(node_id, node.clock, view.seed).offset_ps(t_ps))
            label_parts.append(f"offset {offset_ns:.3f} ns")
        attrs.append('label="' + "\\n".join(map(_escape, label_parts)) + '"')
        lines.append(f'  "{_escape(node_id)}" [{", ".join(attrs)}];')
    for link in sorted(view.graph.links, key=lambda l: (l.a, l.b)):
        label = (f"{_format_bandwidth(link.bandwidth_bps)}\\n"
                 f"{_format_distance(link.distance_m)}\\n{_escape(link.medium)}")
        lines.append(f'  "{_escape(link.a)}" -> "{_escape(link.b)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
