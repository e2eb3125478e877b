"""Run statistics computed from a trace.

Summarizes message fates, per-sync precision range (max absolute residual),
communication cost (messages sent), convergence time, and the host/network
decomposition of delivery delays: router processing counts as host delay,
transmission plus propagation as network delay.
"""

from .timebase import ps_to_ns, ps_to_seconds


def metrics_report(records: list[dict]) -> dict:
    """Aggregate metrics for a completed run, derived from the trace alone.

    `mean_path_delay_s` and `max_path_delay_s` cover every routed send
    (every `message_send` that is not blocked): delivered, dropped, or still
    in flight at the horizon.
    """
    sent = delivered = dropped = blocked = 0
    host_ps = network_ps = total_ps = 0
    routed_totals: list[int] = []
    sync_events: list[dict] = []
    # one test per record, most frequent kind first
    for record in records:
        kind = record["kind"]
        if kind == "hop_arrival":
            if record.get("status") == "dropped":
                dropped += 1
        elif kind == "delivery":
            delivered += 1
        elif kind == "message_send":
            sent += 1
            if record.get("status") == "blocked":
                blocked += 1
            else:
                host_ps += record.get("router_ps", 0)
                network_ps += (record.get("transmission_ps", 0)
                               + record.get("propagation_ps", 0))
                routed_totals.append(record.get("total_ps", 0))
                total_ps += record.get("total_ps", 0)
        elif kind == "sync_step" and record.get("phase") in ("completed", "aborted"):
            residuals = record.get("residuals_ps", {})
            sync_events.append({
                "sim_time_ps": record["sim_time_ps"],
                "algorithm": record.get("algorithm"),
                "failed": bool(record.get("failed")),
                "participants": record.get("participants", []),
                "messages_sent": record.get("messages_sent", 0),
                "convergence_time_s": ps_to_seconds(record.get("convergence_ps", 0)),
                "precision_range_ns": ps_to_ns(max(residuals.values(), default=0)),
                "corrections_ns": {node: ps_to_ns(value)
                                   for node, value in record.get("corrections_ps", {}).items()},
                "residuals_ns": {node: ps_to_ns(value)
                                 for node, value in residuals.items()},
            })
    completed = [s for s in sync_events if not s["failed"]]
    aggregate = {
        "sync_rounds": len(sync_events),
        "sync_failures": len(sync_events) - len(completed),
        "messages_sent_total": sum(s["messages_sent"] for s in sync_events),
        "precision_range_ns": max((s["precision_range_ns"] for s in completed), default=0.0),
        "convergence_time_s_max": max((s["convergence_time_s"] for s in completed), default=0.0),
    }
    delays = {
        "host_delay_s": ps_to_seconds(host_ps),
        "network_delay_s": ps_to_seconds(network_ps),
        "mean_path_delay_s": (ps_to_seconds(total_ps) / len(routed_totals)
                              if routed_totals else 0.0),
        "max_path_delay_s": ps_to_seconds(max(routed_totals, default=0)),
    }
    return {
        "events": len(records),
        "messages": {"sent": sent, "delivered": delivered, "dropped": dropped,
                     "blocked": blocked},
        "sync": sync_events,
        "aggregate": aggregate,
        "delays": delays,
    }
