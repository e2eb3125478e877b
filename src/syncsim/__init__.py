"""Deterministic discrete-event simulator for network clock synchronization.

Models drifting software clocks, nanosecond-precision propagation delays
over a router graph, Cristian's and Berkeley synchronization, and
time-sync attack injection, with byte-reproducible traces.
"""

from .attacks import AttackSpec
from .clocks import (CLOCK_PRESETS, ClockParameters, SoftwareClock,
                     extremum_analysis, preset_parameters)
from .delay import PathBlocked, PathDelayBreakdown, total_path_delay
from .dotexport import export_graph
from .engine import Engine, Message
from .metrics import metrics_report
from .netview import NetworkView
from .routing import NoRoute, Route, RouteQuery, edge_weight_ps, shortest_path
from .scenario import (Scenario, ScenarioError, SimConfig, SyncScheduleEntry,
                       WorkloadEntry, build_engine, load_scenario,
                       parse_scenario, run_scenario, validate_scenario)
from .sync import (BerkeleyRound, CristianExchange, SyncOptions, berkeley_round,
                   cristian_sync)
from .topology import FailureModel, LinkSpec, NetworkGraph, NodeSpec
from .trace import (diff_traces, load_trace, parse_trace, trace_bytes,
                    trace_sha256)

__version__ = "0.1.0"
