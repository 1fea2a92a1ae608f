"""Ant-colony-enhanced TORA routing: protocol library plus a deterministic
discrete-event simulator and measurement harness for mobile ad hoc networks."""

from .aco import (
    CandidateEntry,
    DepositWeights,
    NormalizationBounds,
    PathMetrics,
    PreferenceWeights,
    aggregate_metrics,
    evaporate,
    path_preference,
    pheromone_deposit,
    pheromone_update,
)
from .agent import (
    NeighborInfo,
    NodeAgent,
    NodeEnergy,
    ProtocolParams,
    QosConstraints,
    RouteCacheEntry,
)
from .engine import Simulation
from .harness import replay, run_experiment, run_single
from .heights import (
    Height,
    LinkState,
    MaintenanceOutcome,
    NodeToraState,
    apply_clr,
    classify_link,
    compare_heights,
    has_downstream,
    maintenance_case,
    new_height_on_reply,
)
from .metrics import RunMetrics, compute_metrics
from .packets import (
    ClrPacket,
    DataPacket,
    ErrorPacket,
    HelloAnt,
    QryReplyAnt,
    QryRequestAnt,
    UpdPacket,
    decode_trace,
    encode_trace,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "CandidateEntry",
    "ClrPacket",
    "DataPacket",
    "DepositWeights",
    "ErrorPacket",
    "Height",
    "HelloAnt",
    "LinkState",
    "MaintenanceOutcome",
    "NeighborInfo",
    "NodeAgent",
    "NodeEnergy",
    "NodeToraState",
    "NormalizationBounds",
    "PathMetrics",
    "PreferenceWeights",
    "ProtocolParams",
    "QosConstraints",
    "QryReplyAnt",
    "QryRequestAnt",
    "RouteCacheEntry",
    "RunMetrics",
    "Scenario",
    "ScenarioError",
    "Simulation",
    "UpdPacket",
    "aggregate_metrics",
    "apply_clr",
    "classify_link",
    "compare_heights",
    "compute_metrics",
    "decode_trace",
    "encode_trace",
    "evaporate",
    "has_downstream",
    "load_scenario",
    "maintenance_case",
    "new_height_on_reply",
    "parse_scenario",
    "path_preference",
    "pheromone_deposit",
    "pheromone_update",
    "replay",
    "run_experiment",
    "run_single",
]
