"""Ant-colony-enhanced TORA routing: protocol library plus a deterministic
discrete-event simulator and measurement harness for mobile ad hoc networks."""

from .aco import (
    DepositWeights,
    NormalizationBounds,
    PathMetrics,
    PreferenceWeights,
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
    Route,
)
from .engine import Simulation
from .harness import replay, run_experiment, run_single
from .heights import (
    Height,
    NodeToraState,
    apply_clr,
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
    encode_trace,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "ClrPacket",
    "DataPacket",
    "DepositWeights",
    "ErrorPacket",
    "Height",
    "HelloAnt",
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
    "Route",
    "RunMetrics",
    "Scenario",
    "ScenarioError",
    "Simulation",
    "UpdPacket",
    "apply_clr",
    "compute_metrics",
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
