"""camchain: topology-aware multi-camera trajectory stitching.

Per-camera tracklets are fused into corridor-wide vehicle trajectories by
parking identities in directional per-edge buffers while a vehicle crosses
a camera-to-camera trigger region and handing them to the far camera on
arrival, with lateral-offset matching, recency windows, and timeouts.
Includes a deterministic traffic simulator, a frame-index synchronization
barrier, evaluation metrics, and a CLI (``camchain``).
"""

from .errors import (
    CamchainError,
    CausalityError,
    ConfigError,
    GeometryError,
    InsufficientHistoryError,
    MalformedInputError,
    ParseError,
)
from .geometry import (
    Point2,
    Polygon,
    RoadFrame,
    Zone,
    get_zone,
    lateral_norm,
    point_in_polygon,
    polygons_intersect,
    to_road_frame,
)
from .handover import (
    BufferEntry,
    DirectionalBuffer,
    EventKind,
    HandoverEngine,
    HandoverEvent,
    MatcherConfig,
    MatchStrategy,
)
from .formats import (
    matcher_from_dict,
    matcher_to_dict,
    parse_topology,
    scenario_from_dict,
    scenario_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from .kinematics import (
    Calibration,
    KinematicState,
    MotionStatus,
    estimate_heading,
    estimate_speed,
    motion_status,
    wrap_angle,
)
from .metrics import (
    compute_hosr,
    compute_idf1,
    count_id_switches,
    gid_index,
    summarize_throughput,
)
from .pipeline import (
    bench_scenario,
    evaluate_dir,
    run_scenario,
    run_to_dir,
    simulate_to_dir,
    stitch_dir,
    stitch_observations,
    stitch_updates,
)
from .simulator import (
    NoiseConfig,
    Regime,
    ScenarioConfig,
    ScriptedVehicle,
    SimResult,
    TrueHandover,
    TruthObs,
    TruthTrack,
    World,
    build_topology,
    run_sim,
)
from .sync import BarrierConfig, Snapshot, StreamUpdate, SyncBarrier
from .topology import CameraNode, EdgeDef, TopologyGraph, edge_is_entry, edge_is_exit
from .tracks import GlobalTrajectory, TrackState

__version__ = "0.1.0"

__all__ = [
    "BarrierConfig",
    "BufferEntry",
    "Calibration",
    "CamchainError",
    "CameraNode",
    "CausalityError",
    "ConfigError",
    "DirectionalBuffer",
    "EdgeDef",
    "EventKind",
    "GeometryError",
    "GlobalTrajectory",
    "HandoverEngine",
    "HandoverEvent",
    "InsufficientHistoryError",
    "KinematicState",
    "MalformedInputError",
    "MatchStrategy",
    "MatcherConfig",
    "MotionStatus",
    "NoiseConfig",
    "ParseError",
    "Point2",
    "Polygon",
    "Regime",
    "RoadFrame",
    "ScenarioConfig",
    "ScriptedVehicle",
    "SimResult",
    "Snapshot",
    "StreamUpdate",
    "SyncBarrier",
    "TopologyGraph",
    "TrackState",
    "TrueHandover",
    "TruthObs",
    "TruthTrack",
    "World",
    "Zone",
    "bench_scenario",
    "build_topology",
    "compute_hosr",
    "compute_idf1",
    "count_id_switches",
    "edge_is_entry",
    "edge_is_exit",
    "estimate_heading",
    "estimate_speed",
    "evaluate_dir",
    "get_zone",
    "gid_index",
    "lateral_norm",
    "matcher_from_dict",
    "matcher_to_dict",
    "motion_status",
    "parse_topology",
    "point_in_polygon",
    "polygons_intersect",
    "run_scenario",
    "run_sim",
    "run_to_dir",
    "scenario_from_dict",
    "scenario_to_dict",
    "simulate_to_dir",
    "stitch_dir",
    "stitch_observations",
    "stitch_updates",
    "summarize_throughput",
    "to_road_frame",
    "topology_from_dict",
    "topology_to_dict",
    "wrap_angle",
    "__version__",
]
