"""demoaug: one recorded manipulation demo into many, plus spread-aware
action-chunk ensembling evaluated closed-loop against a kinematic simulator."""

__version__ = "0.1.0"

from .geometry import AffineTransform, transform_from_anchors
from .trajectory import (Action, AnchorPair, DemoTrajectory, augment_segmentwise, load_demo,
                         parse_demo)
from .tasks import Scene, SuccessSpec, TaskKind, Workspace, sample_scene
from .sim import ControllerConfig, Dataset, EpisodeRecord, replay, run_campaign
from .ensemble import ActionChunk, EnsembleConfig, EnsembleMode, EnsembleState, ensemble_action
from .policy import DisturbanceConfig, ScriptedPolicy
from .evaluation import closed_loop_eval, default_matrix

__all__ = [
    "__version__",
    "AffineTransform", "transform_from_anchors",
    "AnchorPair", "DemoTrajectory", "augment_segmentwise", "load_demo", "parse_demo",
    "Scene", "SuccessSpec", "TaskKind", "Workspace", "sample_scene",
    "ControllerConfig", "Dataset", "EpisodeRecord", "replay", "run_campaign",
    "Action", "ActionChunk", "EnsembleConfig", "EnsembleMode", "EnsembleState",
    "ensemble_action",
    "DisturbanceConfig", "ScriptedPolicy",
    "closed_loop_eval", "default_matrix",
]
