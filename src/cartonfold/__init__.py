"""Fold-sequence planning for hinged rigid-panel cartons.

Model a flat carton as a kinematic tree of panels, build the lattice of
reachable fold states with one swept collision check per fold, and rank
its collision-free folding orders by how friendly they are to simple
folding hardware.
"""

from .geometry import Aabb, OrientedBox, Transform, obb_intersect, rotate_about_axis, world_aabb
from .model import (
    CartonSpec,
    GripperSpec,
    JointVector,
    KinematicTree,
    PanelPose,
    PanelSpec,
    SpecValidationError,
    build_tree,
    forward_kinematics,
    load_spec,
    parse_spec,
    serialize_spec,
)
from .collision import (
    GraspSide,
    collision_check,
    grasp_side,
    sweep_angles,
)
from .planner import (
    FoldLattice,
    PlannerError,
    build_lattice,
    enumerate_sequences,
)
from .metrics import (
    RankedReport,
    rank_lattice,
    score_and_rank,
)

__version__ = "0.1.0"

__all__ = [
    "Aabb",
    "CartonSpec",
    "FoldLattice",
    "GraspSide",
    "GripperSpec",
    "JointVector",
    "KinematicTree",
    "OrientedBox",
    "PanelPose",
    "PanelSpec",
    "PlannerError",
    "RankedReport",
    "SpecValidationError",
    "Transform",
    "build_lattice",
    "build_tree",
    "collision_check",
    "enumerate_sequences",
    "forward_kinematics",
    "grasp_side",
    "load_spec",
    "obb_intersect",
    "parse_spec",
    "rank_lattice",
    "rotate_about_axis",
    "score_and_rank",
    "serialize_spec",
    "sweep_angles",
    "world_aabb",
]
