"""Fold-sequence planning for hinged rigid-panel cartons.

Model a flat carton as a kinematic tree of panels, build the lattice of
reachable fold states with one swept collision check per fold, and rank
its collision-free folding orders by how friendly they are to simple
folding hardware.

Importing the package loads only what a plan runs. The reference
implementations (``reference``) and the sequence replays with their grasp
advisory (``replay``) load when one of their names is first used.
"""

import importlib

from .geometry import OrientedBox, Transform
from .model import (
    CartonSpec,
    GripperSpec,
    KinematicTree,
    PanelSpec,
    SpecValidationError,
    build_tree,
    load_spec,
    parse_spec,
)
from .collision import collision_check, sweep_angles
from .planner import (
    FoldLattice,
    PlannerError,
    build_lattice,
    enumerate_sequences,
)
from .metrics import RankedReport, rank_lattice

# Names that no plan runs, by the module that defines them: importing the
# package does not load those modules, and the first access does.
_ON_FIRST_USE = {
    "Aabb": "reference",
    "JointVector": "reference",
    "PanelPose": "reference",
    "forward_kinematics": "reference",
    "obb_intersect": "reference",
    "rotate_about_axis": "reference",
    "score_and_rank": "reference",
    "serialize_spec": "reference",
    "world_aabb": "reference",
    "GraspSide": "replay",
    "grasp_side": "replay",
}

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


def __getattr__(name: str):
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_FIRST_USE})
