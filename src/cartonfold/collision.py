"""Swept collision checking for single fold actions, plus grasp advisories.

A fold drives one joint from its initial to its final angle while every
other joint holds still. The motion is sampled at the tolerance angle and
each sample is tested with the separating-axis kernel against the panels
outside the moving subtree and against the environment. Panels that share
a crease are allowed to interpenetrate by the penetration tolerance, since
hinged slabs always touch (and, at the hinge line, overlap by up to half a
thickness) during a fold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CORNER_SIGNS,
    OrientedBox,
    Transform,
    pack_boxes,
    rotation_matrices,
    sat_overlap_matrix,
)
from .model import CartonSpec, KinematicTree, StateTable


@dataclass(frozen=True)
class SweepParams:
    """Sampling granularity and contact allowance for the swept check."""

    tolerance_angle: float = math.radians(5.0)
    penetration_tolerance: float = 0.1

    def __post_init__(self):
        if self.tolerance_angle <= 0.0:
            raise ValueError("tolerance_angle must be positive")
        if self.penetration_tolerance < 0.0:
            raise ValueError("penetration_tolerance must be >= 0")

    @classmethod
    def from_spec(cls, spec: CartonSpec) -> "SweepParams":
        return cls(
            tolerance_angle=spec.tolerance_angle,
            penetration_tolerance=spec.penetration_tolerance,
        )


@dataclass(frozen=True)
class ObstacleSet:
    """Static workcell geometry: fixture boxes plus the optional table plane.

    With ``table_plane`` set, any moving panel point below
    ``-penetration_tolerance`` in world z is a collision.
    """

    boxes: tuple[OrientedBox, ...] = ()
    table_plane: bool = True

    @classmethod
    def from_spec(cls, spec: CartonSpec) -> "ObstacleSet":
        return cls(boxes=spec.environment, table_plane=spec.table_plane)

    @classmethod
    def empty(cls) -> "ObstacleSet":
        return cls(boxes=(), table_plane=False)


def sweep_angles(start: float, end: float, step: float) -> np.ndarray:
    """Sample angles from start to end inclusive, spaced by at most step.

    Both endpoints are always present, whatever the divisibility; the
    result therefore has at least two entries for any non-degenerate arc.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    span = end - start
    if span == 0.0:
        return np.array([start])
    n_steps = int(np.ceil(abs(span) / step - 1e-12))
    interior = start + np.sign(span) * step * np.arange(n_steps)
    return np.append(interior, end)


def _min_corner_z(centers: np.ndarray, rots: np.ndarray, halves: np.ndarray) -> float:
    offsets = CORNER_SIGNS[None, :, :] * halves[:, None, :]
    corners = centers[:, None, :] + np.einsum("nij,nkj->nki", rots, offsets)
    return float(corners[:, :, 2].min())


def _swept_movers(
    tree: KinematicTree,
    poses_by_id: dict,
    moving_joint: int,
    samples: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """World solids of the moving subtree at every sample angle.

    Returns (centers, rotations, half_extents) with one row per
    (sample, panel) pair, plus the subtree panel ids.
    """
    moving_ids = tree.subtree_ids(moving_joint)
    joint_panel = tree.panel(moving_joint)
    parent_pose = poses_by_id[joint_panel.parent].pose
    anchor, axis, mount = tree.mounts[moving_joint]

    # Joint frame per sample; the anchor sits on the axis, so the frame
    # origin is constant across the sweep.
    spin = rotation_matrices(axis, samples) @ mount
    joint_rots = np.einsum("ij,sjk->sik", parent_pose.rotation, spin)
    joint_origin = parent_pose.apply(anchor)

    # Fixed transforms from the joint frame to each subtree solid.
    state_joint = poses_by_id[moving_joint].pose
    inv = state_joint.inverse()
    rel_rots, rel_trans, halves = [], [], []
    for pid in moving_ids:
        solid = poses_by_id[pid].solid
        rel = inv @ solid.pose
        rel_rots.append(rel.rotation)
        rel_trans.append(rel.translation)
        halves.append(solid.half_extents)
    rel_rots = np.stack(rel_rots)
    rel_trans = np.stack(rel_trans)
    halves = np.stack(halves)

    rots = np.einsum("sij,pjk->spik", joint_rots, rel_rots)
    centers = np.einsum("sij,pj->spi", joint_rots, rel_trans) + joint_origin

    n = len(samples) * len(moving_ids)
    return (
        centers.reshape(n, 3),
        rots.reshape(n, 3, 3),
        np.tile(halves, (len(samples), 1)),
        moving_ids,
    )


def collision_check(
    tree: KinematicTree,
    folded,
    moving_joint: int,
    params: SweepParams,
    obstacles: ObstacleSet,
    states: StateTable | None = None,
) -> bool:
    """True when folding ``moving_joint`` from the given state is collision free.

    The joint's whole subtree is swept from the initial to the final angle,
    sampled at the tolerance angle with both endpoints forced. At every
    sample the subtree solids must clear all panels outside the subtree and
    all obstacles. Crease-adjacent panel pairs are tested with the
    penetration tolerance as allowance; everything else is tested exactly.
    ``states`` shares fold-state records between calls.
    """
    folded = frozenset(folded)
    if moving_joint not in tree.foldable_ids:
        raise ValueError(f"joint {moving_joint} is not a foldable joint")
    if moving_joint in folded:
        raise ValueError(f"joint {moving_joint} is already folded")
    bad = folded - set(tree.foldable_ids)
    if bad:
        raise ValueError(f"folded set contains non-foldable joints: {sorted(bad)}")

    if states is None:
        states = StateTable(tree)
    record = states.state(folded)
    poses_by_id = record.poses_by_id
    all_centers, all_rots, all_halves = record.solids

    panel = tree.panel(moving_joint)
    samples = sweep_angles(panel.theta_init, panel.theta_final, params.tolerance_angle)
    mov_centers, mov_rots, mov_halves, moving_ids = _swept_movers(
        tree, poses_by_id, moving_joint, samples
    )

    eps = params.penetration_tolerance

    static_ids = [pid for pid in tree.ids if pid not in moving_ids]
    if static_ids:
        sel = [tree.ids.index(pid) for pid in static_ids]
        st_centers = all_centers[sel]
        st_rots = all_rots[sel]
        st_halves = all_halves[sel]

        # Crease adjacency between a moving and a static panel: only the
        # moving joint's own parent qualifies (children stay in the subtree).
        adjacent = np.zeros(len(static_ids), dtype=bool)
        if panel.parent in static_ids:
            adjacent[static_ids.index(panel.parent)] = True

        strict = ~adjacent
        if strict.any():
            hit = sat_overlap_matrix(
                mov_centers, mov_rots, mov_halves,
                st_centers[strict], st_rots[strict], st_halves[strict],
                clearance=0.0,
            )
            if hit.any():
                return False
        if adjacent.any():
            hit = sat_overlap_matrix(
                mov_centers, mov_rots, mov_halves,
                st_centers[adjacent], st_rots[adjacent], st_halves[adjacent],
                clearance=-eps,
            )
            if hit.any():
                return False

    if obstacles.boxes:
        ob_centers, ob_rots, ob_halves = pack_boxes(obstacles.boxes)
        hit = sat_overlap_matrix(
            mov_centers, mov_rots, mov_halves, ob_centers, ob_rots, ob_halves, 0.0
        )
        if hit.any():
            return False

    if obstacles.table_plane:
        if _min_corner_z(mov_centers, mov_rots, mov_halves) < -eps:
            return False

    return True


def n_sweep_samples(tree: KinematicTree, joint: int, params: SweepParams) -> int:
    panel = tree.panel(joint)
    return len(sweep_angles(panel.theta_init, panel.theta_final, params.tolerance_angle))


class GraspSide(enum.Enum):
    """Which panel face a gripper can reach at the start of a fold."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    NONE = "none"


def grasp_side(
    tree: KinematicTree,
    folded,
    joint: int,
    gripper,
    params: SweepParams,
    obstacles: ObstacleSet,
    states: StateTable | None = None,
) -> GraspSide:
    """Advisory placement test for a gripper on the panel about to fold.

    The inner face is the one facing the fold direction. A gripper-sized
    box is placed on it (offset by the standoff) at the fold's start pose;
    if that placement collides, the outer face is tried. The result never
    gates sequence validity.
    """
    folded = frozenset(folded)
    if joint in folded:
        raise ValueError(f"joint {joint} is already folded")
    if states is None:
        states = StateTable(tree)
    poses_by_id = states.state(folded).poses_by_id
    panel = tree.panel(joint)
    solid = poses_by_id[joint].solid

    fold_sign = 1.0 if panel.theta_final > panel.theta_init else -1.0
    gx, gy, gz = gripper.dims
    half_g = np.array([gx, gy, gz]) / 2.0
    flip = np.diag([1.0, -1.0, -1.0])

    others = [poses_by_id[pid].solid for pid in tree.ids if pid != joint]
    eps = params.penetration_tolerance

    for side, sign in ((GraspSide.INSIDE, fold_sign), (GraspSide.OUTSIDE, -fold_sign)):
        normal = sign * solid.pose.rotation[:, 2]
        center = solid.center + normal * (panel.thickness / 2.0 + gripper.standoff + gz / 2.0)
        rot = solid.pose.rotation if sign > 0 else solid.pose.rotation @ flip
        box = OrientedBox(Transform(rot, center), half_g)

        c, r, h = box.center[None, :], box.pose.rotation[None, :, :], box.half_extents[None, :]
        blocked = False
        if others:
            oc, orr, oh = pack_boxes(others)
            blocked = bool(sat_overlap_matrix(c, r, h, oc, orr, oh, 0.0).any())
        if not blocked and obstacles.boxes:
            oc, orr, oh = pack_boxes(obstacles.boxes)
            blocked = bool(sat_overlap_matrix(c, r, h, oc, orr, oh, 0.0).any())
        if not blocked and obstacles.table_plane:
            blocked = _min_corner_z(c, r, h) < -eps
        if not blocked:
            return side
    return GraspSide.NONE
