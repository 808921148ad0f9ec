"""Swept collision checking for single fold actions, plus grasp advisories.

A fold drives one joint from its initial to its final angle while every
other joint holds still. The motion is sampled at the spec's tolerance
angle and each sample is tested with the separating-axis kernel against
the panels outside the moving subtree, the tree's packed fixture boxes and,
when the spec has one, the table half-space: no moving corner may dip below
``-penetration_tolerance`` in z. Panels that share a crease are allowed to
interpenetrate by the penetration tolerance, since hinged slabs always
touch (and, at the hinge line, overlap by up to half a thickness) during a
fold. Every input comes from the kinematic tree: its spec, its obstacles
and its fold-state records.
"""

from __future__ import annotations

import enum

import numpy as np

from .geometry import CORNER_SIGNS, rotation_matrices, sat_overlap_matrix
from .model import KinematicTree


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


def collision_check(tree: KinematicTree, folded, moving_joint: int) -> bool:
    """True when folding ``moving_joint`` from the given state is collision free.

    The joint's whole subtree is swept from the initial to the final angle,
    sampled at the tolerance angle with both endpoints forced. At every
    sample the subtree solids must clear all panels outside the subtree and
    all obstacles. Crease-adjacent panel pairs are tested with the
    penetration tolerance as allowance; everything else is tested exactly.
    """
    folded = frozenset(folded)
    if moving_joint not in tree.foldable_ids:
        raise ValueError(f"joint {moving_joint} is not a foldable joint")
    if moving_joint in folded:
        raise ValueError(f"joint {moving_joint} is already folded")
    bad = folded - set(tree.foldable_ids)
    if bad:
        raise ValueError(f"folded set contains non-foldable joints: {sorted(bad)}")

    spec = tree.spec
    record = tree.state(folded)
    all_centers, all_rots, all_halves = record.solids

    panel = tree.panel(moving_joint)
    samples = sweep_angles(panel.theta_init, panel.theta_final, spec.tolerance_angle)
    mov_centers, mov_rots, mov_halves, moving_ids = _swept_movers(
        tree, record.poses_by_id, moving_joint, samples
    )

    eps = spec.penetration_tolerance

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

    if tree.obstacles is not None:
        hit = sat_overlap_matrix(mov_centers, mov_rots, mov_halves, *tree.obstacles, 0.0)
        if hit.any():
            return False

    if spec.table_plane:
        if _min_corner_z(mov_centers, mov_rots, mov_halves) < -eps:
            return False

    return True


def n_sweep_samples(tree: KinematicTree, joint: int) -> int:
    panel = tree.panel(joint)
    return len(sweep_angles(panel.theta_init, panel.theta_final, tree.spec.tolerance_angle))


class GraspSide(enum.Enum):
    """Which panel face a gripper can reach at the start of a fold."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    NONE = "none"


def grasp_side(tree: KinematicTree, folded, joint: int) -> GraspSide:
    """Advisory placement test for the spec's gripper on the panel about to fold.

    The inner face is the one facing the fold direction. A gripper-sized
    box is placed on it (offset by the standoff) at the fold's start pose;
    if that placement collides with another panel, a fixture or the table,
    the outer face is tried. The result never gates sequence validity.
    """
    folded = frozenset(folded)
    if joint in folded:
        raise ValueError(f"joint {joint} is already folded")
    gripper = tree.spec.gripper
    if gripper is None:
        raise ValueError("the carton spec declares no gripper")
    record = tree.state(folded)
    panel = tree.panel(joint)
    solid = record.poses_by_id[joint].solid

    fold_sign = 1.0 if panel.theta_final > panel.theta_init else -1.0
    half_g = np.asarray(gripper.dims, dtype=float) / 2.0
    gz = gripper.dims[2]
    flip = np.diag([1.0, -1.0, -1.0])

    others = [i for i, pid in enumerate(tree.ids) if pid != joint]
    batches = [tuple(a[others] for a in record.solids)] if others else []
    if tree.obstacles is not None:
        batches.append(tree.obstacles)
    eps = tree.spec.penetration_tolerance

    for side, sign in ((GraspSide.INSIDE, fold_sign), (GraspSide.OUTSIDE, -fold_sign)):
        normal = sign * solid.pose.rotation[:, 2]
        center = solid.center + normal * (panel.thickness / 2.0 + gripper.standoff + gz / 2.0)
        rot = solid.pose.rotation if sign > 0 else solid.pose.rotation @ flip
        c, r, h = center[None, :], rot[None, :, :], half_g[None, :]
        blocked = any(sat_overlap_matrix(c, r, h, *batch, 0.0).any() for batch in batches)
        if not blocked and tree.spec.table_plane:
            blocked = _min_corner_z(c, r, h) < -eps
        if not blocked:
            return side
    return GraspSide.NONE
