"""Swept collision checking for single fold actions, plus grasp advisories.

A fold drives one joint from its initial to its final angle while every
other joint holds still. The motion is sampled at the spec's tolerance
angle. Every sample must clear the panels outside the moving subtree, the
tree's packed fixture boxes and, when the spec has one, the table
half-space: no moving corner may dip below ``-penetration_tolerance`` in z.
Panels that share a crease are allowed to interpenetrate by the
penetration tolerance, since hinged slabs always touch (and, at the hinge
line, overlap by up to half a thickness) during a fold. Every input comes
from the kinematic tree: its spec, its obstacles and its per-panel records.

The verdict for folding joint j out of the folded subset F decomposes,
because the kernel is pairwise and a panel's pose depends only on its
ancestors' angles (the non-directional blocking graph of Wilson &
Latombe, 1994, taken over the fold-state lattice). It is the AND of

* one sweep per (j, F ∩ the joints that place j's parent or its
  subtree): the swept boxes, their bounds and the table and fixture
  verdict (``Sweep``);
* one kernel verdict per (sweep, static panel p, F ∩ the joints that
  place p), tested only until one blocks.

Both are memoised on the tree, so a carton of k free flaps needs k sweeps
and k(2k-1) pair tests for its k·2^(k-1) checks, and the verdicts are
exactly those of the whole check.

Each test runs in two phases. The broad phase takes the world-axis-aligned
bounds of every swept box (``|R| @ h`` about its center) and their union,
the sweep's bounds. Its lowest z is the table test. A static box whose own
bounds stay more than ``CULL_MARGIN`` away from the sweep's is disjoint
from every swept box and is dropped. The narrow phase runs the 15-axis
separating-axis kernel only on the boxes left, and not at all when none
are. The crease-adjacent parent is culled with both sides shrunk by the
penetration allowance, exactly as the kernel tests that pair, so every
verdict is the one the kernel alone would give.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .geometry import box_bounds, pack_boxes, rotation_matrices, sat_overlap_matrix
from .model import KinematicTree

# Slack of the broad phase, in mm. It covers the kernel's padding of
# degenerate axes (1e-12 times the half extents) and rounding, so a box it
# culls is one the kernel could not report as a hit.
CULL_MARGIN = 1e-6


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


def sweep_bounds(boxes, clearance: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """World-axis-aligned bounds (lo, hi) of the union of (centers, rotations,
    half_extents) boxes, each grown by ``clearance / 2`` as the kernel grows it."""
    lo, hi = box_bounds(*boxes, clearance)
    return lo.min(axis=0), hi.max(axis=0)


def near_sweep(sweep, boxes, clearance: float = 0.0) -> np.ndarray:
    """Mask of the boxes whose bounds come within ``CULL_MARGIN`` of ``sweep``.

    The boxes are grown by ``clearance / 2`` like the kernel grows them; the
    sweep's bounds must be taken with the same clearance. A box outside the
    mask overlaps no box inside the sweep's bounds.
    """
    lo, hi = box_bounds(*boxes, clearance)
    return np.all((lo <= sweep[1] + CULL_MARGIN) & (hi >= sweep[0] - CULL_MARGIN), axis=1)


def _blocked(movers, sweep, boxes, clearance: float) -> bool:
    """Whether a mover overlaps one of ``boxes``, the kernel run on those near the sweep."""
    near = near_sweep(sweep, boxes, clearance)
    if not near.any():
        return False
    return bool(sat_overlap_matrix(*movers, *(a[near] for a in boxes), clearance).any())


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


class Sweep(NamedTuple):
    """One joint's swept subtree, built once per ``key``: (joint, folded
    joints that place the joint's parent or the subtree).

    ``boxes`` are the swept solids as (centers, rotations, half_extents),
    ``bounds`` their union's bounds and ``shrunk`` the same bounds with the
    boxes shrunk by the penetration allowance, as the crease-adjacent
    parent is tested. ``clear`` is the table and fixture verdict, and
    ``static`` lists the panels outside the subtree, in ``tree.ids`` order.
    """

    key: tuple
    boxes: tuple[np.ndarray, np.ndarray, np.ndarray]
    bounds: tuple[np.ndarray, np.ndarray]
    shrunk: tuple[np.ndarray, np.ndarray]
    clear: bool
    static: tuple[int, ...]


def _sweep(tree: KinematicTree, folded: frozenset, joint: int) -> Sweep:
    """The memoised sweep of ``joint`` out of ``folded``, with its table and fixture verdict."""
    key = (joint, tree.subtree_ancestry[joint] & folded)
    sweep = tree.sweeps.get(key)
    if sweep is None:
        spec = tree.spec
        panel = tree.panel(joint)
        moving_ids = tree.subtree_ids(joint)
        poses = {pid: tree.panel_state(pid, folded).pose for pid in (panel.parent, *moving_ids)}
        samples = sweep_angles(panel.theta_init, panel.theta_final, spec.tolerance_angle)
        *boxes, _ = _swept_movers(tree, poses, joint, samples)
        eps = spec.penetration_tolerance
        bounds = sweep_bounds(boxes)
        clear = not (spec.table_plane and bounds[0][2] < -eps) and not (
            tree.obstacles is not None and _blocked(boxes, bounds, tree.obstacles, 0.0)
        )
        static = tuple(pid for pid in tree.ids if pid not in moving_ids)
        sweep = Sweep(key, tuple(boxes), bounds, sweep_bounds(boxes, -eps), clear, static)
        tree.sweeps[key] = sweep
    return sweep


def _pair_blocked(tree: KinematicTree, sweep: Sweep, folded: frozenset, panel_id: int) -> bool:
    """The memoised kernel verdict of one sweep against one static panel.

    Crease adjacency between a moving and a static panel: only the moving
    joint's own parent qualifies (children stay in the subtree), and it is
    tested with the penetration allowance.
    """
    key = (sweep.key, panel_id, tree.ancestry[panel_id] & folded)
    blocked = tree.pair_verdicts.get(key)
    if blocked is None:
        box = pack_boxes([tree.panel_state(panel_id, folded).pose.solid])
        if panel_id == tree.panel(sweep.key[0]).parent:
            eps = tree.spec.penetration_tolerance
            blocked = _blocked(sweep.boxes, sweep.shrunk, box, -eps)
        else:
            blocked = _blocked(sweep.boxes, sweep.bounds, box, 0.0)
        tree.pair_verdicts[key] = blocked
    return blocked


def collision_check(tree: KinematicTree, folded, moving_joint: int) -> bool:
    """True when folding ``moving_joint`` from the given state is collision free.

    The joint's whole subtree is swept from the initial to the final angle,
    sampled at the tolerance angle with both endpoints forced. At every
    sample the subtree solids must clear all panels outside the subtree and
    all obstacles. Crease-adjacent panel pairs are tested with the
    penetration tolerance as allowance; everything else is tested exactly.
    The verdict is the AND of the sweep's table and fixture verdict and of
    one pair verdict per static panel, each memoised on the tree and
    evaluated only until one blocks.
    """
    folded = frozenset(folded)
    if moving_joint not in tree.foldable_ids:
        raise ValueError(f"joint {moving_joint} is not a foldable joint")
    if moving_joint in folded:
        raise ValueError(f"joint {moving_joint} is already folded")
    bad = folded.difference(tree.foldable_ids)
    if bad:
        raise ValueError(f"folded set contains non-foldable joints: {sorted(bad)}")

    sweep = _sweep(tree, folded, moving_joint)
    return sweep.clear and not any(
        _pair_blocked(tree, sweep, folded, pid) for pid in sweep.static
    )


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
        tool = (center[None, :], rot[None, :, :], half_g[None, :])
        bounds = sweep_bounds(tool)
        blocked = tree.spec.table_plane and bounds[0][2] < -eps
        blocked = blocked or any(_blocked(tool, bounds, batch, 0.0) for batch in batches)
        if not blocked:
            return side
    return GraspSide.NONE
