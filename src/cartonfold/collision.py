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

The verdict for folding joint j out of the fold state F (an int mask of
folded joints, ``KinematicTree.bits``) decomposes, because the kernel is
pairwise and a panel's pose depends only on its ancestors' angles (the
non-directional blocking graph of Wilson & Latombe, 1994, taken over the
fold-state lattice). It is the AND of

* one sweep per (j, F & the joints that place j's parent or its
  subtree): the swept boxes, their bounds, the table and fixture verdict
  and the fold's aerial flag (``Sweep``);
* one kernel verdict per (sweep, static panel p, F & the joints that
  place p), tested only until one blocks.

Both are memoised on the tree under int keys, so a carton of k free flaps
needs k sweeps and k(2k-1) pair tests for its k·2^(k-1) checks, and the
verdicts are exactly those of the whole check. Each sweep lists its static
panels with their ancestry masks and the base of their pair keys, so a
check that hits the memos builds no key but an int.

Each test runs in two phases. The broad phase takes the world-axis-aligned
bounds of every swept box (``|R| @ h`` about its center) and their union,
the sweep's bounds. Its lowest z is the table test. A static box whose own
bounds stay more than ``CULL_MARGIN`` away from the sweep's is disjoint
from every swept box and is dropped; a static panel is first culled on
its memoised corner bounds, which equal those bounds up to rounding far
below the margin, before its box is packed at all. The narrow phase runs
the 15-axis separating-axis kernel only on the boxes left, and not at all
when none are. The crease-adjacent parent is culled with both sides
shrunk by the penetration allowance, exactly as the kernel tests that
pair (its unshrunk corner bounds contain the shrunk ones), so every
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


def near_sweep(bounds, boxes, clearance: float = 0.0) -> np.ndarray:
    """Mask of the boxes whose bounds come within ``CULL_MARGIN`` of a sweep's ``bounds``.

    The boxes are grown by ``clearance / 2`` like the kernel grows them; the
    sweep's bounds must be taken with the same clearance. A box outside the
    mask overlaps no box inside the sweep's bounds.
    """
    lo, hi = box_bounds(*boxes, clearance)
    return np.all((lo <= bounds[1] + CULL_MARGIN) & (hi >= bounds[0] - CULL_MARGIN), axis=1)


def _blocked(movers, bounds, boxes, clearance: float) -> bool:
    """Whether a mover overlaps one of ``boxes``, the kernel run on those near the sweep."""
    near = near_sweep(bounds, boxes, clearance)
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

    rots = joint_rots[:, None] @ rel_rots
    centers = rel_trans @ joint_rots.transpose(0, 2, 1) + joint_origin

    n = len(samples) * len(moving_ids)
    return (
        centers.reshape(n, 3),
        rots.reshape(n, 3, 3),
        np.tile(halves, (len(samples), 1)),
        moving_ids,
    )


class Sweep(NamedTuple):
    """One joint's swept subtree, built once per joint and folded joints
    that place the joint's parent or the subtree.

    ``boxes`` are the swept solids as (centers, rotations, half_extents),
    ``bounds`` their union's bounds and ``shrunk`` the same bounds with the
    boxes shrunk by the penetration allowance, as the crease-adjacent
    ``parent`` is tested. ``clear`` is the table and fixture verdict and
    ``aerial`` the fold's aerial flag: whether the lowest corner of the
    subtree sits more than the support tolerance above z = 0 at the fold's
    start pose, which reads only subtree poses.
    ``static`` lists the panels outside the subtree, in ``tree.ids`` order,
    each as (panel id, its ancestry mask, the base of its pair keys).
    """

    parent: int
    boxes: tuple[np.ndarray, np.ndarray, np.ndarray]
    bounds: tuple[np.ndarray, np.ndarray]
    shrunk: tuple[np.ndarray, np.ndarray]
    clear: bool
    aerial: bool
    static: tuple[tuple[int, int, int], ...]


def sweep(tree: KinematicTree, mask: int, joint: int) -> Sweep:
    """The memoised sweep of ``joint`` out of fold state ``mask``.

    The key is the folded part of the joint's subtree ancestry with one
    more bit per joint above the fold bits, so it names the joint too.
    """
    k = len(tree.foldable_ids)
    key = (mask & tree.subtree_ancestry[joint]) | tree.bits[joint] << k
    found = tree.sweeps.get(key)
    if found is None:
        spec = tree.spec
        panel = tree.panel(joint)
        moving_ids = tree.subtree_ids(joint)
        records = {pid: tree.panel_state(pid, mask) for pid in (panel.parent, *moving_ids)}
        poses = {pid: record.pose for pid, record in records.items()}
        aerial = min(records[pid].lo[2] for pid in moving_ids) > spec.support_tolerance
        samples = sweep_angles(panel.theta_init, panel.theta_final, spec.tolerance_angle)
        *boxes, _ = _swept_movers(tree, poses, joint, samples)
        eps = spec.penetration_tolerance
        bounds = sweep_bounds(boxes)
        clear = not (spec.table_plane and bounds[0][2] < -eps) and not (
            tree.obstacles is not None and _blocked(boxes, bounds, tree.obstacles, 0.0)
        )
        # A pair key is the static panel's slot in this sweep, shifted above
        # the fold bits, with the folded part of the panel's ancestry below.
        static = tuple(
            (pid, tree.ancestry[pid], (key * len(tree.ids) + slot) << k)
            for slot, pid in enumerate(tree.ids)
            if pid not in moving_ids
        )
        found = Sweep(
            panel.parent, tuple(boxes), bounds, sweep_bounds(boxes, -eps),
            clear, aerial, static,
        )
        tree.sweeps[key] = found
    return found


def _pair_blocked(tree: KinematicTree, swept: Sweep, mask: int, panel_id: int) -> bool:
    """The kernel verdict of one sweep against one static panel.

    The panel's memoised corner bounds are culled first: they equal its
    box's ``|R| @ h`` bounds up to rounding far below ``CULL_MARGIN``, and
    they contain the crease parent's shrunk bounds. Crease adjacency
    between a moving and a static panel: only the moving joint's own
    parent qualifies (children stay in the subtree), and it is tested with
    the penetration allowance.
    """
    record = tree.panel_state(panel_id, mask)
    if panel_id == swept.parent:
        bounds, clearance = swept.shrunk, -tree.spec.penetration_tolerance
    else:
        bounds, clearance = swept.bounds, 0.0
    lo, hi = bounds
    if any(
        l > h + CULL_MARGIN or u < w - CULL_MARGIN
        for l, u, w, h in zip(record.lo, record.hi, lo.tolist(), hi.tolist())
    ):
        return False
    return _blocked(swept.boxes, bounds, pack_boxes([record.pose.solid]), clearance)


def collision_check(tree: KinematicTree, mask: int, moving_joint: int) -> bool:
    """True when folding ``moving_joint`` out of fold state ``mask`` is collision free.

    ``mask`` is an int bit mask of folded joints (``KinematicTree.bits``).
    The joint's whole subtree is swept from the initial to the final angle,
    sampled at the tolerance angle with both endpoints forced. At every
    sample the subtree solids must clear all panels outside the subtree and
    all obstacles. Crease-adjacent panel pairs are tested with the
    penetration tolerance as allowance; everything else is tested exactly.
    The verdict is the AND of the sweep's table and fixture verdict and of
    one pair verdict per static panel, each memoised on the tree and
    evaluated only until one blocks.
    """
    bit = tree.bits.get(moving_joint)
    if bit is None:
        raise ValueError(f"joint {moving_joint} is not a foldable joint")
    if mask < 0 or mask >> len(tree.foldable_ids):
        raise ValueError(f"fold mask {mask:#x} sets bits of no foldable joint")
    if mask & bit:
        raise ValueError(f"joint {moving_joint} is already folded")

    swept = sweep(tree, mask, moving_joint)
    if not swept.clear:
        return False
    verdicts = tree.pair_verdicts
    for pid, ancestry, base in swept.static:
        key = base | mask & ancestry
        blocked = verdicts.get(key)
        if blocked is None:
            blocked = verdicts[key] = _pair_blocked(tree, swept, mask, pid)
        if blocked:
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


def grasp_side(tree: KinematicTree, mask: int, joint: int) -> GraspSide:
    """Advisory placement test for the spec's gripper on the panel about to fold.

    ``mask`` is the fold state the fold starts from. The inner face is the
    one facing the fold direction. A gripper-sized box is placed on it
    (offset by the standoff) at the fold's start pose; if that placement
    collides with another panel, a fixture or the table, the outer face is
    tried. The result never gates sequence validity.
    """
    if mask & tree.bits.get(joint, 0):
        raise ValueError(f"joint {joint} is already folded")
    gripper = tree.spec.gripper
    if gripper is None:
        raise ValueError("the carton spec declares no gripper")
    panel = tree.panel(joint)
    solid = tree.panel_state(joint, mask).pose.solid

    fold_sign = 1.0 if panel.theta_final > panel.theta_init else -1.0
    half_g = np.asarray(gripper.dims, dtype=float) / 2.0
    gz = gripper.dims[2]
    flip = np.diag([1.0, -1.0, -1.0])

    others = [tree.panel_state(pid, mask).pose.solid for pid in tree.ids if pid != joint]
    batches = [pack_boxes(others)] if others else []
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
