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

A joint turns about one crease (Redon et al., 2004), so every swept box is
a weighted sum of three fixed poses (``KinematicTree.crease_terms``).
``build_sweeps`` builds a lattice layer's new sweeps in one stacked pass,
and ``sweep`` a missing one as a batch of one.

Each test runs in two phases. The broad phase takes the world-axis-aligned
bounds of every swept box (``|R| @ h`` about its center) and their union,
the sweep's bounds. Its lowest z is the table test. A static box whose own
bounds stay more than ``CULL_MARGIN`` away from the sweep's is disjoint
from every swept box and is dropped; a static panel is first culled on
its memoised corner bounds, which equal those bounds up to rounding far
below the margin, before its box is packed at all. The narrow phase runs
the 15-axis separating-axis kernel only on the boxes left, and not at all
when none are. The crease-adjacent parent is culled with both sides
shrunk as the kernel tests that pair: the sweep's bounds by the
penetration allowance, and the parent's corner bounds by the least amount
the kernel shrinks its box on any world axis, ``min(allowance / 2, its
least half extent)``. The kernel shrinks each half extent by that much at
least (it clamps them at zero), and the absolute entries of a rotation
row sum to at least 1, so the box it tests lies within the shrunk bounds
and every verdict is the one the kernel alone would give.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple

import numpy as np

from .geometry import box_bounds, half_reach, pack_boxes, sat_overlap_matrix
from .model import KinematicTree, sweep_angles  # noqa: F401  (re-exported)

# Slack of the broad phase, in mm. It covers the kernel's padding of
# degenerate axes (1e-12 times the half extents) and rounding, so a box it
# culls is one the kernel could not report as a hit.
CULL_MARGIN = 1e-6


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


class Sweep(NamedTuple):
    """One joint's swept subtree, built once per joint and folded joints
    that place the joint's parent or the subtree.

    ``boxes`` are the swept solids as (centers, rotations, half_extents),
    ``bounds`` their union's bounds and ``shrunk`` the same bounds with the
    boxes shrunk by the penetration allowance, as the crease-adjacent
    ``parent`` is tested; ``cull`` holds both again as lists of floats,
    (lo, hi) of ``bounds`` then of ``shrunk``, for the pair tests' first cull.
    ``clear`` is the table and fixture verdict and
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
    cull: tuple[tuple[list[float], list[float]], tuple[list[float], list[float]]]
    clear: bool
    aerial: bool
    static: tuple[tuple[int, int, int], ...]


def _sweep_key(tree: KinematicTree, mask: int, joint: int) -> int:
    """The folded part of the joint's subtree ancestry, with the joint's bit above the fold bits."""
    return (mask & tree.subtree_ancestry[joint]) | tree.bits[joint] << len(tree.foldable_ids)


def sweep(tree: KinematicTree, mask: int, joint: int) -> Sweep:
    """The memoised sweep of ``joint`` out of fold state ``mask``, built on a miss."""
    key = _sweep_key(tree, mask, joint)
    if key not in tree.sweeps:
        build_sweeps(tree, [(mask, joint)])
    return tree.sweeps[key]


def build_sweeps(tree: KinematicTree, folds) -> None:
    """Build and memoise the sweeps of (fold mask, joint) pairs not built yet.

    A solid's pose at a sample is its joint's three crease terms, with the
    parent's pose and the solid's offset from the joint frame folded in,
    weighted by the sample's row: two ``weights @ table`` products a sweep,
    into one stack of boxes whose bounds take one ``|R|``."""
    todo = {key: fold for fold in folds if (key := _sweep_key(tree, *fold)) not in tree.sweeps}
    if not todo:
        return
    spec = tree.spec
    # Per solid: its box, parent rotation, crease terms, joint origin (fixed) and start frame.
    solids, parent_rots, crease, origins, frames, aerial = [], [], [], [], [], []
    for mask, joint in todo.values():
        parent = tree.panel_state(tree.panels_by_id[joint].parent, mask).pose.pose
        records = [tree.panel_state(pid, mask) for pid in tree.subtrees[joint]]
        size = len(records)
        solids += [record.pose.solid for record in records]
        parent_rots += [parent.rotation] * size
        crease += [tree.crease_terms[joint][0]] * size
        origins += [parent.apply(tree.mounts[joint][0])] * size
        frames += [records[0].pose.pose] * size
        aerial.append(min(record.lo[2] for record in records) > spec.support_tolerance)
    # Row t of a table holds term t of every solid's world rotation or center.
    unframe = np.array([frame.rotation for frame in frames]).transpose(0, 2, 1)
    offsets = np.array([solid.center - frame.translation for solid, frame in zip(solids, frames)])
    world = np.array(parent_rots)[:, None] @ np.array(crease)
    center_terms = (world @ (unframe @ offsets[:, :, None])[:, None])[..., 0]
    center_terms[:, 0] += origins
    center_table = center_terms.transpose(1, 0, 2).reshape(3, -1)
    rel_rots = unframe @ np.array([solid.pose.rotation for solid in solids])
    rot_table = (world @ rel_rots[:, None]).transpose(1, 0, 2, 3).reshape(3, -1)
    solid_halves = np.array([solid.half_extents for solid in solids])

    weights = [tree.crease_terms[joint][1] for _, joint in todo.values()]
    sizes = [len(tree.subtrees[joint]) for _, joint in todo.values()]
    ends = list(itertools.accumulate(len(w) * size for w, size in zip(weights, sizes)))
    starts = [0, *ends[:-1]]
    centers, rots, halves = (np.empty((ends[-1], *shape)) for shape in ((3,), (3, 3), (3,)))
    c1 = 0
    for w, size, a, b in zip(weights, sizes, starts, ends):
        c0, c1 = c1, c1 + size  # the sweep's solids
        np.matmul(w, center_table[:, 3 * c0:3 * c1], out=centers[a:b].reshape(len(w), -1))
        np.matmul(w, rot_table[:, 9 * c0:9 * c1], out=rots[a:b].reshape(len(w), -1))
        halves[a:b].reshape(len(w), size, 3)[:] = solid_halves[c0:c1]
    # Axis first, so every elementwise pass runs over all the boxes at once.
    abs_rots = np.abs(rots.reshape(-1, 9).T, order="C").reshape(3, 3, -1)
    axis_centers, axis_halves = centers.T.copy(), halves.T.copy()
    bounds = []
    for clearance in (0.0, -spec.penetration_tolerance):
        reach = half_reach(abs_rots, axis_halves, clearance)
        low = np.minimum.reduceat(axis_centers - reach, starts, axis=1).T
        reach += axis_centers
        bounds.append((low, np.maximum.reduceat(reach, starts, axis=1).T))
    (lo, hi), shrunk = bounds
    culls = zip(zip(lo.tolist(), hi.tolist()), zip(shrunk[0].tolist(), shrunk[1].tolist()))
    for s, ((key, (_, joint)), a, b, cull) in enumerate(zip(todo.items(), starts, ends, culls)):
        swept, around = (centers[a:b], rots[a:b], halves[a:b]), (lo[s], hi[s])
        clear = not (spec.table_plane and lo[s][2] < -spec.penetration_tolerance) and not (
            tree.obstacles is not None and _blocked(swept, around, tree.obstacles, 0.0)
        )
        # A pair key is the static panel's slot in this sweep, shifted above
        # the fold bits, with the folded part of the panel's ancestry below.
        static = tuple(
            (pid, tree.ancestry[pid], (key * len(tree.ids) + slot) << len(tree.foldable_ids))
            for slot, pid in enumerate(tree.ids)
            if pid not in tree.subtrees[joint]
        )
        tree.sweeps[key] = Sweep(
            tree.panels_by_id[joint].parent, swept, around, (shrunk[0][s], shrunk[1][s]),
            cull, clear, aerial[s], static,
        )


def corners_apart(lo, hi, cull, clearance: float, dims) -> bool:
    """Whether a box is culled from a pair test on its corner bounds.

    ``lo`` and ``hi`` are the world-axis-aligned bounds of the box's
    corners, ``dims`` its full dimensions and ``cull`` a sweep's (lo, hi)
    taken with the same ``clearance <= 0``. The bounds are pulled in by
    ``min(-clearance / 2, the least half extent)`` on every world axis:
    the kernel shrinks each half extent by at least that much (it clamps
    them at zero), and the absolute entries of a rotation row sum to at
    least 1, so the box the kernel tests lies within them. The box is
    culled when they stay more than ``CULL_MARGIN`` away from ``cull``.
    """
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    (lx, ly, lz), (hx, hy, hz) = cull
    s = min(-clearance, *dims) / 2.0
    return (
        x0 + s > hx + CULL_MARGIN or y0 + s > hy + CULL_MARGIN or z0 + s > hz + CULL_MARGIN
        or x1 - s < lx - CULL_MARGIN or y1 - s < ly - CULL_MARGIN or z1 - s < lz - CULL_MARGIN
    )


def _pair_blocked(tree: KinematicTree, swept: Sweep, mask: int, panel_id: int) -> bool:
    """The kernel verdict of one sweep against one static panel.

    The panel's memoised corner bounds are culled first (``corners_apart``):
    they equal its box's ``|R| @ h`` bounds up to rounding far below
    ``CULL_MARGIN``. Crease adjacency between a moving and a static panel:
    only the moving joint's own parent qualifies (children stay in the
    subtree), and it is tested with the penetration allowance, so it is
    culled on its corner bounds shrunk by the least amount the kernel
    shrinks its box.
    """
    record = tree.panel_state(panel_id, mask)
    if panel_id == swept.parent:
        bounds, cull, clearance = swept.shrunk, swept.cull[1], -tree.spec.penetration_tolerance
    else:
        bounds, cull, clearance = swept.bounds, swept.cull[0], 0.0
    if corners_apart(record.lo, record.hi, cull, clearance, tree.panels_by_id[panel_id].dims):
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
    return len(tree.crease_terms[joint][1])


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
