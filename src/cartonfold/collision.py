"""Swept collision checking: the verdict of every fold action.

A fold drives one joint from its initial to its final angle while every
other joint holds still. The motion is sampled at the spec's tolerance
angle. Every sample must clear the panels outside the moving subtree, the
tree's fixture boxes and, when the spec has one, the table half-space: no
moving corner may dip below ``-penetration_tolerance`` in z. Panels that
share a crease are allowed to interpenetrate by the penetration tolerance,
since hinged slabs always touch (and, at the hinge line, overlap by up to
half a thickness) during a fold. Every input comes from the kinematic
tree: its spec, its fixture records and its per-panel records.

The verdict for folding joint j out of the fold state F (an int mask of
folded joints, ``KinematicTree.bits``) decomposes, because every test is
pairwise and a panel's pose depends only on its ancestors' angles (the
non-directional blocking graph of Wilson & Latombe, 1994, taken over the
fold-state lattice). It is the AND of

* one sweep per (j, F & the joints that place j's parent or its
  subtree): the motion of the subtree's solids, their bounds and the
  fold's aerial flag (``Sweep``);
* one verdict per (sweep, static party p, F & the joints that place p),
  tested in order until one blocks (``_pair_blocked``). The static parties
  are the table, then each fixture, then each panel outside the subtree;
  the table and the fixtures stand still in every fold state, so no fold
  bit places them.

Both are memoised on the tree under int keys, so a carton of k free flaps
needs k sweeps and k(2k-1) pair tests for its k·2^(k-1) checks, and the
verdicts are exactly those of the whole check. Each sweep lists its static
parties with the fold bits that place them and the base of their pair
keys, so a check that hits the memos builds no key but an int.

``collision_check`` decides one fold out of one state, the per-state
reference. ``layer_folds`` decides every fold out of a popcount layer of
the lattice in one pass: it holds sets of the layer's states as Python-int
bitboards (the bitwise subset tables of Knuth, TAOCP 4A, §7.1.3), splits
each set by the bits a predicate reads, and evaluates a predicate once for
each key that some state still alive carries, exactly the predicates that
one ``collision_check`` per (state, unfolded joint) evaluates.

A joint turns about one crease (Redon et al., 2004), so every pose of a
swept solid is a weighted sum of three fixed poses
(``KinematicTree.crease_terms``), and so is every corner coordinate.
``build_sweeps`` builds a lattice layer's new sweeps in one stacked pass,
and ``sweep`` a missing one as a batch of one.

Each test runs in two phases. The broad phase bounds the continuous fold:
the world-axis-aligned bounds of the moving solids over the whole arc,
taken in closed form from the extremes of each corner coordinate and kept
as floats (``Sweep.cull``). They hold every sampled box, so a box culled
on them could not touch one. The narrow phase, and so every verdict,
still tests the sampled angles only: a gap between two samples is missed
(ROADMAP item 3). A static box, a panel or a fixture, is culled on the
bounds of its corners (``corners_apart``): when they stay more than
``CULL_MARGIN`` away from the sweep's, the box is disjoint from every
swept box and is dropped before it reaches the kernel. Those bounds are
memoised on the box's record: a panel's per fold state, a fixture's once
in ``build_tree``. The narrow phase places the sweep's sampled boxes and
runs the 15-axis separating-axis kernel on one box at a time; when every
box is culled, no sample is placed at all. A sweep whose bounds keep
``CULL_MARGIN`` above the table leaves the table out of its parties; the
table test reads the corners of the two end samples, and places the
samples only when they do not settle it. The crease-adjacent parent is
culled with both sides shrunk as the kernel tests that pair: the sweep's
bounds with the solids shrunk by the penetration allowance, and the
parent's corner bounds by the least amount the kernel shrinks its box on
any world axis, ``min(allowance / 2, its least half extent)``. The kernel
shrinks each half extent by that much at least (it clamps them at zero),
and the absolute entries of a rotation row sum to at least 1, so the box
it tests lies within the shrunk bounds and every verdict is the one the
kernel alone would give.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .geometry import CORNER_SIGNS, Frozen, half_reach, sat_overlap_matrix
from .model import KinematicTree, sweep_angles, sweep_steps, weight_rows

# Slack of the broad phase, in mm. It covers the kernel's padding of
# degenerate axes (1e-12 times the half extents) and rounding, so a box it
# culls is one the kernel could not report as a hit.
CULL_MARGIN = 1e-6

# The static party that stands for the table. Fixture i of
# ``KinematicTree.fixtures`` is ``~i``, and a panel is its own id (at least 1).
TABLE = 0


class Sweep(Frozen):
    """One joint's swept subtree, built once per joint and folded joints
    that place the joint's parent or the subtree.

    ``terms`` is the motion: per subtree solid, the three crease terms of
    its world center and of its world rotation (with the parent's pose and
    the solid's offset from the joint frame folded in), and its half
    extents. ``at(rows)`` places the solids at weight rows [1, sin θ,
    1 − cos θ] (``weight_rows``). ``arc`` holds the fold's initial and
    final angle and the sample step, and ``boxes`` places the solids at
    every sampled angle (``sweep_angles``), as (centers, rotations,
    half_extents) with rows (sample, solid). It is evaluated on first read:
    by a kernel call, or by a table test that the two end samples do not
    settle.
    ``cull`` holds the world-axis-aligned bounds of the solids over the
    continuous fold as lists of floats: (lo, hi) of the solids as they are,
    then (lo, hi) with them shrunk by the penetration allowance, as the
    crease-adjacent ``parent`` is tested. They hold every sampled box, and
    exceed the sampled boxes' bounds by at most the sagitta r (1 − cos(Δ/2))
    of a corner r from the crease at sample step Δ; the kernel still tests
    the sampled boxes only.
    ``aerial`` is the fold's aerial flag: whether the lowest corner of the
    subtree sits more than the support tolerance above z = 0 at the fold's
    start pose, which reads only subtree poses.
    ``table`` is None when there is no table or the bounds keep every
    corner ``CULL_MARGIN`` above the lowest z a corner may take, else (that
    z, the lowest corner z of the two end samples).
    ``static`` lists the static parties in test order: ``TABLE`` unless
    ``table`` is None, each fixture, then the panels outside the subtree in
    ``tree.ids`` order. Each is a step [party, the fold bits that place it
    outside the sweep's key, its pair key with the sweep's own fold bits
    set, those fold bits, how many of its keys are not yet found free]. A
    party whose every key has been found free can no longer block a fold
    of this sweep, so the layer walk drops it from the list.
    """

    parent: int
    terms: tuple[np.ndarray, np.ndarray, np.ndarray]
    arc: tuple[float, float, float]
    cull: list[list[list[float]]]
    aerial: bool
    table: tuple[float, float] | None
    static: list[list[int]]

    def __init__(self, parent, terms, arc, cull, aerial, table, static):
        self.__dict__.update(
            parent=parent, terms=terms, arc=arc, cull=cull, aerial=aerial, table=table, static=static
        )

    def at(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The solids placed at each weight row, rows (row, solid)."""
        centers, rots, halves = self.terms
        return (
            (rows @ centers.transpose(1, 0, 2).reshape(3, -1)).reshape(-1, 3),
            (rows @ rots.transpose(1, 0, 2, 3).reshape(3, -1)).reshape(-1, 3, 3),
            np.tile(halves, (len(rows), 1)),
        )

    @functools.cached_property
    def boxes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.at(weight_rows(sweep_angles(*self.arc)))


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

    A solid's pose at angle θ is its joint's three crease terms, with the
    parent's pose and the solid's offset from the joint frame folded in,
    weighted by [1, sin θ, 1 − cos θ]. So is each corner coordinate, and
    its extremes over the fold's arc are its values at the two ends, or
    its mean ± the hypot of its sin and cos terms where that peak falls
    inside the arc (``model._arc_rows_of``). One stacked pass takes them for
    every corner of every solid at both clearances, and places no sample.
    """
    todo = {key: fold for fold in folds if (key := _sweep_key(tree, *fold)) not in tree.sweeps}
    if not todo:
        return
    spec = tree.spec
    # Per solid: its record, parent rotation, crease terms, joint origin
    # (fixed), the joint panel's record, arc rows and arc width; per sweep,
    # its first solid and aerial flag.
    solids, parent_rots, crease, origins, frames, arcs, narrow, starts, aerial = ([] for _ in range(9))
    for mask, joint in todo.values():
        parent = tree.panel_state(tree.panels_by_id[joint].parent, mask)
        records = [tree.panel_state(pid, mask) for pid in tree.subtrees[joint]]
        terms, rows, wide = tree.crease_terms[joint]
        size = len(records)
        starts.append(len(solids))
        solids += records
        parent_rots += [parent.rotation] * size
        crease += [terms] * size
        origins += [tree.mounts[joint][0] @ parent.rotation.T + parent.origin] * size
        frames += [records[0]] * size
        arcs += [rows] * size
        narrow += [not wide] * size
        aerial.append(min(record.lo[2] for record in records) > spec.support_tolerance)
    unframe = np.array([frame.rotation for frame in frames]).transpose(0, 2, 1)
    offsets = np.array([solid.center - frame.origin for solid, frame in zip(solids, frames)])
    world = np.array(parent_rots)[:, None] @ np.array(crease)
    center_terms = (world @ (unframe @ offsets[:, :, None])[:, None])[..., 0]
    center_terms[:, 0] += origins
    rot_terms = world @ (unframe @ np.array([solid.rotation for solid in solids]))[:, None]
    solid_halves = np.array([solid.half_extents for solid in solids])

    # Term t of coordinate i of corner k of solid n, at clearance c (0, then
    # the allowance), is corners[c, n, t, 8 * i + k]; arc row r of it is
    # values[r, c, n, 8 * i + k]. A row and its negation take two rows, so
    # the highest value of a corner coordinate and its lowest negated are
    # found in one pass.
    n = len(solids)
    grown = np.maximum(solid_halves + [[[0.0]], [[-spec.penetration_tolerance / 2.0]]], 0.0)
    corners = rot_terms.reshape(n, 9, 3) @ (grown[..., None] * CORNER_SIGNS.T) + center_terms.reshape(n, 9, 1)
    values = np.ascontiguousarray((np.array(arcs) @ corners.reshape(2, n, 3, 24)).transpose(2, 0, 1, 3))
    end_a, end_b, peak = values[:6].reshape(3, 2, 2, n, 24)
    on_arc = np.add(*(values[6:10] >= 0.0).reshape(2, 2, 2, n, 24), dtype=np.int8) > np.array(narrow)[:, None]
    peak += np.hypot(values[10], values[11])
    reach = np.maximum(end_a, end_b)
    np.maximum(reach, peak, where=on_arc, out=reach)
    # Per sweep, clearance and coordinate: its lowest and highest value.
    reach = np.maximum.reduceat(reach.reshape(2, 2, n, 3, 8).max(axis=-1), starts, axis=2)
    reach[1] *= -1.0
    bounds = reach[::-1].transpose(2, 1, 0, 3).tolist()

    floor = -spec.penetration_tolerance if spec.table_plane else None
    parties = [TABLE, *(~i for i in range(len(tree.fixtures))), *tree.ids]
    stops = [*starts[1:], n]
    for (key, (_, joint)), a, b, cull, flag in zip(todo.items(), starts, stops, bounds, aerial):
        table = None
        if floor is not None and cull[0][0][2] < floor + CULL_MARGIN:
            # The lowest corner z at either end: coordinate 2, negated, clearance 0.
            table = floor, -float(max(end_a[1, 0, a:b, 16:].max(), end_b[1, 0, a:b, 16:].max()))
        # A pair key is the party's slot in this sweep, shifted above the
        # fold bits, with the folded part of the party's ancestry below;
        # the sweep's key holds that part on the joints that place the sweep.
        placing = tree.subtree_ancestry[joint] & ~tree.bits[joint]
        static = []
        for slot, party in enumerate(parties):
            ancestry = tree.ancestry[party] if party > 0 else 0
            if party == TABLE and table is None or ancestry & tree.bits[joint]:
                continue
            split, fixed = ancestry & ~placing, ancestry & key
            base = (key * len(parties) + slot) << len(tree.foldable_ids)
            static.append([party, split, base | fixed, fixed, 1 << split.bit_count()])
        panel = tree.panels_by_id[joint]
        tree.sweeps[key] = Sweep(
            panel.parent,
            (center_terms[a:b], rot_terms[a:b], solid_halves[a:b]),
            (panel.theta_init, panel.theta_final, spec.tolerance_angle),
            cull,
            flag,
            table,
            static,
        )


def corners_apart(lo, hi, cull, clearance: float, halves) -> bool:
    """Whether a box is culled from a pair test on its corner bounds.

    ``lo`` and ``hi`` are the world-axis-aligned bounds of the box's
    corners, ``halves`` its half extents and ``cull`` a sweep's (lo, hi)
    taken with the same ``clearance <= 0``. The bounds are pulled in by
    ``min(-clearance / 2, the least half extent)`` on every world axis:
    the kernel shrinks each half extent by at least that much (it clamps
    them at zero), and the absolute entries of a rotation row sum to at
    least 1, so the box the kernel tests lies within them. The box is
    culled when they stay more than ``CULL_MARGIN`` away from ``cull``.
    """
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    (lx, ly, lz), (hx, hy, hz) = cull
    s = min(-clearance / 2.0, *halves)
    return (
        x0 + s > hx + CULL_MARGIN or y0 + s > hy + CULL_MARGIN or z0 + s > hz + CULL_MARGIN
        or x1 - s < lx - CULL_MARGIN or y1 - s < ly - CULL_MARGIN or z1 - s < lz - CULL_MARGIN
    )


def _pair_blocked(tree: KinematicTree, swept: Sweep, mask: int, party: int) -> bool:
    """The verdict of one sweep against one static party in fold state ``mask``.

    The table blocks when a sampled box has a corner below its floor: the
    corners of the two end samples settle most sweeps before every sample
    is placed, a shortcut kept ``CULL_MARGIN`` below the floor so that
    rounding cannot make it differ from the test on every sample. A
    fixture or a panel is culled on its record's corner bounds
    (``corners_apart``) before the kernel runs on its box. Crease adjacency
    between a moving and a static panel: only the moving joint's own parent
    qualifies (children stay in the subtree), and it is tested with the
    penetration allowance, so it is culled on its corner bounds shrunk by
    the least amount the kernel shrinks its box.
    """
    if party == TABLE:
        floor, lowest_end = swept.table
        if lowest_end < floor - CULL_MARGIN:
            return True
        centers, rots, halves = swept.boxes
        return float((centers[:, 2] - half_reach(np.abs(rots).transpose(1, 2, 0), halves.T)[2]).min()) < floor
    record = tree.fixtures[~party] if party < 0 else tree.panel_state(party, mask)
    parent = party == swept.parent
    clearance = -tree.spec.penetration_tolerance if parent else 0.0
    if corners_apart(record.lo, record.hi, swept.cull[parent], clearance, record.half_extents.tolist()):
        return False
    return bool(
        sat_overlap_matrix(
            *swept.boxes, record.center[None], record.rotation[None], record.half_extents[None], clearance
        ).any()
    )


def collision_check(tree: KinematicTree, mask: int, moving_joint: int) -> bool:
    """True when folding ``moving_joint`` out of fold state ``mask`` is collision free.

    ``mask`` is an int bit mask of folded joints (``KinematicTree.bits``).
    The joint's whole subtree is swept from the initial to the final angle,
    sampled at the tolerance angle with both endpoints forced. At every
    sample the subtree solids must clear all panels outside the subtree,
    the fixtures and the table. Crease-adjacent panel pairs are tested with
    the penetration tolerance as allowance; everything else is tested
    exactly.
    The verdict is the AND of one pair verdict per static party of the
    sweep, each memoised on the tree and evaluated only until one blocks.
    It is the per-state reference for ``layer_folds``, which fills the same
    memos a lattice layer at a time.
    """
    bit = tree.bits.get(moving_joint)
    if bit is None:
        raise ValueError(f"joint {moving_joint} is not a foldable joint")
    if mask < 0 or mask >> len(tree.foldable_ids):
        raise ValueError(f"fold mask {mask:#x} sets bits of no foldable joint")
    if mask & bit:
        raise ValueError(f"joint {moving_joint} is already folded")

    swept = sweep(tree, mask, moving_joint)
    verdicts = tree.pair_verdicts
    for party, split, key, _, _ in swept.static:
        key |= mask & split
        blocked = verdicts.get(key)
        if blocked is None:
            blocked = verdicts[key] = _pair_blocked(tree, swept, mask, party)
        if blocked:
            return False
    return True


def layer_folds(tree: KinematicTree, masks: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, int]:
    """A lattice layer's fold table, a column per state of ``masks``: a row
    per joint slot of whether its fold is free, then one of whether it is
    free and aerial; and the number of states with no free fold.

    ``bits`` are the joints' bits in the masks' dtype. A joint's unfolded
    states are split by the folded joints that place its sweep; the new
    sweeps are built in one ``build_sweeps`` call, then each part is walked
    (``_free_states``).
    """
    layer = _Projections(masks, bits)
    parts = []
    for i, moving in enumerate(tree.foldable_ids):
        placing = tree.subtree_ancestry[moving] & ~(1 << i)
        for value, states in layer.split(layer.everyone & ~layer.has[i], placing):
            parts.append((i, moving, value, states))
    build_sweeps(tree, [(value, moving) for _, moving, value, _ in parts])
    free, aloft = [0] * len(tree.foldable_ids), [0] * len(tree.foldable_ids)
    for i, moving, value, states in parts:
        swept = sweep(tree, value, moving)
        states = _free_states(tree, swept, states, layer)
        free[i] |= states
        if swept.aerial:
            aloft[i] |= states
    dead_ends = (layer.everyone & ~functools.reduce(operator.or_, free)).bit_count()
    return _unpack(free + aloft, len(masks)), dead_ends


class _Projections(dict):
    """One layer's states, as bitboards, split by their values of a set of fold bits.

    Bit s of a board stands for the layer's state s. ``has[i]`` is the
    board of the states with fold bit i, from one ``np.packbits`` of the
    layer's masks. ``self[bits]`` lists (a value of ``bits``, the board of
    the states that have it) for every value some state has, built when
    first asked for; ``split`` does the same for a part of the layer.
    """

    def __init__(self, layer: np.ndarray, bits: np.ndarray):
        super().__init__()
        self.everyone = (1 << len(layer)) - 1
        width = (len(layer) + 7) // 8
        packed = np.packbits((layer & bits[:, None]) != 0, axis=1, bitorder="little").tobytes()
        self.has = [
            int.from_bytes(packed[i * width:(i + 1) * width], "little") for i in range(len(bits))
        ]

    def __missing__(self, bits: int) -> list[tuple[int, int]]:
        parts = self[bits] = self.split(self.everyone, bits)
        return parts

    def split(self, states: int, bits: int) -> list[tuple[int, int]]:
        parts = [(0, states)] if states else []
        while bits:
            low = bits & -bits
            bits ^= low
            on = self.has[low.bit_length() - 1]
            parts = [
                part
                for value, board in parts
                for part in ((value, board & ~on), (value | low, board & on))
                if part[1]
            ]
        return parts


def _unpack(boards: list[int], n: int) -> np.ndarray:
    """Bitboards over an n-state layer as the rows of a boolean table."""
    width = (n + 7) // 8
    data = b"".join(board.to_bytes(width, "little") for board in boards)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(boards), width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)


def _free_states(tree: KinematicTree, swept: Sweep, states: int, layer: _Projections) -> int:
    """The states of a board, all folding the sweep's joint out of its key,
    whose fold is free.

    The sweep's static parties are walked in order: the states still alive
    are split by the fold bits that place the party outside the sweep's
    key, and a part is dropped when its pair verdict is blocked. A verdict
    is thus the AND of the memoised predicates that ``collision_check``
    evaluates, and each predicate is evaluated only for a key that some
    state alive at that point carries, as ``collision_check`` state by
    state would. A party whose every key has been found free here can
    neither block nor be evaluated again, and a key found free stays free
    in the memo, so the sweep drops it for good.
    """
    verdicts = tree.pair_verdicts
    inert = False
    for step in swept.static:
        party, split, key, fixed, _ = step
        for placed, part in layer[split]:
            if part & states:
                blocked = verdicts.get(key | placed)
                if blocked is None:
                    blocked = verdicts[key | placed] = _pair_blocked(tree, swept, fixed | placed, party)
                    if not blocked:
                        step[4] -= 1
                        inert = inert or not step[4]
                if blocked:
                    states &= ~part
        if not states:
            break
    if inert:
        swept.static[:] = [step for step in swept.static if step[4]]
    return states


def n_sweep_samples(tree: KinematicTree, joint: int) -> int:
    """The number of angles ``sweep_angles`` samples the joint's fold at."""
    panel = tree.panels_by_id[joint]
    return sweep_steps(panel.theta_final - panel.theta_init, tree.spec.tolerance_angle) + 1
