"""Carton description, validation, kinematic tree and forward kinematics.

A carton is a tree of hinged rectangular panels. Each non-root panel is
attached to its parent by a crease: a revolute axis fixed in the parent's
local frame. The panel local frame convention is:

* origin at the crease anchor,
* local X along the crease direction,
* local Y from the crease into the panel,
* local Z the panel normal,
* the slab occupies ``[0, w] x [0, h] x [-t/2, +t/2]``,
* positive joint angle rotates +Y toward +Z (right-hand rule about +X).

At angle zero a child panel is coplanar with its parent (child Z equals
the parent normal projected orthogonal to the crease).

The spec file (YAML, degrees and millimeters at the boundary) is
documented in README.md, "Carton spec files". A panel may carry an
explicit boolean ``foldable`` flag, which must agree with its angles: a
panel whose initial and final angles coincide is static. Joint angles lie
within [-180, 180] degrees, roll, pitch and yaw within [-360, 360], and
the tolerance angle is at least ``MIN_TOLERANCE_ANGLE_DEG``, which bounds
the samples of every sweep. A missing or null ``ranking`` takes
``DEFAULT_RANKING``. Obstacle boxes have positive dimensions.

``parse_spec`` reads a document with PyYAML's safe loader, on libyaml
when PyYAML has it, refusing a key written twice in one mapping, and
``spec_from_mapping`` validates the plain data.
A document that nests deeper than ``MAX_NESTING`` levels, or too deeply
for the loader's or the validation's recursion, is rejected like any
other malformed spec.

``build_tree`` turns a validated spec into the ``KinematicTree`` that every
planning function takes as its one input. It forms every crease's mount,
its turns to the initial and final angles and the rows that bound its
sweep over the whole arc in stacked passes, each element by the same
operations as the one-panel forms; a sweep's sample rows are taken only
when its samples are placed (``weight_rows``). A fold state is an int
bit mask over the tree's foldable joints, and the tree places one panel in
one fold state at a time (``KinematicTree.panel_state``), memoised per
panel and the folded joints that place it. A placement is a
``PanelRecord`` of plain arrays, the frame's rotation and origin and the
slab's center and half extents, with its corner bounds as floats; no
transform or box object is built for it. Bounding-box measures, aerial
flags, the swept check's solids and the poses of traces, dumps and the
grasp advisory are all read from those records.
``reference.forward_kinematics`` places every panel of any joint vector at
once as ``reference.PanelPose`` objects and gives the same values, bit for
bit. Writing a spec back out (``reference.serialize_spec``) lives there
too, since no plan runs it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import yaml

from .geometry import CORNER_SIGNS, Frozen, FrozenValue, OrientedBox, Transform, rotation_matrix

DEFAULT_TOLERANCE_ANGLE_DEG = 5.0
DEFAULT_PENETRATION_TOLERANCE_MM = 0.1
DEFAULT_SUPPORT_TOLERANCE_MM = 1.0
DEFAULT_RANKING = ("aerial", "maxdim")

RANKING_CRITERIA = ("aerial", "maxdim", "volume")

# Finest sweep step accepted: 9001 samples for a 90 degree fold.
MIN_TOLERANCE_ANGLE_DEG = 0.01

# Largest panel id accepted: a plan holds joint ids as int64.
MAX_PANEL_ID = 2**63 - 1

# Largest magnitude of a spec length accepted, in mm. A world coordinate
# sums about one such length per crease from the root, and below 1e9 mm
# (a thousand creases deep) the spacing of floats, 1.2e-7 mm, stays under
# the broad phase's CULL_MARGIN; no volume sum comes near overflow.
MAX_LENGTH_MM = 1e6

# Largest magnitude of a roll, pitch or yaw accepted, in degrees: a turn
# either way. Far beyond it a float keeps nothing of the angle modulo 360.
MAX_RPY_DEG = 360.0


def sweep_angles(start: float, end: float, step: float) -> np.ndarray:
    """Sample angles from start to end inclusive, spaced by at most step: both
    endpoints whatever the divisibility, so two or more for a non-degenerate arc."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    span = end - start
    if span == 0.0:
        return np.array([start])
    n_steps = sweep_steps(span, step)
    interior = start + np.sign(span) * step * np.arange(n_steps)
    return np.append(interior, end)


def sweep_steps(span: float, step: float) -> int:
    """The number of steps ``sweep_angles`` takes over an arc of ``span``:
    at least one for a nonzero span, however long the step."""
    return max(math.ceil(abs(span) / step - 1e-12), int(span != 0.0))


class SpecValidationError(ValueError):
    """A carton description violates the format or a structural invariant."""


def _check_unit(vec, what: str) -> None:
    try:
        x, y, z = (float(v) for v in vec)
    except (TypeError, ValueError):
        raise SpecValidationError(f"{what} must be a 3-vector") from None
    norm = math.hypot(x, y, z)  # no overflow: |v| of a huge v stays finite
    if abs(norm - 1.0) > 1e-6:
        raise SpecValidationError(f"{what} must be a unit vector, |v| = {norm:.9g}")


@dataclass(frozen=True)
class PanelSpec:
    """One rigid panel and the crease attaching it to its parent."""

    id: int
    parent: int | None
    dims: tuple[float, float, float]  # (height, width, thickness)
    crease_anchor: tuple[float, float, float] | None = None
    crease_dir: tuple[float, float, float] | None = None
    theta_init: float = 0.0
    theta_final: float = 0.0
    name: str = ""
    foldable_flag: bool | None = None

    def __post_init__(self):
        if self.id < 1:
            raise SpecValidationError(f"panel id must be >= 1, got {self.id}")
        h, w, t = self.dims
        if not all(0.0 < d < math.inf for d in (h, w, t)):
            raise SpecValidationError(
                f"panel {self.id}: dims (h, w, t) must be positive and finite, got {self.dims}"
            )
        if self.parent is None:
            if self.theta_init != 0.0 or self.theta_final != 0.0:
                raise SpecValidationError(
                    f"panel {self.id}: the root panel is fixed, its angles must be 0"
                )
        else:
            if self.crease_anchor is None or self.crease_dir is None:
                raise SpecValidationError(
                    f"panel {self.id}: non-root panels need crease_anchor and crease_dir"
                )
            _check_unit(self.crease_dir, f"panel {self.id} crease_dir")
        for key, value in (
            ("theta_init_deg", self.theta_init),
            ("theta_final_deg", self.theta_final),
        ):
            if not -math.pi <= value <= math.pi:
                raise SpecValidationError(
                    f"panel {self.id}: {key} must lie within [-180, 180], "
                    f"got {_degrees(value)!r}"
                )
        if self.foldable_flag is not None:
            if not isinstance(self.foldable_flag, bool):
                raise SpecValidationError(
                    f"panel {self.id}: foldable must be true or false, got {self.foldable_flag!r}"
                )
            if self.foldable_flag != (self.theta_init != self.theta_final):
                raise SpecValidationError(
                    f"panel {self.id}: marked foldable: {str(self.foldable_flag).lower()} but "
                    f"theta_init {'==' if self.foldable_flag else '!='} theta_final"
                )

    @property
    def height(self) -> float:
        return self.dims[0]

    @property
    def width(self) -> float:
        return self.dims[1]

    @property
    def thickness(self) -> float:
        return self.dims[2]

    @property
    def foldable(self) -> bool:
        return self.parent is not None and self.theta_init != self.theta_final


class GripperSpec(FrozenValue):
    """Suction-tool footprint used for grasp-side advisories."""

    dims: tuple[float, float, float]
    standoff: float

    def __init__(self, dims, standoff=0.0):
        if not all(d > 0.0 for d in dims):
            raise SpecValidationError(f"gripper dims must be positive, got {dims}")
        if standoff < 0.0:
            raise SpecValidationError("gripper standoff must be >= 0")
        self.__dict__.update(dims=dims, standoff=standoff)


def _descent(panels, root: int) -> list[int]:
    """The panels reached walking down from ``root``, breadth first over
    child lists, each list ascending by id as ``panels`` is."""
    children: dict[int, list[int]] = {p.id: [] for p in panels}
    for panel in panels:
        if panel.parent is not None:
            children[panel.parent].append(panel.id)
    order = [root]
    for pid in order:
        order.extend(children[pid])
    return order


@dataclass(frozen=True)
class CartonSpec:
    """Validated declarative description of a carton and its workcell."""

    panels: tuple[PanelSpec, ...]
    root_pose: Transform = field(default_factory=Transform.identity)
    environment: tuple[OrientedBox, ...] = ()
    table_plane: bool = True
    gripper: GripperSpec | None = None
    tolerance_angle: float = math.radians(DEFAULT_TOLERANCE_ANGLE_DEG)
    penetration_tolerance: float = DEFAULT_PENETRATION_TOLERANCE_MM
    support_tolerance: float = DEFAULT_SUPPORT_TOLERANCE_MM
    ranking: tuple[str, ...] = DEFAULT_RANKING

    def __post_init__(self):
        object.__setattr__(self, "panels", tuple(sorted(self.panels, key=lambda p: p.id)))
        self.validate()

    def validate(self) -> None:
        if not self.panels:
            raise SpecValidationError("carton must contain at least one panel")
        ids = [p.id for p in self.panels]
        for pid, next_id in zip(ids, ids[1:]):  # ascending, so a repeat is adjacent
            if pid == next_id:
                raise SpecValidationError(f"duplicate panel id {pid}")
        roots = [p for p in self.panels if p.parent is None]
        if len(roots) != 1:
            raise SpecValidationError(
                f"exactly one root panel (parent: null) required, found {len(roots)}"
            )
        by_id = {p.id: p for p in self.panels}
        for panel in self.panels:
            if panel.parent is not None and panel.parent not in by_id:
                raise SpecValidationError(
                    f"panel {panel.id} references unknown parent {panel.parent}"
                )
        # A panel the walk down from the root misses sits on or below a
        # cycle; walking up from the least such panel comes round to it.
        reached = _descent(self.panels, roots[0].id)
        if len(reached) < len(ids):
            node, trail = min(set(ids) - set(reached)), set()
            while node not in trail:
                trail.add(node)
                node = by_id[node].parent
            raise SpecValidationError(f"cycle in parent links involving panel {node}")
        if not math.radians(MIN_TOLERANCE_ANGLE_DEG) <= self.tolerance_angle < math.inf:
            raise SpecValidationError(
                f"tolerance_angle_deg must be finite and at least {MIN_TOLERANCE_ANGLE_DEG}, "
                f"got {_degrees(self.tolerance_angle)!r}"
            )
        if not 0.0 <= self.penetration_tolerance < math.inf:
            raise SpecValidationError("penetration_tolerance must be >= 0 and finite")
        if not 0.0 <= self.support_tolerance < math.inf:
            raise SpecValidationError("support_tolerance must be >= 0 and finite")
        if not self.ranking:
            raise SpecValidationError("ranking must list at least one criterion")
        if len(set(self.ranking)) != len(self.ranking):
            raise SpecValidationError("ranking criteria must not repeat")
        for crit in self.ranking:
            if crit not in RANKING_CRITERIA:
                raise SpecValidationError(
                    f"unknown ranking criterion {crit!r}, expected one of {RANKING_CRITERIA}"
                )

    @property
    def root(self) -> PanelSpec:
        return next(p for p in self.panels if p.parent is None)

    def panel(self, panel_id: int) -> PanelSpec:
        for p in self.panels:
            if p.id == panel_id:
                return p
        raise KeyError(f"no panel with id {panel_id}")


# The crease is a mount M's x axis: K·M = M·X, exactly, for K and X the cross-product matrices.
_CROSS_X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
_UP = np.array([0.0, 0.0, 1.0])


def _mount_rotations(axes: np.ndarray, panel_ids) -> np.ndarray:
    """Child-frame axes (columns) in the parent frame at joint angle zero,
    for each unit crease direction (row) of ``axes``."""
    z_axes = _UP - axes[:, 2:3] * axes
    # |z| as np.linalg.norm forms it, a dot product then a square root
    norms = np.sqrt((z_axes[:, None, :] @ z_axes[:, :, None])[:, 0, 0])
    for panel_id, norm in zip(panel_ids, norms.tolist()):
        if norm < 1e-9:
            raise SpecValidationError(
                f"panel {panel_id}: crease_dir may not be parallel to the parent normal"
            )
    z_axes /= norms[:, None]
    # z × x, term by term as np.cross forms it
    y_axes = z_axes[:, [1, 2, 0]] * axes[:, [2, 0, 1]] - z_axes[:, [2, 0, 1]] * axes[:, [1, 2, 0]]
    return np.stack((axes, y_axes, z_axes), axis=2)


def _turned(axes: np.ndarray, mounts: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """``rotation_matrix(axes[i], angles[i, a]) @ mounts[i]`` for every i and a,
    in one stacked pass of the same operations."""
    kx, ky, kz = axes.T
    cross = np.zeros((len(axes), 3, 3))
    cross[:, 0, 1], cross[:, 0, 2] = -kz, ky
    cross[:, 1, 0], cross[:, 1, 2] = kz, -kx
    cross[:, 2, 0], cross[:, 2, 1] = -ky, kx
    sin, cos = np.sin(angles)[..., None, None], np.cos(angles)[..., None, None]
    rotations = np.eye(3) + sin * cross[:, None] + (1.0 - cos) * (cross @ cross)[:, None]
    return rotations @ mounts[:, None]


def weight_rows(angles) -> np.ndarray:
    """A row [1, sin θ, 1 − cos θ] per angle θ: the weights of a joint's
    three crease terms (``KinematicTree.crease_terms``) at θ."""
    angles = np.asarray(angles, dtype=float)
    return np.column_stack((np.ones(len(angles)), np.sin(angles), 1.0 - np.cos(angles)))


def _arc_rows_of(sin_a, cos_a, sin_b, cos_b) -> list[tuple[float, float, float]]:
    """The rows that bound a term P0 + P1 sin θ + P2 (1 − cos θ) over an arc
    with ends θa <= θb, each applied to (P0, P1, P2): the term's values at
    θa and at θb, its mean P0 + P2, its slope at θa and its slope at θb
    negated, each followed by its negation, then P1 and P2. The term's
    peak, the mean plus hypot(P1, P2), lies on the arc when both slope rows
    are at least 0, or for an arc over 180° either of them; so, applied to
    the negated term, does its trough."""
    rows = [
        (1.0, sin_a, 1.0 - cos_a),
        (1.0, sin_b, 1.0 - cos_b),
        (1.0, 0.0, 1.0),
        (0.0, cos_a, sin_a),
        (0.0, -cos_b, -sin_b),
    ]
    signed = [row for p0, p1, p2 in rows for row in ((p0, p1, p2), (-p0, -p1, -p2))]
    return [*signed, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


# ``_arc_rows_of`` is affine in its arguments, and exactly so in floats (up
# to the sign of a zero): its rows are (sin θa, cos θa, sin θb, cos θb) @
# _ARC_MAP + _ARC_BASE.
_ARC_BASE = np.array(_arc_rows_of(0.0, 0.0, 0.0, 0.0))
_ARC_MAP = np.array([_arc_rows_of(*unit) for unit in np.eye(4).tolist()]) - _ARC_BASE


def _arc_rows(panels) -> np.ndarray:
    """Per foldable panel, ``_arc_rows_of`` its arc, from one stacked pass."""
    trig = []
    for panel in panels:
        a, b = sorted((panel.theta_init, panel.theta_final))
        trig.append((math.sin(a), math.cos(a), math.sin(b), math.cos(b)))
    rows = (np.array(trig) @ _ARC_MAP.reshape(4, -1)).reshape(-1, *_ARC_BASE.shape) + _ARC_BASE
    rows.setflags(write=False)
    return rows


class PanelRecord(NamedTuple):
    """One panel placed in one fold state, or a fixture box: the world
    rotation of its frame (the frame's axes as columns), the frame's
    origin, the slab's center and half extents, all write-protected arrays,
    and the world-aligned bounds (lo, hi) of the slab's 8 corners as
    floats."""

    rotation: np.ndarray
    origin: np.ndarray
    center: np.ndarray
    half_extents: np.ndarray
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]


class KinematicTree(Frozen):
    """A validated carton spec plus everything planning derives from it once.

    ``spec`` supplies every tolerance, the table, the gripper and the
    ranking. ``fixtures`` places each fixture box of ``spec.environment``
    as a ``PanelRecord`` whose origin is the box's center, with the bounds
    of ``OrientedBox.corners``.

    A fold state is an int bit mask over ``foldable_ids``: ``bits[j]`` is
    joint j's bit, ``mask`` and ``joints`` convert between masks and joint
    ids. ``ancestry[p]`` masks the foldable joints whose angles place panel
    p (its foldable ancestors and p itself). ``subtrees`` and
    ``subtree_ancestry`` are keyed by foldable joints only: ``subtrees[j]``
    lists, in topological order, the panels that folding joint j moves,
    those whose ancestry holds ``bits[j]``, and ``subtree_ancestry[j]`` is
    the union of their ancestries. ``subtree_ids`` finds any panel's subtree.

    ``mounts[p]`` holds non-root panel p's crease (anchor, unit direction,
    mount M): M holds the panel's frame axes in its parent's frame at
    angle zero. ``crease_terms[j]`` holds foldable joint j's (M, KM, K²M),
    for crease cross-product matrix K, whose sum weighted by a row
    [1, sin θ, 1 − cos θ] (``weight_rows``) is M turned by θ (Rodrigues),
    then the rows that bound such a sum over the joint's whole arc
    (``_arc_rows_of``) and whether the arc spans more than 180°.
    ``turns[p]`` holds M turned by theta_init and by theta_final, each the
    product ``rotation_matrix(axis, θ) @ M`` that
    ``reference.forward_kinematics`` forms, computed for all panels in one pass.
    ``slabs[p]`` holds panel p's slab in its own frame: its center, the
    offsets of its 8 corners from the center (``CORNER_SIGNS`` order) and
    its half extents.

    A panel's placement depends only on the folded joints in its ancestry,
    so ``panel_state`` builds its ``PanelRecord`` once per (panel, mask &
    ancestry) and keeps it; ``measures`` assembles fold states from those
    records, and so do the swept check, ``--explain``, ``--dump-states``
    and the grasp advisory. ``sweeps`` and ``pair_verdicts`` hold the swept
    collision check's own memos (see ``collision``). Every memo is a
    function of the immutable spec and its key, so sharing it never
    changes a verdict or a score, and it lives and dies with the tree.
    Trees compare and hash by identity, since they hold the memos and dicts
    of arrays; compare their specs to compare content.
    """

    spec: CartonSpec
    ids: tuple[int, ...]
    topo_order: tuple[int, ...]
    foldable_ids: tuple[int, ...]
    bits: dict[int, int]
    panels_by_id: dict[int, PanelSpec]
    mounts: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    crease_terms: dict[int, tuple[np.ndarray, np.ndarray, bool]]
    turns: dict[int, np.ndarray]
    slabs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    subtrees: dict[int, tuple[int, ...]]
    ancestry: dict[int, int]
    subtree_ancestry: dict[int, int]
    fixtures: tuple[PanelRecord, ...]

    def __init__(
        self, spec, ids, topo_order, foldable_ids, bits, panels_by_id, mounts, crease_terms,
        turns, slabs, subtrees, ancestry, subtree_ancestry, fixtures,
    ):
        self.__dict__.update(
            spec=spec, ids=ids, topo_order=topo_order, foldable_ids=foldable_ids, bits=bits,
            panels_by_id=panels_by_id, mounts=mounts, crease_terms=crease_terms, turns=turns,
            slabs=slabs, subtrees=subtrees, ancestry=ancestry, subtree_ancestry=subtree_ancestry,
            fixtures=fixtures,
            # The memos, empty until used and left out of the repr.
            panel_records={}, sweeps={}, pair_verdicts={},
        )

    def panel(self, panel_id: int) -> PanelSpec:
        return self.panels_by_id[panel_id]

    def subtree_ids(self, panel_id: int) -> tuple[int, ...]:
        """The panel and all its descendants, in topological order, found in
        one pass over that order (``subtrees`` holds only the joints')."""
        subtree = {self.panel(panel_id).id: None}  # an ordered set
        for pid in self.topo_order:
            if self.panels_by_id[pid].parent in subtree:
                subtree[pid] = None
        return tuple(subtree)

    def mask(self, joints) -> int:
        """The fold state with the given foldable joints folded."""
        mask = 0
        for joint in joints:
            bit = self.bits.get(joint)
            if bit is None:
                raise ValueError(f"joint {joint} is not a foldable joint")
            mask |= bit
        return mask

    def joints(self, mask: int) -> tuple[int, ...]:
        """The folded joints of a fold state, ascending."""
        return tuple(j for j in self.foldable_ids if mask & self.bits[j])

    def panel_state(self, panel_id: int, mask: int) -> PanelRecord:
        """One panel placed in fold state ``mask``, once per ancestry subset:
        after its unplaced ancestors, highest first, in one loop, so a chain
        of any length places without recursion."""
        records = self.panel_records
        key = (panel_id, self.ancestry[panel_id] & mask)
        record = records.get(key)
        if record is None:
            chain = [(panel_id, key)]
            parent = self.panels_by_id[panel_id].parent
            while parent is not None:
                key = (parent, self.ancestry[parent] & mask)
                record = records.get(key)
                if record is not None:
                    break
                chain.append((parent, key))
                parent = self.panels_by_id[parent].parent
            for pid, key in reversed(chain):
                record = records[key] = self._place(pid, mask, record)
        return record

    def _place(self, panel_id: int, mask: int, parent: PanelRecord | None) -> PanelRecord:
        """The record ``panel_state`` memoises, given its parent's (None for the root).

        The frame is the parent's composed with the panel's turned mount
        (``turns``) at its anchor, and the center and corners are the
        slab's (``slabs``) mapped through it, each by the operations
        ``reference.forward_kinematics`` uses on its transforms and boxes,
        so every value is the one FK gives for the same fold state, bit for
        bit. The arrays are all computed here, so they are write-protected
        in place rather than copied.
        """
        if parent is None:
            rotation, origin = self.spec.root_pose.rotation, self.spec.root_pose.translation
        else:
            turned = self.turns[panel_id][1 if mask & self.bits.get(panel_id, 0) else 0]
            rotation = parent.rotation @ turned
            origin = parent.rotation @ self.mounts[panel_id][0] + parent.origin
            rotation.setflags(write=False)
            origin.setflags(write=False)
        local_center, offsets, half_extents = self.slabs[panel_id]
        center = local_center @ rotation.T + origin
        center.setflags(write=False)
        corners = offsets @ rotation.T + center
        return PanelRecord(
            rotation, origin, center, half_extents,
            tuple(corners.min(axis=0).tolist()), tuple(corners.max(axis=0).tolist()),
        )

    def measures(self, masks) -> tuple[np.ndarray, np.ndarray]:
        """Volume and largest extent of the bounding box of each fold state in ``masks``.

        A box is the min/max union of the panels' corner bounds, taken over
        all states one panel at a time. Min and max are exact and extents
        multiply in ``np.prod``'s order, so both equal ``Aabb.volume`` and
        ``Aabb.max_extent`` of the box around every FK corner, bit for bit.

        A panel's pose depends on ``mask & ancestry``, which is its
        parent's key plus the panel's own bit, so the states are grouped by
        key without a sort: a panel's group index is its parent's index · 2
        plus its own bit, renumbered through a table of the values present.
        """
        # Masks of 63 or more joints overflow int64; numpy then keeps Python ints.
        masks = np.asarray(masks, dtype=np.int64 if len(self.foldable_ids) < 63 else object)
        lo = np.full((len(masks), 3), np.inf)
        hi = np.full((len(masks), 3), -np.inf)
        # (group index of every state, key of every group) of each panel
        # with children still to measure, and how many
        groups: dict[int, tuple[np.ndarray, list[int]]] = {}
        waiting = Counter(self.panels_by_id[pid].parent for pid in self.ids)
        for pid in self.topo_order:
            parent = self.panels_by_id[pid].parent
            if parent is None:
                index, keys = np.zeros(len(masks), dtype=np.intp), [0]
            else:
                index, keys = groups[parent]
                bit = self.bits.get(pid, 0)
                if bit:
                    code = 2 * index + ((masks & bit) != 0)
                    present = np.zeros(2 * len(keys), dtype=bool)
                    present[code] = True
                    renumber = np.cumsum(present) - 1
                    index = renumber[code]
                    keys = [key | b * bit for key in keys for b in (0, 1)]
                    keys = [key for key, p in zip(keys, present.tolist()) if p]
                waiting[parent] -= 1
                if not waiting[parent]:
                    del groups[parent]
            if waiting[pid]:
                groups[pid] = index, keys
            records = [self.panel_state(pid, key) for key in keys]
            np.minimum(lo, np.reshape([r.lo for r in records], (-1, 3)).take(index, axis=0), out=lo)
            np.maximum(hi, np.reshape([r.hi for r in records], (-1, 3)).take(index, axis=0), out=hi)
        dx, dy, dz = (hi - lo).T
        return dx * dy * dz, np.maximum(np.maximum(dx, dy), dz)


def build_tree(spec: CartonSpec) -> KinematicTree:
    """Derive the topological order, mounts, crease terms, slabs, the
    joints' subtrees and fixture records, each in one pass over the panels."""
    ids = tuple(p.id for p in spec.panels)
    by_id = {p.id: p for p in spec.panels}
    topo = _descent(spec.panels, spec.root.id)

    # Every non-root panel's crease at once. PanelSpec has checked that each
    # direction is a unit vector; it is divided by its hypot, as measured there.
    movers = [p for p in spec.panels if p.parent is not None]
    mounts, crease_terms, turns = {}, {}, {}
    if movers:
        axes = np.array([p.crease_dir for p in movers], dtype=float)
        axes /= np.array([math.hypot(*axis) for axis in axes.tolist()])[:, None]
        anchors = np.array([p.crease_anchor for p in movers], dtype=float)
        rotations = _mount_rotations(axes, [p.id for p in movers])
        turned = _turned(axes, rotations, np.array([(p.theta_init, p.theta_final) for p in movers]))
        x_terms = rotations @ _CROSS_X
        terms = np.stack((rotations, x_terms, x_terms @ _CROSS_X), axis=1)
        for array in (axes, anchors, rotations, turned, terms):
            array.setflags(write=False)
        for i, panel in enumerate(movers):
            mounts[panel.id] = (anchors[i], axes[i], rotations[i])
            turns[panel.id] = turned[i]
        moving = [i for i, p in enumerate(movers) if p.foldable]
        if moving:
            for i, rows in zip(moving, _arc_rows([movers[i] for i in moving])):
                wide = abs(movers[i].theta_final - movers[i].theta_init) > math.pi
                crease_terms[movers[i].id] = terms[i], rows, wide

    # Every panel's slab in its own frame: its center, its corner offsets
    # from the center and its half extents.
    halves = np.array([p.dims for p in spec.panels], dtype=float)[:, [1, 0, 2]] / 2.0
    centers = halves * [1.0, 1.0, 0.0]
    offsets = CORNER_SIGNS * halves[:, None]
    for array in (halves, centers, offsets):
        array.setflags(write=False)
    slabs = {p.id: (centers[i], offsets[i], halves[i]) for i, p in enumerate(spec.panels)}

    foldable = tuple(p.id for p in spec.panels if p.foldable)
    bits = {joint: 1 << i for i, joint in enumerate(foldable)}
    # A panel joins, in topological order, the subtree of each joint in its ancestry.
    joint_of = {bit: joint for joint, bit in bits.items()}
    subtrees: dict[int, list[int]] = {joint: [] for joint in foldable}
    subtree_ancestry = dict.fromkeys(foldable, 0)
    ancestry: dict[int, int] = {}
    for pid in topo:
        parent = by_id[pid].parent
        ancestry[pid] = rest = (0 if parent is None else ancestry[parent]) | bits.get(pid, 0)
        while rest:
            joint = joint_of[rest & -rest]
            subtrees[joint].append(pid)
            subtree_ancestry[joint] |= ancestry[pid]
            rest &= rest - 1
    return KinematicTree(
        spec=spec,
        ids=ids,
        topo_order=tuple(topo),
        foldable_ids=foldable,
        bits=bits,
        panels_by_id=by_id,
        mounts=mounts,
        crease_terms=crease_terms,
        turns=turns,
        slabs=slabs,
        subtrees={joint: tuple(members) for joint, members in subtrees.items()},
        ancestry=ancestry,
        subtree_ancestry=subtree_ancestry,
        fixtures=tuple(
            PanelRecord(
                box.pose.rotation, box.center, box.center, box.half_extents,
                tuple(corners.min(axis=0).tolist()), tuple(corners.max(axis=0).tolist()),
            )
            for box in spec.environment
            for corners in (box.corners(),)
        ),
    )


# ---------------------------------------------------------------------------
# File format


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SpecValidationError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _number(value, what: str, bound: float = math.inf) -> float:
    """A finite real number from spec data within [-bound, bound]; anything
    else names ``what``."""
    if isinstance(value, bool):
        raise SpecValidationError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond every float
        number = -math.inf if value < 0 else math.inf
    except (TypeError, ValueError):
        raise SpecValidationError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise SpecValidationError(f"{what} must be finite, got {value!r}")
    if abs(number) > bound:
        raise SpecValidationError(f"{what} must lie within [-{bound:g}, {bound:g}], got {number!r}")
    return number


def _scalar(
    mapping: dict, key: str, where: str, default: float | None = None, bound: float = math.inf
) -> float:
    if key not in mapping:
        if default is None:
            raise SpecValidationError(f"{where}: missing required key {key!r}")
        return float(default)
    return _number(mapping[key], f"{where}: {key}", bound)


def _integer(mapping: dict, key: str, where: str) -> int:
    """A panel id from spec data, exact: an int or integer text as written,
    or a float with no fraction, at most MAX_PANEL_ID."""
    value = _require(mapping, key, where)
    number = value if type(value) is int else None
    if type(value) is str:
        try:
            number = int(value)
        except ValueError:
            pass
    if number is None:
        real = _number(value, f"{where}: {key}")
        if not real.is_integer():
            raise SpecValidationError(f"{where}: {key} must be an integer, got {value!r}")
        number = int(real)
    if number > MAX_PANEL_ID:
        raise SpecValidationError(f"{where}: {key} must be at most 2**63 - 1, got {value!r}")
    return number


def _vec(
    mapping: dict, key: str, where: str, default=None, bound: float = math.inf
) -> tuple[float, float, float]:
    if key not in mapping:
        if default is None:
            raise SpecValidationError(f"{where}: missing required key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SpecValidationError(f"{where}: {key} must be a 3-element list")
    return tuple([_number(v, f"{where}: {key}", bound) for v in value])


def _section(data: dict, key: str) -> dict:
    value = data.get(key) or {}
    if not isinstance(value, dict):
        raise SpecValidationError(f"{key} must be a mapping")
    return value


def _rpy_matrix(rpy_deg) -> np.ndarray:
    roll, pitch, yaw = (math.radians(v) for v in rpy_deg)
    rx = rotation_matrix(np.array([1.0, 0.0, 0.0]), roll)
    ry = rotation_matrix(np.array([0.0, 1.0, 0.0]), pitch)
    rz = rotation_matrix(np.array([0.0, 0.0, 1.0]), yaw)
    return rz @ ry @ rx


def _pose(rpy_deg, translation) -> Transform:
    """The pose turned by ``rpy_deg`` and moved by ``translation``. With
    every angle zero the turn is exactly the identity, so it is built
    unchecked, without the three Rodrigues products."""
    if not any(rpy_deg):
        return Transform._of(np.eye(3), translation)
    return Transform(_rpy_matrix(rpy_deg), translation)


def _panel_from_mapping(entry: dict) -> PanelSpec:
    if not isinstance(entry, dict):
        raise SpecValidationError("each panel entry must be a mapping")
    pid = _integer(entry, "id", f"panel {_require(entry, 'id', 'panel')!r}")
    where = f"panel {pid}"
    parent = None if entry.get("parent") is None else _integer(entry, "parent", where)
    dims = _vec(entry, "dims_mm", where, bound=MAX_LENGTH_MM)
    kwargs = {}
    if parent is not None:
        kwargs["crease_anchor"] = _vec(entry, "crease_anchor_mm", where, bound=MAX_LENGTH_MM)
        kwargs["crease_dir"] = _vec(entry, "crease_dir", where)
        kwargs["theta_init"] = math.radians(_scalar(entry, "theta_init_deg", where))
        kwargs["theta_final"] = math.radians(_scalar(entry, "theta_final_deg", where))
    elif "theta_init_deg" in entry or "theta_final_deg" in entry:
        kwargs["theta_init"] = math.radians(_scalar(entry, "theta_init_deg", where, 0.0))
        kwargs["theta_final"] = math.radians(_scalar(entry, "theta_final_deg", where, 0.0))
    return PanelSpec(
        id=pid,
        parent=parent,
        dims=dims,
        name=str(entry.get("name", "")),
        foldable_flag=entry.get("foldable"),
        **kwargs,
    )


def _environment_from_mapping(entries) -> tuple[tuple[OrientedBox, ...], bool]:
    boxes: list[OrientedBox] = []
    table = False
    if entries is None:
        return (), False
    if not isinstance(entries, list):
        raise SpecValidationError("environment must be a list of obstacle entries")
    for i, entry in enumerate(entries):
        where = f"environment[{i}]"
        if not isinstance(entry, dict):
            raise SpecValidationError(f"{where}: must be a mapping")
        half_space = entry.get("half_space", False)
        if type(half_space) is not bool:
            raise SpecValidationError(f"{where}: half_space must be true or false, got {half_space!r}")
        if half_space:
            table = True
            continue
        center = _vec(entry, "center_mm", where, bound=MAX_LENGTH_MM)
        dims = _vec(entry, "dims_mm", where, bound=MAX_LENGTH_MM)
        if not all(d > 0.0 for d in dims):
            raise SpecValidationError(f"{where}: dims_mm must be positive, got {list(dims)}")
        pose = _pose(_vec(entry, "rpy_deg", where, (0.0, 0.0, 0.0), MAX_RPY_DEG), center)
        boxes.append(OrientedBox(pose, np.asarray(dims, dtype=float) / 2.0))
    return tuple(boxes), table


def spec_from_mapping(data: dict) -> CartonSpec:
    """Build a validated CartonSpec from parsed file data."""
    if not isinstance(data, dict):
        raise SpecValidationError("carton spec must be a mapping at the top level")
    raw_panels = _require(data, "panels", "spec")
    if not isinstance(raw_panels, list) or not raw_panels:
        raise SpecValidationError("panels must be a non-empty list")
    panels = tuple(_panel_from_mapping(entry) for entry in raw_panels)

    pose_map = _section(data, "root_pose")
    root_pose = _pose(
        _vec(pose_map, "rpy_deg", "root_pose", (0.0, 0.0, 0.0), MAX_RPY_DEG),
        _vec(pose_map, "translation_mm", "root_pose", (0.0, 0.0, 0.0), MAX_LENGTH_MM),
    )

    environment, table = _environment_from_mapping(data.get("environment"))

    gripper = None
    if data.get("gripper") is not None:
        gmap = _section(data, "gripper")
        gripper = GripperSpec(
            dims=_vec(gmap, "dims_mm", "gripper", bound=MAX_LENGTH_MM),
            standoff=_scalar(gmap, "standoff_mm", "gripper", 0.0, MAX_LENGTH_MM),
        )

    planner = _section(data, "planner")
    ranking = data.get("ranking")
    if ranking is None:
        ranking = list(DEFAULT_RANKING)
    if not isinstance(ranking, list):
        raise SpecValidationError("ranking must be a list of criteria")

    return CartonSpec(
        panels=panels,
        root_pose=root_pose,
        environment=environment,
        table_plane=table,
        gripper=gripper,
        tolerance_angle=math.radians(
            _scalar(planner, "tolerance_angle_deg", "planner", DEFAULT_TOLERANCE_ANGLE_DEG)
        ),
        penetration_tolerance=_scalar(
            planner, "penetration_tolerance_mm", "planner", DEFAULT_PENETRATION_TOLERANCE_MM
        ),
        support_tolerance=_scalar(
            planner, "support_tolerance_mm", "planner", DEFAULT_SUPPORT_TOLERANCE_MM
        ),
        ranking=tuple(str(c) for c in ranking),
    )


# libyaml's loader when PyYAML was built with it: its scanner, parser and
# composer run in C, about eight times faster on the shipped specs.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _SpecLoader(_SAFE_LOADER):
    """The safe loader, refusing a key written twice in one mapping and an
    integer too long to convert. A written key still overrides one that a
    merge key (``<<``) brings in."""

    def construct_mapping(self, node, deep=False):
        written = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)  # merges, then builds every key
        if len(mapping) < len(node.value):  # some key repeats, written or merged
            seen = set()
            for key_node in written:
                key = self.construct_object(key_node)
                if key in seen:
                    raise SpecValidationError(
                        f"duplicate key {key!r} on line {key_node.start_mark.line + 1}"
                    )
                seen.add(key)
        return mapping

    def construct_yaml_int(self, node):
        try:
            return super().construct_yaml_int(node)
        except ValueError:  # int() refuses a text of more than sys.get_int_max_str_digits() digits
            raise SpecValidationError(
                f"integer on line {node.start_mark.line + 1} has too many digits to read"
            ) from None


_SpecLoader.add_constructor("tag:yaml.org,2002:int", _SpecLoader.construct_yaml_int)


# Deepest nesting of collections accepted in a spec document. PyYAML's
# libyaml binding composes a document by recursion in C, so a deep enough
# one overflows the stack and kills the process. A document of n
# characters nests at most n levels, so only longer ones are scanned.
MAX_NESTING = 10_000


def _check_nesting(document: str) -> None:
    """Reject a document nested deeper than MAX_NESTING, counted over the
    parser's events, which it emits without recursion."""
    depth = 0
    for event in yaml.parse(document, Loader=_SAFE_LOADER):
        depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
        if depth > MAX_NESTING:
            raise SpecValidationError(f"carton spec nests too deeply: more than {MAX_NESTING} levels")


def parse_spec(document: str) -> CartonSpec:
    """Parse and validate a carton-spec document (YAML text)."""
    try:
        if len(document) > MAX_NESTING:
            _check_nesting(document)
        return spec_from_mapping(yaml.load(document, Loader=_SpecLoader))
    except yaml.YAMLError as exc:
        raise SpecValidationError(f"carton spec is not valid YAML: {exc}") from exc
    except RecursionError:
        # from PyYAML's merge-key flattening, or a message's repr of a nested value
        raise SpecValidationError("carton spec nests too deeply to be read") from None


def load_spec(path) -> CartonSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecValidationError(f"spec is not UTF-8 text: {exc}") from None
    return parse_spec(text)


def _near(value: float) -> list[float]:
    """``value`` and the floats within four ulps of it, the shortest repr
    first, the nearer first among equally short ones."""
    below = above = value
    near = [value]
    for _ in range(4):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        near += (above, below)
    return sorted(near, key=lambda c: len(repr(c)))


def _degrees(angle: float) -> float:
    """The shortest float within four ulps of ``math.degrees(angle)`` whose
    ``math.radians`` is ``angle``, the nearest of those on a tie: the plain
    pair misses by an ulp for one degree value in twenty, and a spec's 500
    reads back as 500.0, not 500.00000000000006."""
    degrees = math.degrees(angle)
    return next((c for c in _near(degrees) if math.radians(c) == angle), degrees)


def __getattr__(name: str):
    # The benchmark's tracer (bench/tracing.py) looks forward_kinematics up
    # on this module, the one its span names. The hook goes when the tracer
    # reads the run's own counters instead (ROADMAP item 2).
    if name == "forward_kinematics":
        from .reference import forward_kinematics

        return forward_kinematics
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
