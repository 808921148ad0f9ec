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
within [-180, 180] degrees and the tolerance angle is at least
``MIN_TOLERANCE_ANGLE_DEG``, which bounds the samples of every sweep. A
missing or null ``ranking`` takes ``DEFAULT_RANKING``. Obstacle boxes
have positive dimensions.

``build_tree`` turns a validated spec into the ``KinematicTree`` that every
planning function takes as its one input, with every sweep's sample
angles (``sweep_angles``) read once. A fold state is an int bit mask
over the tree's foldable joints, and the tree places one panel in one fold
state at a time (``KinematicTree.panel_state``), memoised per panel and
the folded joints that place it. Bounding-box measures, aerial flags and
the poses of traces and dumps are all assembled from those records.
``forward_kinematics`` places every panel of any joint vector at once and
gives the same poses, bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import yaml

from .geometry import OrientedBox, Transform, pack_boxes, rotation_matrix

ANGLE_SLACK = 1e-9

DEFAULT_TOLERANCE_ANGLE_DEG = 5.0
DEFAULT_PENETRATION_TOLERANCE_MM = 0.1
DEFAULT_SUPPORT_TOLERANCE_MM = 1.0
DEFAULT_RANKING = ("aerial", "maxdim")

RANKING_CRITERIA = ("aerial", "maxdim", "volume")

# Finest sweep step accepted: 9001 samples for a 90 degree fold.
MIN_TOLERANCE_ANGLE_DEG = 0.01


def sweep_angles(start: float, end: float, step: float) -> np.ndarray:
    """Sample angles from start to end inclusive, spaced by at most step: both
    endpoints whatever the divisibility, so two or more for a non-degenerate arc."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    span = end - start
    if span == 0.0:
        return np.array([start])
    n_steps = int(np.ceil(abs(span) / step - 1e-12))
    interior = start + np.sign(span) * step * np.arange(n_steps)
    return np.append(interior, end)


class SpecValidationError(ValueError):
    """A carton description violates the format or a structural invariant."""


def _unit(vec, what: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (3,):
        raise SpecValidationError(f"{what} must be a 3-vector")
    norm = math.hypot(*arr.tolist())  # no overflow: |v| of a huge v stays finite
    if abs(norm - 1.0) > 1e-6:
        raise SpecValidationError(f"{what} must be a unit vector, |v| = {norm:.9g}")
    return arr / norm


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
            _unit(self.crease_dir, f"panel {self.id} crease_dir")
        for key, value in (
            ("theta_init_deg", self.theta_init),
            ("theta_final_deg", self.theta_final),
        ):
            if not -math.pi <= value <= math.pi:
                raise SpecValidationError(
                    f"panel {self.id}: {key} must lie within [-180, 180], "
                    f"got {math.degrees(value)!r}"
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


@dataclass(frozen=True)
class GripperSpec:
    """Suction-tool footprint used for grasp-side advisories."""

    dims: tuple[float, float, float]
    standoff: float = 0.0

    def __post_init__(self):
        if not all(d > 0.0 for d in self.dims):
            raise SpecValidationError(f"gripper dims must be positive, got {self.dims}")
        if self.standoff < 0.0:
            raise SpecValidationError("gripper standoff must be >= 0")


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
        seen: set[int] = set()
        for pid in ids:
            if pid in seen:
                raise SpecValidationError(f"duplicate panel id {pid}")
            seen.add(pid)
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
        # Walk to the root from every panel; revisiting a panel means a cycle.
        for panel in self.panels:
            trail: set[int] = set()
            node = panel
            while node.parent is not None:
                if node.id in trail:
                    raise SpecValidationError(
                        f"cycle in parent links involving panel {node.id}"
                    )
                trail.add(node.id)
                node = by_id[node.parent]
        if not math.radians(MIN_TOLERANCE_ANGLE_DEG) <= self.tolerance_angle < math.inf:
            raise SpecValidationError(
                f"tolerance_angle_deg must be finite and at least {MIN_TOLERANCE_ANGLE_DEG}, "
                f"got {math.degrees(self.tolerance_angle)!r}"
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


def _mount_rotation(crease_dir: np.ndarray, panel_id: int) -> np.ndarray:
    """Child-frame axes (columns) in the parent frame at joint angle zero."""
    x_axis = crease_dir
    z_axis = np.array([0.0, 0.0, 1.0]) - x_axis[2] * x_axis
    norm = float(np.linalg.norm(z_axis))
    if norm < 1e-9:
        raise SpecValidationError(
            f"panel {panel_id}: crease_dir may not be parallel to the parent normal"
        )
    z_axis = z_axis / norm
    (x0, x1, x2), (z0, z1, z2) = x_axis.tolist(), z_axis.tolist()
    # z × x, term by term as np.cross forms it, at a fraction of its cost
    y_axis = np.array([z1 * x2 - z2 * x1, z2 * x0 - z0 * x2, z0 * x1 - z1 * x0])
    return np.column_stack([x_axis, y_axis, z_axis])


@dataclass(frozen=True, eq=False)
class KinematicTree:
    """A validated carton spec plus everything planning derives from it once.

    ``spec`` supplies every tolerance, the table, the gripper and the
    ranking. ``obstacles`` packs the fixture boxes as (centers, rotations,
    half_extents), or is None without fixtures. ``subtrees[j]`` lists the
    panels that folding joint j moves.

    A fold state is an int bit mask over ``foldable_ids``: ``bits[j]`` is
    joint j's bit, ``mask`` and ``joints`` convert between masks and joint
    ids. ``ancestry[p]`` masks the foldable joints whose angles place panel
    p (its foldable ancestors and p itself), and ``subtree_ancestry[p]``
    their union over p's subtree.

    ``crease_terms[j]`` holds foldable joint j's (M, KM, K²M), for mount M and
    crease cross-product matrix K, and per sample angle θ of its sweep a row
    [1, sin θ, 1 − cos θ], whose sum of the three is M turned by θ (Rodrigues).

    A panel's pose depends only on the folded joints in its ancestry, so
    ``panel_state`` builds it once per (panel, mask & ancestry) and keeps
    it; ``measures`` assembles fold states from those records, and so do
    the swept check, ``--explain``, ``--dump-states`` and the grasp
    advisory. ``sweeps`` and ``pair_verdicts`` hold the swept
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
    crease_terms: dict[int, tuple[np.ndarray, np.ndarray]]
    subtrees: dict[int, tuple[int, ...]]
    ancestry: dict[int, int]
    subtree_ancestry: dict[int, int]
    obstacles: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    panel_records: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    sweeps: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    pair_verdicts: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def panel(self, panel_id: int) -> PanelSpec:
        return self.panels_by_id[panel_id]

    def subtree_ids(self, panel_id: int) -> tuple[int, ...]:
        """The panel and all its descendants, in topological order."""
        return self.subtrees[panel_id]

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

    def panel_state(self, panel_id: int, mask: int) -> "PanelRecord":
        """One panel's pose in fold state ``mask``, built once per ancestry subset.

        The frame is composed from the parent's by ``_child_frame``, as in
        ``forward_kinematics``, so the pose is the one FK gives for the
        same fold state, bit for bit.
        """
        key = (panel_id, self.ancestry[panel_id] & mask)
        record = self.panel_records.get(key)
        if record is None:
            panel = self.panels_by_id[panel_id]
            if panel.parent is None:
                frame = self.spec.root_pose
            else:
                angle = panel.theta_final if mask & self.bits.get(panel_id, 0) else panel.theta_init
                parent_frame = self.panel_state(panel.parent, mask).pose.pose
                frame = _child_frame(self, panel_id, parent_frame, angle)
            pose = panel_pose_from_frame(panel, frame)
            corners = pose.solid.corners()
            record = PanelRecord(
                pose, tuple(corners.min(axis=0).tolist()), tuple(corners.max(axis=0).tolist())
            )
            self.panel_records[key] = record
        return record

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
    """Derive adjacency, topological order, subtrees, mounts, crease terms and obstacles."""
    ids = tuple(p.id for p in spec.panels)
    by_id = {p.id: p for p in spec.panels}
    children: dict[int, list[int]] = {pid: [] for pid in ids}
    for panel in spec.panels:
        if panel.parent is not None:
            children[panel.parent].append(panel.id)
    for pid in ids:
        children[pid].sort()

    topo: list[int] = []
    stack = [spec.root.id]
    while stack:
        node = stack.pop(0)
        topo.append(node)
        stack.extend(children[node])
    if len(topo) != len(ids):
        raise SpecValidationError("panel graph is not a single connected tree")

    mounts, crease_terms = {}, {}
    for panel in spec.panels:
        if panel.parent is None:
            continue
        axis = _unit(panel.crease_dir, f"panel {panel.id} crease_dir")
        anchor = np.asarray(panel.crease_anchor, dtype=float)
        mount = _mount_rotation(axis, panel.id)
        mounts[panel.id] = (anchor, axis, mount)
        if panel.foldable:
            angles = sweep_angles(panel.theta_init, panel.theta_final, spec.tolerance_angle)
            weights = np.column_stack((np.ones(len(angles)), np.sin(angles), 1.0 - np.cos(angles)))
            turned = mount @ _CROSS_X
            crease_terms[panel.id] = np.stack((mount, turned, turned @ _CROSS_X)), weights

    topo_rank = {pid: i for i, pid in enumerate(topo)}
    subtrees = {}
    for pid in ids:
        members = [pid]
        stack = list(children[pid])
        while stack:
            node = stack.pop()
            members.append(node)
            stack.extend(children[node])
        subtrees[pid] = tuple(sorted(members, key=topo_rank.__getitem__))

    foldable = tuple(pid for pid in ids if by_id[pid].foldable)
    bits = {joint: 1 << i for i, joint in enumerate(foldable)}
    ancestry: dict[int, int] = {}
    for pid in topo:
        parent = by_id[pid].parent
        inherited = 0 if parent is None else ancestry[parent]
        ancestry[pid] = inherited | bits.get(pid, 0)
    subtree_ancestry = {}
    for pid, members in subtrees.items():
        subtree_ancestry[pid] = 0
        for member in members:
            subtree_ancestry[pid] |= ancestry[member]
    return KinematicTree(
        spec=spec,
        ids=ids,
        topo_order=tuple(topo),
        foldable_ids=foldable,
        bits=bits,
        panels_by_id=by_id,
        mounts=mounts,
        crease_terms=crease_terms,
        subtrees=subtrees,
        ancestry=ancestry,
        subtree_ancestry=subtree_ancestry,
        obstacles=pack_boxes(spec.environment) if spec.environment else None,
    )


@dataclass(frozen=True)
class JointVector:
    """Joint angle per panel id; the root entry is fixed at zero."""

    angles: dict[int, float]

    def angle(self, panel_id: int) -> float:
        return self.angles[panel_id]

    @classmethod
    def flat(cls, tree: KinematicTree) -> "JointVector":
        return cls({p.id: p.theta_init for p in tree.spec.panels})

    @classmethod
    def from_folded(cls, tree: KinematicTree, folded) -> "JointVector":
        """Binary fold model: folded joints sit at theta_final, the rest at theta_init."""
        folded = set(folded)
        return cls(
            {
                p.id: (p.theta_final if p.id in folded else p.theta_init)
                for p in tree.spec.panels
            }
        )

    def replace(self, panel_id: int, angle: float) -> "JointVector":
        angles = dict(self.angles)
        angles[panel_id] = angle
        return JointVector(angles)


@dataclass(frozen=True)
class PanelPose:
    """World placement of one panel at a given joint vector.

    Poses compare by value, like the transforms and boxes they hold.
    """

    panel_id: int
    pose: Transform
    center: np.ndarray
    solid: OrientedBox

    def __eq__(self, other):
        if not isinstance(other, PanelPose):
            return NotImplemented
        return (
            self.panel_id == other.panel_id
            and self.pose == other.pose
            and np.array_equal(self.center, other.center)
            and self.solid == other.solid
        )

    def __hash__(self):
        # The center follows from the pose and the dims, so it adds nothing.
        return hash((self.panel_id, self.pose, self.solid))


class PanelRecord(NamedTuple):
    """One panel measured at one fold state: its pose and the world-aligned
    bounds (lo, hi) of its 8 corners."""

    pose: PanelPose
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]


def _check_angle(panel: PanelSpec, value: float) -> None:
    lo = min(panel.theta_init, panel.theta_final) - ANGLE_SLACK
    hi = max(panel.theta_init, panel.theta_final) + ANGLE_SLACK
    if not (lo <= value <= hi):
        raise ValueError(
            f"theta for panel {panel.id} out of range: {value!r} not within "
            f"[{panel.theta_init!r}, {panel.theta_final!r}]"
        )


def panel_pose_from_frame(panel: PanelSpec, frame: Transform) -> PanelPose:
    """Panel pose record given the world transform of its local frame."""
    h, w, t = panel.dims
    local_center = np.array([w / 2.0, h / 2.0, 0.0])
    center = frame.apply(local_center)
    solid = OrientedBox(
        Transform._of(frame.rotation, center), np.array([w / 2.0, h / 2.0, t / 2.0])
    )
    return PanelPose(panel_id=panel.id, pose=frame, center=center, solid=solid)


def _child_frame(
    tree: KinematicTree, panel_id: int, parent_frame: Transform, angle: float
) -> Transform:
    """World frame of a panel: its parent's frame composed with the crease
    rotation by ``angle`` about the axis anchored in the parent frame, then
    the panel's zero-angle frame."""
    anchor, axis, mount = tree.mounts[panel_id]
    return parent_frame @ Transform._of(rotation_matrix(axis, angle) @ mount, anchor)


def forward_kinematics(tree: KinematicTree, theta: JointVector) -> list[PanelPose]:
    """Panel poses for a joint vector, ordered by panel id.

    Each child frame is the parent frame composed with the crease rotation:
    rotate by theta about the crease axis anchored in the parent frame, then
    place the child's zero-angle frame.
    """
    spec = tree.spec
    frames: dict[int, Transform] = {}
    for pid in tree.topo_order:
        panel = tree.panels_by_id[pid]
        value = theta.angle(pid)
        _check_angle(panel, value)
        if panel.parent is None:
            frames[pid] = spec.root_pose
            continue
        frames[pid] = _child_frame(tree, pid, frames[panel.parent], value)
    return [panel_pose_from_frame(tree.panels_by_id[pid], frames[pid]) for pid in tree.ids]


# ---------------------------------------------------------------------------
# File format


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SpecValidationError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _number(value, what: str) -> float:
    """A finite real number from spec data; anything else names ``what``."""
    if isinstance(value, bool):
        raise SpecValidationError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise SpecValidationError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise SpecValidationError(f"{what} must be finite, got {value!r}")
    return number


def _scalar(mapping: dict, key: str, where: str, default: float | None = None) -> float:
    if key not in mapping:
        if default is None:
            raise SpecValidationError(f"{where}: missing required key {key!r}")
        return float(default)
    return _number(mapping[key], f"{where}: {key}")


def _integer(mapping: dict, key: str, where: str) -> int:
    number = _number(_require(mapping, key, where), f"{where}: {key}")
    if number != int(number):
        raise SpecValidationError(f"{where}: {key} must be an integer, got {mapping[key]!r}")
    return int(number)


def _vec(mapping: dict, key: str, where: str, default=None) -> np.ndarray:
    if key not in mapping:
        if default is None:
            raise SpecValidationError(f"{where}: missing required key {key!r}")
        return np.asarray(default, dtype=float)
    value = mapping[key]
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SpecValidationError(f"{where}: {key} must be a 3-element list")
    return np.array([_number(v, f"{where}: {key}") for v in value])


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


def _panel_from_mapping(entry: dict) -> PanelSpec:
    if not isinstance(entry, dict):
        raise SpecValidationError("each panel entry must be a mapping")
    pid = _integer(entry, "id", "panel")
    where = f"panel {pid}"
    parent = None if entry.get("parent") is None else _integer(entry, "parent", where)
    dims = _vec(entry, "dims_mm", where)
    kwargs = {}
    if parent is not None:
        kwargs["crease_anchor"] = tuple(_vec(entry, "crease_anchor_mm", where))
        kwargs["crease_dir"] = tuple(_vec(entry, "crease_dir", where))
        kwargs["theta_init"] = math.radians(_scalar(entry, "theta_init_deg", where))
        kwargs["theta_final"] = math.radians(_scalar(entry, "theta_final_deg", where))
    elif "theta_init_deg" in entry or "theta_final_deg" in entry:
        kwargs["theta_init"] = math.radians(_scalar(entry, "theta_init_deg", where, 0.0))
        kwargs["theta_final"] = math.radians(_scalar(entry, "theta_final_deg", where, 0.0))
    return PanelSpec(
        id=pid,
        parent=parent,
        dims=tuple(dims),
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
        if entry.get("half_space"):
            table = True
            continue
        center = _vec(entry, "center_mm", where)
        dims = _vec(entry, "dims_mm", where)
        if not np.all(dims > 0.0):
            raise SpecValidationError(f"{where}: dims_mm must be positive, got {dims.tolist()}")
        rot = _rpy_matrix(_vec(entry, "rpy_deg", where, default=(0.0, 0.0, 0.0)))
        boxes.append(OrientedBox.from_center(center, dims, rot))
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
    root_pose = Transform(
        _rpy_matrix(_vec(pose_map, "rpy_deg", "root_pose", default=(0.0, 0.0, 0.0))),
        _vec(pose_map, "translation_mm", "root_pose", default=(0.0, 0.0, 0.0)),
    )

    environment, table = _environment_from_mapping(data.get("environment"))

    gripper = None
    if data.get("gripper") is not None:
        gmap = _section(data, "gripper")
        gripper = GripperSpec(
            dims=tuple(_vec(gmap, "dims_mm", "gripper")),
            standoff=_scalar(gmap, "standoff_mm", "gripper", 0.0),
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


# libyaml's loader when PyYAML was built with it: the same mappings, about
# eight times faster on the shipped specs.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_spec(document: str) -> CartonSpec:
    """Parse and validate a carton-spec document (YAML text)."""
    try:
        data = yaml.load(document, Loader=_SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise SpecValidationError(f"carton spec is not valid YAML: {exc}") from exc
    return spec_from_mapping(data)


def load_spec(path) -> CartonSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecValidationError(f"spec is not UTF-8 text: {exc}") from None
    return parse_spec(text)


def _rotation_to_rpy_deg(rot: np.ndarray) -> list[float]:
    # Inverse of _rpy_matrix (ZYX convention); gimbal-locked poses pick yaw = 0.
    pitch = -math.asin(max(-1.0, min(1.0, float(rot[2, 0]))))
    if abs(abs(rot[2, 0]) - 1.0) < 1e-12:
        roll = math.atan2(-float(rot[1, 2]), float(rot[1, 1]))
        yaw = 0.0
    else:
        roll = math.atan2(float(rot[2, 1]), float(rot[2, 2]))
        yaw = math.atan2(float(rot[1, 0]), float(rot[0, 0]))
    return [math.degrees(roll), math.degrees(pitch), math.degrees(yaw)]


def _degrees(angle: float) -> float:
    """The float nearest ``math.degrees(angle)``, within four ulps, whose ``math.radians``
    is ``angle``: the plain pair misses by an ulp for one degree value in twenty."""
    degrees = below = above = math.degrees(angle)
    for _ in range(5):
        for candidate in (above, below):
            if math.radians(candidate) == angle:
                return candidate
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
    return degrees


def serialize_spec(spec: CartonSpec) -> str:
    """Write a spec back to the document format; parse(serialize(s)) == s."""
    panels = []
    for p in spec.panels:
        entry: dict = {"id": p.id}
        if p.name:
            entry["name"] = p.name
        entry["parent"] = p.parent
        entry["dims_mm"] = [float(v) for v in p.dims]
        if p.parent is not None:
            entry["crease_anchor_mm"] = [float(v) for v in p.crease_anchor]
            entry["crease_dir"] = [float(v) for v in p.crease_dir]
            entry["theta_init_deg"] = _degrees(p.theta_init)
            entry["theta_final_deg"] = _degrees(p.theta_final)
        if p.foldable_flag is not None:
            entry["foldable"] = p.foldable_flag
        panels.append(entry)

    environment: list[dict] = []
    if spec.table_plane:
        environment.append({"name": "table", "half_space": True})
    for box in spec.environment:
        environment.append(
            {
                "center_mm": [float(v) for v in box.center],
                "dims_mm": [float(v) for v in 2.0 * box.half_extents],
                "rpy_deg": _rotation_to_rpy_deg(box.pose.rotation),
            }
        )

    data: dict = {
        "panels": panels,
        "root_pose": {
            "translation_mm": [float(v) for v in spec.root_pose.translation],
            "rpy_deg": _rotation_to_rpy_deg(spec.root_pose.rotation),
        },
        "environment": environment,
        "planner": {
            "tolerance_angle_deg": _degrees(spec.tolerance_angle),
            "penetration_tolerance_mm": spec.penetration_tolerance,
            "support_tolerance_mm": spec.support_tolerance,
        },
        "ranking": list(spec.ranking),
    }
    if spec.gripper is not None:
        data["gripper"] = {
            "dims_mm": [float(v) for v in spec.gripper.dims],
            "standoff_mm": spec.gripper.standoff,
        }
    return yaml.safe_dump(data, sort_keys=False)
