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

``parse_spec`` reads a document into the plain data that PyYAML's safe
loader gives, without PyYAML's pure-Python constructor: libyaml composes
the node graph (``_compose``), with each distinct implicit tag resolved
once per document, and one walk over the nodes builds the mappings,
sequences and strings itself (``_plain_data``). It hands ints, floats,
bools and nulls to the loader's own constructors, merge keys to its
``flatten_mapping`` and any other tag to its ``construct_object``; an
aliased node is built once, so shared and recursive nodes come out as
PyYAML builds them. Every load starts from the file; no memo outlives it.

``build_tree`` turns a validated spec into the ``KinematicTree`` that every
planning function takes as its one input. It forms every crease's mount,
its turns to the initial and final angles and its sweep's sample rows
(from ``sweep_angles``) in stacked passes, each element by the same
operations as the one-panel forms. A fold state is an int bit mask
over the tree's foldable joints, and the tree places one panel in one fold
state at a time (``KinematicTree.panel_state``), memoised per panel and
the folded joints that place it. Bounding-box measures, aerial flags and
the poses of traces and dumps are all assembled from those records.
``forward_kinematics`` places every panel of any joint vector at once and
gives the same poses, bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import yaml
from yaml.constructor import ConstructorError
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .geometry import Frozen, FrozenValue, OrientedBox, Transform, pack_boxes, rotation_matrix

ANGLE_SLACK = 1e-9

DEFAULT_TOLERANCE_ANGLE_DEG = 5.0
DEFAULT_PENETRATION_TOLERANCE_MM = 0.1
DEFAULT_SUPPORT_TOLERANCE_MM = 1.0
DEFAULT_RANKING = ("aerial", "maxdim")

RANKING_CRITERIA = ("aerial", "maxdim", "volume")

# Finest sweep step accepted: 9001 samples for a 90 degree fold.
MIN_TOLERANCE_ANGLE_DEG = 0.01

# Largest panel id accepted: a plan holds joint ids as int64.
MAX_PANEL_ID = 2**63 - 1


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


def _sweep_weights(panels, step: float) -> list[np.ndarray]:
    """Per foldable panel, a row [1, sin θ, 1 − cos θ] for each of its
    ``sweep_angles(theta_init, theta_final, step)``, from one stacked pass."""
    # As sweep_angles: each panel's interior samples, spaced by the signed
    # step from theta_init, then theta_final.
    sizes = [math.ceil(abs(p.theta_final - p.theta_init) / step - 1e-12) + 1 for p in panels]
    steps = [math.copysign(step, p.theta_final - p.theta_init) for p in panels]
    ends = np.cumsum(sizes)
    index = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
    angles = np.repeat([p.theta_init for p in panels], sizes) + np.repeat(steps, sizes) * index
    angles[ends - 1] = [p.theta_final for p in panels]
    weights = np.column_stack((np.ones(len(angles)), np.sin(angles), 1.0 - np.cos(angles)))
    return [weights[end - size:end] for end, size in zip(ends.tolist(), sizes)]


class KinematicTree(Frozen):
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

    ``mounts[p]`` holds non-root panel p's crease (anchor, unit direction,
    mount M): M holds the panel's frame axes in its parent's frame at
    angle zero. ``crease_terms[j]`` holds foldable joint j's (M, KM, K²M),
    for crease cross-product matrix K, and per sample angle θ of its sweep
    a row [1, sin θ, 1 − cos θ], whose sum of the three is M turned by θ
    (Rodrigues). ``turns[p]`` holds M turned by theta_init and by
    theta_final, each the product ``rotation_matrix(axis, θ) @ M`` that
    ``forward_kinematics`` forms, computed for all panels in one pass.

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
    turns: dict[int, np.ndarray]
    subtrees: dict[int, tuple[int, ...]]
    ancestry: dict[int, int]
    subtree_ancestry: dict[int, int]
    obstacles: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    def __init__(
        self, spec, ids, topo_order, foldable_ids, bits, panels_by_id, mounts, crease_terms,
        turns, subtrees, ancestry, subtree_ancestry, obstacles,
    ):
        self.__dict__.update(
            spec=spec, ids=ids, topo_order=topo_order, foldable_ids=foldable_ids, bits=bits,
            panels_by_id=panels_by_id, mounts=mounts, crease_terms=crease_terms, turns=turns,
            subtrees=subtrees, ancestry=ancestry, subtree_ancestry=subtree_ancestry,
            obstacles=obstacles,
            # The memos, empty until used and left out of the repr.
            panel_records={}, sweeps={}, pair_verdicts={},
        )

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

        The frame is the parent's composed with the panel's turned mount
        (``turns``) at its anchor, the product ``_child_frame`` forms in
        ``forward_kinematics``, so the pose is the one FK gives for the same
        fold state, bit for bit. The record's arrays are all computed here,
        so they are frozen in place rather than copied.
        """
        key = (panel_id, self.ancestry[panel_id] & mask)
        record = self.panel_records.get(key)
        if record is None:
            panel = self.panels_by_id[panel_id]
            if panel.parent is None:
                frame = self.spec.root_pose
            else:
                parent = self.panel_state(panel.parent, mask).pose.pose
                turned = self.turns[panel_id][1 if mask & self.bits.get(panel_id, 0) else 0]
                frame = _frozen_in_place(
                    Transform,
                    rotation=parent.rotation @ turned,
                    translation=parent.rotation @ self.mounts[panel_id][0] + parent.translation,
                )
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
            weights = _sweep_weights([movers[i] for i in moving], spec.tolerance_angle)
            for i, w in zip(moving, weights):
                crease_terms[movers[i].id] = terms[i], w

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
        turns=turns,
        subtrees=subtrees,
        ancestry=ancestry,
        subtree_ancestry=subtree_ancestry,
        obstacles=pack_boxes(spec.environment) if spec.environment else None,
    )


class JointVector(FrozenValue):
    """Joint angle per panel id; the root entry is fixed at zero."""

    angles: dict[int, float]

    def __init__(self, angles):
        self.__dict__["angles"] = angles

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


class PanelPose(Frozen):
    """World placement of one panel at a given joint vector.

    Poses compare by value, like the transforms and boxes they hold.
    """

    panel_id: int
    pose: Transform
    center: np.ndarray
    solid: OrientedBox

    def __init__(self, panel_id, pose, center, solid):
        self.__dict__.update(panel_id=panel_id, pose=pose, center=center, solid=solid)

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


def _frozen_in_place(cls, **fields):
    """A frozen ``cls`` (``Transform`` or ``OrientedBox``) of fields computed
    here from validated input: arrays are write-protected without a copy,
    and nothing is checked again."""
    made = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    made.__dict__.update(fields)
    return made


def panel_pose_from_frame(panel: PanelSpec, frame: Transform) -> PanelPose:
    """Panel pose record given the world transform of its local frame.

    The solid shares the frame's rotation and the pose's center, all
    write-protected."""
    h, w, t = panel.dims
    center = frame.apply(np.array([w / 2.0, h / 2.0, 0.0]))
    solid = _frozen_in_place(
        OrientedBox,
        pose=_frozen_in_place(Transform, rotation=frame.rotation, translation=center),
        half_extents=np.array([w / 2.0, h / 2.0, t / 2.0]),
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


def _vec(mapping: dict, key: str, where: str, default=None) -> tuple[float, float, float]:
    if key not in mapping:
        if default is None:
            raise SpecValidationError(f"{where}: missing required key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SpecValidationError(f"{where}: {key} must be a 3-element list")
    return tuple([_number(v, f"{where}: {key}") for v in value])


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
    pid = _integer(entry, "id", f"panel {_require(entry, 'id', 'panel')!r}")
    where = f"panel {pid}"
    parent = None if entry.get("parent") is None else _integer(entry, "parent", where)
    dims = _vec(entry, "dims_mm", where)
    kwargs = {}
    if parent is not None:
        kwargs["crease_anchor"] = _vec(entry, "crease_anchor_mm", where)
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
        if entry.get("half_space"):
            table = True
            continue
        center = _vec(entry, "center_mm", where)
        dims = _vec(entry, "dims_mm", where)
        if not all(d > 0.0 for d in dims):
            raise SpecValidationError(f"{where}: dims_mm must be positive, got {list(dims)}")
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
            dims=_vec(gmap, "dims_mm", "gripper"),
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


# libyaml's loader when PyYAML was built with it: its scanner, parser and
# composer run in C, about eight times faster on the shipped specs.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TAG = "tag:yaml.org,2002:"
_MAP, _SEQ, _STR = _TAG + "map", _TAG + "seq", _TAG + "str"
# Scalars built by the loader's own constructors, each distinct text once.
_SCALAR_TAGS = tuple(_TAG + name for name in ("int", "float", "bool", "null"))
# Keys that make ``flatten_mapping`` rewrite a mapping node.
_FLATTENED = (_TAG + "merge", _TAG + "value")


def _compose(loader) -> yaml.Node | None:
    """The document's node graph, or None for an empty stream.

    The composer asks ``loader.resolve`` for the implicit tag of every
    node; without path resolvers the answer depends on the node's kind,
    text and implicit flags alone, so it is memoised for this document,
    and the composer's calls to track a node's path, ``descend_resolver``
    and ``ascend_resolver``, do nothing. The memo and the no-ops are
    instance attributes, deleted again so that no reference cycle keeps
    the loader and its nodes alive.
    """
    if loader.yaml_path_resolvers:
        return loader.get_single_node()
    loader.resolve = functools.lru_cache(maxsize=None)(loader.resolve)
    loader.descend_resolver = loader.ascend_resolver = _no_path
    try:
        return loader.get_single_node()
    finally:
        del loader.resolve, loader.descend_resolver, loader.ascend_resolver


def _no_path(*_) -> None:
    """What a loader without path resolvers does to track a node's path."""


def _plain_data(loader, root: yaml.Node):
    """The data ``loader.construct_document(root)`` builds, in one walk over the nodes.

    Mappings, sequences and strings are built here; ints, floats, bools and
    nulls by the loader's registered constructors; merge keys are
    flattened by the loader's ``flatten_mapping``; any other tag goes to
    ``loader.construct_object``. A container is memoised per node before
    it is filled, in the loader's own ``constructed_objects``, so an alias
    gives the same object and a recursive node contains itself, as with
    PyYAML. Containers are filled first in, first out, the order in which
    PyYAML runs its construction generators, so a document with several
    faults fails on the one PyYAML fails on, unless one lies under another
    tag: ``construct_object`` builds such a node whole when it is reached.
    """
    built = loader.constructed_objects
    makers = {tag: loader.yaml_constructors[tag] for tag in _SCALAR_TAGS}
    scalars: dict[tuple[str, str], object] = {}
    todo: deque = deque()

    def make(node):
        tag = node.tag
        if type(node) is ScalarNode:
            if tag == _STR:
                return node.value
            maker = makers.get(tag)
            if maker is not None:
                key = tag, node.value
                if key not in scalars:
                    scalars[key] = maker(loader, node)
                return scalars[key]
        if node in built:
            return built[node]
        if type(node) is MappingNode and tag == _MAP:
            data = {}
        elif type(node) is SequenceNode and tag == _SEQ:
            data = []
        else:
            return loader.construct_object(node, deep=True)
        built[node] = data
        todo.append((node, data))
        return data

    data = make(root)
    while todo:
        node, into = todo.popleft()
        if type(into) is list:
            into.extend(map(make, node.value))
            continue
        if any(key.tag in _FLATTENED for key, _ in node.value):
            loader.flatten_mapping(node)
        for key_node, value_node in node.value:
            key = make(key_node)
            if type(key) is not str and not isinstance(key, Hashable):
                raise ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    "found unhashable key", key_node.start_mark,
                )
            into[key] = make(value_node)
    return data


def parse_spec(document: str) -> CartonSpec:
    """Parse and validate a carton-spec document (YAML text).

    The plain data is what ``yaml.load(document, Loader=_SAFE_LOADER)``
    gives, built by ``_compose`` and ``_plain_data`` rather than by
    PyYAML's pure-Python constructor.
    """
    try:
        loader = _SAFE_LOADER(document)
        try:
            root = _compose(loader)
            data = None if root is None else _plain_data(loader, root)
        finally:
            loader.dispose()
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
    """Roll, pitch and yaw degrees whose ``_rpy_matrix`` is ``rot`` bit for bit.

    The angles are read off the matrix (ZYX) with cos(pitch) >= 0, then
    <= 0. Read degrees are often an ulp off, so the floats near each
    reading (``_near``) are searched: pitch first, since entry [2, 0]
    depends on it alone, then roll, since row 2 does not depend on yaw,
    then yaw. A rotation that no such triple rebuilds (one not built from
    degrees, or gimbal-locked with underflowed entries) gets the first
    reading, with yaw = 0 at gimbal lock."""
    (r00, _, _), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
    readings = [
        [
            math.degrees(math.atan2(sign * r21, sign * r22)),
            math.degrees(math.atan2(-r20, sign * math.hypot(r21, r22))),
            math.degrees(math.atan2(sign * r10, sign * r00)),
        ]
        for sign in (1.0, -1.0)
    ]
    for roll, pitch, yaw in readings:
        for p in _near(pitch):
            if _rpy_matrix((0.0, p, 0.0))[2, 0] != r20:
                continue
            for r in _near(roll):
                if _rpy_matrix((r, p, 0.0))[2].tolist() != [r20, r21, r22]:
                    continue
                for y in _near(yaw):
                    if np.array_equal(_rpy_matrix((r, p, y)), rot):
                        return [r, p, y]
    if abs(abs(r20) - 1.0) < 1e-12:
        return [math.degrees(math.atan2(-r12, r11)), readings[0][1], 0.0]
    return readings[0]


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
