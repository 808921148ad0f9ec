"""Reference implementations that no plan runs, loaded on first use.

A plan places panels one at a time from memoised records, ranks the
lattice's paths in numpy and never writes a spec back out. The code here
does each of those jobs the plain way, and the tests compare the plan
against it:

* ``forward_kinematics`` places every panel of a ``JointVector`` at once
  as ``PanelPose`` objects (a ``Transform`` frame, a center and an
  ``OrientedBox`` solid), holding the values of the arrays that
  ``KinematicTree.panel_state`` gives, bit for bit;
* ``score_and_rank`` scores and sorts a given list of orders, placing each
  state by forward kinematics and measuring it by ``world_aabb``; it is
  the reference that ``metrics.rank_lattice`` is tested against;
* ``Aabb``, ``world_aabb``, ``obb_intersect`` and ``rotate_about_axis``
  are the one-box forms of the stacked kernels in ``geometry``;
* ``serialize_spec`` writes a spec back to the document format.

Importing ``cartonfold.cli`` does not load this module; the package and
the modules these names came from resolve them on first access.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np
import yaml

from .geometry import (
    ORTHONORMAL_TOL,
    Frozen,
    FrozenValue,
    OrientedBox,
    Transform,
    _as_vec3,
    _frozen,
    _key,
    pack_boxes,
    rotation_matrix,
    sat_overlap_matrix,
)
from .metrics import EdgeMetrics, RankedReport, round6
from .model import (
    CartonSpec,
    KinematicTree,
    PanelSpec,
    _degrees,
    _near,
    _rpy_matrix,
)

ANGLE_SLACK = 1e-9

# ---------------------------------------------------------------------------
# One-box geometry


def rotate_about_axis(point_on_axis, axis_dir, angle: float) -> Transform:
    """Transform rotating by ``angle`` about the line through ``point_on_axis``
    along unit vector ``axis_dir``. Every point on the axis is fixed.
    """
    point = _as_vec3(point_on_axis, "point_on_axis")
    axis = _as_vec3(axis_dir, "axis_dir")
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > ORTHONORMAL_TOL:
        raise ValueError(f"axis_dir must be a unit vector, |axis| = {norm!r}")
    rot = rotation_matrix(axis, angle)
    return Transform(rot, point - rot @ point)


class Aabb(Frozen):
    """World-axis-aligned bounding box."""

    min: np.ndarray
    max: np.ndarray

    def __init__(self, min, max):
        lo = _as_vec3(min, "min")
        hi = _as_vec3(max, "max")
        if np.any(lo > hi):
            raise ValueError(f"Aabb min must be <= max componentwise, got {lo} > {hi}")
        self.__dict__.update(min=_frozen(lo), max=_frozen(hi))

    def __eq__(self, other):
        if not isinstance(other, Aabb):
            return NotImplemented
        return np.array_equal(self.min, other.min) and np.array_equal(self.max, other.max)

    def __hash__(self):
        return hash(_key(self.min, self.max))

    @property
    def extents(self) -> np.ndarray:
        return self.max - self.min

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

    @property
    def max_extent(self) -> float:
        return float(self.extents.max())


def world_aabb(boxes) -> Aabb:
    """Tightest world-aligned box containing every corner of every input box."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("world_aabb requires at least one box")
    corners = np.vstack([box.corners() for box in boxes])
    return Aabb(corners.min(axis=0), corners.max(axis=0))


def obb_intersect(a: OrientedBox, b: OrientedBox, clearance: float = 0.0) -> bool:
    """True when the boxes, each inflated by ``clearance / 2``, overlap.

    A negative clearance acts as a penetration allowance: the boxes must
    interpenetrate by more than ``|clearance|`` before this reports True.
    """
    ca, ra, hha = pack_boxes([a])
    cb, rb, hhb = pack_boxes([b])
    return bool(sat_overlap_matrix(ca, ra, hha, cb, rb, hhb, clearance)[0, 0])


# ---------------------------------------------------------------------------
# Forward kinematics


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


def _check_angle(panel: PanelSpec, value: float) -> None:
    lo = min(panel.theta_init, panel.theta_final) - ANGLE_SLACK
    hi = max(panel.theta_init, panel.theta_final) + ANGLE_SLACK
    if not (lo <= value <= hi):
        raise ValueError(
            f"theta for panel {panel.id} out of range: {value!r} not within "
            f"[{panel.theta_init!r}, {panel.theta_final!r}]"
        )


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
# Writing a spec


def _rotation_to_rpy_deg(rot: np.ndarray) -> list[float]:
    """Roll, pitch and yaw degrees whose ``_rpy_matrix`` is ``rot`` bit for bit.

    The angles are read off the matrix (ZYX) with cos(pitch) >= 0, then
    <= 0. Read degrees are often an ulp off, so the floats near each
    reading (``_near``) are searched: pitch first, since entry [2, 0]
    depends on it alone, then roll, since row 2 does not depend on yaw,
    then yaw.

    Those readings take roll from row 2 and yaw from column 0, entries
    scaled by cos(pitch). At or near gimbal lock a tiny roll or yaw
    underflows there, so each reading is tried again with roll from
    entries [1, 2] and [1, 1], which are -sin(roll) and cos(roll) unscaled
    when yaw is zero, and with yaw from [0, 1] and [1, 1], -sin(yaw) and
    cos(yaw) when roll is zero. A rotation that no triple rebuilds (one
    not built from degrees, or one at gimbal lock whose roll and yaw are
    both tiny and nonzero) gets the first reading, with yaw = 0 at gimbal
    lock."""
    (r00, r01, _), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
    readings = [
        [
            math.degrees(math.atan2(sign * r21, sign * r22)),
            math.degrees(math.atan2(-r20, sign * math.hypot(r21, r22))),
            math.degrees(math.atan2(sign * r10, sign * r00)),
        ]
        for sign in (1.0, -1.0)
    ]
    roll_alone = math.degrees(math.atan2(-r12, r11))
    yaw_alone = math.degrees(math.atan2(-r01, r11))
    readings += [[roll_alone, p, y] for _, p, y in readings]
    readings += [[r, p, yaw_alone] for r, p, _ in readings[:2]]
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
        return [roll_alone, readings[0][1], 0.0]
    return readings[0]


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


# ---------------------------------------------------------------------------
# Scoring and ranking a list of orders


def ranking_key(criteria: tuple[str, ...], c_vol, c_dim, c_aerial, order) -> tuple:
    """The sort key of one sequence: its totals in ``criteria`` order, the
    float ones rounded by ``round6``, then the order itself."""
    totals = {"aerial": c_aerial, "maxdim": c_dim, "volume": c_vol}
    return tuple(
        totals[c] if c == "aerial" else round6(totals[c]) for c in criteria
    ) + (tuple(order),)


def score_and_rank(tree: KinematicTree, orders) -> RankedReport:
    """Score every order and sort them by the spec's ranking.

    The reference ranker, sharing no memo with ``rank_lattice``: each fold
    state the orders pass through is placed by ``forward_kinematics`` as a
    whole and measured by ``world_aabb``, once per call. Each order's
    totals add its steps left to right, and the orders are sorted by
    ``ranking_key``, so ties after all criteria fall back to the order
    itself and the report does not depend on the input's order. The report
    has one edge per (order, step); an empty input gives an empty report.
    """
    criteria = tree.spec.ranking
    slot_of = {joint: s for s, joint in enumerate(tree.foldable_ids)}
    states: dict = {}
    scored = []
    for order in map(tuple, orders):
        steps = []
        for t, joint in enumerate(order):
            folded = frozenset(order[:t])
            measured = states.get(folded)
            if measured is None:
                poses = forward_kinematics(tree, JointVector.from_folded(tree, folded))
                box = world_aabb(p.solid for p in poses)
                lowest = {p.panel_id: p.solid.corners()[:, 2].min() for p in poses}
                measured = states[folded] = (box.volume, box.max_extent, lowest)
            volume, max_dim, lowest = measured
            aerial = min(lowest[pid] for pid in tree.subtrees[joint]) > tree.spec.support_tolerance
            steps.append((slot_of[joint], volume, max_dim, bool(aerial)))
        c_vol = sum(step[1] for step in steps)
        c_dim = sum(step[2] for step in steps)
        c_aerial = sum(step[3] for step in steps)
        key = ranking_key(criteria, c_vol, c_dim, c_aerial, order)
        scored.append((key, c_vol, c_dim, c_aerial, steps))
    scored.sort(key=itemgetter(0))
    shape = (len(scored), len(tree.foldable_ids))
    per_step = [step for *_, steps in scored for step in steps]
    return RankedReport(
        criteria=criteria,
        sequence_count=len(scored),
        joints=np.array(tree.foldable_ids, dtype=np.intp),
        steps=np.arange(len(per_step)).reshape(shape),
        edges=EdgeMetrics(
            *(_column(per_step, i, dtype) for i, dtype in enumerate((np.intp, float, float, bool)))
        ),
        c_vol=_column(scored, 1, float),
        c_dim=_column(scored, 2, float),
        c_aerial=_column(scored, 3, np.intp),
    )


def _column(rows: list[tuple], i: int, dtype) -> np.ndarray:
    return np.array([row[i] for row in rows], dtype=dtype)
