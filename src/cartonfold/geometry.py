"""Rigid-body transforms and box-overlap primitives.

All lengths are millimeters, all angles radians. Values are immutable
after construction (backing arrays are write-protected), so they can be
shared freely between threads.
"""

from __future__ import annotations

import numpy as np

ORTHONORMAL_TOL = 1e-9

# Padding added to |R_a^T R_b| in the SAT cross-axis tests. Near-parallel
# edge pairs produce near-zero axes; the padding keeps them from reporting
# a phantom separation (equivalent to skipping the degenerate axis).
_SAT_EPS = 1e-12


def _as_vec3(value, name: str = "vector") -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _key(*arrays: np.ndarray) -> tuple[bytes, ...]:
    # Adding 0.0 turns -0.0 into 0.0, so arrays that compare equal hash alike.
    return tuple((arr + 0.0).tobytes() for arr in arrays)


class Frozen:
    """Base of the package's immutable records: ``__init__`` fills the
    instance dict, and setting or deleting an attribute afterwards raises
    AttributeError. Records compare by identity unless a subclass says
    otherwise; the repr lists the annotated fields."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__)
        return f"{type(self).__name__}({fields})"


class FrozenValue(Frozen):
    """A frozen record that compares and hashes by its fields, in order."""

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))


class Transform(Frozen):
    """Proper rigid transform: ``p_world = rotation @ p_local + translation``.

    Transforms compare and hash by the values of their arrays.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __init__(self, rotation, translation):
        self.__dict__.update(rotation=rotation, translation=translation)
        self.__post_init__()

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {rot.shape}")
        err = np.abs(rot.T @ rot - np.eye(3)).max()
        if err > ORTHONORMAL_TOL:
            raise ValueError(f"rotation is not orthonormal (max deviation {err:.3e})")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("rotation must be proper (det = +1), got a reflection")
        self.__dict__.update(
            rotation=_frozen(rot), translation=_frozen(_as_vec3(self.translation, "translation"))
        )

    @classmethod
    def _of(cls, rotation: np.ndarray, translation: np.ndarray) -> "Transform":
        """Transform of a rotation computed from proper rotations, not re-checked."""
        transform = object.__new__(cls)
        transform.__dict__.update(rotation=_frozen(rotation), translation=_frozen(translation))
        return transform

    def __eq__(self, other):
        if not isinstance(other, Transform):
            return NotImplemented
        return np.array_equal(self.rotation, other.rotation) and np.array_equal(
            self.translation, other.translation
        )

    def __hash__(self):
        return hash(_key(self.rotation, self.translation))

    @classmethod
    def identity(cls) -> "Transform":
        return cls(np.eye(3), np.zeros(3))

    def compose(self, other: "Transform") -> "Transform":
        """Return ``self @ other`` (apply ``other`` first, then ``self``)."""
        return Transform._of(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "Transform") -> "Transform":
        return self.compose(other)

    def apply(self, points) -> np.ndarray:
        """Map local points (shape (3,) or (n, 3)) into the parent frame."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "Transform":
        rot_inv = self.rotation.T
        return Transform._of(rot_inv, -rot_inv @ self.translation)


def rotation_matrix(axis_dir: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis (right-hand rule)."""
    kx, ky, kz = axis_dir
    k_cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    sin_a, cos_a = np.sin(angle), np.cos(angle)
    return np.eye(3) + sin_a * k_cross + (1.0 - cos_a) * (k_cross @ k_cross)


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


CORNER_SIGNS = np.array(
    [
        [-1, -1, -1],
        [+1, -1, -1],
        [-1, +1, -1],
        [+1, +1, -1],
        [-1, -1, +1],
        [+1, -1, +1],
        [-1, +1, +1],
        [+1, +1, +1],
    ],
    dtype=float,
)


class OrientedBox(Frozen):
    """Box spanning ``[-h, +h]`` per axis of its pose frame (h = half_extents)."""

    pose: Transform
    half_extents: np.ndarray

    def __init__(self, pose, half_extents):
        half = _as_vec3(half_extents, "half_extents")
        if not np.all(half > 0.0):
            raise ValueError(f"half_extents must be strictly positive, got {half}")
        self.__dict__.update(pose=pose, half_extents=_frozen(half))

    def __eq__(self, other):
        if not isinstance(other, OrientedBox):
            return NotImplemented
        return self.pose == other.pose and np.array_equal(self.half_extents, other.half_extents)

    def __hash__(self):
        return hash((self.pose, _key(self.half_extents)))

    @classmethod
    def from_center(cls, center, dims, rotation=None) -> "OrientedBox":
        """Box from full dimensions centered at ``center``."""
        rot = np.eye(3) if rotation is None else rotation
        return cls(Transform(rot, center), np.asarray(dims, dtype=float) / 2.0)

    @property
    def center(self) -> np.ndarray:
        return self.pose.translation

    @property
    def axes(self) -> np.ndarray:
        """World directions of the box axes, one per column."""
        return self.pose.rotation

    def corners(self) -> np.ndarray:
        """All 8 corner vertices in world coordinates, shape (8, 3)."""
        return self.pose.apply(CORNER_SIGNS * self.half_extents)


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


def pack_boxes(boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack boxes into (centers, rotations, half_extents) arrays."""
    centers = np.stack([b.center for b in boxes])
    rots = np.stack([b.pose.rotation for b in boxes])
    halves = np.stack([b.half_extents for b in boxes])
    return centers, rots, halves


def half_reach(abs_rots: np.ndarray, halves: np.ndarray, clearance: float = 0.0) -> np.ndarray:
    """World half-reach ``|R| @ h``, shape (3, n), of n boxes stored axis first
    (``abs_rots[i, j]`` and ``halves[j]`` hold every box's entry), each grown by
    ``clearance / 2`` and clamped at zero, as ``sat_overlap_matrix`` grows them."""
    grown = np.maximum(halves + clearance / 2.0, 0.0)
    reach = abs_rots[:, 0] * grown[0]
    reach += abs_rots[:, 1] * grown[1]
    reach += abs_rots[:, 2] * grown[2]
    return reach


def box_bounds(
    centers: np.ndarray, rots: np.ndarray, halves: np.ndarray, clearance: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """World-axis-aligned bounds (lo, hi), shape (n, 3), of boxes grown by ``clearance / 2``.

    The half-reach is ``|R| @ h``, grown as in ``half_reach``; ``einsum``
    forms it faster than the axis-first ``half_reach`` for the few boxes
    of one call, which ``collision.build_sweeps`` uses on a whole layer.
    """
    reach = np.einsum("nij,nj->ni", np.abs(rots), np.maximum(halves + clearance / 2.0, 0.0))
    return centers - reach, centers + reach


def sat_overlap_matrix(
    centers_a: np.ndarray,
    rots_a: np.ndarray,
    halves_a: np.ndarray,
    centers_b: np.ndarray,
    rots_b: np.ndarray,
    halves_b: np.ndarray,
    clearance: float = 0.0,
) -> np.ndarray:
    """Pairwise separating-axis test between two batches of oriented boxes.

    Returns a boolean (n_a, n_b) matrix, True where the boxes (each grown by
    ``clearance / 2`` per face; negative clearance shrinks them) overlap on
    all 15 candidate axes. Touching configurations count as overlapping.
    """
    ha = np.maximum(halves_a + clearance / 2.0, 0.0)
    hb = np.maximum(halves_b + clearance / 2.0, 0.0)

    # Everything below is expressed in each A-box frame.
    rel = np.einsum("aji,abj->abi", rots_a, centers_b[None, :, :] - centers_a[:, None, :])
    basis = np.einsum("aji,bjk->abik", rots_a, rots_b)
    abs_basis = np.abs(basis) + _SAT_EPS

    separated = np.zeros(rel.shape[:2], dtype=bool)

    # Face axes of A.
    reach_b = np.einsum("abik,bk->abi", abs_basis, hb)
    separated |= np.any(np.abs(rel) > ha[:, None, :] + reach_b, axis=-1)

    # Face axes of B.
    rel_b = np.einsum("abik,abi->abk", basis, rel)
    reach_a = np.einsum("abik,ai->abk", abs_basis, ha)
    separated |= np.any(np.abs(rel_b) > reach_a + hb[None, :, :], axis=-1)

    # Cross-product axes A_i x B_j.
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            dist = np.abs(rel[:, :, i2] * basis[:, :, i1, j] - rel[:, :, i1] * basis[:, :, i2, j])
            radius = (
                ha[:, None, i1] * abs_basis[:, :, i2, j]
                + ha[:, None, i2] * abs_basis[:, :, i1, j]
                + hb[None, :, j1] * abs_basis[:, :, i, j2]
                + hb[None, :, j2] * abs_basis[:, :, i, j1]
            )
            separated |= dist > radius

    return ~separated


def obb_intersect(a: OrientedBox, b: OrientedBox, clearance: float = 0.0) -> bool:
    """True when the boxes, each inflated by ``clearance / 2``, overlap.

    A negative clearance acts as a penetration allowance: the boxes must
    interpenetrate by more than ``|clearance|`` before this reports True.
    """
    ca, ra, hha = pack_boxes([a])
    cb, rb, hhb = pack_boxes([b])
    return bool(sat_overlap_matrix(ca, ra, hha, cb, rb, hhb, clearance)[0, 0])
