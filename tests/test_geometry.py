from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cartonfold.collision import corners_apart, near_sweep, sweep_bounds
from cartonfold.geometry import (
    Aabb,
    OrientedBox,
    Transform,
    box_bounds,
    obb_intersect,
    pack_boxes,
    rotate_about_axis,
    rotation_matrix,
    sat_overlap_matrix,
    world_aabb,
)
from cartonfold.model import _rpy_matrix

from .oracles import sampled_overlap, sampling_band


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_box(rng: np.random.Generator, spread: float = 4.0) -> OrientedBox:
    return OrientedBox(
        Transform(random_rotation(rng), rng.uniform(-spread, spread, size=3)),
        rng.uniform(0.25, 1.5, size=3),
    )


class TestTransform:
    def test_identity_composition_is_neutral(self):
        rng = np.random.default_rng(7)
        t = Transform(random_rotation(rng), rng.normal(size=3))
        for composed in (Transform.identity() @ t, t @ Transform.identity()):
            np.testing.assert_allclose(composed.rotation, t.rotation, atol=1e-15)
            np.testing.assert_allclose(composed.translation, t.translation, atol=1e-15)

    def test_composition_associative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (
                Transform(random_rotation(rng), rng.normal(size=3)) for _ in range(3)
            )
            left = (a @ b) @ c
            right = a @ (b @ c)
            np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-9)
            np.testing.assert_allclose(left.translation, right.translation, atol=1e-9)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(13)
        t = Transform(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Transform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="proper"):
            Transform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


    def test_equal_values_compare_and_hash_alike(self):
        rng = np.random.default_rng(17)
        rot, trans = random_rotation(rng), rng.normal(size=3)
        a, b = Transform(rot, trans), Transform(rot.copy(), trans.copy())
        assert a == b and hash(a) == hash(b)
        assert a != Transform(rot, trans + 1e-9)
        assert Transform(np.eye(3), (-0.0, 0.0, 0.0)) == Transform.identity()
        assert hash(Transform(np.eye(3), (-0.0, 0.0, 0.0))) == hash(Transform.identity())

    def test_computed_transforms_are_frozen_copies(self):
        rng = np.random.default_rng(19)
        a = Transform(random_rotation(rng), rng.normal(size=3))
        for t in (a @ a, a.inverse()):
            assert not t.rotation.flags.writeable
            assert not t.translation.flags.writeable
        rot, trans = random_rotation(rng), rng.normal(size=3)
        t = Transform._of(rot, trans)
        rot[0, 0] = trans[0] = 7.0
        assert t.rotation[0, 0] != 7.0 and t.translation[0] != 7.0


class TestBoxEquality:
    def test_oriented_boxes_compare_by_value(self):
        box = OrientedBox.from_center((1, 2, 3), (4, 5, 6))
        same = OrientedBox.from_center((1.0, 2.0, 3.0), np.array([4.0, 5.0, 6.0]))
        assert box == same and hash(box) == hash(same)
        assert box != OrientedBox.from_center((1, 2, 3), (4, 5, 7))
        assert box != OrientedBox.from_center((1, 2, 4), (4, 5, 6))

    def test_aabbs_compare_by_value(self):
        box = Aabb((0, 0, 0), (1, 2, 3))
        assert box == Aabb(np.zeros(3), (1.0, 2.0, 3.0))
        assert hash(box) == hash(Aabb(np.zeros(3), (1.0, 2.0, 3.0)))
        assert box != Aabb((0, 0, 0), (1, 2, 4))


class TestRotateAboutAxis:
    def test_zero_angle_is_identity(self):
        t = rotate_about_axis((0, 0, 0), (1, 0, 0), 0.0)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(t.translation, np.zeros(3), atol=1e-15)

    def test_quarter_turn_about_z(self):
        t = rotate_about_axis((0, 0, 0), (0, 0, 1), np.pi / 2)
        np.testing.assert_allclose(t.apply((1, 0, 0)), (0, 1, 0), atol=1e-12)

    def test_half_turn_about_offset_axis(self):
        # Reflection of (0,10,0) through the line y=5, z=0 lands at the origin.
        t = rotate_about_axis((0, 5, 0), (1, 0, 0), np.pi)
        np.testing.assert_allclose(t.apply((0, 10, 0)), (0, 0, 0), atol=1e-12)
        # Same result as composing two quarter turns about the same axis.
        quarter = rotate_about_axis((0, 5, 0), (1, 0, 0), np.pi / 2)
        np.testing.assert_allclose(
            (quarter @ quarter).apply((0, 10, 0)), (0, 0, 0), atol=1e-12
        )

    def test_axis_points_stay_fixed(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            point = rng.normal(size=3)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            t = rotate_about_axis(point, axis, rng.uniform(-np.pi, np.pi))
            on_axis = point + rng.normal() * axis
            np.testing.assert_allclose(t.apply(on_axis), on_axis, atol=1e-9)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            rotate_about_axis((0, 0, 0), (1, 1, 0), 0.5)


_angles = st.floats(-180.0, 180.0)
_dims = st.floats(0.5, 500.0)
_thin_dims = st.one_of(st.floats(0.05, 1.0), _dims)
_halves = st.floats(0.25, 1.5)


@st.composite
def boxes_along_each_axis(draw):
    """A box a, and one box b per separating axis of the pair, ``gap`` from a along it.

    The 15 axes are the face normals of a and of b and the cross products
    of an edge of each; b has one rotation and size throughout, and a cross
    axis of near-parallel edges is left out. Each b's center lies on its
    axis through a's center, so that axis separates the grown boxes exactly
    when gap > 0, and with the centers in line often no other axis does.
    Returns (a, [b], [gap], clearance).
    """
    clearance = draw(st.sampled_from((0.0, 0.25, -0.1)))
    # Rotations and gaps come from a drawn seed: drawn angles favour
    # axis-aligned boxes, whose coinciding face axes all separate at once.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rots = [random_rotation(rng) for _ in range(2)]
    halves = [np.array(draw(st.tuples(_halves, _halves, _halves))) for _ in range(2)]
    axes = [*rots[0].T, *rots[1].T]
    axes += [np.cross(rots[0][:, i], rots[1][:, j]) for i in range(3) for j in range(3)]
    boxes, gaps = [], []
    for axis in axes:
        if np.linalg.norm(axis) < 1e-3:
            continue
        axis = axis / np.linalg.norm(axis)
        support = sum(
            np.abs(rot.T @ axis) @ np.maximum(half + clearance / 2.0, 0.0)
            for rot, half in zip(rots, halves)
        )
        # Small gaps leave the axis the only one that separates, most often.
        gaps.append(float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, -1.0)))
        boxes.append(OrientedBox(Transform(rots[1], axis * (support + gaps[-1])), halves[1]))
    return OrientedBox(Transform(rots[0], np.zeros(3)), halves[0]), boxes, gaps, clearance


class TestObbIntersect:
    def test_disjoint_unit_cubes(self):
        a = OrientedBox.from_center((0, 0, 0), (2, 2, 2))
        b = OrientedBox.from_center((3, 0, 0), (2, 2, 2))
        assert obb_intersect(a, b, 0.0) is False

    def test_coincident_boxes(self):
        a = OrientedBox.from_center((0, 0, 0), (2, 2, 2))
        assert obb_intersect(a, a, 0.0) is True

    def test_clearance_band(self):
        a = OrientedBox.from_center((0, 0, 0), (2, 2, 2))
        near = OrientedBox.from_center((1.9, 0, 0), (2, 2, 2))
        apart = OrientedBox.from_center((2.05, 0, 0), (2, 2, 2))
        assert obb_intersect(a, near, 0.0) is True
        assert obb_intersect(a, apart, 0.0) is False
        assert obb_intersect(a, apart, 0.2) is True

    def test_negative_clearance_is_penetration_allowance(self):
        a = OrientedBox.from_center((0, 0, 0), (2, 2, 2))
        shallow = OrientedBox.from_center((1.95, 0, 0), (2, 2, 2))  # 0.05 deep
        deep = OrientedBox.from_center((1.5, 0, 0), (2, 2, 2))      # 0.5 deep
        assert obb_intersect(a, shallow, -0.1) is False
        assert obb_intersect(a, deep, -0.1) is True

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            clearance = float(rng.choice([0.0, 0.1, 0.4]))
            assert obb_intersect(a, b, clearance) == obb_intersect(b, a, clearance)

    def test_matches_point_sampling_oracle(self):
        # Disagreements are tolerated only when the configuration is within
        # the sampling band of touching: nudging the clearance by two bands
        # must flip the SAT verdict there.
        rng = np.random.default_rng(42)
        checked = disagreements = 0
        for _ in range(1000):
            a, b = random_box(rng), random_box(rng)
            clearance = float(rng.choice([0.0, 0.0, 0.25]))
            sat = obb_intersect(a, b, clearance)
            oracle = sampled_overlap(a, b, clearance)
            checked += 1
            if sat != oracle:
                disagreements += 1
                band = 2.0 * sampling_band(a, b)
                assert obb_intersect(a, b, clearance + band) is True
                assert obb_intersect(a, b, clearance - band) is False
        assert checked == 1000
        assert disagreements < checked * 0.1

    @given(boxes_along_each_axis())
    def test_matches_point_sampling_outside_its_blind_band(self, drawn):
        # As the fixed draw above, on pairs drawn from overlapping to just
        # apart along every kind of separating axis: the kernel may differ
        # from the oracle only where a nudge of two sampling bands in the
        # clearance flips its verdict. The band hides a missing axis, so a
        # pair that its drawn axis separates must also be apart by the kernel.
        a, boxes, gaps, clearance = drawn
        packed_a, packed_b = pack_boxes([a]), pack_boxes(boxes)

        def kernel(c: float) -> np.ndarray:
            return sat_overlap_matrix(*packed_a, *packed_b, c)[0]

        overlaps = kernel(clearance)
        assert not overlaps[np.array(gaps) > 1e-6].any()
        for i, b in enumerate(boxes):
            if overlaps[i] != sampled_overlap(a, b, clearance):
                band = 2.0 * sampling_band(a, b)
                assert kernel(clearance + band)[i]
                assert not kernel(clearance - band)[i]


class TestWorldAabb:
    def test_single_axis_aligned_cube(self):
        box = OrientedBox.from_center((0, 0, 0), (2, 2, 2))
        aabb = world_aabb([box])
        np.testing.assert_allclose(aabb.min, (-1, -1, -1))
        np.testing.assert_allclose(aabb.max, (1, 1, 1))

    def test_rotated_square_grows_by_sqrt2(self):
        rot = rotation_matrix(np.array([0.0, 0.0, 1.0]), np.pi / 4)
        box = OrientedBox.from_center((0, 0, 0), (2, 2, 2), rot)
        np.testing.assert_allclose(
            world_aabb([box]).extents, (2 * np.sqrt(2), 2 * np.sqrt(2), 2), atol=1e-12
        )

    def test_two_disjoint_cubes_hull(self):
        a = OrientedBox.from_center((0, 0, 0), (2, 2, 2))
        b = OrientedBox.from_center((10, 0, 0), (2, 2, 2))
        aabb = world_aabb([a, b])
        np.testing.assert_allclose(aabb.min, (-1, -1, -1))
        np.testing.assert_allclose(aabb.max, (11, 1, 1))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            world_aabb([])

    def test_monotone_under_additional_boxes(self):
        rng = np.random.default_rng(5)
        boxes = [random_box(rng)]
        previous = world_aabb(boxes)
        for _ in range(20):
            boxes.append(random_box(rng))
            current = world_aabb(boxes)
            assert np.all(current.min <= previous.min + 1e-12)
            assert np.all(current.max >= previous.max - 1e-12)
            previous = current

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError, match="componentwise"):
            Aabb((0, 0, 0), (-1, 1, 1))

    def test_box_bounds_match_the_corner_hull(self):
        rng = np.random.default_rng(23)
        boxes = [random_box(rng) for _ in range(30)]
        lo, hi = box_bounds(*pack_boxes(boxes))
        for box, box_lo, box_hi in zip(boxes, lo, hi):
            aabb = world_aabb([box])
            np.testing.assert_allclose(box_lo, aabb.min, atol=1e-12)
            np.testing.assert_allclose(box_hi, aabb.max, atol=1e-12)




@st.composite
def box_pair_beside(draw):
    """Two boxes whose grown bounds are ``gap`` apart along one world axis.

    On the other two axes the bounds overlap, so only that one axis can
    keep the bounds apart; a negative gap overlaps them there too. Some
    half extents fall below half the largest allowance, where the kernel
    clamps them at zero. Returns (a, b, clearance).
    """
    clearance = draw(st.sampled_from((0.0, -0.1, -0.45, -1.05)))
    a, b = (
        OrientedBox.from_center(
            (0.0, 0.0, 0.0),
            draw(st.tuples(_thin_dims, _dims, _dims)),
            _rpy_matrix(draw(st.tuples(_angles, _angles, _angles))),
        )
        for _ in range(2)
    )
    reach = [box_bounds(*pack_boxes([box]), clearance)[1][0] for box in (a, b)]
    span = reach[0] + reach[1]
    center = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) * span
    axis = draw(st.integers(0, 2))
    center[axis] = draw(st.sampled_from((-1.0, 1.0))) * (span[axis] + draw(st.floats(-1.0, 5.0)))
    b = OrientedBox(Transform(b.pose.rotation, center), b.half_extents)
    return a, b, clearance


class TestBoundsCull:
    @given(box_pair_beside())
    def test_bounds_apart_means_no_overlap(self, pair):
        # Whenever the broad phase drops a box, neither the kernel nor the
        # point-sampling oracle may find an overlap with it.
        a, b, clearance = pair
        boxes_a, boxes_b = pack_boxes([a]), pack_boxes([b])
        if near_sweep(sweep_bounds(boxes_a, clearance), boxes_b, clearance)[0]:
            return
        assert not sat_overlap_matrix(*boxes_a, *boxes_b, clearance)[0, 0]
        assert not sampled_overlap(a, b, clearance)

    @given(box_pair_beside())
    def test_corner_bounds_apart_means_no_overlap(self, pair):
        # The pair test's first cull, on the static box's corner bounds as
        # floats: at clearance 0 as is, at a negative clearance shrunk as
        # the crease parent's. Whenever it drops a box, neither the kernel
        # nor the point-sampling oracle may find an overlap with it.
        a, b, clearance = pair
        boxes_a, boxes_b = pack_boxes([a]), pack_boxes([b])
        lo, hi = sweep_bounds(boxes_a, clearance)
        corners = b.corners()
        if not corners_apart(
            corners.min(axis=0).tolist(), corners.max(axis=0).tolist(),
            (lo.tolist(), hi.tolist()), clearance, (2.0 * b.half_extents).tolist(),
        ):
            return
        assert not sat_overlap_matrix(*boxes_a, *boxes_b, clearance)[0, 0]
        assert not sampled_overlap(a, b, clearance)
