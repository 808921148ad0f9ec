from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import cartonfold.model as model_module
from cartonfold.geometry import ORTHONORMAL_TOL, OrientedBox, Transform, rotate_about_axis
from cartonfold.model import (
    CartonSpec,
    JointVector,
    PanelSpec,
    SpecValidationError,
    build_tree,
    forward_kinematics,
    load_spec,
    parse_spec,
    serialize_spec,
)

from .conftest import SHIPPED_SPECS

TWO_PANEL_DOC = """
panels:
  - {id: 1, parent: null, dims_mm: [100, 200, 2]}
  - {id: 2, parent: 1, dims_mm: [60, 190, 2], crease_anchor_mm: [195, 0, 0],
     crease_dir: [-1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
root_pose: {translation_mm: [0, 0, 1]}
environment: [{name: table, half_space: true}]
"""


class TestParseSpec:
    def test_minimal_two_panel_document(self):
        spec = parse_spec(TWO_PANEL_DOC)
        assert len(spec.panels) == 2
        assert spec.root.id == 1
        flap = spec.panel(2)
        assert flap.theta_final == pytest.approx(math.pi / 2)
        assert flap.foldable

    def test_parent_cycle_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 2, parent: 3, dims_mm: [10, 10, 1], crease_anchor_mm: [0, 0, 0],
     crease_dir: [1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
  - {id: 3, parent: 2, dims_mm: [10, 10, 1], crease_anchor_mm: [0, 0, 0],
     crease_dir: [1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
"""
        with pytest.raises(SpecValidationError, match="cycle"):
            parse_spec(doc)

    def test_duplicate_ids_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
"""
        with pytest.raises(SpecValidationError, match="duplicate"):
            parse_spec(doc)

    def test_multiple_roots_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 2, parent: null, dims_mm: [10, 10, 1]}
"""
        with pytest.raises(SpecValidationError, match="exactly one root"):
            parse_spec(doc)

    def test_nonpositive_dims_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 0, 1]}
"""
        with pytest.raises(SpecValidationError, match="positive"):
            parse_spec(doc)

    def test_foldable_flag_with_equal_angles_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 2, parent: 1, dims_mm: [10, 10, 1], crease_anchor_mm: [0, 0, 0],
     crease_dir: [1, 0, 0], theta_init_deg: 45, theta_final_deg: 45,
     foldable: true}
"""
        with pytest.raises(SpecValidationError, match="foldable"):
            parse_spec(doc)

    def test_non_unit_crease_dir_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 2, parent: 1, dims_mm: [10, 10, 1], crease_anchor_mm: [0, 0, 0],
     crease_dir: [1, 1, 0], theta_init_deg: 0, theta_final_deg: 90}
"""
        with pytest.raises(SpecValidationError, match="unit"):
            parse_spec(doc)

    def test_root_with_nonzero_angles_rejected(self):
        with pytest.raises(SpecValidationError, match="root"):
            PanelSpec(id=1, parent=None, dims=(10, 10, 1), theta_init=0.3)

    def test_missing_or_null_ranking_takes_the_default(self):
        assert parse_spec(TWO_PANEL_DOC).ranking == ("aerial", "maxdim")
        assert parse_spec(TWO_PANEL_DOC + "ranking: null\n").ranking == ("aerial", "maxdim")

    def test_empty_ranking_rejected(self):
        with pytest.raises(SpecValidationError, match="ranking"):
            parse_spec(TWO_PANEL_DOC + "ranking: []\n")

    def test_not_yaml_rejected(self):
        with pytest.raises(SpecValidationError, match="YAML|mapping"):
            parse_spec("{:::")

    def test_case_study_reconstruction(self, case_study):
        spec, tree = case_study
        # Base plus seven moving panels; sequences cover joints 1..7.
        assert len(spec.panels) == 8
        assert tree.foldable_ids == (1, 2, 3, 4, 5, 6, 7)
        thicknesses = {p.thickness for p in spec.panels}
        assert thicknesses == {2.0}

    def test_roundtrip_through_serialization(self, case_study):
        spec, _ = case_study
        again = parse_spec(serialize_spec(spec))
        assert len(again.panels) == len(spec.panels)
        for a, b in zip(spec.panels, again.panels):
            assert a.id == b.id and a.parent == b.parent
            assert a.dims == pytest.approx(b.dims)
            if a.parent is not None:
                assert a.crease_anchor == pytest.approx(b.crease_anchor)
                assert a.crease_dir == pytest.approx(b.crease_dir)
                assert a.theta_init == pytest.approx(b.theta_init)
                assert a.theta_final == pytest.approx(b.theta_final)
        assert again.table_plane == spec.table_plane
        assert again.ranking == spec.ranking
        assert again.tolerance_angle == pytest.approx(spec.tolerance_angle)
        assert again.penetration_tolerance == pytest.approx(spec.penetration_tolerance)
        np.testing.assert_allclose(
            again.root_pose.translation, spec.root_pose.translation, atol=1e-12
        )
        assert again.gripper is not None and spec.gripper is not None
        assert again.gripper.dims == pytest.approx(spec.gripper.dims)


class TestSpecEquality:
    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_two_loads_are_equal_and_hash_alike(self, spec_dir, name):
        first, second = load_spec(spec_dir / name), load_spec(spec_dir / name)
        assert first == second
        assert hash(first) == hash(second)

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_serialization_round_trips_exactly(self, spec_dir, name):
        spec = load_spec(spec_dir / name)
        assert parse_spec(serialize_spec(spec)) == spec

    def test_root_pose_alone_makes_specs_unequal(self, case_study):
        spec, _ = case_study
        moved = replace(
            spec,
            root_pose=Transform(spec.root_pose.rotation, spec.root_pose.translation + (0, 0, 1)),
        )
        assert moved != spec

    def test_trees_compare_by_identity(self, case_study):
        spec, tree = case_study
        other = build_tree(spec)
        assert tree == tree and tree != other
        assert len({tree, other}) == 2
        assert other.spec == tree.spec


class TestBuildTree:
    def test_two_panel_subtrees(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        assert tree.subtree_ids(1) == (1, 2)
        assert tree.subtree_ids(2) == (2,)

    def test_chain_subtrees_are_hereditary(self):
        spec = CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(50, 50, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(30, 40, 2),
                    crease_anchor=(45, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
                PanelSpec(
                    id=3, parent=2, dims=(20, 30, 2),
                    crease_anchor=(5, 30, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
            ),
            table_plane=False,
        )
        tree = build_tree(spec)
        assert tree.subtree_ids(1) == (1, 2, 3)
        assert tree.subtree_ids(2) == (2, 3)
        # Moving joint 2 must move panel 3 in forward kinematics.
        base = forward_kinematics(tree, JointVector.flat(tree))
        nudged = forward_kinematics(
            tree, JointVector.flat(tree).replace(2, 0.3)
        )
        assert not np.allclose(base[2].center, nudged[2].center)

    def test_star_siblings_independent(self):
        spec = CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(100, 100, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(30, 90, 2),
                    crease_anchor=(5, 100, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
                PanelSpec(
                    id=3, parent=1, dims=(30, 90, 2),
                    crease_anchor=(95, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
            ),
            table_plane=False,
        )
        tree = build_tree(spec)
        assert tree.subtree_ids(2) == (2,)
        assert tree.subtree_ids(3) == (3,)

    def test_fixtures_are_packed_once(self):
        spec = parse_spec(TWO_PANEL_DOC)
        assert build_tree(spec).obstacles is None
        post = OrientedBox.from_center((100.0, -30.0, 31.0), (40, 10, 10))
        centers, rots, halves = build_tree(replace(spec, environment=(post,))).obstacles
        np.testing.assert_array_equal(centers, [post.center])
        np.testing.assert_array_equal(rots, [post.pose.rotation])
        np.testing.assert_array_equal(halves, [post.half_extents])


class TestStateMemo:
    def test_each_state_runs_forward_kinematics_once(self, monkeypatch):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        calls = []

        def counted(tree_, theta):
            calls.append(theta)
            return forward_kinematics(tree_, theta)

        monkeypatch.setattr(model_module, "forward_kinematics", counted)
        first = tree.state(frozenset({2}))
        assert tree.state(frozenset({2})) is first
        assert len(calls) == 1
        assert first.theta == JointVector.from_folded(tree, {2})
        expected = forward_kinematics(tree, first.theta)
        for got, want in zip(first.poses, expected):
            np.testing.assert_array_equal(got.center, want.center)

    def test_memo_is_per_tree_and_out_of_repr(self):
        spec = parse_spec(TWO_PANEL_DOC)
        used, fresh = build_tree(spec), build_tree(spec)
        used.state(frozenset())
        assert "records" not in repr(used)
        assert used.records and not fresh.records


def random_tree(rng: np.random.Generator, n_panels: int):
    """Random chain/branchy carton with in-plane creases."""
    panels = [PanelSpec(id=1, parent=None, dims=(80, 80, 2))]
    for pid in range(2, n_panels + 1):
        parent = int(rng.integers(1, pid))
        angle = rng.uniform(0, 2 * np.pi)
        direction = (math.cos(angle), math.sin(angle), 0.0)
        panels.append(
            PanelSpec(
                id=pid,
                parent=parent,
                dims=tuple(rng.uniform(20, 60, size=2)) + (2.0,),
                crease_anchor=tuple(rng.uniform(0, 40, size=2)) + (0.0,),
                crease_dir=direction,
                theta_init=0.0,
                theta_final=float(rng.uniform(0.5, np.pi / 2)),
            )
        )
    return build_tree(CartonSpec(panels=tuple(panels), table_plane=False))


class TestForwardKinematics:
    def test_flat_layout_is_coplanar_with_table(self, case_study):
        spec, tree = case_study
        poses = forward_kinematics(tree, JointVector.flat(tree))
        corners = np.vstack([p.solid.corners() for p in poses])
        max_t = max(p.thickness for p in spec.panels)
        assert corners[:, 2].min() >= -1e-9
        assert corners[:, 2].max() <= 2 * max_t

    def test_two_panel_flap_raised_vertically(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        poses = forward_kinematics(tree, JointVector.from_folded(tree, {2}))
        flap = poses[1]
        # Crease at x=195 spanning toward -x; flap height 60 rises to z = 1 + 30.
        np.testing.assert_allclose(flap.center, (100.0, 0.0, 31.0), atol=1e-9)
        # Panel normal (local z) now parallel to the table.
        normal = flap.solid.axes[:, 2]
        assert abs(normal[2]) < 1e-9

    def test_chain_matches_composed_axis_rotations(self):
        # Grandchild pose must equal the direct composition of the two
        # crease rotations applied to its flat frame.
        base_w, flap_h = 100.0, 40.0
        spec = CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(80, base_w, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(flap_h, 90, 2),
                    crease_anchor=(95, 80, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
                PanelSpec(
                    id=3, parent=2, dims=(25, 80, 2),
                    crease_anchor=(5, flap_h, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
            ),
            table_plane=False,
        )
        tree = build_tree(spec)
        flat = forward_kinematics(tree, JointVector.flat(tree))
        folded = forward_kinematics(tree, JointVector.from_folded(tree, {2, 3}))

        # Independent derivation from the flat pose: rotate the grandchild's
        # flat frame about the inner crease, then about the outer crease.
        inner_point = flat[1].pose.apply((5.0, flap_h, 0.0))
        inner_axis = flat[1].pose.rotation[:, 0]
        outer_point = flat[0].pose.apply((95.0, 80.0, 0.0))
        outer_axis = flat[0].pose.rotation[:, 0]
        motion = rotate_about_axis(outer_point, outer_axis, np.pi / 2) @ rotate_about_axis(
            inner_point, inner_axis, np.pi / 2
        )
        expected = motion @ flat[2].pose
        np.testing.assert_allclose(folded[2].pose.rotation, expected.rotation, atol=1e-9)
        np.testing.assert_allclose(
            folded[2].pose.translation, expected.translation, atol=1e-9
        )

    def test_out_of_range_theta_rejected(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        with pytest.raises(ValueError, match="out of range"):
            forward_kinematics(tree, JointVector.flat(tree).replace(2, -0.5))

    def test_ancestry_governs_motion(self):
        # Perturbing joint i moves panel j iff i is an ancestor of j or i == j.
        rng = np.random.default_rng(17)
        for n in (4, 6, 8):
            tree = random_tree(rng, n)
            flat = forward_kinematics(tree, JointVector.flat(tree))
            flat_centers = {p.panel_id: p.center for p in flat}
            for joint in tree.foldable_ids:
                panel = tree.panel(joint)
                nudged_theta = JointVector.flat(tree).replace(
                    joint, panel.theta_init + 0.25 * (panel.theta_final - panel.theta_init)
                )
                nudged = forward_kinematics(tree, nudged_theta)
                for pose in nudged:
                    moved = not np.allclose(
                        pose.center, flat_centers[pose.panel_id], atol=1e-9
                    )
                    expected = pose.panel_id in tree.subtree_ids(joint)
                    assert moved == expected, (joint, pose.panel_id)

    def test_solid_half_extents_follow_dims(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        poses = forward_kinematics(tree, JointVector.flat(tree))
        root = tree.panel(1)
        np.testing.assert_allclose(
            poses[0].solid.half_extents,
            (root.width / 2, root.height / 2, root.thickness / 2),
        )

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_every_pose_is_a_proper_rotation(self, spec_dir, name):
        # FK composes transforms without re-validating them; every product
        # must still pass the check the public constructor makes.
        tree = build_tree(load_spec(spec_dir / name))
        joints = tree.foldable_ids
        for r in range(len(joints) + 1):
            for folded in itertools.combinations(joints, r):
                for pose in forward_kinematics(tree, JointVector.from_folded(tree, folded)):
                    for rot in (pose.pose.rotation, pose.solid.pose.rotation):
                        assert np.abs(rot.T @ rot - np.eye(3)).max() <= ORTHONORMAL_TOL
                        assert np.linalg.det(rot) > 0.0

    def test_center_is_pose_of_local_center(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        for pose in forward_kinematics(tree, JointVector.from_folded(tree, {2})):
            panel = tree.panel(pose.panel_id)
            np.testing.assert_allclose(
                pose.center,
                pose.pose.apply((panel.width / 2, panel.height / 2, 0.0)),
                atol=1e-12,
            )
