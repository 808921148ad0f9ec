from __future__ import annotations

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import cartonfold.collision as collision_module
import cartonfold.planner as planner_module
from cartonfold.collision import (
    GraspSide,
    collision_check,
    grasp_side,
    n_sweep_samples,
    sweep,
    sweep_angles,
    sweep_bounds,
)
from cartonfold.geometry import (
    CORNER_SIGNS,
    OrientedBox,
    Transform,
    obb_intersect,
    pack_boxes,
    sat_overlap_matrix,
)
from cartonfold.model import (
    CartonSpec,
    GripperSpec,
    JointVector,
    PanelSpec,
    build_tree,
    forward_kinematics,
    load_spec,
)
from cartonfold.planner import build_lattice

from .conftest import SHIPPED_SPECS, free_flap_spec
from .oracles import every_verdict
from .test_model import random_tree


def two_panel_tree():
    # Mid-plane hinges interpenetrate up to t/2 near the crease, so the
    # allowance must exceed half the thickness.
    return build_tree(
        CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(100, 200, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(60, 190, 2),
                    crease_anchor=(195, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
            ),
            table_plane=False,
            tolerance_angle=math.radians(5.0),
            penetration_tolerance=1.05,
        )
    )


def with_fixtures(tree, *boxes):
    """The same carton with fixture boxes added to its workcell."""
    return build_tree(replace(tree.spec, environment=tree.spec.environment + boxes))


# A generated variant of three_flaps: its base, the crease parent of every
# flap, is 0.1 mm thin, so its half thickness lies below half the 1.05 mm
# penetration allowance and the kernel clamps it at zero.
THIN_BASE = "three_flaps.yaml:0.1 mm base"


def load_case(spec_dir, name):
    """A shipped spec by file name, or ``THIN_BASE``."""
    path, _, variant = name.partition(":")
    spec = load_spec(spec_dir / path)
    if variant:
        base = replace(spec.panels[0], dims=(*spec.panels[0].dims[:2], 0.1))
        spec = replace(spec, panels=(base, *spec.panels[1:]))
    return spec


# tree -> {(joint, folded joints that place its subtree): (boxes, moving ids)}
_FK_SWEEPS = weakref.WeakKeyDictionary()


def fk_sweep(tree, mask, joint):
    """The moving subtree's solids at every sample angle of the fold, packed
    as (centers, rotations, half_extents) rows (sample, subtree panel in
    topological order), each from forward kinematics of the whole carton
    with the joint at the sample angle. A panel's pose reads only its
    ancestors' angles, so the result is kept per tree and per folded joint
    among those above a subtree panel, found by the spec's parent links."""

    def lineage(pid):
        while pid is not None:
            yield pid
            pid = tree.panel(pid).parent

    moving = tuple(pid for pid in tree.topo_order if joint in lineage(pid))
    placing = {above for pid in moving for above in lineage(pid)} - {joint}
    folded = set(tree.joints(mask))
    memo = _FK_SWEEPS.setdefault(tree, {})
    key = (joint, frozenset(folded & placing))
    if key not in memo:
        panel = tree.panel(joint)
        base = JointVector.from_folded(tree, folded)
        solids = []
        for phi in sweep_angles(panel.theta_init, panel.theta_final, tree.spec.tolerance_angle):
            poses = forward_kinematics(tree, base.replace(joint, float(phi)))
            by_id = {pose.panel_id: pose.solid for pose in poses}
            solids += [by_id[pid] for pid in moving]
        memo[key] = pack_boxes(solids), moving
    return memo[key]


def full_kernel_check(tree, mask, joint) -> bool:
    """The undecomposed swept check: forward kinematics of the whole fold
    state and of every sample (``fk_sweep``), no broad phase and no
    collision memo, the kernel on every (swept box, static box) pair and
    the table test on all 8 corners of every swept box."""
    spec = tree.spec
    poses = forward_kinematics(tree, JointVector.from_folded(tree, tree.joints(mask)))
    panel = tree.panel(joint)
    movers, moving_ids = fk_sweep(tree, mask, joint)
    eps = spec.penetration_tolerance
    for pose in poses:
        if pose.panel_id in moving_ids:
            continue
        clearance = -eps if pose.panel_id == panel.parent else 0.0
        if sat_overlap_matrix(*movers, *pack_boxes([pose.solid]), clearance).any():
            return False
    if tree.obstacles is not None and sat_overlap_matrix(*movers, *tree.obstacles).any():
        return False
    if spec.table_plane:
        centers, rots, halves = movers
        offsets = CORNER_SIGNS[None, :, :] * halves[:, None, :]
        corners = centers[:, None, :] + np.einsum("nij,nkj->nki", rots, offsets)
        if corners[:, :, 2].min() < -eps:
            return False
    return True


def branchy_trees(count: int = 6, seed: int = 41):
    """Random trees at least three creases deep, so that sweeps and pairs are
    keyed on grandparents' and grandchildren's folds; every other one also
    stands on the table and carries a fixture."""
    rng = np.random.default_rng(seed)
    trees = []
    while len(trees) < count:
        tree = random_tree(rng, 7)
        if max(joints.bit_count() for joints in tree.ancestry.values()) < 3:
            continue  # every panel of a random tree folds: this is its depth
        if len(trees) % 2:
            post = OrientedBox.from_center(rng.uniform((0, 0, 5), (80, 80, 40)), (8, 8, 8))
            tree = build_tree(
                replace(
                    tree.spec,
                    environment=(post,),
                    table_plane=True,
                    root_pose=Transform(np.eye(3), (0.0, 0.0, 1.0)),
                )
            )
        trees.append(tree)
    return trees


def all_folds(tree):
    """Every (fold mask, unfolded joint) of the carton, reachable or not."""
    for mask in range(1 << len(tree.foldable_ids)):
        for joint in tree.foldable_ids:
            if not mask & tree.bits[joint]:
                yield mask, joint


class TestSweepAngles:
    def test_endpoints_always_included(self):
        for start, end, step in [
            (0.0, np.pi / 2, math.radians(5)),
            (0.0, np.pi / 2, math.radians(7)),   # does not divide evenly
            (np.pi / 2, 0.0, math.radians(5)),   # descending arc
            (0.0, -np.pi, math.radians(11)),
            (0.0, 0.3, 10.0),                    # step larger than the arc
        ]:
            samples = sweep_angles(start, end, step)
            assert samples[0] == start
            assert samples[-1] == end
            assert len(samples) >= 2
            gaps = np.abs(np.diff(samples))
            assert gaps.max() <= step + 1e-12
            # Strictly monotonic, no duplicated endpoint.
            assert np.all(np.sign(np.diff(samples)) == np.sign(end - start))

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            sweep_angles(0.0, 1.0, 0.0)


class TestCollisionCheck:
    def test_free_fold_in_empty_environment(self):
        tree = two_panel_tree()
        assert collision_check(tree, 0, 2) is True

    def test_obstacle_across_the_arc_blocks(self):
        # Place the obstacle exactly at the flap's mid-arc pose, computed by
        # forward kinematics rather than by the sweep machinery.
        tree = two_panel_tree()
        mid = forward_kinematics(
            tree, JointVector.flat(tree).replace(2, np.pi / 4)
        )
        flap_mid_center = mid[1].solid.center
        block = OrientedBox.from_center(flap_mid_center, (20, 20, 20))
        assert collision_check(with_fixtures(tree, block), 0, 2) is False

    def test_blocking_pair_orders(self, blocking_pair):
        # Covering flap folded first blocks the drop leaf; leaf first is fine.
        _, tree = blocking_pair
        assert collision_check(tree, 0, 3) is True
        assert collision_check(tree, tree.mask({2}), 3) is False
        assert collision_check(tree, tree.mask({3}), 2) is True

    def test_already_folded_joint_rejected(self):
        tree = two_panel_tree()
        with pytest.raises(ValueError, match="already folded"):
            collision_check(tree, tree.mask({2}), 2)

    @pytest.mark.parametrize("mask", [-1, 2])
    def test_mask_out_of_range_rejected(self, mask):
        tree = two_panel_tree()
        with pytest.raises(ValueError, match="no foldable joint"):
            collision_check(tree, mask, 2)

    def test_static_joint_rejected(self):
        tree = two_panel_tree()
        with pytest.raises(ValueError, match="not a foldable joint"):
            collision_check(tree, 0, 1)

    def test_table_blocks_downward_fold(self):
        spec = CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(100, 200, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(60, 190, 2),
                    crease_anchor=(195, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=-np.pi / 2,
                ),
            ),
            root_pose=Transform(np.eye(3), (0, 0, 1)),
            table_plane=True,
            penetration_tolerance=1.05,
        )
        assert collision_check(build_tree(spec), 0, 2) is False
        no_table = build_tree(replace(spec, table_plane=False))
        assert collision_check(no_table, 0, 2) is True

    def test_determinism(self, blocking_pair):
        _, tree = blocking_pair
        verdicts = {collision_check(tree, 0, joint) for joint in (2, 2, 2)}
        assert len(verdicts) == 1

    def test_adding_obstacles_never_unblocks(self):
        rng = np.random.default_rng(29)
        tree = two_panel_tree()
        for _ in range(40):
            center = rng.uniform((-80, -80, -10), (280, 180, 90))
            box = OrientedBox.from_center(center, rng.uniform(5, 60, size=3))
            base = collision_check(tree, 0, 2)
            augmented = collision_check(with_fixtures(tree, box), 0, 2)
            if augmented:
                assert base  # an obstacle may only flip true -> false

    def test_static_panels_hold_still_during_sweep(self, case_study):
        # Panels outside the moving subtree must have identical poses at
        # every sampled angle of the sweep.
        spec, tree = case_study
        folded = {3}
        joint = 1
        moving = set(tree.subtree_ids(joint))
        panel = tree.panel(joint)
        base_theta = JointVector.from_folded(tree, folded)
        reference = {
            p.panel_id: p.pose for p in forward_kinematics(tree, base_theta)
        }
        for phi in sweep_angles(panel.theta_init, panel.theta_final, spec.tolerance_angle):
            poses = forward_kinematics(tree, base_theta.replace(joint, float(phi)))
            for pose in poses:
                if pose.panel_id in moving:
                    continue
                np.testing.assert_array_equal(
                    pose.pose.rotation, reference[pose.panel_id].rotation
                )
                np.testing.assert_array_equal(
                    pose.pose.translation, reference[pose.panel_id].translation
                )

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_resolution_stability_on_shipped_cartons(self, spec_dir, name):
        # Halving the tolerance angle must not change any verdict, over every
        # (subset, joint) pair of the carton.
        spec = load_spec(spec_dir / name)
        fine = replace(spec, tolerance_angle=spec.tolerance_angle / 2.0)
        assert every_verdict(build_tree(spec)) == every_verdict(build_tree(fine))


class TestSweptSolids:
    @staticmethod
    def assert_fk_boxes(tree, mask, joint):
        """Each swept box, row (sample, subtree panel), is the panel's solid
        placed by forward kinematics of the fold state with the moving joint
        at the sample angle (``fk_sweep``); the sweep builds it another way,
        from the panel records and the joint's Rodrigues terms."""
        want, _ = fk_sweep(tree, mask, joint)
        got = sweep(tree, mask, joint).boxes
        assert [len(a) for a in got] == [len(a) for a in want]
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def check_every_sweep(self, tree):
        """Each joint folds first (nothing folded) and last (everything else
        folded), so subtrees carry folded panels and parents stand rotated.
        The states are not taken from a lattice, which a broken product
        would empty."""
        everything = tree.mask(tree.foldable_ids)
        for joint in tree.foldable_ids:
            for mask in (0, everything & ~tree.bits[joint]):
                self.assert_fk_boxes(tree, mask, joint)

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    @pytest.mark.parametrize("step_deg", [5.0, 0.25])
    def test_shipped_specs(self, spec_dir, name, step_deg):
        spec = load_spec(spec_dir / name)
        self.check_every_sweep(build_tree(replace(spec, tolerance_angle=math.radians(step_deg))))

    def test_branchy_trees(self):
        # The shipped specs hinge every subtree on parallel creases, so their
        # rotations commute; these trees turn creases across each other.
        for tree in branchy_trees():
            self.check_every_sweep(tree)

    def test_batched_sweeps_of_a_lattice_build(self, monkeypatch):
        # The lattice build asks for a layer's sweeps in one batch, and on
        # these trees one batch mixes joints of different spans (so of
        # different sample counts) and subtrees of different sizes.
        batches = []
        real = collision_module.build_sweeps

        def recorded(tree, folds):
            folds = list(folds)
            batches.append(folds)
            return real(tree, folds)

        monkeypatch.setattr(collision_module, "build_sweeps", recorded)
        monkeypatch.setattr(planner_module, "build_sweeps", recorded)
        mixed = False
        for tree in branchy_trees():
            batches.clear()
            build_lattice(tree)
            built = len(tree.sweeps)
            for folds in batches:
                samples = {n_sweep_samples(tree, joint) for _, joint in folds}
                sizes = {len(tree.subtree_ids(joint)) for _, joint in folds}
                mixed = mixed or (len(samples) > 1 and len(sizes) > 1)
                for mask, joint in folds:
                    self.assert_fk_boxes(tree, mask, joint)
            assert len(tree.sweeps) == built  # the checks found every sweep memoised
            asked = [fold for folds in batches for fold in folds]
            assert built == len({(joint, mask & tree.subtree_ancestry[joint]) for mask, joint in asked})
        assert mixed


class TestBroadPhase:
    def test_cull_floats_are_the_sweep_bounds(self, spec_dir):
        # The pair tests cull on each sweep's bounds as floats, taken once
        # per sweep from the batch that built it.
        trees = [*branchy_trees(), build_tree(load_spec(spec_dir / "case_study_tray.yaml"))]
        for tree in trees:
            build_lattice(tree)
            assert tree.sweeps
            for swept in tree.sweeps.values():
                for floats, arrays in zip(swept.cull, (swept.bounds, swept.shrunk)):
                    assert np.array(floats).tobytes() == np.array(arrays).tobytes()

    @pytest.mark.parametrize("name", [*SHIPPED_SPECS, THIN_BASE])
    @pytest.mark.parametrize("step_deg", [5.0, 1.0])
    @pytest.mark.parametrize("own_penetration", [False, True])
    def test_matches_the_full_kernel(self, spec_dir, name, step_deg, own_penetration):
        # Every (subset, joint) of the carton, reachable or not.
        spec = load_case(spec_dir, name)
        tree = build_tree(
            replace(
                spec,
                tolerance_angle=math.radians(step_deg),
                penetration_tolerance=spec.penetration_tolerance if own_penetration else 0.0,
            )
        )
        for mask, joint in all_folds(tree):
            expected = full_kernel_check(tree, mask, joint)
            assert collision_check(tree, mask, joint) is expected, (mask, joint)

    @pytest.mark.parametrize("own_penetration", [False, True])
    def test_matches_the_full_kernel_on_branchy_trees(self, own_penetration):
        # Cross creases, grandchildren in the sweeps, and on every other tree
        # the table and a fixture.
        for n, tree in enumerate(branchy_trees(count=3)):
            if not own_penetration:
                tree = build_tree(replace(tree.spec, penetration_tolerance=0.0))
            for mask, joint in all_folds(tree):
                expected = full_kernel_check(tree, mask, joint)
                assert collision_check(tree, mask, joint) is expected, (n, mask, joint)

    @pytest.mark.parametrize(
        "name, fixture_checks, pair_checks",
        [
            ("case_study_tray.yaml", [], []),
            ("three_flaps.yaml", [], []),
            ("free_flap_spec(8)", [], []),
            # One non-parent pair that blocks, and one fixture that does.
            ("blocking_pair.yaml", [], [(0.0, True)]),
            ("obstructed_flap.yaml", [(0.0, True)], []),
        ],
    )
    def test_only_pairs_the_kernel_can_hit_are_packed(
        self, spec_dir, monkeypatch, name, fixture_checks, pair_checks
    ):
        # The float cull settles every pair test whose box the sweep's
        # bounds drop, crease parents included, so only pairs that reach
        # the kernel pack a box and call _blocked.
        spec = free_flap_spec(8) if name == "free_flap_spec(8)" else load_spec(spec_dir / name)
        tree = build_tree(spec)
        calls, kernel_calls = [], []
        blocked, kernel = collision_module._blocked, collision_module.sat_overlap_matrix

        def recorded(movers, bounds, boxes, clearance):
            verdict = blocked(movers, bounds, boxes, clearance)
            calls.append((boxes is tree.obstacles, clearance, verdict))
            return verdict

        def counted(*args):
            kernel_calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(collision_module, "_blocked", recorded)
        monkeypatch.setattr(collision_module, "sat_overlap_matrix", counted)
        build_lattice(tree)
        assert [call[1:] for call in calls if call[0]] == fixture_checks
        assert [call[1:] for call in calls if not call[0]] == pair_checks
        assert len(kernel_calls) == len(fixture_checks) + len(pair_checks)
        assert sum(tree.pair_verdicts.values()) == len(pair_checks)

    def test_fixture_hit_by_one_sample_is_not_culled(self):
        # A 1 mm cube on the flap's mid-plane near its free edge at 45
        # degrees: the 40 and 50 degree samples pass it by about 5 mm.
        tree = two_panel_tree()
        flat = JointVector.flat(tree)
        at_45 = forward_kinematics(tree, flat.replace(2, np.pi / 4))[1]
        cube = OrientedBox.from_center(at_45.pose.apply((95.0, 57.0, 0.0)), (1, 1, 1))
        samples = sweep_angles(0.0, np.pi / 2, tree.spec.tolerance_angle)
        solids = [forward_kinematics(tree, flat.replace(2, float(phi)))[1].solid for phi in samples]
        assert sum(obb_intersect(solid, cube) for solid in solids) == 1

        lo, hi = sweep_bounds(pack_boxes(solids))
        corners = cube.corners()
        assert np.all(corners > lo) and np.all(corners < hi)
        assert collision_check(with_fixtures(tree, cube), 0, 2) is False

    @pytest.mark.parametrize("penetration", [0.0, 0.5])
    def test_crease_adjacent_parent_still_collides(self, three_flaps, penetration):
        # Below half the 2 mm thickness each flap overlaps the base at the
        # crease by more than the allowance, and only that pair decides:
        # with the spec's allowance the same folds are free.
        spec, _ = three_flaps
        tight = build_tree(replace(spec, penetration_tolerance=penetration, table_plane=False))
        loose = build_tree(replace(spec, table_plane=False))
        for joint in tight.foldable_ids:
            assert full_kernel_check(tight, 0, joint) is False
            assert collision_check(tight, 0, joint) is False
            assert collision_check(loose, 0, joint) is True


class TestDecomposition:
    """collision_check is an AND of memoised sweep and pair predicates; it
    must give the undecomposed verdict on every (subset, joint)."""

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_matches_the_full_kernel_at_a_quarter_degree(self, spec_dir, name):
        spec = load_spec(spec_dir / name)
        tree = build_tree(replace(spec, tolerance_angle=math.radians(0.25)))
        for mask, joint in all_folds(tree):
            expected = full_kernel_check(tree, mask, joint)
            assert collision_check(tree, mask, joint) is expected, (mask, joint)

    def test_matches_the_full_kernel_on_branchy_trees(self):
        # The keys do not depend on the sweep step, so one step covers them.
        verdicts = set()
        for n, tree in enumerate(branchy_trees()):
            for mask, joint in all_folds(tree):
                expected = full_kernel_check(tree, mask, joint)
                assert collision_check(tree, mask, joint) is expected, (n, mask, joint)
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_repeated_checks_reuse_the_memos(self, case_study):
        spec, _ = case_study
        tree = build_tree(spec)
        folds = list(all_folds(tree))
        first = [collision_check(tree, mask, joint) for mask, joint in folds]
        sizes = len(tree.sweeps), len(tree.pair_verdicts), len(tree.panel_records)
        again = [collision_check(tree, mask, joint) for mask, joint in folds]
        assert again == first
        assert (len(tree.sweeps), len(tree.pair_verdicts), len(tree.panel_records)) == sizes
        # One sweep per joint and folded subset of the joints that place it.
        assert len(tree.sweeps) == len(
            {(joint, mask & tree.subtree_ancestry[joint]) for mask, joint in folds}
        )


class TestGraspSide:
    def make_flap_tree(self, theta_final, extra_env=()):
        spec = CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(100, 200, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(60, 190, 2),
                    crease_anchor=(195, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=theta_final,
                ),
            ),
            root_pose=Transform(np.eye(3), (0, 0, 1)),
            environment=tuple(extra_env),
            table_plane=True,
            gripper=GripperSpec(dims=(40, 40, 20), standoff=3),
            penetration_tolerance=1.05,
        )
        return build_tree(spec)

    def test_flat_flap_grasped_from_inside(self):
        tree = self.make_flap_tree(np.pi / 2)
        assert grasp_side(tree, 0, 2) is GraspSide.INSIDE

    def test_inner_face_on_table_forces_outside(self):
        # A downward fold's inner face is the underside, resting on the table.
        tree = self.make_flap_tree(-np.pi / 2)
        assert grasp_side(tree, 0, 2) is GraspSide.OUTSIDE

    def test_boxed_in_flap_has_no_side(self):
        # Downward fold (inner face on the table) plus a fixture slab right
        # above the flap: neither face is reachable.
        lid = OrientedBox.from_center((100.0, -30.0, 7.0), (220, 80, 6))
        tree = self.make_flap_tree(-np.pi / 2, extra_env=(lid,))
        assert grasp_side(tree, 0, 2) is GraspSide.NONE

    def test_spec_without_gripper_rejected(self):
        tree = self.make_flap_tree(np.pi / 2)
        bare = build_tree(replace(tree.spec, gripper=None))
        with pytest.raises(ValueError, match="no gripper"):
            grasp_side(bare, 0, 2)
