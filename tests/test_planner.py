from __future__ import annotations

import io
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import cartonfold
import cartonfold.collision as collision_module
import cartonfold.planner as planner_module
from cartonfold.cli import EXIT_NO_SEQUENCES, RunConfig, run
from cartonfold.collision import collision_check
from cartonfold.geometry import OrientedBox, Transform, pack_boxes
from cartonfold.model import CartonSpec, PanelSpec, build_tree, load_spec
from cartonfold.planner import (
    FoldLattice,
    PlannerError,
    SearchDiagnostics,
    build_lattice,
    enumerate_sequences,
)
from cartonfold.reference import JointVector, forward_kinematics, serialize_spec

from . import oracles
from .conftest import SHIPPED_SPECS, free_flap_spec
from .oracles import brute_force_sequences, every_verdict, loop_lattice
from .test_collision import all_folds, branchy_trees, full_kernel_check
from .test_model import fk_measures


def frozenset_lattice(tree):
    """A reference lattice on frozensets: breadth first from the empty
    subset, one collision_check per (reachable subset, unfolded joint),
    aerial flags from forward kinematics of the whole state, completions by
    the same path-count recursion. Each layer's subsets are in ascending
    order of their masks, as in ``build_lattice``."""
    foldable = sorted(tree.foldable_ids)
    edges, layer = {}, [frozenset()]
    while layer:
        reached = {}
        for folded in layer:
            _, _, min_z = fk_measures(tree, folded)
            out = []
            for joint in foldable:
                if joint not in folded and collision_check(tree, tree.mask(folded), joint):
                    lowest = min(min_z[pid] for pid in tree.subtree_ids(joint))
                    out.append((joint, folded | {joint}, lowest > tree.spec.support_tolerance))
                    reached[folded | {joint}] = None
            edges[folded] = tuple(out)
        layer = sorted(reached, key=tree.mask)
    completions = {}
    for folded in reversed(edges):
        completions[folded] = 1 if len(folded) == len(foldable) else sum(
            completions[child] for _, child, _ in edges[folded]
        )
    return edges, completions


def slab_spec(k: int) -> CartonSpec:
    """k free flaps under a slab that every one of them hits on its way up."""
    slab = OrientedBox.from_center((300.0, 300.0, 25.0), (800.0, 800.0, 10.0))
    return replace(free_flap_spec(k), environment=(slab,))


def two_fixture_spec(step_deg: float) -> CartonSpec:
    """Wall 2 and flap 4 on opposite edges of a base, and flap 3 on top of
    wall 2, all folding up, with two fixtures: a post a metre away, which
    every sweep culls, and a 1 mm cube on flap 3's mid-plane 3 mm from its
    free edge at 45 degrees while wall 2 stands upright. No other fold
    comes near the cube, so flap 3 must fold before wall 2."""
    spec = CartonSpec(
        panels=(
            PanelSpec(id=1, parent=None, dims=(100, 200, 2)),
            PanelSpec(
                id=2, parent=1, dims=(60, 190, 2), crease_anchor=(195, 0, 0), crease_dir=(-1, 0, 0),
                theta_init=0.0, theta_final=math.pi / 2,
            ),
            PanelSpec(
                id=3, parent=2, dims=(60, 180, 2), crease_anchor=(5, 60, 0), crease_dir=(1, 0, 0),
                theta_init=0.0, theta_final=math.pi / 2,
            ),
            PanelSpec(
                id=4, parent=1, dims=(40, 190, 2), crease_anchor=(5, 100, 0), crease_dir=(1, 0, 0),
                theta_init=0.0, theta_final=math.pi / 2,
            ),
        ),
        root_pose=Transform(np.eye(3), (0.0, 0.0, 1.0)),
        table_plane=True,
        tolerance_angle=math.radians(step_deg),
        penetration_tolerance=1.05,
    )
    tree = build_tree(spec)
    flap = forward_kinematics(tree, JointVector.from_folded(tree, {2}).replace(3, math.pi / 4))[2]
    assert flap.panel_id == 3
    cube = OrientedBox.from_center(flap.pose.apply((90.0, 57.0, 0.0)), (1, 1, 1))
    post = OrientedBox.from_center((1000.0, 1000.0, 50.0), (10, 10, 10))
    return replace(spec, environment=(post, cube))


def case_spec(spec_dir, case: str) -> CartonSpec:
    """A shipped spec by file name, ``free:k`` flaps or a ``slab:k`` carton."""
    if case.startswith("free:"):
        return free_flap_spec(int(case[5:]))
    if case.startswith("slab:"):
        return slab_spec(int(case[5:]))
    return load_spec(spec_dir / case)


class TestLatticeStates:
    @pytest.mark.parametrize("case", ["free:6", "case_study_tray.yaml", "slab:64"])
    def test_masks_are_one_array_ascending_within_each_layer(self, spec_dir, case):
        # At 64 flaps the masks no longer fit an int64; the slab blocks
        # every fold, so that lattice is empty but keeps the wide dtype.
        lattice = build_lattice(build_tree(case_spec(spec_dir, case)))
        k = len(lattice.tree.foldable_ids)
        assert isinstance(lattice.masks, np.ndarray)
        assert lattice.masks.dtype == (np.int64 if k < 63 else object)
        layers = lattice.layers.tolist()
        assert layers[0] == 0 and layers[-1] == len(lattice.masks)
        for size, (lo, hi) in enumerate(zip(layers, layers[1:])):
            layer = lattice.masks[lo:hi].tolist()
            assert layer and all(a < b for a, b in zip(layer, layer[1:]))
            assert {mask.bit_count() for mask in layer} == {size}
        if case.startswith("free:"):
            assert len(lattice.masks) == 2 ** k

    @pytest.mark.parametrize("case", [*SHIPPED_SPECS, "free:6", "slab:64"])
    def test_edges_hold_the_slot_of_their_joint(self, spec_dir, case):
        # Each edge keeps its joint's index into tree.foldable_ids, one byte
        # up to 256 joints; the joint is the one bit its child adds.
        lattice = build_lattice(build_tree(case_spec(spec_dir, case)))
        tree = lattice.tree
        assert lattice.slot.dtype == np.uint8
        added = (lattice.masks[lattice.child] ^ lattice.masks[lattice.source]).tolist()
        joints = [joint for mask in added for joint in tree.joints(mask)]
        assert len(joints) == len(lattice.slot)
        assert np.array(tree.foldable_ids)[lattice.slot].tolist() == joints

    def test_every_flap_folds_out_of_the_flat_state(self, three_flaps):
        _, tree = three_flaps
        lattice = build_lattice(tree)
        assert lattice.masks[0] == 0
        assert lattice.slot[lattice.first[0]:lattice.first[1]].tolist() == [0, 1, 2]
        assert tree.foldable_ids == (2, 3, 4)

    def test_full_state_is_last_and_has_no_folds(self, three_flaps):
        _, tree = three_flaps
        lattice = build_lattice(tree)
        assert lattice.masks[-1] == tree.mask(tree.foldable_ids)
        assert lattice.first[-2] == lattice.first[-1] == len(lattice.slot)

    def test_static_joints_never_appear(self):
        spec = CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(100, 100, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(30, 90, 2),
                    crease_anchor=(5, 100, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=math.pi / 2,
                ),
                # Fixed bracket: equal angles, not foldable.
                PanelSpec(
                    id=3, parent=1, dims=(30, 90, 2),
                    crease_anchor=(95, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=0.0,
                ),
            ),
            table_plane=False,
        )
        tree = build_tree(spec)
        assert tree.foldable_ids == (2,)
        assert tree.bits == {2: 1}
        # One state, one fold to check out of it.
        assert build_lattice(tree).stats.cc_calls == 1


class TestEnumerateSequences:
    def test_three_free_flaps_all_orderings(self, three_flaps):
        _, tree = three_flaps
        sequences = enumerate_sequences(tree)
        assert sorted(sequences) == sorted(
            itertools.permutations((2, 3, 4))
        )

    def test_blocking_pair_constrained_order_only(self, blocking_pair):
        _, tree = blocking_pair
        sequences = enumerate_sequences(tree)
        assert sequences == [(3, 2)]

    def test_one_blocking_pair_among_three_joints(self, blocking_pair):
        # Add an unconstrained flap to the blocking pair: of the 3! = 6
        # permutations, exactly those with the leaf before the cover
        # survive, confirmed against the brute-force oracle.
        spec, _ = blocking_pair
        # Hinged just south of the base edge so its upright pose clears the
        # cover's overhanging landing slab.
        free = PanelSpec(
            id=4, parent=1, dims=(30, 96, 2),
            crease_anchor=(98, -2, 0), crease_dir=(-1, 0, 0),
            theta_init=0.0, theta_final=math.pi / 2,
        )
        extended = CartonSpec(
            panels=spec.panels + (free,),
            root_pose=spec.root_pose,
            table_plane=spec.table_plane,
            penetration_tolerance=spec.penetration_tolerance,
            tolerance_angle=spec.tolerance_angle,
        )
        tree = build_tree(extended)
        got = enumerate_sequences(tree)
        assert got == sorted(brute_force_sequences(tree))
        assert len(got) == 3
        for order in got:
            assert order.index(3) < order.index(2)

    def test_output_is_depth_first_ascending(self, three_flaps):
        _, tree = three_flaps
        orders = enumerate_sequences(tree)
        assert orders == sorted(orders)

    def test_no_foldable_joints_is_an_error(self):
        spec = CartonSpec(
            panels=(PanelSpec(id=1, parent=None, dims=(50, 50, 2)),),
            table_plane=False,
        )
        with pytest.raises(PlannerError, match="no foldable joints"):
            enumerate_sequences(build_tree(spec))

    def test_q_bounded_by_factorial(self, case_study, case_study_sequences):
        _, tree = case_study
        assert len(case_study_sequences) <= math.factorial(len(tree.foldable_ids))

    def test_soundness_replay(self, blocking_pair, three_flaps):
        for _, tree in (blocking_pair, three_flaps):
            for order in enumerate_sequences(tree):
                mask = 0
                for joint in order:
                    assert collision_check(tree, mask, joint)
                    mask |= tree.bits[joint]

    @pytest.mark.parametrize("name", SHIPPED_SPECS[:3])
    def test_oracle_equivalence_small_cartons(self, spec_dir, name):
        # For every shipped carton small enough, the search must agree with
        # plain permutation filtering.
        spec = load_spec(spec_dir / name)
        tree = build_tree(spec)
        assert len(tree.foldable_ids) <= 6
        expected = brute_force_sequences(tree)
        got = enumerate_sequences(tree)
        assert sorted(got) == sorted(expected)
        assert got == sorted(got)

    def test_memoized_never_repeats_a_check(self, case_study, monkeypatch):
        # Exactly one verdict per (reachable subset, unfolded joint), with no
        # collision_check call: the reference loop checks each reachable
        # state's folds once, and the build computes each sweep and each
        # pair test once.
        spec, _ = case_study
        checked = []

        def counted_check(tree_, mask, joint):
            checked.append((mask, joint))
            return collision_check(tree_, mask, joint)

        with monkeypatch.context() as patch:
            patch.setattr(oracles, "collision_check", counted_check)
            reference = loop_lattice(build_tree(spec))

        calls, pairs = [], []
        real_pair = collision_module._pair_blocked

        class Sweeps(dict):
            """A sweep memo that lists every key stored in it."""

            def __init__(self):
                super().__init__()
                self.built = []

            def __setitem__(self, key, value):
                self.built.append(key)
                super().__setitem__(key, value)

        def pair(tree_, sweep_, mask, pid):
            pairs.append((id(sweep_), pid, mask))
            return real_pair(tree_, sweep_, mask, pid)

        for module in (cartonfold, *vars(cartonfold).values()):
            if getattr(module, "collision_check", None) is collision_check:
                monkeypatch.setattr(module, "collision_check", lambda *args: calls.append(args))
        monkeypatch.setattr(collision_module, "_pair_blocked", pair)
        tree = build_tree(spec)
        object.__setattr__(tree, "sweeps", Sweeps())
        lattice = build_lattice(tree)
        swept = tree.sweeps.built
        k = len(tree.foldable_ids)
        assert calls == []
        assert len(checked) == len(set(checked)) == lattice.stats.cc_calls == reference.stats.cc_calls
        assert set(checked) == {
            (mask, j) for mask in lattice.masks.tolist() for j in tree.foldable_ids if not mask & tree.bits[j]
        }
        assert lattice.stats.cc_calls <= (2 ** k) * k
        assert len(swept) == len(set(swept)) == lattice.stats.sweeps == len(tree.sweeps) == 9
        assert len(pairs) == len(set(pairs)) == lattice.stats.pair_tests == len(tree.pair_verdicts)
        assert lattice.sequence_count == len(lattice.sequences()) == 1680


class TestVerdicts:
    def test_blocking_pair_entries(self, blocking_pair):
        _, tree = blocking_pair
        verdicts = every_verdict(tree)
        assert len(verdicts) == 4
        assert verdicts[0, 3] is True
        assert verdicts[0, 2] is False
        assert verdicts[tree.mask({3}), 2] is True
        assert verdicts[tree.mask({2}), 3] is False

    def test_same_subset_same_verdict(self, case_study):
        # The collision check takes the folded subset, not the path: build
        # the subset along different orders and compare every next-joint
        # verdict.
        _, tree = case_study
        paths = [(1, 3, 4), (4, 3, 1), (3, 1, 4)]
        verdicts = []
        for path in paths:
            mask = 0
            for joint in path:
                mask |= tree.bits[joint]
            verdicts.append(
                {
                    j: collision_check(tree, mask, j)
                    for j in tree.foldable_ids
                    if not mask & tree.bits[j]
                }
            )
        assert verdicts[0] == verdicts[1] == verdicts[2]


class TestMaskLattice:
    """The lattice keys fold states on int masks and keeps the states and
    folds on some complete path; read back as frozensets it must be the
    reference lattice cut to those states, edge for edge and in the same
    order."""

    @pytest.mark.parametrize(
        "spec",
        [*SHIPPED_SPECS, *(f"free:{k}" for k in range(3, 9))],
    )
    def test_equals_the_live_frozenset_lattice(self, spec_dir, spec):
        if spec.startswith("free:"):
            spec = free_flap_spec(int(spec[5:]))
        else:
            spec = load_spec(spec_dir / spec)
        lattice = build_lattice(build_tree(spec))
        tree = lattice.tree
        reference, ways = frozenset_lattice(build_tree(spec))

        def subset(i):
            return frozenset(tree.joints(lattice.masks[i]))

        columns = (np.array(tree.foldable_ids)[lattice.slot], lattice.child, lattice.aerial)
        got = [
            (subset(i), [(j, subset(c), a) for j, c, a in zip(*(col[lo:hi].tolist() for col in columns))])
            for i, (lo, hi) in enumerate(zip(lattice.first[:-1], lattice.first[1:]))
        ]
        expected = [
            (folded, [edge for edge in out if ways[edge[1]]])
            for folded, out in reference.items()
            if ways[folded]
        ]
        assert got == expected
        assert lattice.source.tolist() == [
            i for i, (lo, hi) in enumerate(zip(lattice.first[:-1], lattice.first[1:])) for _ in range(lo, hi)
        ]
        assert lattice.sequence_count == lattice.stats.sequences == ways[frozenset()]
        k = len(tree.foldable_ids)
        assert lattice.stats.dead_ends == sum(
            1 for folded, out in reference.items() if not out and len(folded) < k
        )

    def test_no_sequence_leaves_no_state(self, spec_dir):
        spec = load_spec(spec_dir / "three_flaps.yaml")
        lattice = build_lattice(build_tree(replace(spec, penetration_tolerance=0.0)))
        assert lattice.sequence_count == 0 and len(lattice.masks) == 0
        assert lattice.first.tolist() == [0] and len(lattice.slot) == 0
        assert lattice.sequences() == []
        assert lattice.stats.dead_ends == 1

    def test_masks_and_joints_convert_both_ways(self, case_study):
        _, tree = case_study
        for r in range(len(tree.foldable_ids) + 1):
            for folded in itertools.combinations(tree.foldable_ids, r):
                mask = tree.mask(folded)
                assert mask == sum(tree.bits[j] for j in folded)
                assert tree.joints(mask) == folded
        with pytest.raises(ValueError, match="not a foldable joint"):
            tree.mask([tree.spec.root.id])


class TestFreeFlapFactorial:
    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_factorial_counts(self, k):
        sequences = enumerate_sequences(build_tree(free_flap_spec(k)))
        assert len(sequences) == math.factorial(k)
        assert len(set(sequences)) == math.factorial(k)

    @pytest.mark.parametrize("k", (1, 2, 3, 8))
    def test_one_sweep_per_flap_and_one_pair_test_per_placed_panel(self, k):
        # Each flap sweeps alone over the base and the k - 1 other flaps,
        # which stand either flat or folded: k sweeps, k(2k - 1) pair tests
        # for the k 2^(k-1) collision checks.
        tree = build_tree(free_flap_spec(k))
        stats = build_lattice(tree).stats
        assert stats.cc_calls == k * 2 ** (k - 1)
        assert (stats.sweeps, stats.pair_tests) == (k, k * (2 * k - 1))
        assert "sweeps=%d" % k in stats.lines()
        assert "pair_tests=%d" % (k * (2 * k - 1)) in stats.lines()
        # A second build on the same tree reuses every predicate.
        again = build_lattice(tree).stats
        assert (again.cc_calls, again.sweeps, again.pair_tests) == (stats.cc_calls, 0, 0)


class TestPathCounts:
    def test_counts_are_int64_while_k_factorial_fits_one(self):
        assert math.factorial(20) < 2**63 < math.factorial(21)
        assert planner_module._path_count_dtype(20) is np.int64
        assert planner_module._path_count_dtype(21) is object

    def test_ten_free_flaps_count_ten_factorial(self):
        lattice = build_lattice(build_tree(free_flap_spec(10)))
        assert lattice.sequence_count == lattice.stats.sequences == math.factorial(10)
        assert type(lattice.sequence_count) is int

    def test_counts_in_python_ints_are_exact(self, monkeypatch):
        monkeypatch.setattr(planner_module, "_path_count_dtype", lambda k: object)
        lattice = build_lattice(build_tree(free_flap_spec(5)))
        assert lattice.sequence_count == math.factorial(5)
        assert type(lattice.sequence_count) is int

    def test_sixty_four_blocked_flaps_count_in_python_ints(self):
        assert planner_module._path_count_dtype(64) is object
        lattice = build_lattice(build_tree(slab_spec(64)))
        assert lattice.sequence_count == 0 and type(lattice.sequence_count) is int


def walked_paths(tree) -> tuple[list[tuple[int, ...]], int]:
    """Reference enumeration: a recursive walk of the reference lattice,
    folds in ascending joint order, skipping children that cannot complete.
    Returns the joint orders and the number of path prefixes visited."""
    edges, ways = frozenset_lattice(tree)
    final = frozenset(tree.foldable_ids)
    found, order, prefixes = [], [], 0

    def walk(folded: frozenset) -> None:
        nonlocal prefixes
        prefixes += 1
        if folded == final:
            found.append(tuple(order))
            return
        for joint, child, _ in edges[folded]:
            if ways[child]:
                order.append(joint)
                walk(child)
                order.pop()

    if ways[frozenset()]:
        walk(frozenset())
    return found, prefixes


class TestLivePaths:
    @pytest.mark.parametrize("case", (*SHIPPED_SPECS, "free:1", "free:5"))
    def test_paths_equal_a_depth_first_walk(self, spec_dir, case):
        if case.startswith("free:"):
            tree = build_tree(free_flap_spec(int(case[5:])))
        else:
            tree = build_tree(load_spec(spec_dir / case))
        lattice = build_lattice(tree)
        paths, prefixes = lattice.paths()
        orders, walked_prefixes = walked_paths(tree)
        joints = np.array(tree.foldable_ids)
        assert [tuple(row) for row in joints[lattice.slot[paths]].tolist()] == orders
        assert lattice.sequences() == orders
        assert prefixes == walked_prefixes
        if case == "case_study_tray.yaml":
            assert (len(orders), prefixes) == (1680, 4610)
        # Every row is a chain of edges from the empty state to the full one.
        for row in paths.tolist():
            states = [0] + [lattice.child[e] for e in row]
            assert [lattice.source[e] for e in row] == states[:-1]
            assert lattice.masks[states[-1]] == tree.mask(tree.foldable_ids)
            for e in row:
                assert lattice.first[lattice.source[e]] <= e < lattice.first[lattice.source[e] + 1]


    def test_paths_of_branchy_trees_equal_a_depth_first_walk(self):
        # Folds cut to 30% of their angle, as in TestLoopReference: prefixes
        # branch unevenly, and some states on complete paths have one fold.
        counts = []
        for tree in branchy_trees():
            panels = tuple(replace(p, theta_final=p.theta_final * 0.3) for p in tree.spec.panels)
            tree = build_tree(replace(tree.spec, panels=panels))
            lattice = build_lattice(tree)
            paths, prefixes = lattice.paths()
            orders, walked_prefixes = walked_paths(tree)
            joints = np.array(tree.foldable_ids)
            assert [tuple(row) for row in joints[lattice.slot[paths]].tolist()] == orders
            assert prefixes == walked_prefixes
            counts.append(len(orders))
        assert sum(map(bool, counts)) >= 2


def assert_same_lattice(got, want):
    """Two lattices of one spec, on trees of their own, agree in every array,
    counter and memo key."""
    for name in ("masks", "layers", "first", "source", "child", "slot", "aerial"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert got.sequence_count == want.sequence_count
    assert vars(got.stats) == vars(want.stats)
    assert set(got.tree.sweeps) == set(want.tree.sweeps)
    assert got.tree.pair_verdicts == want.tree.pair_verdicts
    assert set(got.tree.panel_records) == set(want.tree.panel_records)


class TestLoopReference:
    """The layer-at-a-time build against one collision_check per
    (reachable state, unfolded joint), ``oracles.loop_lattice``."""

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    @pytest.mark.parametrize("step_deg", [5.0, 1.0, 0.25])
    @pytest.mark.parametrize("own_penetration", [True, False])
    def test_shipped_specs(self, spec_dir, name, step_deg, own_penetration):
        spec = load_spec(spec_dir / name)
        spec = replace(
            spec,
            tolerance_angle=math.radians(step_deg),
            penetration_tolerance=spec.penetration_tolerance if own_penetration else 0.0,
        )
        assert_same_lattice(build_lattice(build_tree(spec)), loop_lattice(build_tree(spec)))

    @pytest.mark.parametrize("k", range(3, 10))
    def test_free_flaps(self, k):
        spec = free_flap_spec(k)
        assert_same_lattice(build_lattice(build_tree(spec)), loop_lattice(build_tree(spec)))

    @pytest.mark.parametrize("reach", [1.0, 0.3])
    def test_branchy_trees(self, reach):
        # As drawn, every one of these trees collides within a few folds.
        # With each fold cut to 30% of its angle, half of them fold all the
        # way, through states whose sweep and pair keys span several
        # ancestry bits.
        counts = []
        for tree in branchy_trees():
            panels = tuple(replace(p, theta_final=p.theta_final * reach) for p in tree.spec.panels)
            spec = replace(tree.spec, panels=panels)
            lattice = build_lattice(build_tree(spec))
            assert_same_lattice(lattice, loop_lattice(build_tree(spec)))
            counts.append(lattice.sequence_count)
        assert any(counts) is (reach < 1.0)

    @pytest.mark.parametrize("step_deg", [5.0, 0.25])
    def test_two_fixtures(self, monkeypatch, step_deg):
        # The table, the fixtures and the panels are each a static party of
        # a sweep. The post reaches no kernel call; at a 5 degree step the
        # cube is hit by flap 3's 45 degree sample alone.
        spec = two_fixture_spec(step_deg)
        post, cube = pack_boxes(spec.environment)[2]
        tested = []
        kernel = collision_module.sat_overlap_matrix

        def recorded(ca, ra, ha, cb, rb, hb, clearance=0.0):
            overlaps = kernel(ca, ra, ha, cb, rb, hb, clearance)
            if np.array_equal(hb, [cube]):
                tested.append(int(overlaps.sum()))
            assert not np.array_equal(hb, [post])
            return overlaps

        monkeypatch.setattr(collision_module, "sat_overlap_matrix", recorded)
        lattice = build_lattice(build_tree(spec))
        assert_same_lattice(lattice, loop_lattice(build_tree(spec)))
        assert lattice.sequences() == [(3, 2, 4), (3, 4, 2), (4, 3, 2)]
        assert max(tested) == 1 if step_deg == 5.0 else max(tested) > 1
        # Every verdict, out of reachable states or not, after the build
        # dropped the parties it found free, on a fresh tree, and undecomposed.
        fresh = build_tree(spec)
        assert every_verdict(lattice.tree) == every_verdict(fresh) == {
            fold: full_kernel_check(fresh, *fold) for fold in all_folds(fresh)
        }

    def test_masks_wider_than_int64(self):
        # 64 flaps under a slab that only the last, shortest one clears: the
        # second layer holds the one state 2^63, numbered by np.unique over
        # Python ints, and then every fold is blocked.
        k = 64
        slab = OrientedBox.from_center((300.0, 300.0, 65.0), (800.0, 800.0, 10.0))
        spec = replace(free_flap_spec(k, [100.0] * (k - 1) + [50.0]), environment=(slab,))
        lattice = build_lattice(build_tree(spec))
        assert_same_lattice(lattice, loop_lattice(build_tree(spec)))
        assert (lattice.stats.cc_calls, lattice.stats.dead_ends) == (k + k - 1, 1)
        assert lattice.masks.dtype == object

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_second_build_on_the_same_tree(self, spec_dir, name):
        # Every predicate is memoised already, so nothing is evaluated again.
        tree = build_tree(load_spec(spec_dir / name))
        first = build_lattice(tree)
        again = build_lattice(tree)
        assert (again.stats.sweeps, again.stats.pair_tests) == (0, 0)
        stats = SearchDiagnostics(**{**vars(first.stats), "sweeps": 0, "pair_tests": 0})
        assert_same_lattice(again, FoldLattice(**{**vars(first), "stats": stats}))


class TestSparseLargeK:
    @pytest.mark.parametrize("k", [24, 64])
    def test_every_fold_blocked_costs_the_reachable_states_only(self, tmp_path, k):
        # k flaps under a slab that every one of them hits on its way up:
        # one reachable state and k verdicts, never the 2^k states. At 64
        # flaps the masks no longer fit an int64.
        spec = slab_spec(k)
        tree = build_tree(spec)
        start = time.perf_counter()
        lattice = build_lattice(tree)
        elapsed = time.perf_counter() - start
        assert lattice.stats.cc_calls <= k
        assert lattice.sequence_count == 0 and lattice.stats.dead_ends == 1
        assert elapsed < 0.5
        path = tmp_path / "slab.yaml"
        path.write_text(serialize_spec(spec))
        assert run(RunConfig(spec_path=str(path)), out=io.StringIO()) == EXIT_NO_SEQUENCES
