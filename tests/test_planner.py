from __future__ import annotations

import itertools
import math

import pytest

import cartonfold.planner as planner_module
from cartonfold.collision import collision_check
from cartonfold.model import CartonSpec, PanelSpec, build_tree, load_spec
from cartonfold.planner import (
    FoldSequence,
    FoldState,
    PlannerError,
    action_space,
    build_lattice,
    enumerate_sequences,
    feasible_subsets,
    transition,
)

from .conftest import SHIPPED_SPECS, free_flap_spec
from .oracles import brute_force_sequences
from .test_model import fk_measures


def frozenset_lattice(tree):
    """A reference lattice on frozensets: breadth first from the empty
    subset, one collision_check per (reachable subset, unfolded joint),
    aerial flags from forward kinematics of the whole state, completions by
    the same path-count recursion."""
    foldable = sorted(tree.foldable_ids)
    edges, layer = {}, [frozenset()]
    while layer:
        reached = {}
        for folded in layer:
            _, _, min_z = fk_measures(tree, folded)
            out = []
            for joint in foldable:
                if joint not in folded and collision_check(tree, folded, joint):
                    lowest = min(min_z[pid] for pid in tree.subtree_ids(joint))
                    out.append((joint, folded | {joint}, lowest > tree.spec.support_tolerance))
                    reached[folded | {joint}] = None
            edges[folded] = tuple(out)
        layer = list(reached)
    completions = {}
    for folded in reversed(edges):
        completions[folded] = 1 if len(folded) == len(foldable) else sum(
            completions[child] for _, child, _ in edges[folded]
        )
    return edges, completions


class TestActionSpace:
    def test_all_available_from_start(self, three_flaps):
        _, tree = three_flaps
        assert action_space(tree, FoldState.initial()) == [2, 3, 4]

    def test_terminal_state_is_empty(self, three_flaps):
        _, tree = three_flaps
        assert action_space(tree, FoldState(frozenset({2, 3, 4}))) == []

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
        assert action_space(tree, FoldState.initial()) == [2]

    def test_case_study_after_one_fold(self, case_study):
        _, tree = case_study
        state = transition(tree, FoldState.initial(), 2)
        assert action_space(tree, state) == [1, 3, 4, 5, 6, 7]


class TestTransition:
    def test_fold_accumulates(self, case_study):
        _, tree = case_study
        state = transition(tree, FoldState.initial(), 2)
        assert state.folded == frozenset({2})
        state = transition(tree, state, 7)
        assert state.folded == frozenset({2, 7})

    def test_repeated_fold_rejected(self, case_study):
        _, tree = case_study
        state = transition(tree, FoldState.initial(), 2)
        with pytest.raises(ValueError, match="already folded"):
            transition(tree, state, 2)

    def test_state_identity_is_order_free(self, case_study):
        _, tree = case_study
        one = transition(tree, transition(tree, FoldState.initial(), 2), 7)
        other = transition(tree, transition(tree, FoldState.initial(), 7), 2)
        assert one == other


class TestEnumerateSequences:
    def test_three_free_flaps_all_orderings(self, three_flaps):
        _, tree = three_flaps
        sequences = enumerate_sequences(tree)
        assert sorted(s.order for s in sequences) == sorted(
            itertools.permutations((2, 3, 4))
        )

    def test_blocking_pair_constrained_order_only(self, blocking_pair):
        _, tree = blocking_pair
        sequences = enumerate_sequences(tree)
        assert [s.order for s in sequences] == [(3, 2)]

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
        got = [s.order for s in enumerate_sequences(tree)]
        assert got == sorted(brute_force_sequences(tree))
        assert len(got) == 3
        for order in got:
            assert order.index(3) < order.index(2)

    def test_output_is_depth_first_ascending(self, three_flaps):
        _, tree = three_flaps
        orders = [s.order for s in enumerate_sequences(tree)]
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
            for seq in enumerate_sequences(tree):
                for state, joint in seq.prefixes():
                    assert collision_check(tree, state.folded, joint)

    @pytest.mark.parametrize("name", SHIPPED_SPECS[:3])
    def test_oracle_equivalence_small_cartons(self, spec_dir, name):
        # For every shipped carton small enough, the search must agree with
        # plain permutation filtering.
        spec = load_spec(spec_dir / name)
        tree = build_tree(spec)
        assert len(tree.foldable_ids) <= 6
        expected = brute_force_sequences(tree)
        got = [s.order for s in enumerate_sequences(tree)]
        assert sorted(got) == sorted(expected)
        assert got == sorted(got)

    def test_memoized_never_repeats_a_check(self, case_study, monkeypatch):
        # Exactly one collision check per (reachable subset, unfolded joint).
        _, tree = case_study
        seen = []
        real_check = planner_module.collision_check

        def counted(tree_, mask, joint):
            seen.append((mask, joint))
            return real_check(tree_, mask, joint)

        monkeypatch.setattr(planner_module, "collision_check", counted)
        lattice = build_lattice(tree)
        k = len(tree.foldable_ids)
        assert len(seen) == len(set(seen)) == lattice.stats.cc_calls
        assert set(seen) == {
            (mask, j) for mask in lattice.edges for j in tree.foldable_ids
            if not mask & tree.bits[j]
        }
        assert lattice.stats.cc_calls <= (2 ** k) * k
        assert lattice.sequence_count == len(lattice.sequences()) == 1680

    def test_sequences_carry_sample_counts(self, blocking_pair):
        _, tree = blocking_pair
        (seq,) = enumerate_sequences(tree)
        assert isinstance(seq, FoldSequence)
        assert len(seq.cc_samples) == len(seq.order)
        assert all(n >= 2 for n in seq.cc_samples)


class TestFeasibleSubsets:
    def test_two_panel_table_shape(self):
        tree = build_tree(
            CartonSpec(
                panels=(
                    PanelSpec(id=1, parent=None, dims=(100, 200, 2)),
                    PanelSpec(
                        id=2, parent=1, dims=(60, 190, 2),
                        crease_anchor=(195, 0, 0), crease_dir=(-1, 0, 0),
                        theta_init=0.0, theta_final=math.pi / 2,
                    ),
                ),
                table_plane=False,
                # Mid-plane hinges interpenetrate up to t/2 near the crease,
                # so the allowance must exceed half the thickness.
                penetration_tolerance=1.05,
            )
        )
        table = feasible_subsets(tree)
        assert set(table.keys()) == {frozenset(), frozenset({2})}
        assert table[frozenset()] == {2: True}
        assert table[frozenset({2})] == {}

    def test_blocking_pair_entries(self, blocking_pair):
        _, tree = blocking_pair
        table = feasible_subsets(tree)
        assert table[frozenset()][3] is True
        assert table[frozenset()][2] is False
        assert table[frozenset({3})][2] is True
        assert table[frozenset({2})][3] is False

    def test_matches_direct_collision_checks(self, three_flaps):
        _, tree = three_flaps
        table = feasible_subsets(tree)
        assert len(table) == 2 ** len(tree.foldable_ids)
        for subset, row in table.items():
            for joint, verdict in row.items():
                assert verdict == collision_check(tree, subset, joint)

    def test_cap_exceeded_is_an_error(self, three_flaps):
        _, tree = three_flaps
        with pytest.raises(PlannerError, match="subset cap"):
            feasible_subsets(tree, subset_cap=2)


class TestVerdictsArePathIndependent:
    def test_same_subset_same_verdict(self, case_study):
        # The collision check takes the folded subset, not the path: build
        # the subset along different orders and compare every next-joint
        # verdict.
        _, tree = case_study
        paths = [(1, 3, 4), (4, 3, 1), (3, 1, 4)]
        verdicts = []
        for path in paths:
            state = FoldState.initial()
            for joint in path:
                state = transition(tree, state, joint)
            verdicts.append(
                {
                    j: collision_check(tree, state.folded, j)
                    for j in action_space(tree, state)
                }
            )
        assert verdicts[0] == verdicts[1] == verdicts[2]


class TestMaskLattice:
    """The lattice keys fold states on int masks; read back as frozensets it
    must be the reference lattice, edge for edge and in the same order."""

    @pytest.mark.parametrize(
        "spec",
        [*SHIPPED_SPECS, *(f"free:{k}" for k in range(3, 9))],
    )
    def test_equals_the_frozenset_lattice(self, spec_dir, spec):
        if spec.startswith("free:"):
            spec = free_flap_spec(int(spec[5:]))
        else:
            spec = load_spec(spec_dir / spec)
        lattice = build_lattice(build_tree(spec))
        tree = lattice.tree

        def subset(mask):
            return frozenset(tree.joints(mask))

        edges = {
            subset(mask): tuple((e.joint, subset(e.child), e.aerial) for e in out)
            for mask, out in lattice.edges.items()
        }
        completions = {subset(mask): ways for mask, ways in lattice.completions.items()}
        reference_edges, reference_completions = frozenset_lattice(build_tree(spec))
        assert subset(lattice.final) == frozenset(tree.foldable_ids)
        assert list(edges.items()) == list(reference_edges.items())
        assert completions == reference_completions

    def test_masks_and_joints_convert_both_ways(self, case_study):
        _, tree = case_study
        for r in range(len(tree.foldable_ids) + 1):
            for folded in itertools.combinations(tree.foldable_ids, r):
                mask = tree.mask(folded)
                assert mask == sum(tree.bits[j] for j in folded)
                assert tree.joints(mask) == folded
        with pytest.raises(ValueError, match="not a foldable joint"):
            tree.mask([tree.root_id])


class TestFreeFlapFactorial:
    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_factorial_counts(self, k):
        sequences = enumerate_sequences(build_tree(free_flap_spec(k)))
        assert len(sequences) == math.factorial(k)
        assert len({s.order for s in sequences}) == math.factorial(k)

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


def walked_paths(lattice) -> tuple[list[tuple[int, ...]], int]:
    """Reference enumeration: a recursive walk of the mask lattice, folds in
    ascending joint order, skipping children that cannot complete. Returns
    the joint orders and the number of path prefixes visited."""
    found, order, prefixes = [], [], 0

    def walk(mask: int) -> None:
        nonlocal prefixes
        prefixes += 1
        if mask == lattice.final:
            found.append(tuple(order))
            return
        for joint, child, _ in lattice.edges[mask]:
            if lattice.completions[child]:
                order.append(joint)
                walk(child)
                order.pop()

    if lattice.sequence_count:
        walk(0)
    return found, prefixes


class TestLivePaths:
    @pytest.mark.parametrize("case", (*SHIPPED_SPECS, "free:1", "free:5"))
    def test_paths_equal_a_depth_first_walk(self, spec_dir, case):
        if case.startswith("free:"):
            tree = build_tree(free_flap_spec(int(case[5:])))
        else:
            tree = build_tree(load_spec(spec_dir / case))
        lattice = build_lattice(tree)
        live = lattice.live
        paths, prefixes = live.paths()
        orders, walked_prefixes = walked_paths(lattice)
        assert [tuple(row) for row in live.joint[paths].tolist()] == orders
        assert [s.order for s in lattice.sequences()] == orders
        assert prefixes == walked_prefixes
        # Every row is a chain of edges from the empty state to the full one.
        for row in paths.tolist():
            states = [0] + [live.child[e] for e in row]
            assert [live.source[e] for e in row] == states[:-1]
            assert live.masks[states[-1]] == lattice.final
            for e in row:
                assert live.first[live.source[e]] <= e < live.first[live.source[e] + 1]
