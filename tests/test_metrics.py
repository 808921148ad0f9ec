from __future__ import annotations

import copy
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from cartonfold.collision import collision_check, sweep
from cartonfold.geometry import OrientedBox, Transform
from cartonfold.metrics import rank_lattice
from cartonfold.model import (
    CartonSpec,
    PanelSpec,
    build_tree,
    load_spec,
)
from cartonfold.planner import build_lattice, enumerate_sequences
from cartonfold.reference import JointVector, forward_kinematics, ranking_key, score_and_rank, world_aabb

from .conftest import SHIPPED_SPECS, SPEC_DIR, free_flap_spec
from .oracles import brute_force_sequences


def single_panel_tree():
    return build_tree(
        CartonSpec(
            panels=(PanelSpec(id=1, parent=None, dims=(100, 200, 2)),),
            root_pose=Transform(np.eye(3), (0, 0, 1)),
            table_plane=False,
        )
    )


def two_panel_tree():
    return build_tree(
        CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(100, 200, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(60, 190, 2),
                    crease_anchor=(195, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=math.pi / 2,
                ),
            ),
            root_pose=Transform(np.eye(3), (0, 0, 1)),
            table_plane=False,
        )
    )


def chain_tree():
    """Base, wall, and a flap hanging off the wall once the wall is up."""
    return build_tree(
        CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(100, 200, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(80, 190, 2),
                    crease_anchor=(195, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=math.pi / 2,
                ),
                PanelSpec(
                    id=3, parent=2, dims=(30, 180, 2),
                    crease_anchor=(5, 80, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=math.pi / 2,
                ),
            ),
            root_pose=Transform(np.eye(3), (0, 0, 1)),
            table_plane=True,
        )
    )


FLAT = ()


def measured(tree, folded) -> tuple[float, float]:
    """Volume and largest extent of the state with the given joints folded."""
    (volume,), (max_extent,) = tree.measures([tree.mask(folded)])
    return volume, max_extent


def state_box(tree, folded):
    """The bounding box of the state with the given joints folded."""
    poses = forward_kinematics(tree, JointVector.from_folded(tree, folded))
    return world_aabb(p.solid for p in poses)


def is_aerial(tree, folded, joint) -> bool:
    return sweep(tree, tree.mask(folded), joint).aerial


class TestBoundingMeasures:
    def test_single_flat_panel_volume(self):
        tree = single_panel_tree()
        assert measured(tree, FLAT)[0] == pytest.approx(100 * 200 * 2)

    def test_single_flat_panel_max_dimension(self):
        tree = single_panel_tree()
        assert measured(tree, FLAT)[1] == pytest.approx(200.0)

    def test_fold_trades_footprint_for_height(self):
        # Hand corner enumeration. Flat: base [0,200]x[0,100], flap extends
        # south to y = -60, slab z in [0,2]: extents (200, 160, 2). Folded
        # up 90 degrees about the crease (y=0, z=1): the flap becomes a slab
        # y in [-1,1], z in [1,61].
        tree = two_panel_tree()
        assert measured(tree, FLAT)[1] == pytest.approx(200.0)
        assert measured(tree, FLAT)[0] == pytest.approx(200.0 * 160.0 * 2.0)

        box = state_box(tree, {2})
        # y extent shrinks by the flap height, give or take half a thickness.
        assert box.extents[1] == pytest.approx(101.0, abs=1e-9)
        # z extent grows to the flap height above the crease line.
        assert box.max[2] == pytest.approx(61.0, abs=1e-9)

    def test_case_study_folded_box_max_dimension(self, case_study):
        _, tree = case_study
        # Fully folded tray: the long side dominates, up to board thickness.
        assert measured(tree, tree.foldable_ids)[1] == pytest.approx(330.0, abs=6.0)

    def test_case_study_flat_footprint_class(self, case_study):
        # Flat blank: walls extend each base side by their height, so the
        # long extent sits near 330 + 2*140 and the short one near
        # 240 + 2*140 (plus the rim flanges on one side).
        _, tree = case_study
        box = state_box(tree, FLAT)
        assert box.extents[0] == pytest.approx(330.0 + 2 * 140.0, abs=20.0)
        assert box.extents[1] == pytest.approx(240.0 + 2 * 140.0, abs=50.0)
        assert measured(tree, FLAT)[1] == pytest.approx(610.0, abs=20.0)

    def test_maxdim_never_below_largest_panel_extent(self, case_study):
        _, tree = case_study
        largest = max(max(p.height, p.width) for p in tree.spec.panels)
        for folded in ((), (1,), tree.foldable_ids):
            assert measured(tree, folded)[1] >= largest - 1e-9


class TestIsAerial:
    def test_every_first_fold_from_flat_is_grounded(self, case_study):
        _, tree = case_study
        for joint in tree.foldable_ids:
            assert is_aerial(tree, FLAT, joint) is False

    def test_flap_on_raised_wall_is_aerial(self):
        tree = chain_tree()
        assert tree.spec.support_tolerance == 1.0
        assert is_aerial(tree, FLAT, 2) is False
        assert is_aerial(tree, {2}, 3) is True

    def test_support_tolerance_comes_from_the_spec(self):
        # The raised flap starts well under 1 m above the table.
        lax = build_tree(replace(chain_tree().spec, support_tolerance=1000.0))
        assert is_aerial(lax, {2}, 3) is False

    def test_case_study_every_sequence_has_two_aerial_folds(
        self, case_study, case_study_sequences
    ):
        _, tree = case_study
        sample = case_study_sequences[:: max(1, len(case_study_sequences) // 40)]
        for seq in sample:
            score = score_and_rank(tree, [seq])
            assert score.c_aerial[0] == 2
            steps = score.steps[0]
            aerial_joints = set(score.orders[0][score.edges.aerial[steps]].tolist())
            assert aerial_joints == {5, 6}


class TestScoreSequence:
    def test_per_step_excludes_final_state(self):
        tree = two_panel_tree()
        score = score_and_rank(tree, [(2,)])
        assert score.steps.shape == (1, 1)
        # The single entry measures S_0 (flat), not the folded final state.
        assert score.edges.volume[score.steps[0, 0]] == pytest.approx(200.0 * 160.0 * 2.0)
        assert score.c_dim[0] == pytest.approx(200.0)

    def test_sums_equal_per_step_columns(self, case_study, case_study_sequences):
        _, tree = case_study
        score = score_and_rank(tree, [case_study_sequences[0]])
        steps = score.steps[0]
        assert score.c_vol[0] == pytest.approx(sum(score.edges.volume[steps]))
        assert score.c_dim[0] == pytest.approx(sum(score.edges.max_dim[steps]))
        assert score.c_aerial[0] == sum(1 for aerial in score.edges.aerial[steps] if aerial)
        assert len(steps) == len(tree.foldable_ids)


def synthetic_totals(steps) -> dict:
    """The totals of a sequence given as (joint, volume, maxdim, aerial) steps,
    summed left to right as ``score_and_rank`` sums them."""
    return {
        "order": tuple(step[0] for step in steps),
        "c_vol": sum(step[1] for step in steps),
        "c_dim": sum(step[2] for step in steps),
        "c_aerial": sum(step[3] for step in steps),
    }


def synthetic_score(order, aerial, maxdim, volume):
    return synthetic_totals(
        [(j, volume / len(order), maxdim / len(order), i < aerial) for i, j in enumerate(order)]
    )


def by_key(criteria):
    """Sort key of synthetic totals: the reference ranker's own key."""
    return lambda totals: ranking_key(criteria, **totals)


class TestScoreAndRank:
    def test_fewer_aerial_folds_win(self):
        a = synthetic_score((1, 2), aerial=1, maxdim=600, volume=1000)
        b = synthetic_score((2, 1), aerial=2, maxdim=500, volume=900)
        criteria = ("aerial", "maxdim")
        assert sorted([b, a], key=by_key(criteria))[0] is a

    def test_maxdim_breaks_aerial_ties(self):
        a = synthetic_score((1, 2), aerial=1, maxdim=500, volume=1000)
        b = synthetic_score((2, 1), aerial=1, maxdim=600, volume=900)
        criteria = ("aerial", "maxdim")
        assert sorted([b, a], key=by_key(criteria))[0] is a

    def test_sums_equal_as_printed_fall_through_to_the_next_criterion(self):
        # 0.1 + 0.2 is 0.30000000000000004 in floating point; both sums
        # print as 0.300000, so volume must decide, not the rounding.
        noisy = synthetic_totals([(2, 4.0, 0.1, False), (1, 6.0, 0.2, False)])
        exact = synthetic_totals([(1, 9.0, 0.3, False), (2, 11.0, 0.0, False)])
        assert noisy["c_dim"] != exact["c_dim"]
        criteria = ("maxdim", "volume")
        assert sorted([exact, noisy], key=by_key(criteria))[0] is noisy

    def test_ranking_is_input_order_invariant(self, three_flaps):
        import random

        _, tree = three_flaps
        sequences = enumerate_sequences(tree)
        baseline = score_and_rank(tree, sequences)
        rng = random.Random(9)
        for _ in range(5):
            shuffled = sequences[:]
            rng.shuffle(shuffled)
            report = score_and_rank(tree, shuffled)
            assert report.orders.tolist() == baseline.orders.tolist()

    def test_empty_input_gives_empty_report(self, three_flaps):
        _, tree = three_flaps
        report = score_and_rank(tree, [])
        assert len(report) == 0


def scaled_spec(spec: CartonSpec, s: float) -> CartonSpec:
    """Scale every length in the carton by s (angles untouched)."""
    panels = []
    for p in spec.panels:
        kwargs = {}
        if p.parent is not None:
            kwargs["crease_anchor"] = tuple(s * v for v in p.crease_anchor)
            kwargs["crease_dir"] = p.crease_dir
            kwargs["theta_init"] = p.theta_init
            kwargs["theta_final"] = p.theta_final
        panels.append(
            PanelSpec(
                id=p.id, parent=p.parent, dims=tuple(s * v for v in p.dims),
                name=p.name, **kwargs,
            )
        )
    return replace(
        spec,
        panels=tuple(panels),
        root_pose=Transform(spec.root_pose.rotation, s * spec.root_pose.translation),
        environment=tuple(
            OrientedBox(b.pose.__class__(b.pose.rotation, s * b.pose.translation),
                        s * b.half_extents)
            for b in spec.environment
        ),
        penetration_tolerance=s * spec.penetration_tolerance,
        support_tolerance=s * spec.support_tolerance,
    )


class TestScaleInvariance:
    @pytest.mark.parametrize("s", (0.5, 2.5))
    def test_scaling_laws(self, s, case_study, case_study_sequences):
        spec, tree = case_study
        big = build_tree(scaled_spec(spec, s))
        sample = case_study_sequences[:: max(1, len(case_study_sequences) // 25)]
        for seq in sample:
            base = score_and_rank(tree, [seq])
            scaled = score_and_rank(big, [seq])
            assert scaled.c_vol[0] == pytest.approx(s**3 * base.c_vol[0], rel=1e-9)
            assert scaled.c_dim[0] == pytest.approx(s * base.c_dim[0], rel=1e-9)
            assert scaled.c_aerial[0] == base.c_aerial[0]

    def test_ranking_unchanged_by_scaling(self, three_flaps):
        s = 3.0
        spec, tree = three_flaps
        sequences = enumerate_sequences(tree)
        for ranking in (("aerial", "maxdim"), ("volume",), ("maxdim", "volume", "aerial")):
            ranked = replace(spec, ranking=ranking)
            base = score_and_rank(build_tree(ranked), sequences)
            scaled = score_and_rank(build_tree(scaled_spec(ranked, s)), sequences)
            assert base.orders.tolist() == scaled.orders.tolist()


class TestFreeFlapMetricsSanity:
    def test_factorial_carton_first_steps_grounded(self):
        tree = build_tree(free_flap_spec(3))
        for joint in tree.foldable_ids:
            assert is_aerial(tree, FLAT, joint) is False


# Cartons the lattice ranker is checked on: every shipped spec, free-flap
# cartons with one flap height (rankings full of exact ties) and with
# distinct heights (rankings decided by the criteria, so the bound prunes).
RANKER_CASES = (
    *SHIPPED_SPECS,
    *(f"free:{k}" for k in range(3, 7)),
    *(f"distinct:{k}" for k in (5, 6)),
)
POLICIES = (("aerial", "maxdim"), ("aerial", "maxdim", "volume"), ("volume",))


def ranker_spec(case: str) -> CartonSpec:
    kind, _, arg = case.partition(":")
    if kind == "free":
        return free_flap_spec(int(arg))
    if kind == "distinct":
        return free_flap_spec(int(arg), [40.0 + 7.3 * i for i in range(int(arg))])
    return load_spec(SPEC_DIR / case)


@lru_cache(maxsize=None)
def brute_orders(case: str) -> list[tuple[int, ...]]:
    """Brute-force orders of one ranker case; they do not depend on the ranking."""
    tree = build_tree(ranker_spec(case))
    cc = lru_cache(maxsize=None)(lambda mask, joint: collision_check(tree, mask, joint))
    return brute_force_sequences(tree, cc=cc)


@lru_cache(maxsize=None)
def planned(case: str, ranking: tuple[str, ...]):
    """(tree, lattice, brute-force orders) of one ranker case under one ranking."""
    tree = build_tree(replace(ranker_spec(case), ranking=ranking))
    return tree, build_lattice(tree), brute_orders(case)


@lru_cache(maxsize=None)
def reference(case: str, ranking: tuple[str, ...]):
    """The reference ranking of every brute-force order of one ranker case."""
    tree, _, brute = planned(case, ranking)
    return score_and_rank(tree, brute)


def row_values(report):
    return list(zip(
        map(tuple, report.orders.tolist()),
        report.c_aerial.tolist(), report.c_dim.tolist(), report.c_vol.tolist(),
    ))


class TestRankLattice:
    @pytest.mark.parametrize("policy", POLICIES, ids=">".join)
    @pytest.mark.parametrize("case", RANKER_CASES)
    def test_top_n_equals_the_head_of_the_full_ranking(self, case, policy):
        _, lattice, brute = planned(case, policy)
        full = rank_lattice(lattice)
        assert full.criteria == policy
        assert full.sequence_count == len(full) == len(brute)
        # The full ranking is the reference sort of every brute-force order.
        assert row_values(full) == row_values(reference(case, policy))
        # Below the sequence count the bounded search ranks, not the sort.
        for n in sorted({n for n in (1, 5, 20, len(brute) - 1) if n > 0}):
            head = rank_lattice(lattice, n)
            assert head.sequence_count == len(brute)
            assert row_values(head) == row_values(full)[:n]

    @pytest.mark.parametrize("top", (1, 20, None))
    @pytest.mark.parametrize("case", RANKER_CASES)
    def test_rows_equal_the_scored_sequences(self, case, top):
        # Each row of the lattice ranking, its totals and the four columns of
        # each of its steps equal the reference's row bit for bit.
        policy = ("aerial", "maxdim", "volume")
        _, lattice, _ = planned(case, policy)
        report = rank_lattice(lattice, top)
        scored = reference(case, policy)
        n = len(report)
        assert n == (scored.sequence_count if top is None else min(top, scored.sequence_count))
        for name in ("orders", "c_vol", "c_dim", "c_aerial"):
            assert getattr(report, name).tolist() == getattr(scored, name)[:n].tolist(), name
        for name, got, want in zip(report.edges._fields, report.edges, scored.edges):
            assert got[report.steps].tolist() == want[scored.steps[:n]].tolist(), name

    def test_top_20_search_nodes_on_eight_equal_flaps(self):
        # Eight equal flaps tie on every criterion in many orders. Children
        # are visited cheapest bound first, and a bound that ties the cutoff
        # falls through to the order, so the search stays near the 20 paths
        # it returns.
        lattice = build_lattice(build_tree(free_flap_spec(8)))
        report = rank_lattice(lattice, 20)
        assert len(report) == 20 and report.sequence_count == math.factorial(8)
        assert (lattice.stats.nodes_expanded, lattice.stats.pruned) == (59, 24)

    def test_top_all_visits_every_node(self, case_study):
        # Ranking every path lists every prefix of every sequence.
        _, tree = case_study
        lattice = build_lattice(tree)
        report = rank_lattice(lattice)
        assert len(report) == report.sequence_count == 1680
        stats = lattice.stats
        assert (stats.nodes_expanded, stats.cc_cache_hits, stats.pruned) == (4610, 4609, 0)

    def test_bounded_search_prunes(self):
        _, lattice, _ = planned("distinct:6", ("aerial", "maxdim", "volume"))
        before = copy.copy(lattice.stats)
        rank_lattice(lattice)
        full_nodes = lattice.stats.nodes_expanded - before.nodes_expanded
        assert lattice.stats.pruned == before.pruned
        rank_lattice(lattice, 5)
        assert lattice.stats.pruned > before.pruned
        assert lattice.stats.nodes_expanded - before.nodes_expanded - full_nodes < full_nodes / 4
