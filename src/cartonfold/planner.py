"""The fold-state lattice: every collision-free folding sequence at once.

Every fold drives its joint all the way to the final angle, so a carton
state is just the set of folded joints, held as an int bit mask over the
sorted foldable joints (``KinematicTree.bits``). The reachable states
form a DAG (the assembly-state graph of Homem de Mello & Sanderson): an
edge leaves state F for F | bit(j) when folding joint j out of F passes
the swept collision check. Every collision-free sequence is a path from
the empty state to the full one, and every ranking criterion is a sum of
node or edge weights along such a path.

``build_lattice`` walks the reachable states from the empty one, a
popcount layer at a time, and asks for one collision verdict per
(reachable state, unfolded joint). Each verdict is an AND of memoised
predicates keyed on masks (``collision``): a fold's sweep depends only on
the folded joints that place the moving subtree, and a static panel only
on its own ancestors, so a carton of k free flaps builds k sweeps and
k(2k-1) pair tests for its k·2^(k-1) verdicts. A fold's aerial flag is
read from its sweep, since it depends on the subtree's start pose alone,
so no fold state is ever run through forward kinematics as a whole. The
lattice keeps the feasible edges of every state in ascending joint order
(each with its aerial flag) and the number of complete paths below every
state, counted with Python ints as in Held & Karp's subset recursion, so
the sequence count is exact and never an enumeration. Every input, from
the sweep step to the support tolerance, is read from the tree's spec.
``FoldLattice.live`` holds the states and folds on some complete path as
arrays, and ``LiveLattice.paths`` lists those paths as rows of edge ids,
a layer at a time. ``enumerate_sequences`` reads them, and so does
``metrics.rank_lattice`` when it ranks every path; to rank the best few
it searches them instead.

Everything here is a pure function of immutable inputs, and output order
is canonical regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .collision import collision_check, n_sweep_samples, sweep
from .model import KinematicTree


class PlannerError(ValueError):
    """The planning problem itself is malformed (e.g. nothing to fold)."""


@dataclass(frozen=True)
class FoldState:
    """Carton state: the set of completed folds (joint angles follow from it)."""

    folded: frozenset[int]

    @classmethod
    def initial(cls) -> "FoldState":
        return cls(frozenset())


@dataclass(frozen=True)
class FoldSequence:
    """A complete ordering of all foldable joints, with sweep evidence.

    ``cc_samples[t]`` is the number of swept samples the collision check
    evaluated when step ``t`` was validated.
    """

    order: tuple[int, ...]
    cc_samples: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.order)

    def prefixes(self):
        """FoldState before each step: S_0, S_1, ..., S_{k-1}."""
        done: set[int] = set()
        for joint in self.order:
            yield FoldState(frozenset(done)), joint
            done.add(joint)


def action_space(tree: KinematicTree, state: FoldState) -> list[int]:
    """Unfolded foldable joints, ascending; empty exactly at the final state."""
    return [j for j in sorted(tree.foldable_ids) if j not in state.folded]


def transition(tree: KinematicTree, state: FoldState, joint: int) -> FoldState:
    """Fold one joint to its final angle; all other joints keep their state."""
    if joint not in tree.foldable_ids:
        raise ValueError(f"joint {joint} is not a foldable joint")
    if joint in state.folded:
        raise ValueError(f"joint {joint} is already folded")
    return FoldState(state.folded | {joint})


@dataclass
class SearchDiagnostics:
    """Counters of one lattice build and the searches over it.

    ``cc_calls`` counts collision checks (one per reachable state and
    unfolded joint), ``sweeps`` and ``pair_tests`` the swept subtrees and
    (sweep, static panel) kernel verdicts those checks built rather than
    reused, ``dead_ends`` the reachable states with no feasible fold, and
    ``sequences`` the collision-free sequences. A ranking adds
    ``nodes_expanded``, the path prefixes it visited, ``cc_cache_hits``,
    the lattice edges it followed out of them, and ``pruned``, the edges
    it cut because their lower bound ranked at or after the current N-th
    key. A ranking of every path enumerates every prefix of every
    sequence and prunes nothing. A search for the best few visits the
    cheapest bound first, so its counts measure how soon it holds a
    tight cutoff.
    """

    nodes_expanded: int = 0
    cc_calls: int = 0
    cc_cache_hits: int = 0
    pruned: int = 0
    dead_ends: int = 0
    sequences: int = 0
    sweeps: int = 0
    pair_tests: int = 0

    def lines(self) -> list[str]:
        return [f"{name}={value}" for name, value in vars(self).items()]


class FoldEdge(NamedTuple):
    """A collision-free fold of ``joint`` into the fold state ``child``."""

    joint: int
    child: int
    aerial: bool


class LiveLattice(NamedTuple):
    """The part of a lattice that lies on some complete path, as arrays.

    ``masks`` lists those states in the lattice's layer order, the full
    state last. State i's folds are the edges ``first[i]`` up to
    ``first[i + 1]``, in ascending joint order; edge e folds ``joint[e]``
    out of state ``source[e]`` into state ``child[e]`` (indices into
    ``masks``), and ``aerial[e]`` is its aerial flag.
    """

    masks: list[int]
    first: np.ndarray
    source: np.ndarray
    child: np.ndarray
    joint: np.ndarray
    aerial: np.ndarray

    def paths(self) -> tuple[np.ndarray, int]:
        """Every complete path as a row of edge ids, and the number of prefixes.

        Paths grow a popcount layer at a time from the empty state, each
        path of t folds followed by its extensions in ascending joint
        order, so the rows come out in ascending lexicographic order of
        their joints, the order of a depth-first walk. The prefix count
        covers every length from the empty path to the complete ones.
        """
        if not self.masks:
            return np.zeros((0, 0), dtype=np.intp), 0
        paths = np.zeros((1, 0), dtype=np.intp)
        state = np.zeros(1, dtype=np.intp)
        prefixes = 1
        for _ in range(self.masks[-1].bit_count()):
            begin = self.first[state]
            count = self.first[state + 1] - begin
            ends = np.cumsum(count)
            # Path p's extensions are its state's count[p] edges from begin[p].
            edge = np.arange(ends[-1]) + np.repeat(begin - ends + count, count)
            paths = np.column_stack((np.repeat(paths, count, axis=0), edge))
            state = self.child[edge]
            prefixes += len(edge)
        return paths, prefixes


@dataclass
class FoldLattice:
    """The reachable fold states of one carton and the feasible folds between them.

    A fold state is a bit mask over ``tree.foldable_ids`` (``tree.bits``).
    ``edges`` maps every reachable state, in order of size, to its
    feasible folds in ascending joint order. ``completions[F]`` is the
    number of collision-free ways to finish folding from F.
    """

    tree: KinematicTree
    edges: dict[int, tuple[FoldEdge, ...]]
    completions: dict[int, int]
    cc_samples: dict[int, int]
    stats: SearchDiagnostics

    @property
    def final(self) -> int:
        return (1 << len(self.tree.foldable_ids)) - 1

    @property
    def sequence_count(self) -> int:
        return self.completions[0]

    def sequence(self, order) -> FoldSequence:
        order = tuple(order)
        return FoldSequence(order, tuple(self.cc_samples[j] for j in order))

    @cached_property
    def live(self) -> LiveLattice:
        """The states and folds that lie on some complete path, as arrays."""
        masks = [mask for mask in self.edges if self.completions[mask]]
        index = {mask: i for i, mask in enumerate(masks)}
        first, source, child, joint, aerial = [0], [], [], [], []
        for i, mask in enumerate(masks):
            for j, c, flag in self.edges[mask]:
                c = index.get(c)
                if c is not None:
                    source.append(i)
                    child.append(c)
                    joint.append(j)
                    aerial.append(flag)
            first.append(len(child))
        return LiveLattice(
            masks,
            np.array(first, dtype=np.intp),
            np.array(source, dtype=np.intp),
            np.array(child, dtype=np.intp),
            np.array(joint, dtype=np.intp),
            np.array(aerial, dtype=bool),
        )

    def sequences(self) -> list[FoldSequence]:
        """Every complete path, in ascending lexicographic order of the joints."""
        paths, _ = self.live.paths()
        return [self.sequence(order) for order in self.live.joint[paths].tolist()]


def build_lattice(tree: KinematicTree) -> FoldLattice:
    """Collision-check every fold out of every reachable state, once.

    States are expanded a layer (one more folded joint) at a time from the
    empty one, and each feasible fold carries its sweep's aerial flag.
    """
    foldable = tree.foldable_ids
    if not foldable:
        raise PlannerError("carton has no foldable joints, nothing to enumerate")
    bits = [tree.bits[joint] for joint in foldable]
    stats = SearchDiagnostics()
    sweeps, pair_tests = len(tree.sweeps), len(tree.pair_verdicts)
    final = (1 << len(foldable)) - 1
    edges: dict[int, tuple[FoldEdge, ...]] = {}
    layer = [0]
    while layer:
        reached: dict[int, None] = {}
        for mask in layer:
            out = []
            for joint, bit in zip(foldable, bits):
                if mask & bit:
                    continue
                stats.cc_calls += 1
                if collision_check(tree, mask, joint):
                    reached[mask | bit] = None
                    out.append(FoldEdge(joint, mask | bit, sweep(tree, mask, joint).aerial))
            if not out and mask != final:
                stats.dead_ends += 1
            edges[mask] = tuple(out)
        layer = list(reached)

    completions: dict[int, int] = {}
    for mask in reversed(edges):
        if mask == final:
            completions[mask] = 1
        else:
            completions[mask] = sum(completions[e.child] for e in edges[mask])
    stats.sequences = completions[0]
    stats.sweeps = len(tree.sweeps) - sweeps
    stats.pair_tests = len(tree.pair_verdicts) - pair_tests
    return FoldLattice(
        tree=tree,
        edges=edges,
        completions=completions,
        cc_samples={j: n_sweep_samples(tree, j) for j in foldable},
        stats=stats,
    )


def enumerate_sequences(tree: KinematicTree) -> list[FoldSequence]:
    """All orderings of the foldable joints whose every step is collision free.

    The paths of the fold-state lattice, depth first with children in
    ascending joint id order, so the output order is deterministic.
    """
    return build_lattice(tree).sequences()


def feasible_subsets(tree: KinematicTree, subset_cap: int = 20) -> dict[frozenset[int], dict[int, bool]]:
    """Full fold-feasibility table over every subset of the foldable joints.

    Entry ``table[F][j]`` is the collision_check verdict for folding joint
    ``j`` out of state ``F``, reachable or not. The table has 2^k rows,
    hence the cap on k.
    """
    foldable = sorted(tree.foldable_ids)
    if not foldable:
        raise PlannerError("carton has no foldable joints")
    if len(foldable) > subset_cap:
        raise PlannerError(
            f"{len(foldable)} foldable joints exceed the subset cap {subset_cap}"
        )
    table: dict[frozenset[int], dict[int, bool]] = {}
    for mask in range(1 << len(foldable)):
        table[frozenset(tree.joints(mask))] = {
            j: collision_check(tree, mask, j)
            for j in foldable
            if not mask & tree.bits[j]
        }
    return table
