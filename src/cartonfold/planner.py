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
feasible folds go straight into flat arrays. One numpy pass a layer at a
time from the full state counts the complete paths below every state,
with Python ints as in Held & Karp's subset recursion, so the sequence
count is exact and never an enumeration, and the ``FoldLattice`` keeps
only the states and folds that lie on some complete path, in compressed
sparse rows. Every input, from the sweep step to the support tolerance,
is read from the tree's spec. ``FoldLattice.paths`` lists every complete
path as a row of edge ids, a layer at a time. ``enumerate_sequences``
reads them, and so does ``metrics.rank_lattice`` when it ranks every
path; to rank the best few it searches them instead.

Everything here is a pure function of immutable inputs, and output order
is canonical regardless of evaluation order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .collision import collision_check, n_sweep_samples, sweep
from .model import KinematicTree


class PlannerError(ValueError):
    """The planning problem itself is malformed (e.g. nothing to fold)."""


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


@dataclass(frozen=True, eq=False)
class FoldLattice:
    """The fold states of one carton that lie on some complete path, and their folds.

    A fold state is a bit mask over ``tree.foldable_ids`` (``tree.bits``).
    ``masks`` lists the states in layer order (by popcount, in the order
    the build reached them), the full state last. The folds are held in
    compressed sparse rows: state i's folds are the edges ``first[i]`` up
    to ``first[i + 1]``, in ascending joint order; edge e folds
    ``joint[e]`` out of state ``source[e]`` into state ``child[e]``
    (indices into ``masks``), and ``aerial[e]`` is its aerial flag.
    ``sequence_count`` is the exact number of complete paths and
    ``cc_samples[j]`` the sweep samples of joint j's check. Without a
    feasible sequence the lattice has no state at all.
    """

    tree: KinematicTree
    masks: list[int]
    first: np.ndarray
    source: np.ndarray
    child: np.ndarray
    joint: np.ndarray
    aerial: np.ndarray
    sequence_count: int
    cc_samples: dict[int, int]
    stats: SearchDiagnostics

    def sequence(self, order) -> FoldSequence:
        order = tuple(order)
        return FoldSequence(order, tuple(self.cc_samples[j] for j in order))

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

    def sequences(self) -> list[FoldSequence]:
        """Every complete path, in ascending lexicographic order of the joints."""
        paths, _ = self.paths()
        return [self.sequence(order) for order in self.joint[paths].tolist()]


def build_lattice(tree: KinematicTree) -> FoldLattice:
    """Collision-check every fold out of every reachable state, once.

    States are expanded a layer (one more folded joint) at a time from the
    empty one, and each feasible fold carries its sweep's aerial flag.
    The folds of every reachable state are recorded by state index, and
    the states and folds on no complete path are dropped at the end.
    """
    foldable = tree.foldable_ids
    if not foldable:
        raise PlannerError("carton has no foldable joints, nothing to enumerate")
    bits = [tree.bits[joint] for joint in foldable]
    stats = SearchDiagnostics()
    sweeps, pair_tests = len(tree.sweeps), len(tree.pair_verdicts)
    final = (1 << len(foldable)) - 1
    masks: list[int] = []
    source, child, joint, aerial = array("q"), array("q"), array("q"), array("b")
    layer_edges = []  # the first edge out of each layer
    layer = [0]
    while layer:
        layer_edges.append(len(source))
        reached: dict[int, int] = {}  # the next layer's states and their indices
        base = len(masks) + len(layer)
        for i, mask in enumerate(layer, len(masks)):
            folds = len(source)
            for j, bit in zip(foldable, bits):
                if mask & bit:
                    continue
                stats.cc_calls += 1
                if collision_check(tree, mask, j):
                    source.append(i)
                    child.append(reached.setdefault(mask | bit, base + len(reached)))
                    joint.append(j)
                    aerial.append(sweep(tree, mask, j).aerial)
            if len(source) == folds and mask != final:
                stats.dead_ends += 1
        masks += layer
        layer = list(reached)
    source, child = np.array(source, dtype=np.intp), np.array(child, dtype=np.intp)

    # ways[i]: the complete paths from state i, summed from the last layer
    # back; the last layer has no folds, and holds the full state if any.
    ways = np.zeros(len(masks), dtype=object)
    ways[-1] = int(masks[-1] == final)
    for lo, hi in zip(layer_edges[-2::-1], layer_edges[:0:-1]):
        np.add.at(ways, source[lo:hi], ways[child[lo:hi]])
    keep = np.flatnonzero(ways)
    index = np.full(len(masks), -1, dtype=np.intp)
    index[keep] = np.arange(len(keep))
    live = index[child] >= 0
    source = index[source[live]]
    stats.sequences = int(ways[0])
    stats.sweeps = len(tree.sweeps) - sweeps
    stats.pair_tests = len(tree.pair_verdicts) - pair_tests
    return FoldLattice(
        tree=tree,
        masks=[masks[i] for i in keep.tolist()],
        first=np.searchsorted(source, np.arange(len(keep) + 1)),
        source=source,
        child=index[child[live]],
        joint=np.array(joint, dtype=np.intp)[live],
        aerial=np.array(aerial, dtype=bool)[live],
        sequence_count=stats.sequences,
        cc_samples={j: n_sweep_samples(tree, j) for j in foldable},
        stats=stats,
    )


def enumerate_sequences(tree: KinematicTree) -> list[FoldSequence]:
    """All orderings of the foldable joints whose every step is collision free.

    The paths of the fold-state lattice, depth first with children in
    ascending joint id order, so the output order is deterministic.
    """
    return build_lattice(tree).sequences()
