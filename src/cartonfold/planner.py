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
popcount layer at a time, and decides every fold out of a layer in one
pass. The verdict for folding joint j out of state F is an AND of
memoised predicates keyed on masks (``collision``): a fold's sweep reads
only the folded joints that place the moving subtree, and its pair test
against a static panel only those and the panel's own ancestors. So the
pass holds sets of the layer's states as Python-int bitboards, bit s for
the layer's state s (the bitwise subset tables of Knuth, TAOCP 4A,
§7.1.3), splits each set by the bits a predicate reads, and evaluates a
predicate once for each key that some state still alive carries: exactly
the predicates that one ``collision.collision_check`` per (reachable
state, unfolded joint) evaluates, without calling it. A carton of k free
flaps builds k sweeps and k(2k-1) pair tests for its k·2^(k-1) verdicts.
A fold's aerial flag is read from its sweep, since it depends on the
subtree's start pose alone, so no fold state is ever run through forward
kinematics as a whole. Each layer's feasible folds are unpacked once into
flat arrays, one ``np.unique`` of their children numbers the next layer
in ascending mask order, and the work follows the reachable states.
One numpy pass a layer at a time from the full state counts the complete
paths below every state, with Python ints as in Held & Karp's subset
recursion, so the sequence count is exact and never an enumeration, and
the ``FoldLattice`` keeps only the states and folds that lie on some
complete path, in compressed sparse rows. Every input, from the sweep
step to the support tolerance, is read from the tree's spec.
``FoldLattice.paths`` lists every complete path as a row of edge ids, a
layer at a time. ``enumerate_sequences`` reads them, and so does
``metrics.rank_lattice`` when it ranks every path; to rank the best few
it searches them instead.

Everything here is a pure function of immutable inputs, and output order
is canonical regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from .collision import _pair_blocked, build_sweeps, sweep
from .model import KinematicTree


class PlannerError(ValueError):
    """The planning problem itself is malformed (e.g. nothing to fold)."""


@dataclass
class SearchDiagnostics:
    """Counters of one lattice build and the searches over it.

    ``cc_calls`` counts collision verdicts, one per reachable state and
    unfolded joint, though the build decides them a layer at a time and
    calls no ``collision_check``; ``sweeps`` and ``pair_tests`` count the
    swept subtrees and (sweep, static panel) kernel verdicts those
    verdicts built rather than reused, ``dead_ends`` the reachable states
    with no feasible fold, and ``sequences`` the collision-free sequences.
    A ranking adds ``nodes_expanded``, the path prefixes it visited,
    ``cc_cache_hits``, the lattice edges it followed out of them, and
    ``pruned``, the edges it cut because their lower bound ranked at or
    after the current N-th key. A ranking of every path enumerates every prefix of every
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
    ``masks`` holds the states (int64, or Python ints from 63 joints) in
    layer order, by popcount, then ascending, the full state last; layer t
    is the states ``layers[t]`` up to ``layers[t + 1]``. The folds are held
    in compressed sparse rows: state i's folds are the edges ``first[i]``
    up to ``first[i + 1]``, in ascending joint order; edge e folds
    ``joint[e]`` out of state ``source[e]`` into state ``child[e]``
    (indices into ``masks``), and ``aerial[e]`` is its aerial flag.
    ``sequence_count`` is the exact number of complete paths. Without a
    feasible sequence the lattice has no state at all.
    """

    tree: KinematicTree
    masks: np.ndarray
    layers: np.ndarray
    first: np.ndarray
    source: np.ndarray
    child: np.ndarray
    joint: np.ndarray
    aerial: np.ndarray
    sequence_count: int
    stats: SearchDiagnostics

    def paths(self) -> tuple[np.ndarray, int]:
        """Every complete path as a row of edge ids, and the number of prefixes.

        Paths grow a popcount layer at a time from the empty state, each
        path of t folds followed by its extensions in ascending joint
        order, so the rows come out in ascending lexicographic order of
        their joints, the order of a depth-first walk. The prefix count
        covers every length from the empty path to the complete ones.
        Each layer keeps the last edge of each of its prefixes and the
        prefix that edge extends; the rows are filled once at the end, by
        following those links back from the complete paths.
        """
        if not len(self.masks):
            return np.zeros((0, 0), dtype=np.intp), 0
        state = np.zeros(1, dtype=np.intp)
        edges, parents = [], []
        for _ in range(int(self.masks[-1]).bit_count()):
            begin = self.first[state]
            count = self.first[state + 1] - begin
            ends = np.cumsum(count)
            # Path p's extensions are its state's count[p] edges from begin[p].
            edge = np.arange(ends[-1]) + np.repeat(begin - ends + count, count)
            edges.append(edge)
            parents.append(np.repeat(np.arange(len(count)), count))
            state = self.child[edge]
        paths = np.empty((len(state), len(edges)), dtype=np.intp)
        prefix = np.arange(len(state))
        for t in reversed(range(len(edges))):
            paths[:, t] = edges[t][prefix]
            prefix = parents[t][prefix]
        return paths, 1 + sum(map(len, edges))

    def sequences(self) -> list[tuple[int, ...]]:
        """The joint order of every complete path, in ascending lexicographic order."""
        paths, _ = self.paths()
        return list(map(tuple, self.joint[paths].tolist()))


def build_lattice(tree: KinematicTree) -> FoldLattice:
    """Every feasible fold out of every reachable state, a layer at a time.

    States are expanded a layer (one more folded joint) at a time from the
    empty one, each layer's verdicts in one pass (``_layer_folds``), and
    each feasible fold carries its sweep's aerial flag. The folds of a
    layer are listed by state, then by joint; one ``np.unique`` of their
    children's masks gives the next layer, in ascending mask order, and
    each fold's child index. States and folds on no path are dropped.
    """
    foldable = tree.foldable_ids
    if not foldable:
        raise PlannerError("carton has no foldable joints, nothing to enumerate")
    k = len(foldable)
    stats = SearchDiagnostics()
    sweeps, pair_tests = len(tree.sweeps), len(tree.pair_verdicts)
    # Masks of 63 or more joints overflow int64; numpy then keeps Python ints.
    dtype = np.int64 if k < 63 else object
    bits = np.array([1 << i for i in range(k)], dtype=dtype)
    masks, source, child, slot, aerial = [], [], [], [], []
    starts = [0]  # the first state of each layer, then the end
    layer = np.zeros(1, dtype=dtype)
    walks: dict = {}  # (joint, folded joints that place its sweep) -> _Walk
    for size in range(k):
        n = len(layer)
        free, aloft = _layer_folds(tree, _Projections(layer, bits), walks)
        stats.cc_calls += n * (k - size)
        stats.dead_ends += ((1 << n) - 1 & ~reduce(or_, free)).bit_count()
        table = _unpack(free + aloft, n)
        state, slots = np.nonzero(table[:k].T)
        end = starts[-1] + n
        masks.append(layer)
        source.append(state + starts[-1])
        layer, reached = np.unique(layer[state] | bits[slots], return_inverse=True)
        child.append(reached + end)
        slot.append(slots)
        aerial.append(table[k:].T[state, slots])
        starts.append(end)
        if not len(layer):
            break
    masks.append(layer)  # the full state, or no state when it is out of reach
    starts.append(starts[-1] + len(layer))
    masks, source, child = np.concatenate(masks), np.concatenate(source), np.concatenate(child)

    # ways[i]: the complete paths from state i, summed from the last layer
    # back; the last layer has no folds, and holds the full state if any.
    ways = np.zeros(len(masks), dtype=object)
    ways[-1] = int(masks[-1] == (1 << k) - 1)
    for a, b in zip(starts[-3::-1], starts[-2:0:-1]):
        lo, hi = np.searchsorted(source, (a, b))
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
        masks=masks[keep],
        layers=np.searchsorted(keep, starts) if len(keep) else np.zeros(1, dtype=np.intp),
        first=np.searchsorted(source, np.arange(len(keep) + 1)),
        source=source,
        child=index[child[live]],
        joint=np.array(foldable, dtype=np.intp)[np.concatenate(slot)[live]],
        aerial=np.concatenate(aerial)[live],
        sequence_count=stats.sequences,
        stats=stats,
    )


class _Projections(dict):
    """One layer's states, as bitboards, split by their values of a set of fold bits.

    Bit s of a board stands for the layer's state s. ``has[i]`` is the
    board of the states with fold bit i, from one ``np.packbits`` of the
    layer's masks. ``self[bits]`` lists (a value of ``bits``, the board of
    the states that have it) for every value some state has, built when
    first asked for; ``split`` does the same for a part of the layer.
    """

    def __init__(self, layer: np.ndarray, bits: np.ndarray):
        super().__init__()
        self.everyone = (1 << len(layer)) - 1
        width = (len(layer) + 7) // 8
        packed = np.packbits((layer & bits[:, None]) != 0, axis=1, bitorder="little").tobytes()
        self.has = [
            int.from_bytes(packed[i * width:(i + 1) * width], "little") for i in range(len(bits))
        ]

    def __missing__(self, bits: int) -> list[tuple[int, int]]:
        parts = self[bits] = self.split(self.everyone, bits)
        return parts

    def split(self, states: int, bits: int) -> list[tuple[int, int]]:
        parts = [(0, states)] if states else []
        while bits:
            low = bits & -bits
            bits ^= low
            on = self.has[low.bit_length() - 1]
            parts = [
                part
                for value, board in parts
                for part in ((value, board & ~on), (value | low, board & on))
                if part[1]
            ]
        return parts


def _unpack(boards: list[int], n: int) -> np.ndarray:
    """Bitboards over an n-state layer as the rows of a boolean table."""
    width = (n + 7) // 8
    data = b"".join(board.to_bytes(width, "little") for board in boards)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(boards), width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)


def _layer_folds(
    tree: KinematicTree, layer: _Projections, walks: dict
) -> tuple[list[int], list[int]]:
    """Which of a layer's states fold each joint freely, and which of those folds are aerial.

    Returns two lists of bitboards, one board per joint slot. For each
    joint, the states where it is unfolded are split by the folded joints
    that place its sweep. The sweeps of the parts not yet walked are built
    in one ``build_sweeps`` call, then each part is walked through its
    sweep's ``_Walk``, kept in ``walks`` for the whole build.
    """
    parts = []
    for i, moving in enumerate(tree.foldable_ids):
        placing = tree.subtree_ancestry[moving] & ~(1 << i)
        for value, states in layer.split(layer.everyone & ~layer.has[i], placing):
            parts.append((i, moving, placing, value, states))
    build_sweeps(tree, [(v, moving) for _, moving, _, v, _ in parts if (moving, v) not in walks])
    free, aloft = [0] * len(tree.foldable_ids), [0] * len(tree.foldable_ids)
    for i, moving, placing, value, states in parts:
        walk = walks.get((moving, value))
        if walk is None:
            walk = walks[moving, value] = _Walk(tree, moving, value, placing)
        states = walk(states, layer)
        free[i] |= states
        if walk.swept.aerial:
            aloft[i] |= states
    return free, aloft


class _Walk:
    """The pair tests of one sweep that can still change a verdict, during one build.

    Called with a board of states that fold the sweep's joint and carry
    its key ``value``, it returns the states whose fold is free. The
    sweep's static panels are walked in order: the states still alive are
    split by the folded joints that place the panel, and a part is dropped
    when its pair verdict is blocked. A verdict is thus the AND of the
    memoised predicates that ``collision_check`` evaluates, and each
    predicate is evaluated only for a key that some state alive at that
    point carries, as ``collision_check`` state by state would. A panel
    whose every key this build has found free can neither block nor be
    evaluated again, so later walks leave it out.
    """

    def __init__(self, tree: KinematicTree, moving: int, value: int, placing: int):
        self.tree = tree
        self.swept = swept = sweep(tree, value, moving)
        # [panel id, the fold bits that split the states, the fixed part of
        # the pair key, its fold bits, how many keys are not yet found free]
        self.steps = []
        for pid, ancestry, base in swept.static:
            split, fixed = ancestry & ~placing, value & ancestry
            self.steps.append([pid, split, base | fixed, fixed, 1 << split.bit_count()])

    def __call__(self, states: int, layer: _Projections) -> int:
        if not self.swept.clear:
            return 0
        verdicts = self.tree.pair_verdicts
        inert = False
        for step in self.steps:
            pid, split, key, fixed, _ = step
            for placed, part in layer[split]:
                if part & states:
                    blocked = verdicts.get(key | placed)
                    if blocked is None:
                        blocked = verdicts[key | placed] = _pair_blocked(
                            self.tree, self.swept, fixed | placed, pid
                        )
                        if not blocked:
                            step[4] -= 1
                            inert = inert or not step[4]
                    if blocked:
                        states &= ~part
            if not states:
                break
        if inert:
            self.steps = [step for step in self.steps if step[4]]
        return states


def enumerate_sequences(tree: KinematicTree) -> list[tuple[int, ...]]:
    """All orderings of the foldable joints whose every step is collision free, as joint tuples.

    The paths of the fold-state lattice, depth first with children in
    ascending joint id order, so the output order is deterministic.
    """
    return build_lattice(tree).sequences()
