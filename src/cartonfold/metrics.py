"""Hardware-compatibility scoring and lexicographic ranking of sequences.

Each sequence of k folds visits states S_0 (nothing folded) through S_k
(everything folded). The three criteria accumulate over the intermediate
states t = 0 .. k-1 only; the final state is deliberately excluded from
every sum, matching the summation bounds of the cost definitions:

* volume: product of the world-aligned bounding-box extents at S_t,
* max dimension: largest of those extents at S_t,
* aerial: 1 when the fold leaving S_t starts off the workbench.

A fold is aerial when the lowest corner of its moving subtree sits more
than the support tolerance above the table at the start of the motion
(``collision.Sweep``). Lower is better for all criteria, and the
spec's ``ranking`` lists them in the order they apply. Float criteria are
compared at the 6-decimal precision the reports print, so two sums that
print equal fall through to the next criterion, and finally to the order
itself, instead of being ranked by rounding noise.

``reference.score_and_rank`` scores and sorts a given list of orders,
placing each state by forward kinematics as a whole; it is the reference
that ``rank_lattice`` is tested against. ``rank_lattice`` ranks the paths
of a fold-state lattice: volume and maxdim weigh the lattice's nodes and
aerial its edges, and node weights come from one numpy pass over the
state masks, assembled from memoised panel records. It works in one of two
regimes, split on whether the report asks for every path:

* every path (``--top all``, or a top N at least the sequence count):
  nothing can be pruned, so the paths are listed a popcount layer at a
  time as arrays of edge ids, already in ascending order of their joints,
  and ordered by one stable ``np.lexsort`` on the criteria alone, so rows
  that tie on every criterion keep their joint order;
* the best N of a larger count: each state's least completion is
  computed in numpy passes, a layer at a time, and one depth-first
  branch-and-bound search, cheapest bound first, finds the best N without
  listing the rest.

Both give a ``RankedReport``, which holds its rows as arrays: a ranking
has no other representation.
"""

from __future__ import annotations

from bisect import insort
from operator import add
from typing import NamedTuple

import numpy as np

from .geometry import Frozen
from .planner import FoldLattice

# Relative loosening of rank_lattice's lower bounds. The bound and a path's
# own sum add the same k terms in different orders, so they differ by at
# most about 2k ulps; 1e-12 is far above that for any carton, and it moves
# a sum below 1e5 by less than the 1e-6 resolution at which criteria are
# compared, so a bound that ties the cutoff still rounds equal to it and
# falls through to the next criterion instead of always ranking first.
BOUND_SLACK = 1e-12

# Half-width of the band about a cutoff within which rank_lattice rounds a
# bound before comparing it; 1e-15 of the value is added to cover an ulp.
ROUND_BAND = 1e-6


def round6(value: float) -> float:
    """Round through fixed 6-decimal text, the precision reports print."""
    return float(f"{value:.6f}")


class EdgeMetrics(NamedTuple):
    """Step columns indexed by edge id.

    Edge e folds the joint in slot ``slot[e]`` of the foldable joints out
    of a state whose bounding box has volume ``volume[e]`` and largest
    extent ``max_dim[e]``; ``aerial[e]`` flags a fold that starts off the
    workbench.
    """

    slot: np.ndarray
    volume: np.ndarray
    max_dim: np.ndarray
    aerial: np.ndarray

    def totals(self, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The volume, maxdim and aerial sums of each row of edge ids.

        Terms are added left to right, as ``score_and_rank`` adds them, so
        every sum equals the scored one bit for bit.
        """
        columns = (self.volume, self.max_dim, self.aerial.astype(np.intp))
        sums = [column[steps[:, 0]] for column in columns]
        for t in range(1, steps.shape[1]):
            for total, column in zip(sums, columns):
                total += column[steps[:, t]]
        return tuple(sums)


class RankedReport(Frozen):
    """The best sequences, sorted ascending-lexicographically by ``criteria``.

    One row per sequence, best first, held as arrays: row i folds each
    foldable joint once, along the edges ``steps[i]`` of ``edges``, and
    ``c_vol[i]``, ``c_dim[i]`` and ``c_aerial[i]`` are its totals. Edges
    name their joints by slot: slot s is joint ``joints[s]``, the foldable
    joint ids in ascending order. The rows may be a prefix of the ranking;
    ``sequence_count`` counts every sequence that was ranked.
    """

    criteria: tuple[str, ...]
    sequence_count: int
    joints: np.ndarray
    steps: np.ndarray
    edges: EdgeMetrics
    c_vol: np.ndarray
    c_dim: np.ndarray
    c_aerial: np.ndarray

    def __init__(self, criteria, sequence_count, joints, steps, edges, c_vol, c_dim, c_aerial):
        self.__dict__.update(
            criteria=criteria, sequence_count=sequence_count, joints=joints, steps=steps,
            edges=edges, c_vol=c_vol, c_dim=c_dim, c_aerial=c_aerial,
        )

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def orders(self) -> np.ndarray:
        """The joint ids of each row's folds, in order, looked up on each read."""
        return self.joints[self.edges.slot[self.steps]]


def _criteria(ranking, volume, max_dim, aerial) -> tuple[list, list[bool]]:
    """Each criterion's column, and whether it compares through ``round6`` (not aerial)."""
    columns = {"aerial": aerial, "maxdim": max_dim, "volume": volume}
    return [columns[c] for c in ranking], [c != "aerial" for c in ranking]


def _rounded(values: np.ndarray) -> np.ndarray:
    """``round6`` of every value, computed once per distinct value."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.array([round6(v) for v in distinct.tolist()], dtype=float)[index]


def rank_lattice(lattice: FoldLattice, top: int | None = None) -> RankedReport:
    """The ``top`` best sequences of the lattice (all when None), ranked.

    The lattice's states are bit masks, all on some complete path, and its
    folds are arrays of edges. Each state's volume and maxdim come from
    ``KinematicTree.measures``, all states at once, and weigh the folds out
    of it; each fold's aerial flag weighs the fold itself.

    When every path is asked for, nothing can be pruned, so nothing is
    searched: ``FoldLattice.paths`` lists every path as a row of edge ids,
    a layer at a time, in ascending order of their joints; each row's sums
    add its steps left to right, and one stable ``np.lexsort`` orders the
    rows by the criteria alone, the float ones rounded by ``round6`` once
    per distinct sum, so ties fall back to the order itself.

    Otherwise, in passes over the live states, one popcount layer at a time
    from the full state down, ``least`` gets, per criterion, each state's
    smallest sum over the folds that finish it. Then one depth-first search
    carries each path's criterion sums, adding one term per step left to
    right, so every sum equals the scored one bit for bit. It visits a
    state's folds in ascending order of their lower bound (the fold's
    weights plus the child's ``least``), so the best paths come first,
    reading the weights and bounds of only the states it visits, and
    keeps the best keys found. Once it holds ``top`` of them, it skips a
    fold whose lower bound already ranks at or after the ``top``-th key:
    the sums so far plus the child's ``least``, loosened by BOUND_SLACK and
    compared as keys are. The kept set is the ``top`` smallest keys under
    a total order, so the visit order changes the work, never the result.

    Either way the report holds its rows as arrays.
    """
    count = lattice.sequence_count
    n = count if top is None else min(top, count)
    tree = lattice.tree
    volume, max_dim = tree.measures(lattice.masks[:-1])
    edges = EdgeMetrics(lattice.slot, volume[lattice.source], max_dim[lattice.source], lattice.aerial)
    if not n:
        steps = np.zeros((0, len(tree.foldable_ids)), dtype=np.intp)
        totals = edges.totals(steps)
    elif n < count:
        steps = _search(lattice, n, edges)
        totals = edges.totals(steps)
    else:
        steps, totals = _sort_every_path(lattice, edges)
    c_vol, c_dim, c_aerial = totals
    return RankedReport(
        criteria=tree.spec.ranking,
        sequence_count=count,
        joints=np.array(tree.foldable_ids, dtype=np.intp),
        steps=steps,
        edges=edges,
        c_vol=c_vol,
        c_dim=c_dim,
        c_aerial=c_aerial,
    )


def _sort_every_path(lattice: FoldLattice, edges: EdgeMetrics) -> tuple[np.ndarray, tuple]:
    """The edge ids of every path, best first, by one lexsort, and their totals.

    ``FoldLattice.paths`` lists the rows in ascending lexicographic order
    of their joints and ``np.lexsort`` is stable, so sorting on the
    criteria alone leaves rows that tie on all of them in that order.
    """
    steps, prefixes = lattice.paths()
    lattice.stats.nodes_expanded += prefixes
    lattice.stats.cc_cache_hits += prefixes - 1
    c_vol, c_dim, c_aerial = edges.totals(steps)
    columns, rounded = _criteria(lattice.tree.spec.ranking, c_vol, c_dim, c_aerial)
    # np.lexsort sorts by its last key first.
    rank = np.lexsort([_rounded(c) if r else c for c, r in zip(columns[::-1], rounded[::-1])])
    return steps[rank], (c_vol[rank], c_dim[rank], c_aerial[rank])


def _search(lattice: FoldLattice, n: int, edges: EdgeMetrics) -> np.ndarray:
    """The edge ids of the ``n`` best paths, best first, by bounded search.

    ``rank_lattice`` describes the bounds and the search.
    """
    columns, rounded = _criteria(lattice.tree.spec.ranking, edges.volume, edges.max_dim, edges.aerial)
    stats = lattice.stats
    first, children = lattice.first, lattice.child

    # least[c, i]: the smallest sum of criterion c over the folds finishing
    # state i. A fold out of state i weighs i's volume and maxdim and its
    # own aerial flag; adding one weight to every candidate moves the
    # minimum by exactly that weight, since rounded addition is monotone.
    # Each criterion's column is read a slice at a time, never stacked.
    least = np.zeros((len(columns), len(lattice.masks)))
    layer = lattice.layers
    for a, b in zip(layer[-3::-1].tolist(), layer[-2:0:-1].tolist()):
        lo, hi = first[a], first[b]
        kids, starts = children[lo:hi], first[a:b] - lo
        for column, row in zip(columns, least):
            candidates = row[kids]
            candidates += column[lo:hi]
            row[a:b] = np.minimum.reduceat(candidates, starts)
    folds: dict[int, list] = {}

    def folds_of(i: int) -> list:
        """State i's folds, ascending by lower bound, each with its child's least sums."""
        found = folds.get(i)
        if found is None:
            lo, hi = int(first[i]), int(first[i + 1])
            kids = children[lo:hi]
            w = list(zip(*[column[lo:hi].tolist() for column in columns]))
            rest = least[:, kids].T.tolist()
            found = folds[i] = sorted(zip(
                [list(map(add, a, b)) for a, b in zip(w, rest)], range(lo, hi), kids.tolist(), w, rest,
            ))
        return found

    last = len(lattice.masks) - 1  # the full state
    best: list[tuple] = []
    cutoff = bands = None
    # Edge ids, which sort as the joints they fold do: a state's edges are
    # stored in ascending slot order, and two paths first differ at a
    # state they share.
    path: list[int] = []

    def ranks_after(reach: tuple, rest: list) -> bool:
        """Whether a fold's lower bound ranks at or after the cutoff key.

        Rounding moves a value by at most 5e-7 and an ulp, so a bound
        outside its criterion's band about the cutoff compares the same
        rounded or not, and only one inside it goes through ``round6``.
        """
        for r, v, extra, cut, (below, above) in zip(rounded, reach, rest, cutoff, bands):
            v += extra
            if r:
                v *= 1.0 - BOUND_SLACK
                if below < v < above:
                    v = round6(v)
            if v != cut:
                return v > cut
        return tuple(path) >= cutoff[-1]

    def keep(key: tuple) -> None:
        nonlocal cutoff, bands
        if len(best) < n:
            best.append(key)
            if len(best) < n:
                return
            best.sort()
        elif key < cutoff:
            insort(best, key)
            best.pop()
        else:
            return
        cutoff = best[-1]
        bands = [(c - ROUND_BAND - abs(c) * 1e-15, c + ROUND_BAND + abs(c) * 1e-15)
                 for c in cutoff[:-1]]

    def visit(i: int, sums: tuple) -> None:
        stats.nodes_expanded += 1
        if i == last:
            # Paths are distinct, so keys never tie.
            sums = tuple(round6(v) if r else v for r, v in zip(rounded, sums))
            keep(sums + (tuple(path),))
            return
        state_folds = folds_of(i)
        stats.cc_cache_hits += len(state_folds)
        for _, e, c, w, rest in state_folds:
            path.append(e)
            reach = tuple(map(add, sums, w))
            if cutoff is not None and ranks_after(reach, rest):
                stats.pruned += 1
            else:
                visit(c, reach)
            path.pop()

    visit(0, (0,) * len(columns))
    return np.array([key[-1] for key in best], dtype=np.intp)


def __getattr__(name: str):
    # The benchmark's tracer (bench/tracing.py) looks score_and_rank up on
    # this module, the one its span names. The hook goes when the tracer
    # reads the run's own counters instead (ROADMAP item 2).
    if name == "score_and_rank":
        from .reference import score_and_rank

        return score_and_rank
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
