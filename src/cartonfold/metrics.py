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

``score_and_rank`` scores and sorts a given list of orders, placing each
state by forward kinematics as a whole; it is the reference that
``rank_lattice`` is tested against. ``rank_lattice`` ranks the paths of a
fold-state lattice: volume and maxdim weigh the lattice's nodes and
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
from operator import add, itemgetter
from typing import NamedTuple

import numpy as np

from .geometry import Frozen, world_aabb
from .model import JointVector, KinematicTree, forward_kinematics
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

    Edge e folds ``joint[e]`` out of a state whose bounding box has volume
    ``volume[e]`` and largest extent ``max_dim[e]``; ``aerial[e]`` flags a
    fold that starts off the workbench.
    """

    joint: np.ndarray
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

    One row per sequence, best first, held as arrays: row i folds the
    joints ``orders[i]``, each foldable joint once, along the edges
    ``steps[i]`` of ``edges``, and
    ``c_vol[i]``, ``c_dim[i]`` and ``c_aerial[i]`` are its totals. The rows
    may be a prefix of the ranking; ``sequence_count`` counts every
    sequence that was ranked.
    """

    criteria: tuple[str, ...]
    sequence_count: int
    orders: np.ndarray
    steps: np.ndarray
    edges: EdgeMetrics
    c_vol: np.ndarray
    c_dim: np.ndarray
    c_aerial: np.ndarray

    def __init__(self, criteria, sequence_count, orders, steps, edges, c_vol, c_dim, c_aerial):
        self.__dict__.update(
            criteria=criteria, sequence_count=sequence_count, orders=orders, steps=steps,
            edges=edges, c_vol=c_vol, c_dim=c_dim, c_aerial=c_aerial,
        )

    def __len__(self) -> int:
        return len(self.orders)


def ranking_key(criteria: tuple[str, ...], c_vol, c_dim, c_aerial, order) -> tuple:
    """The sort key of one sequence: its totals in ``criteria`` order, the
    float ones rounded by ``round6``, then the order itself."""
    totals = {"aerial": c_aerial, "maxdim": c_dim, "volume": c_vol}
    return tuple(
        totals[c] if c == "aerial" else round6(totals[c]) for c in criteria
    ) + (tuple(order),)


def score_and_rank(tree: KinematicTree, orders) -> RankedReport:
    """Score every order and sort them by the spec's ranking.

    The reference ranker, sharing no memo with ``rank_lattice``: each fold
    state the orders pass through is placed by ``forward_kinematics`` as a
    whole and measured by ``world_aabb``, once per call. Each order's
    totals add its steps left to right, and the orders are sorted by
    ``ranking_key``, so ties after all criteria fall back to the order
    itself and the report does not depend on the input's order. The report
    has one edge per (order, step); an empty input gives an empty report.
    """
    criteria = tree.spec.ranking
    states: dict = {}
    scored = []
    for order in map(tuple, orders):
        steps = []
        for t, joint in enumerate(order):
            folded = frozenset(order[:t])
            measured = states.get(folded)
            if measured is None:
                poses = forward_kinematics(tree, JointVector.from_folded(tree, folded))
                box = world_aabb(p.solid for p in poses)
                lowest = {p.panel_id: p.solid.corners()[:, 2].min() for p in poses}
                measured = states[folded] = (box.volume, box.max_extent, lowest)
            volume, max_dim, lowest = measured
            aerial = min(lowest[pid] for pid in tree.subtree_ids(joint)) > tree.spec.support_tolerance
            steps.append((joint, volume, max_dim, bool(aerial)))
        c_vol = sum(step[1] for step in steps)
        c_dim = sum(step[2] for step in steps)
        c_aerial = sum(step[3] for step in steps)
        key = ranking_key(criteria, c_vol, c_dim, c_aerial, order)
        scored.append((key, c_vol, c_dim, c_aerial, steps))
    scored.sort(key=itemgetter(0))
    shape = (len(scored), len(tree.foldable_ids))
    per_step = [step for *_, steps in scored for step in steps]
    return RankedReport(
        criteria=criteria,
        sequence_count=len(scored),
        orders=np.array([key[-1] for key, *_ in scored], dtype=np.intp).reshape(shape),
        steps=np.arange(len(per_step)).reshape(shape),
        edges=EdgeMetrics(
            *(_column(per_step, i, dtype) for i, dtype in enumerate((np.intp, float, float, bool)))
        ),
        c_vol=_column(scored, 1, float),
        c_dim=_column(scored, 2, float),
        c_aerial=_column(scored, 3, np.intp),
    )


def _column(rows: list[tuple], i: int, dtype) -> np.ndarray:
    return np.array([row[i] for row in rows], dtype=dtype)


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
    edges = EdgeMetrics(lattice.joint, volume[lattice.source], max_dim[lattice.source], lattice.aerial)
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
        orders=lattice.joint[steps],
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
    totals = {"aerial": c_aerial, "maxdim": c_dim, "volume": c_vol}
    # np.lexsort sorts by its last key first.
    rank = np.lexsort([
        c_aerial if c == "aerial" else _rounded(totals[c])
        for c in reversed(lattice.tree.spec.ranking)
    ])
    return steps[rank], (c_vol[rank], c_dim[rank], c_aerial[rank])


def _search(lattice: FoldLattice, n: int, edges: EdgeMetrics) -> np.ndarray:
    """The edge ids of the ``n`` best paths, best first, by bounded search.

    ``rank_lattice`` describes the bounds and the search.
    """
    tree = lattice.tree
    criteria = tree.spec.ranking
    rounded = tuple(c != "aerial" for c in criteria)
    stats = lattice.stats
    first, children = lattice.first, lattice.child
    columns = {"aerial": edges.aerial, "maxdim": edges.max_dim, "volume": edges.volume}
    weight = np.array([columns[c] for c in criteria], dtype=float)

    # least[:, i]: the smallest sum of each criterion over the folds
    # finishing state i. A fold out of state i weighs i's volume and maxdim
    # and its own aerial flag; adding one weight to every candidate moves
    # the minimum by exactly that weight, since rounded addition is monotone.
    least = np.zeros((len(criteria), len(lattice.masks)))
    layer = lattice.layers
    for a, b in zip(layer[-3::-1].tolist(), layer[-2:0:-1].tolist()):
        lo, hi = first[a], first[b]
        candidates = weight[:, lo:hi] + least[:, children[lo:hi]]
        least[:, a:b] = np.minimum.reduceat(candidates, first[a:b] - lo, axis=1)
    folds: dict[int, list] = {}

    def folds_of(i: int) -> list:
        """State i's folds, ascending by lower bound, each with its child's least sums."""
        found = folds.get(i)
        if found is None:
            lo, hi = int(first[i]), int(first[i + 1])
            kids = children[lo:hi]
            w, rest = weight[:, lo:hi].T, least[:, kids].T
            found = folds[i] = sorted(zip(
                (w + rest).tolist(), lattice.joint[lo:hi].tolist(), range(lo, hi),
                kids.tolist(), w.tolist(), rest.tolist(),
            ))
        return found

    last = len(lattice.masks) - 1  # the full state
    best: list[tuple] = []
    cutoff = bands = None
    order: list[int] = []
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
        return tuple(order) >= cutoff[-2]

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
                 for c in cutoff[:-2]]

    def visit(i: int, sums: tuple) -> None:
        stats.nodes_expanded += 1
        if i == last:
            # Orders are distinct, so keys never tie up to the edge ids.
            sums = tuple(round6(v) if r else v for r, v in zip(rounded, sums))
            keep(sums + (tuple(order), tuple(path)))
            return
        for _, joint, e, c, w, rest in folds_of(i):
            stats.cc_cache_hits += 1
            order.append(joint)
            path.append(e)
            reach = tuple(map(add, sums, w))
            if cutoff is not None and ranks_after(reach, rest):
                stats.pruned += 1
            else:
                visit(c, reach)
            order.pop()
            path.pop()

    visit(0, (0,) * len(criteria))
    return np.array([key[-1] for key in best], dtype=np.intp)
