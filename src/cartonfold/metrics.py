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
(``KinematicTree.is_aerial``). Lower is better for all criteria, and the
spec's ``ranking`` lists them in the order they apply. Float criteria are
compared at the 6-decimal precision the reports print, so two sums that
print equal fall through to the next criterion, and finally to the order
itself, instead of being ranked by rounding noise.

``score_and_rank`` scores and sorts a given list of sequences.
``rank_lattice`` ranks every path of a fold-state lattice without listing
them: volume and maxdim weigh the lattice's nodes and aerial its edges.
Node weights and each state's least completion are computed in numpy
passes over the state masks, a popcount layer at a time; then one
depth-first branch-and-bound search, cheapest bound first, finds the best
N, and rows are built for those N only.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import add

import numpy as np

from .model import KinematicTree
from .planner import FoldLattice, FoldSequence, FoldState, action_space

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


def is_aerial(tree: KinematicTree, state_before: FoldState, joint: int) -> bool:
    """Whether folding ``joint``, which must be available, starts off the workbench."""
    if joint not in action_space(tree, state_before):
        raise ValueError(f"joint {joint} is not available in this state")
    return tree.is_aerial(tree.mask(state_before.folded), joint)


@dataclass(frozen=True)
class StepMetrics:
    """Per-state measurements taken just before one fold executes."""

    joint: int
    volume: float
    max_dim: float
    aerial: bool


@dataclass(frozen=True)
class SequenceScore:
    """A sequence with its per-step breakdown and accumulated criteria."""

    sequence: FoldSequence
    per_step: tuple[StepMetrics, ...]

    @property
    def c_vol(self) -> float:
        return sum(step.volume for step in self.per_step)

    @property
    def c_dim(self) -> float:
        return sum(step.max_dim for step in self.per_step)

    @property
    def c_aerial(self) -> int:
        return sum(1 for step in self.per_step if step.aerial)

    def key(self, criteria: tuple[str, ...]):
        totals = {"aerial": self.c_aerial, "maxdim": self.c_dim, "volume": self.c_vol}
        return tuple(
            totals[c] if c == "aerial" else round6(totals[c]) for c in criteria
        ) + (self.sequence.order,)


def score_sequence(tree: KinematicTree, sequence: FoldSequence) -> SequenceScore:
    """Measure every intermediate state S_0 .. S_{k-1} of one sequence."""
    steps = []
    for state, joint in sequence.prefixes():
        record = tree.state(state.folded)
        steps.append(
            StepMetrics(
                joint=joint,
                volume=record.volume,
                max_dim=record.max_extent,
                aerial=tree.is_aerial(tree.mask(state.folded), joint),
            )
        )
    return SequenceScore(sequence=sequence, per_step=tuple(steps))


@dataclass(frozen=True)
class RankedReport:
    """The best sequences, sorted ascending-lexicographically by ``criteria``.

    ``rows`` may be a prefix of the ranking; ``sequence_count`` counts every
    sequence that was ranked.
    """

    criteria: tuple[str, ...]
    rows: tuple[SequenceScore, ...]
    sequence_count: int

    def __len__(self) -> int:
        return len(self.rows)


def score_and_rank(tree: KinematicTree, sequences) -> RankedReport:
    """Score all sequences and sort them by the spec's ranking.

    Ties after all criteria fall back to the sequence order tuple itself, so
    the report is a total order independent of input ordering. An empty
    input produces an empty report.
    """
    criteria = tree.spec.ranking
    scores = [score_sequence(tree, seq) for seq in sequences]
    scores.sort(key=lambda s: s.key(criteria))
    return RankedReport(criteria=criteria, rows=tuple(scores), sequence_count=len(scores))


def rank_lattice(lattice: FoldLattice, top: int | None = None) -> RankedReport:
    """The ``top`` best sequences of the lattice (all when None), ranked.

    The lattice's states are bit masks. First, in passes over the states
    that can still complete, one popcount layer at a time from the full
    state down: each state's volume and maxdim (``KinematicTree.measures``,
    all states at once) and, per criterion, ``least``, the smallest sum
    over the folds that finish it.

    Then one depth-first search carries each path's criterion sums, adding
    one term per step left to right as SequenceScore does, so every sum
    equals the scored one bit for bit. It visits a state's folds in
    ascending order of their lower bound (the fold's weights plus the
    child's ``least``), so the best paths come first, and keeps the best
    keys found. Once it holds ``top`` of them, it skips a fold whose lower
    bound already ranks at or after the ``top``-th key: the sums so far
    plus the child's ``least``, loosened by BOUND_SLACK and compared as
    keys are. The kept set is the ``top`` smallest keys under a total
    order, so the visit order changes the work, never the result. With
    ``top`` None every key is kept, so nothing is ever pruned. Rows are
    built only for the returned sequences, from one StepMetrics per
    lattice edge they use.
    """
    count = lattice.sequence_count
    n = count if top is None else min(top, count)
    tree = lattice.tree
    criteria = tree.spec.ranking
    rounded = tuple(c != "aerial" for c in criteria)
    if not n:
        return RankedReport(criteria=criteria, rows=(), sequence_count=count)
    stats = lattice.stats
    edges = lattice.edges

    # The states on some complete path, in the lattice's layer order (the
    # final state last), and the folds between them, grouped by state:
    # state i's folds are first[i] up to first[i + 1].
    live = [mask for mask in edges if lattice.completions[mask]]
    index = {mask: i for i, mask in enumerate(live)}
    first, children, aerial = [], [], []
    for mask in live:
        first.append(len(children))
        for _, child, flag in edges[mask]:
            c = index.get(child)
            if c is not None:
                children.append(c)
                aerial.append(flag)
    first = np.array(first)
    children, aerial = np.array(children, dtype=np.intp), np.array(aerial, dtype=float)
    node = dict(zip(("volume", "maxdim"), tree.measures(live[:-1])))

    # least[c][i]: the smallest sum of criterion c over the folds finishing
    # state i. A node weight adds to the least child; aerial is per fold.
    least = np.zeros((len(criteria), len(live)))
    sizes = [mask.bit_count() for mask in live]
    layer = np.searchsorted(sizes, range(len(tree.foldable_ids) + 1))
    for a, b in zip(layer[-2::-1].tolist(), layer[:0:-1].tolist()):
        lo, hi = first[a], first[b]
        starts, kids = first[a:b] - lo, children[lo:hi]
        for row, criterion in zip(least, criteria):
            if criterion == "aerial":
                row[a:b] = np.minimum.reduceat(aerial[lo:hi] + row[kids], starts)
            else:
                row[a:b] = node[criterion][a:b] + np.minimum.reduceat(row[kids], starts)
    weights = {name: values.tolist() for name, values in node.items()}
    least = least.T.tolist()
    folds: dict[int, list] = {}

    def folds_of(i: int) -> list:
        """State i's folds that can complete, ascending by lower bound."""
        found = folds.get(i)
        if found is None:
            found = []
            for joint, child, flag in edges[live[i]]:
                c = index.get(child)
                if c is not None:
                    w = tuple(int(flag) if x == "aerial" else weights[x][i] for x in criteria)
                    found.append((tuple(map(add, w, least[c])), joint, c, w))
            found.sort()
            folds[i] = found
        return found

    last = len(live) - 1  # the full state
    best: list[tuple] = []
    cutoff = bands = None
    order: list[int] = []

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
        return tuple(order) >= cutoff[-1]

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
            keep(tuple(round6(v) if r else v for r, v in zip(rounded, sums)) + (tuple(order),))
            return
        for _, joint, c, w in folds_of(i):
            stats.cc_cache_hits += 1
            order.append(joint)
            reach = tuple(map(add, sums, w))
            if cutoff is not None and ranks_after(reach, least[c]):
                stats.pruned += 1
            else:
                visit(c, reach)
            order.pop()

    visit(0, (0,) * len(criteria))
    steps: dict[tuple[int, int], StepMetrics] = {}
    rows = []
    for *_, seq in best:
        mask, per_step = 0, []
        for joint in seq:
            step = steps.get((mask, joint))
            if step is None:
                i = index[mask]
                flag = next(e.aerial for e in edges[mask] if e.joint == joint)
                volume, max_dim = weights["volume"][i], weights["maxdim"][i]
                step = steps[mask, joint] = StepMetrics(joint, volume, max_dim, flag)
            per_step.append(step)
            mask |= tree.bits[joint]
        rows.append(SequenceScore(lattice.sequence(seq), tuple(per_step)))
    return RankedReport(criteria=criteria, rows=tuple(rows), sequence_count=count)
