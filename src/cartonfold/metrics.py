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
them: volume and maxdim weigh the lattice's nodes and aerial its edges, so
one bounded depth-first search finds the best N, and rows are built for
those N only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import KinematicTree
from .planner import FoldLattice, FoldSequence, FoldState, action_space

# Relative loosening of rank_lattice's lower bounds. The bound and a path's
# own sum add the same terms in different orders, so they can differ by a
# few ulps of k terms; 1e-9 is far above that and far below the 1e-6
# resolution at which criteria are compared.
BOUND_SLACK = 1e-9


def round6(value: float) -> float:
    """Round through fixed 6-decimal text, the precision reports print."""
    return float(f"{value:.6f}")


def is_aerial(tree: KinematicTree, state_before: FoldState, joint: int) -> bool:
    """Whether folding ``joint``, which must be available, starts off the workbench."""
    if joint not in action_space(tree, state_before):
        raise ValueError(f"joint {joint} is not available in this state")
    return tree.is_aerial(state_before.folded, joint)


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
                aerial=tree.is_aerial(state.folded, joint),
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

    One depth-first search in ascending joint order carries each path's
    criterion sums, adding one term per step left to right as
    SequenceScore does, so every sum equals the scored one bit for bit. It
    keeps the best keys found. Once it holds ``top`` of them, it skips a
    fold whose lower bound already ranks at or after the ``top``-th key:
    the sums so far plus each criterion's least completion over the
    lattice, loosened by BOUND_SLACK and rounded as keys are, which keeps
    the bound valid because rounding is monotone. With ``top`` None every
    key is kept, so nothing is ever pruned. Rows are built only for the
    returned sequences, from one StepMetrics per lattice edge.
    """
    count = lattice.sequence_count
    n = count if top is None else min(top, count)
    criteria = lattice.tree.spec.ranking
    rounded = tuple(c != "aerial" for c in criteria)
    final = lattice.final
    stats = lattice.stats

    # Criterion weights of each fold that can still complete: maxdim and
    # volume measure the state the fold leaves, aerial the fold itself.
    # Each such fold also gets the one StepMetrics every row through it shares.
    folds: dict[frozenset, list] = {}
    steps: dict[frozenset, dict] = {}
    for folded, edges in lattice.edges.items():
        live = [e for e in edges if lattice.completions[e.child]]
        if not live:
            continue
        volume, max_dim = lattice.tree.measures(folded)
        weight = {"maxdim": max_dim, "volume": volume}
        folds[folded], steps[folded] = [], {}
        for e in live:
            weight["aerial"] = int(e.aerial)
            folds[folded].append((e.joint, e.child, tuple(weight[c] for c in criteria)))
            step = StepMetrics(e.joint, volume, max_dim, e.aerial)
            steps[folded][e.joint] = (step, e.child)

    # least[F]: per criterion, the smallest sum over the folds finishing F.
    least = {final: (0,) * len(criteria)}
    for folded in reversed(folds):
        least[folded] = tuple(
            min(w[i] + least[child][i] for _, child, w in folds[folded])
            for i in range(len(criteria))
        )

    best: list[tuple] = []
    cutoff = None
    order: list[int] = []

    def visit(folded: frozenset, sums: tuple) -> None:
        nonlocal cutoff
        stats.nodes_expanded += 1
        if folded == final:
            best.append(
                tuple(round6(v) if r else v for r, v in zip(rounded, sums)) + (tuple(order),)
            )
            if len(best) >= 2 * n:
                best.sort()
                del best[n:]
                cutoff = best[-1]
            return
        for joint, child, weights in folds[folded]:
            stats.cc_cache_hits += 1
            order.append(joint)
            reach = tuple(s + w for s, w in zip(sums, weights))
            if cutoff is not None and tuple(
                round6((v + rest) * (1.0 - BOUND_SLACK)) if r else v + rest
                for r, v, rest in zip(rounded, reach, least[child])
            ) + (tuple(order),) >= cutoff:
                stats.pruned += 1
            else:
                visit(child, reach)
            order.pop()

    if n:
        visit(frozenset(), (0,) * len(criteria))
    best.sort()
    rows = []
    for *_, order in best[:n]:
        folded, per_step = frozenset(), []
        for joint in order:
            step, folded = steps[folded][joint]
            per_step.append(step)
        rows.append(SequenceScore(lattice.sequence(order), tuple(per_step)))
    return RankedReport(criteria=criteria, rows=tuple(rows), sequence_count=count)
