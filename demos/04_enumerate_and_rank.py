"""
Enumerating and ranking folding sequences
=========================================

A fold state is just the set of folded joints, held as an int bit mask.
The planner walks the reachable states once, with one swept collision
check per (state, joint), and every ordering whose steps are all
collision free is a path through that lattice. The sequences are ranked lexicographically by the spec's
ranking: fewest aerial folds first, cumulative bounding-box measures as tie
breakers.
"""

from dataclasses import replace
from pathlib import Path

from cartonfold import (
    build_lattice,
    collision_check,
    enumerate_sequences,
    rank_lattice,
    score_and_rank,
)
from cartonfold.model import build_tree, load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"

# Three independent flaps: nothing can collide, so all 3! orderings appear.
tree = build_tree(load_spec(SPECS / "three_flaps.yaml"))

lattice = build_lattice(tree)
print("three_flaps orderings:", lattice.sequences())
print("lattice:", len(lattice.masks), "states on a complete path,",
      lattice.sequence_count, "sequences by path count")
print("  " + "\n  ".join(lattice.stats.lines()))

# The blocking pair: the cover's overhang bars the drop leaf's arc, so only
# the leaf-first ordering survives.
tree = build_tree(load_spec(SPECS / "blocking_pair.yaml"))
print("\nblocking_pair orderings:", enumerate_sequences(tree))

# Every verdict, reachable states or not: one per (fold mask, next joint).
for mask in range(1 << len(tree.foldable_ids)):
    verdicts = {j: collision_check(tree, mask, j) for j in tree.foldable_ids if not mask & tree.bits[j]}
    shown = "{" + ", ".join(map(str, tree.joints(mask))) + "}"
    print(f"  folded {shown:<8} -> {verdicts}")

# Ranking: score each sequence over its intermediate states and sort by the
# spec's ranking (here aerial, then maxdim).
spec = load_spec(SPECS / "three_flaps.yaml")
tree = build_tree(spec)
report = score_and_rank(tree, enumerate_sequences(tree))
print("\nranked three_flaps sequences, by", " > ".join(report.criteria) + ":")
print(f"{'sequence':<14} {'volume_mm3':>12} {'maxdim_mm':>10} {'naf':>4}")
totals = zip(report.orders.tolist(), report.c_vol, report.c_dim, report.c_aerial)
for order, c_vol, c_dim, naf in totals:
    print(f"{str(order):<14} {c_vol:>12.1f} {c_dim:>10.1f} {naf:>4}")

# A report is its arrays: row i folds along the edges report.steps[i], and
# each edge holds the joint it folds and the state it folds out of. The
# best sequence's totals are the sums of its steps.
edges = report.edges
print("\nbest sequence step by step:")
for e in report.steps[0]:
    print(f"  fold {edges.joint[e]}: volume {edges.volume[e]:.1f} mm^3, "
          f"maxdim {edges.max_dim[e]:.1f} mm, aerial {bool(edges.aerial[e])}")

# The same ranking straight from the lattice: a bounded search finds the
# best two without scoring the other orderings.
best = rank_lattice(build_lattice(tree), top=2)
print(f"\nbest 2 of {best.sequence_count} from the lattice:", best.orders.tolist())

# Another ranking is another spec: volume first.
by_volume = build_tree(replace(spec, ranking=("volume", "aerial")))
best = rank_lattice(build_lattice(by_volume), top=2)
print("best 2 by", " > ".join(best.criteria) + ":", best.orders.tolist())
