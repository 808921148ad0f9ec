"""
Case study: a 330 x 240 x 140 mm tray with seven moving panels
==============================================================

The full pipeline on the shipped reconstruction: base fixed to the bench,
four walls (one side split in two), and two rim flanges that can only fold
once their wall is upright, which makes exactly two aerial folds inevitable
in every valid sequence.
"""

import time
from pathlib import Path

from cartonfold import build_lattice, collision_check, rank_lattice
from cartonfold.collision import sweep
from cartonfold.model import build_tree, load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"

spec = load_spec(SPECS / "case_study_tray.yaml")
tree = build_tree(spec)

names = {p.id: (p.name or f"panel {p.id}") for p in spec.panels}
print("panels:")
for p in spec.panels:
    role = "root, fixed" if p.parent is None else f"hinged to {p.parent}"
    print(f"  {p.id}: {names[p.id]:<16} {p.dims[1]:.0f} x {p.dims[0]:.0f} mm ({role})")

# From the flat blank, the rim flanges cannot move: their fold would pass
# through the table. Everything else is free.
for joint in tree.foldable_ids:
    feasible = collision_check(tree, 0, joint)
    print(f"  first fold of joint {joint} ({names[joint]}): "
          f"{'feasible' if feasible else 'blocked'}")

t0 = time.perf_counter()
lattice = build_lattice(tree)
report = rank_lattice(lattice, top=10)
elapsed = time.perf_counter() - t0
print(f"\n{report.sequence_count} valid folding sequences from "
      f"{lattice.stats.cc_calls} collision verdicts, best 10 ranked in {elapsed:.2f} s")

print("\ntop 10 under policy", " > ".join(spec.ranking) + ":")
print(f"{'sequence':<24} {'volume_mm3':>14} {'maxdim_mm':>11} {'naf':>4}")
totals = zip(report.orders.tolist(), report.c_vol, report.c_dim, report.c_aerial)
for order, c_vol, c_dim, naf in totals:
    print(f"{str(order):<24} {c_vol:>14.1f} {c_dim:>11.1f} {naf:>4}")

# Every sequence carries exactly two aerial folds: the two flanges start
# high on the standing wall whenever they move.
best = report.orders[0].tolist()
print("\nbest sequence step by step:")
for t, (joint, e) in enumerate(zip(best, report.steps[0])):
    aerial = "aerial" if report.edges.aerial[e] else "on the bench"
    print(f"  fold {names[joint]:<16} from state {sorted(best[:t])}: {aerial}")

flange_check = sweep(tree, tree.mask({1}), 5).aerial
print("\nflange fold after its wall is up is aerial:", flange_check)
