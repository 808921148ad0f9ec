"""Independent oracles the library is checked against.

These deliberately avoid the library's own kernels: box overlap is decided
by dense point sampling, sequence enumeration by filtering raw
permutations and subtrees by walking every panel to the root
(``walked_subtrees``). Slow and simple on purpose. ``loop_lattice`` is
the lattice build as one ``collision_check`` per (reachable state,
unfolded joint), the reference for the layer-at-a-time build.
``csv_report`` writes a CSV report one line at a time and
``structured_report`` through ``json.dumps``: the references for the
writers of ``cli``.
"""

from __future__ import annotations

import itertools
import json
from array import array

import numpy as np

from cartonfold.collision import collision_check, sweep
from cartonfold.metrics import round6
from cartonfold.planner import FoldLattice, PlannerError, SearchDiagnostics


def points_in_box(box, clearance: float, per_axis: int) -> np.ndarray:
    """Regular grid filling the box (inflated by clearance/2, each half
    extent clamped at zero as the kernel clamps it), world frame."""
    half = np.maximum(box.half_extents + clearance / 2.0, 0.0)
    axes = [np.linspace(-h, h, per_axis) for h in half]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return box.pose.apply(grid)


def contains(box, points: np.ndarray, clearance: float) -> np.ndarray:
    """Componentwise containment test in the box inflated by clearance/2,
    each half extent clamped at zero."""
    local = (points - box.center) @ box.pose.rotation
    return np.all(np.abs(local) <= np.maximum(box.half_extents + clearance / 2.0, 0.0), axis=1)


def sampled_overlap(a, b, clearance: float = 0.0, per_axis: int = 12) -> bool:
    """True when a sampled point of one box lies inside the other."""
    if contains(b, points_in_box(a, clearance, per_axis), clearance).any():
        return True
    return bool(contains(a, points_in_box(b, clearance, per_axis), clearance).any())


def sampling_band(a, b, per_axis: int = 12) -> float:
    """Coarsest sample spacing of the pair, the oracle's blind zone."""
    spacing_a = (2.0 * a.half_extents / (per_axis - 1)).max()
    spacing_b = (2.0 * b.half_extents / (per_axis - 1)).max()
    return float(max(spacing_a, spacing_b))


def brute_force_sequences(tree, cc=None) -> list[tuple[int, ...]]:
    """Every permutation of the foldable joints that survives stepwise checks.

    Enumeration is independent of the planner's search: all k! orderings are
    generated and each is replayed from scratch. ``cc`` may substitute a
    (cached) collision predicate with the same signature, taking a fold
    mask and a joint.
    """
    cc = cc or (lambda mask, joint: collision_check(tree, mask, joint))
    valid = []
    for perm in itertools.permutations(sorted(tree.foldable_ids)):
        mask = 0
        for joint in perm:
            if not cc(mask, joint):
                break
            mask |= tree.bits[joint]
        else:
            valid.append(perm)
    return valid


def walked_subtrees(tree) -> tuple[dict[int, tuple[int, ...]], dict[int, int], dict[int, int]]:
    """Every panel's subtree, ancestry and the union of its subtree's
    ancestries, from a walk to the root from each panel.

    A panel's path lists the ids from the root down to it; the panel's
    ancestry is the OR of the bits on it, and its subtree is every panel
    whose path holds it, sorted by (path length, path): breadth first with
    siblings ascending by id.
    """
    paths = {}
    for pid in tree.ids:
        path = [pid]
        while tree.panel(path[0]).parent is not None:
            path.insert(0, tree.panel(path[0]).parent)
        paths[pid] = path
    ancestry = {pid: sum(tree.bits.get(node, 0) for node in path) for pid, path in paths.items()}
    subtrees, unions = {}, {}
    for pid in tree.ids:
        members = sorted((m for m in tree.ids if pid in paths[m]), key=lambda m: (len(paths[m]), paths[m]))
        subtrees[pid] = tuple(members)
        unions[pid] = 0
        for member in members:
            unions[pid] |= ancestry[member]
    return subtrees, ancestry, unions


def every_verdict(tree) -> dict[tuple[int, int], bool]:
    """The collision verdict of every fold out of every fold state, reachable or not.

    Keys are (fold mask, joint). There are 2^k states, so keep k small.
    """
    return {
        (mask, joint): collision_check(tree, mask, joint)
        for mask in range(1 << len(tree.foldable_ids))
        for joint in tree.foldable_ids
        if not mask & tree.bits[joint]
    }


def loop_lattice(tree) -> FoldLattice:
    """The fold-state lattice built one ``collision_check`` at a time.

    States are expanded a popcount layer at a time from the empty one; each
    state's folds are checked in joint-slot order, each feasible one takes
    its aerial flag from its sweep, and the next layer holds the children in
    ascending mask order. Paths are counted from the last layer back and
    the states and folds on no complete path are dropped, as
    ``planner.build_lattice`` documents.
    """
    foldable = tree.foldable_ids
    if not foldable:
        raise PlannerError("carton has no foldable joints, nothing to enumerate")
    bits = [tree.bits[joint] for joint in foldable]
    stats = SearchDiagnostics()
    sweeps, pair_tests = len(tree.sweeps), len(tree.pair_verdicts)
    final = (1 << len(foldable)) - 1
    masks: list[int] = []
    source, child, slot, aerial = array("q"), array("q"), array("q"), array("b")
    layer_edges = []  # the first edge out of each layer
    layer = [0]
    while layer:
        layer_edges.append(len(source))
        reached = []  # the mask of each fold's child
        for i, mask in enumerate(layer, len(masks)):
            folds = len(source)
            for s, (j, bit) in enumerate(zip(foldable, bits)):
                if mask & bit:
                    continue
                stats.cc_calls += 1
                if collision_check(tree, mask, j):
                    source.append(i)
                    reached.append(mask | bit)
                    slot.append(s)
                    aerial.append(sweep(tree, mask, j).aerial)
            if len(source) == folds and mask != final:
                stats.dead_ends += 1
        masks += layer
        layer = sorted(set(reached))
        index = {mask: i for i, mask in enumerate(layer, len(masks))}
        child.extend(index[mask] for mask in reached)
    source, child = np.array(source, dtype=np.intp), np.array(child, dtype=np.intp)

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
    kept = [masks[i] for i in keep.tolist()]
    sizes = [mask.bit_count() for mask in kept]
    return FoldLattice(
        tree=tree,
        masks=np.array(kept, dtype=np.int64 if len(foldable) < 63 else object),
        layers=np.searchsorted(sizes, range(len(foldable) + 2)) if kept else np.zeros(1, np.intp),
        first=np.searchsorted(source, np.arange(len(keep) + 1)),
        source=source,
        child=index[child[live]],
        slot=np.array(slot, dtype=np.uint8 if len(foldable) <= 256 else np.uint16)[live],
        aerial=np.array(aerial, dtype=bool)[live],
        sequence_count=stats.sequences,
        stats=stats,
    )


def csv_report(report) -> str:
    """The CSV text of a ``RankedReport``, one ``%`` template per line."""
    orders = report.orders.tolist()
    c_vol, c_dim = report.c_vol.tolist(), report.c_dim.tolist()
    # Rows share few distinct totals; each is written out once.
    text = {v: f"{v:.6f}" for v in {*c_vol, *c_dim}}
    line = "-".join(["%d"] * report.orders.shape[1]) + ",%s,%s,%d"
    lines = ["sequence,volume_mm3,maxdim_mm,naf"]
    lines += [
        line % (*order, text[vol], text[dim], naf)
        for order, vol, dim, naf in zip(orders, c_vol, c_dim, report.c_aerial.tolist())
    ]
    return "\n".join(lines) + "\n"


def structured_report(report) -> str:
    """The structured text of a ``RankedReport``: its payload encoded by
    ``json.dumps`` with a two-space indent."""
    joints = report.joints.tolist()
    slot, volume, max_dim, aerial = (column.tolist() for column in report.edges)
    payload = {
        "policy": list(report.criteria),
        "sequence_count": report.sequence_count,
        "rows": [
            {
                "sequence": order,
                "volume_mm3": round6(c_vol),
                "maxdim_mm": round6(c_dim),
                "naf": naf,
                "per_step": [
                    {
                        "joint": joints[slot[e]],
                        "volume_mm3": round6(volume[e]),
                        "maxdim_mm": round6(max_dim[e]),
                        "aerial": aerial[e],
                    }
                    for e in steps
                ],
            }
            for order, steps, c_vol, c_dim, naf in zip(
                report.orders.tolist(), report.steps.tolist(),
                report.c_vol.tolist(), report.c_dim.tolist(), report.c_aerial.tolist(),
            )
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
