"""Independent oracles the library is checked against.

These deliberately avoid the library's own kernels: box overlap is decided
by dense point sampling, and sequence enumeration by filtering raw
permutations. Slow and simple on purpose.
"""

from __future__ import annotations

import itertools

import numpy as np

from cartonfold.collision import collision_check


def points_in_box(box, clearance: float, per_axis: int) -> np.ndarray:
    """Regular grid filling the box (inflated by clearance/2), world frame."""
    half = box.half_extents + clearance / 2.0
    axes = [np.linspace(-h, h, per_axis) for h in half]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return box.pose.apply(grid)


def contains(box, points: np.ndarray, clearance: float) -> np.ndarray:
    """Componentwise containment test in the box inflated by clearance/2."""
    local = (points - box.center) @ box.pose.rotation
    return np.all(np.abs(local) <= box.half_extents + clearance / 2.0, axis=1)


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
