"""Seeded synthetic cartons: a rectangular base with k free flaps.

This generalises the four-flap fixture of the test suite to any k. Flaps
are dealt round robin onto the four base edges, so an edge carries several
of them. Each edge keeps an inset at both corners and a gap between
neighbouring flaps, all wider than the board, and every flap folds up and
away from the base. No flap can touch another in any fold state, so every
one of the k! orderings is collision free by construction.

The seed draws the base size, the insets, the flap widths and the flap
heights. Heights are distinct with 0.1 mm resolution, so the bounding-box
sums differ between most orderings and ranking has few ties.

The carton is written as a spec file; the program under test sees nothing
else of the seed.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

BOARD_MM = 2.0

# (edge, crease direction): crease_dir runs along the edge so that each
# flap's local +Y (normal x crease) points away from the base.
_EDGES = (
    ("north", (1.0, 0.0, 0.0)),
    ("south", (-1.0, 0.0, 0.0)),
    ("west", (0.0, 1.0, 0.0)),
    ("east", (0.0, -1.0, 0.0)),
)


def _edge_start(edge: str, size_x: float, size_y: float) -> tuple[float, float]:
    """Corner where an edge's crease line starts, walking along crease_dir."""
    return {
        "north": (0.0, size_y),
        "south": (size_x, 0.0),
        "west": (0.0, 0.0),
        "east": (size_x, size_y),
    }[edge]


def free_flap_carton(k: int, seed: int) -> dict:
    """Spec mapping (the documented YAML format) of a base with k free flaps.

    The base has panel id 1; the flaps are joints 2 .. k + 1.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    rng = random.Random(seed)
    t = BOARD_MM
    size_x = round(rng.uniform(400.0, 600.0), 1)
    size_y = round(rng.uniform(400.0, 600.0), 1)
    heights = [h / 10.0 for h in rng.sample(range(400, 1600), k)]

    panels = [{"id": 1, "name": "base", "parent": None, "dims_mm": [size_y, size_x, t]}]
    next_id = 2
    for e, (edge, direction) in enumerate(_EDGES):
        count = len(range(e, k, len(_EDGES)))
        if count == 0:
            continue
        length = size_x if edge in ("north", "south") else size_y
        insets = [round(rng.uniform(3.0 * t, 10.0 * t), 1) for _ in range(count + 1)]
        weights = [rng.uniform(0.5, 1.5) for _ in range(count)]
        free = length - sum(insets)
        widths = [round(free * w / sum(weights) - 0.1, 1) for w in weights]
        x0, y0 = _edge_start(edge, size_x, size_y)
        offset = 0.0
        for i in range(count):
            offset += insets[i]
            anchor = [x0 + direction[0] * offset, y0 + direction[1] * offset, 0.0]
            panels.append(
                {
                    "id": next_id,
                    "name": f"{edge}_flap_{i + 1}",
                    "parent": 1,
                    "dims_mm": [heights[next_id - 2], widths[i], t],
                    "crease_anchor_mm": [round(v, 1) for v in anchor],
                    "crease_dir": list(direction),
                    "theta_init_deg": 0,
                    "theta_final_deg": 90,
                }
            )
            offset += widths[i]
            next_id += 1

    return {
        "panels": panels,
        "root_pose": {"translation_mm": [0.0, 0.0, t / 2.0]},
        "environment": [{"name": "table", "half_space": True}],
        "planner": {
            "tolerance_angle_deg": 5,
            # Above half the board: hinged slabs overlap by up to t/2 at the crease.
            "penetration_tolerance_mm": 1.05,
            "support_tolerance_mm": 1.0,
        },
        "ranking": ["aerial", "maxdim", "volume"],
    }


def write_free_flap_carton(k: int, seed: int, path: Path) -> Path:
    """Write the seeded carton to ``path`` and return it."""
    path.write_text(
        f"# {k} free flaps, seed {seed}\n"
        + yaml.safe_dump(free_flap_carton(k, seed), sort_keys=False),
        encoding="utf-8",
    )
    return path
