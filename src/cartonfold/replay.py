"""Step-by-step replays of fold sequences: ``--explain``, ``--dump-states``
and the grasp advisory they report.

A default plan runs none of this, so ``cli.run`` imports the module only
when a run explains a sequence or dumps states; ``cli.run`` loads the tree
for both. Every placement comes from the tree's memoised panel records,
as in a plan: the arrays of a ``PanelRecord`` are read directly, and no
transform, box or pose object is built.
"""

from __future__ import annotations

import enum
import json
import sys
from pathlib import Path

import numpy as np

from .collision import collision_check, n_sweep_samples, sweep
from .geometry import sat_overlap_matrix
from .metrics import RankedReport
from .model import KinematicTree


class GraspSide(enum.Enum):
    """Which panel face a gripper can reach at the start of a fold."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    NONE = "none"


def grasp_side(tree: KinematicTree, mask: int, joint: int) -> GraspSide:
    """Advisory placement test for the spec's gripper on the panel about to fold.

    ``mask`` is the fold state the fold starts from. The inner face is the
    one facing the fold direction. A gripper-sized box is placed on it
    (offset by the standoff) at the fold's start pose; if that placement
    collides with another panel, a fixture or the table, the outer face is
    tried. The result never gates sequence validity.
    """
    if mask & tree.bits.get(joint, 0):
        raise ValueError(f"joint {joint} is already folded")
    gripper = tree.spec.gripper
    if gripper is None:
        raise ValueError("the carton spec declares no gripper")
    panel = tree.panel(joint)
    placed = tree.panel_state(joint, mask)

    fold_sign = 1.0 if panel.theta_final > panel.theta_init else -1.0
    half_g = np.asarray(gripper.dims, dtype=float) / 2.0
    gz = gripper.dims[2]
    flip = np.diag([1.0, -1.0, -1.0])

    # The other panels and the fixtures, tested as one batch.
    others = [*(tree.panel_state(pid, mask) for pid in tree.ids if pid != joint), *tree.fixtures]
    batch = None
    if others:
        batch = [np.stack([getattr(r, f) for r in others]) for f in ("center", "rotation", "half_extents")]
    eps = tree.spec.penetration_tolerance

    for side, sign in ((GraspSide.INSIDE, fold_sign), (GraspSide.OUTSIDE, -fold_sign)):
        normal = sign * placed.rotation[:, 2]
        center = placed.center + normal * (panel.thickness / 2.0 + gripper.standoff + gz / 2.0)
        rot = placed.rotation if sign > 0 else placed.rotation @ flip
        tool = (center[None, :], rot[None, :, :], half_g[None, :])
        blocked = tree.spec.table_plane and center[2] - np.abs(rot[2]) @ half_g < -eps
        blocked = blocked or batch is not None and sat_overlap_matrix(*tool, *batch).any()
        if not blocked:
            return side
    return GraspSide.NONE


def _state_record(tree: KinematicTree, mask: int, joint: int | None, aerial) -> dict:
    # Full float precision here: renderers and the replay invariant need the
    # dumped angles and poses to agree to machine accuracy.
    records = [tree.panel_state(pid, mask) for pid in tree.ids]
    return {
        "joint": joint,
        "aerial": aerial,
        "theta_rad": {str(p.id): p.theta_final if mask & tree.bits.get(p.id, 0) else p.theta_init
                      for p in tree.spec.panels},
        "panels": [
            {
                "id": pid,
                "rotation": [list(map(float, row)) for row in r.rotation],
                "translation": [float(v) for v in r.origin],
                "center": [float(v) for v in r.center],
                "half_extents": [float(v) for v in r.half_extents],
            }
            for pid, r in zip(tree.ids, records)
        ],
        "aabb": {
            "min": list(map(min, zip(*(r.lo for r in records)))),
            "max": list(map(max, zip(*(r.hi for r in records)))),
        },
    }


def dump_states(tree: KinematicTree, report: RankedReport, directory: str) -> None:
    """One JSON file per reported sequence with a record for every state.

    Records 0 .. k-1 carry the state before each fold plus that fold's joint
    and aerial flag; a final record holds the fully folded pose. Feeding any
    record's theta back through forward kinematics reproduces its poses.
    Each file is the text of ``json.dumps(payload, indent=2)``, with payload
    {"sequence": [...], "steps": [record, ...]}. Sequences share most of
    their steps, so each distinct (state, joint) record is encoded once,
    and the files are written from those texts.
    """
    out = Path(directory)
    texts: dict[tuple[int, int | None], str] = {}

    def step(t: int, mask: int, joint: int | None, aerial) -> str:
        text = texts.get((mask, joint))
        if text is None:
            # The record as a list item, less its closing brace, so "t" can follow.
            body = json.dumps(_state_record(tree, mask, joint, aerial), indent=2)
            text = texts[mask, joint] = "    " + body[:-2].replace("\n", "\n    ")
        return f'{text},\n      "t": {t}\n    }}'

    aerial = report.edges.aerial[report.steps].tolist()
    for rank, (order, flags) in enumerate(zip(report.orders.tolist(), aerial), start=1):
        steps, mask = [], 0
        for t, (joint, flag) in enumerate(zip(order, flags)):
            steps.append(step(t, mask, joint, flag))
            mask |= tree.bits[joint]
        steps.append(step(len(order), mask, None, None))
        sequence = ",\n".join(f"    {j}" for j in order)
        path = out / f"sequence_{rank:04d}.json"
        path.write_text(
            f'{{\n  "sequence": [\n{sequence}\n  ],\n  "steps": [\n' + ",\n".join(steps) + "\n  ]\n}\n",
            encoding="utf-8",
        )


def explain(tree: KinematicTree, sequence, out) -> bool:
    """Replay one sequence step by step, print a trace to ``out`` and
    return whether every step is collision free.

    A sequence that does not order every foldable joint once is reported
    on stderr and is not replayed.
    """
    sequence = tuple(sequence)
    if sorted(sequence) != sorted(tree.foldable_ids):
        print(
            "error: sequence must order all foldable joints "
            f"{sorted(tree.foldable_ids)}, got {list(sequence)}",
            file=sys.stderr,
        )
        return False

    mask = 0
    for step, joint in enumerate(sequence, start=1):
        if not collision_check(tree, mask, joint):
            print(
                f"sequence invalid: step {step} (fold joint {joint}) collides",
                file=out,
            )
            return False
        (volume,), (max_dim,) = tree.measures([mask])
        aerial = sweep(tree, mask, joint).aerial
        side = "n/a" if tree.spec.gripper is None else grasp_side(tree, mask, joint).value
        print(
            f"step {step}: fold joint {joint} | cc_samples={n_sweep_samples(tree, joint)} "
            f"| aerial={'yes' if aerial else 'no'} | volume={volume:.1f} mm^3 "
            f"| maxdim={max_dim:.1f} mm | grasp={side}",
            file=out,
        )
        mask |= tree.bits[joint]
    print(f"sequence valid: {len(sequence)} steps", file=out)
    return True
