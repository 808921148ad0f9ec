"""Correctness checks made apart from the program under test.

Nothing here calls cartonfold. The spec file is read with PyYAML, panel
poses come from this module's own forward kinematics (the frame convention
is the one the spec format documents), and the bounding boxes come from the
panel corners. The expected sequence sets follow from how the cartons are
built, not from a stored copy of a report.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import yaml

REL_TOL = 1e-6


@dataclass(frozen=True)
class Panel:
    id: int
    parent: int | None
    height: float
    width: float
    thickness: float
    anchor: np.ndarray | None
    axis: np.ndarray | None
    theta_init: float
    theta_final: float


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    ex, ey, ez = np.eye(3)
    return _rotation(ez, math.radians(yaw)) @ _rotation(ey, math.radians(pitch)) @ _rotation(
        ex, math.radians(roll)
    )


class Carton:
    """A carton spec, folded by this module's own kinematics."""

    def __init__(self, source):
        """``source`` is a spec file or the mapping read from one."""
        if isinstance(source, dict):
            data = source
        else:
            with open(source, encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
        self.panels: dict[int, Panel] = {}
        for entry in data["panels"]:
            h, w, t = (float(v) for v in entry["dims_mm"])
            parent = entry.get("parent")
            self.panels[int(entry["id"])] = Panel(
                id=int(entry["id"]),
                parent=None if parent is None else int(parent),
                height=h,
                width=w,
                thickness=t,
                anchor=None if parent is None else np.array(entry["crease_anchor_mm"], float),
                axis=None if parent is None else np.array(entry["crease_dir"], float),
                theta_init=math.radians(float(entry.get("theta_init_deg", 0.0))),
                theta_final=math.radians(float(entry.get("theta_final_deg", 0.0))),
            )
        pose = data.get("root_pose") or {}
        self.root_rotation = _rpy(*pose.get("rpy_deg", (0.0, 0.0, 0.0)))
        self.root_translation = np.array(pose.get("translation_mm", (0.0, 0.0, 0.0)), float)
        planner = data.get("planner") or {}
        self.support_tolerance = float(planner.get("support_tolerance_mm", 1.0))
        self.ranking = tuple(data.get("ranking") or ("aerial", "maxdim"))
        self.joints = tuple(
            sorted(p.id for p in self.panels.values()
                   if p.parent is not None and p.theta_init != p.theta_final)
        )
        self.subtree = {pid: self._descendants(pid) for pid in self.panels}
        self._states: dict[frozenset, tuple[float, float, dict[int, float]]] = {}

    def _descendants(self, pid: int) -> tuple[int, ...]:
        out = [pid]
        for child in self.panels.values():
            if child.parent == pid:
                out.extend(self._descendants(child.id))
        return tuple(out)

    def _frame(self, pid: int, folded: frozenset) -> tuple[np.ndarray, np.ndarray]:
        panel = self.panels[pid]
        if panel.parent is None:
            return self.root_rotation, self.root_translation
        rot_p, trans_p = self._frame(panel.parent, folded)
        x = panel.axis / np.linalg.norm(panel.axis)
        z = np.array([0.0, 0.0, 1.0]) - x[2] * x
        z /= np.linalg.norm(z)
        mount = np.column_stack([x, np.cross(z, x), z])
        angle = panel.theta_final if pid in folded else panel.theta_init
        return rot_p @ _rotation(x, angle) @ mount, rot_p @ panel.anchor + trans_p

    def state(self, folded: frozenset) -> tuple[float, float, dict[int, float]]:
        """(box volume, largest box extent, lowest corner z per panel) at a state."""
        entry = self._states.get(folded)
        if entry is None:
            corners = {}
            for pid, p in self.panels.items():
                rot, trans = self._frame(pid, folded)
                local = np.array(
                    list(itertools.product((0.0, p.width), (0.0, p.height),
                                           (-p.thickness / 2, p.thickness / 2)))
                )
                corners[pid] = local @ rot.T + trans
            every = np.vstack(list(corners.values()))
            extent = every.max(axis=0) - every.min(axis=0)
            entry = (
                float(extent[0] * extent[1] * extent[2]),
                float(extent.max()),
                {pid: float(c[:, 2].min()) for pid, c in corners.items()},
            )
            self._states[folded] = entry
        return entry

    def score(self, order: tuple[int, ...]) -> dict:
        """Criteria sums over the states before each fold of ``order``."""
        volume = maxdim = 0.0
        aerial = 0
        folded: frozenset = frozenset()
        for joint in order:
            vol, dim, min_z = self.state(folded)
            volume += vol
            maxdim += dim
            lowest = min(min_z[pid] for pid in self.subtree[joint])
            aerial += lowest > self.support_tolerance
            folded = folded | {joint}
        return {"aerial": aerial, "maxdim": maxdim, "volume": volume}

    def key(self, order: tuple[int, ...]) -> tuple:
        score = self.score(order)
        return tuple(score[c] for c in self.ranking)


def tray_orderings(joints=tuple(range(1, 8))) -> list[tuple[int, ...]]:
    """Orderings of the case-study joints in which the north wall (1) folds
    before both rim flanges (5, 6): the flanges fold down, so from the flat
    blank they would drive through the table."""
    return [
        p for p in itertools.permutations(joints)
        if p.index(1) < p.index(5) and p.index(1) < p.index(6)
    ]


def parse_report(text: str, fmt: str) -> tuple[int, list[dict]]:
    """(total sequence count, reported rows) from a csv or structured report."""
    if fmt == "csv":
        rows = [
            {
                "sequence": tuple(int(j) for j in r["sequence"].split("-")),
                "volume": float(r["volume_mm3"]),
                "maxdim": float(r["maxdim_mm"]),
                "aerial": int(r["naf"]),
            }
            for r in csv.DictReader(io.StringIO(text))
        ]
        return len(rows), rows
    payload = json.loads(text)
    rows = [
        {
            "sequence": tuple(r["sequence"]),
            "volume": float(r["volume_mm3"]),
            "maxdim": float(r["maxdim_mm"]),
            "aerial": int(r["naf"]),
        }
        for r in payload["rows"]
    ]
    return int(payload["sequence_count"]), rows


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _compare(a: tuple, b: tuple) -> int:
    """-1 / 0 / +1: lexicographic order of criteria keys at REL_TOL.

    Integer criteria decide only when they differ. A float criterion
    decides when the two values differ by more than REL_TOL; when they
    are within it, the order is undecided at this precision (0) and later
    criteria are not consulted: the program compares its exact sums, whose
    rounding depends on the order of the terms, so it may rank two equal
    sums either way.
    """
    for x, y in zip(a, b):
        if isinstance(x, int) and isinstance(y, int):
            if x != y:
                return -1 if x < y else 1
            continue
        if not _close(x, y):
            return -1 if x < y else 1
        return 0
    return 0


def _strict_compare(a: tuple, b: tuple) -> int:
    """Like _compare, but a tie within REL_TOL falls to the next criterion."""
    for x, y in zip(a, b):
        if not _close(x, y):
            return -1 if x < y else 1
    return 0


def rounding_ties(text: str, fmt: str, carton: Carton) -> int:
    """Adjacent rows tied within REL_TOL on a float criterion and out of
    order on a later one: the program ranked them by rounding noise."""
    _, rows = parse_report(text, fmt)
    keys = [carton.key(r["sequence"]) for r in rows]
    return sum(
        1 for i in range(len(keys) - 1)
        if _compare(keys[i], keys[i + 1]) == 0 and _strict_compare(keys[i], keys[i + 1]) > 0
    )


def check_report(
    text: str,
    fmt: str,
    carton: Carton,
    expected: list[tuple[int, ...]],
    naf: int,
    top: int | None,
) -> list[str]:
    """Every way the report disagrees with the independent computation.

    ``expected`` is the full set of valid orderings; ``naf`` the aerial fold
    count every one of them must have. An empty list means the report holds.
    """
    errors: list[str] = []
    count, rows = parse_report(text, fmt)
    if count != len(expected):
        errors.append(f"report counts {count} sequences, expected {len(expected)}")
    want_rows = len(expected) if top is None else min(top, len(expected))
    if len(rows) != want_rows:
        errors.append(f"report lists {len(rows)} rows, expected {want_rows}")
    valid = set(expected)
    seen = [r["sequence"] for r in rows]
    if len(set(seen)) != len(seen):
        errors.append("report lists a sequence twice")
    for r in rows:
        seq = r["sequence"]
        if seq not in valid:
            errors.append(f"sequence {seq} is not a valid ordering")
            continue
        own = carton.score(seq)
        if r["aerial"] != own["aerial"] or r["aerial"] != naf:
            errors.append(f"{seq}: naf {r['aerial']}, computed {own['aerial']}, expected {naf}")
        for crit in ("maxdim", "volume"):
            if not _close(r[crit], own[crit]):
                errors.append(f"{seq}: {crit} {r[crit]!r}, computed {own[crit]!r}")
    if errors:
        return errors[:20]

    keys = [carton.key(r["sequence"]) for r in rows]
    for i in range(len(keys) - 1):
        if _compare(keys[i], keys[i + 1]) > 0:
            errors.append(f"rows {i + 1} and {i + 2} are out of policy order")
    reported = set(seen)
    for order in expected:
        if order not in reported and _compare(carton.key(order), keys[-1]) < 0:
            errors.append(f"unreported {order} ranks before reported row {len(rows)}")
            break
    return errors[:20]
