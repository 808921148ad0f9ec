"""Command-line driver: spec file in, ranked folding report out.

Exit codes: 0 success with at least one sequence, 2 valid input but no
feasible sequence (or an --explain sequence that fails), 3 spec validation
failure, including a carton with no foldable joint, or an unreadable
--spec or a --dump-states directory that cannot be created (nothing is
reported then).

Set CARTONFOLD_LOG=debug|info|warning to control log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .collision import collision_check, grasp_side, n_sweep_samples, sweep
from .geometry import FrozenValue
from .metrics import RankedReport, rank_lattice, round6
from .model import KinematicTree, SpecValidationError, build_tree, load_spec
from .planner import PlannerError, build_lattice

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_NO_SEQUENCES = 2
EXIT_SPEC_INVALID = 3

# Words of CSV text that format_csv assembles per block of rows: its word
# ids, gathered words and joined text grow with this, not with the report.
CSV_BLOCK_WORDS = 1 << 12


class RunConfig(FrozenValue):
    """Everything one CLI invocation needs."""

    spec_path: str
    fmt: str
    top: int | None  # None means all
    tolerance_angle_deg: float | None
    penetration_mm: float | None
    support_mm: float | None
    dump_dir: str | None
    explain: tuple[int, ...] | None

    def __init__(
        self, spec_path, fmt="table", top=20, tolerance_angle_deg=None, penetration_mm=None,
        support_mm=None, dump_dir=None, explain=None,
    ):
        self.__dict__.update(
            spec_path=spec_path, fmt=fmt, top=top, tolerance_angle_deg=tolerance_angle_deg,
            penetration_mm=penetration_mm, support_mm=support_mm, dump_dir=dump_dir,
            explain=explain,
        )


def _load_tree(config: RunConfig) -> KinematicTree:
    """The spec file with the config's overrides, validated and built.

    A carton without a foldable joint is rejected like a malformed spec.
    """
    spec = load_spec(config.spec_path)
    if config.tolerance_angle_deg is not None:
        spec = replace(spec, tolerance_angle=math.radians(config.tolerance_angle_deg))
    if config.penetration_mm is not None:
        spec = replace(spec, penetration_tolerance=config.penetration_mm)
    if config.support_mm is not None:
        spec = replace(spec, support_tolerance=config.support_mm)
    tree = build_tree(spec)
    if not tree.foldable_ids:
        raise PlannerError("carton has no foldable joints, nothing to plan")
    return tree


def format_table(report: RankedReport) -> str:
    orders = report.orders.tolist()
    lines = [
        f"policy: {' > '.join(report.criteria)}   "
        f"(showing {len(orders)} of {report.sequence_count} sequences)",
        f"{'rank':>4}  {'sequence':<28} {'volume_mm3':>16} {'maxdim_mm':>12} {'naf':>4}",
    ]
    totals = zip(report.c_vol.tolist(), report.c_dim.tolist(), report.c_aerial.tolist())
    for rank, (order, (c_vol, c_dim, naf)) in enumerate(zip(orders, totals), start=1):
        seq = "[" + ", ".join(map(str, order)) + "]"
        lines.append(f"{rank:>4}  {seq:<28} {c_vol:>16.1f} {c_dim:>12.1f} {naf:>4}")
    return "\n".join(lines) + "\n"


def format_csv(report: RankedReport) -> str:
    """The header, then one line per row: the order joined by "-", the
    volume and maxdim totals to 6 decimals, and the aerial count.

    A line is k + 3 words of a vocabulary: each joint with the separator
    that follows it (``5-``, or ``5,`` in last place), then the volume
    with its comma, the maxdim with its comma and the count with the
    newline, each distinct value formatted once. Values are told apart by
    their bits, so two that print differently never share a word. Each
    block of about CSV_BLOCK_WORDS words is one gather from the vocabulary
    and one ``str.join``.
    """
    header = "sequence,volume_mm3,maxdim_mm,naf\n"
    n, k = report.orders.shape
    if not n:
        return header
    joints = np.sort(report.orders[0])  # every row orders the same joints
    words = [f"{j}-" for j in joints.tolist()] + [f"{j}," for j in joints.tolist()]
    tails = []  # the word of each row's volume, maxdim and count
    for column, form in ((report.c_vol, "{:.6f},"), (report.c_dim, "{:.6f},"), (report.c_aerial, "{}\n")):
        distinct, index = np.unique(column.view(np.int64), return_inverse=True)
        tails.append(index + len(words))
        words += map(form.format, distinct.view(column.dtype).tolist())
    vocab = np.array(words, dtype=object)
    rows = max(1, CSV_BLOCK_WORDS // (k + 3))
    blocks = [header]
    for a in range(0, n, rows):
        ids = np.empty((min(rows, n - a), k + 3), dtype=np.intp)
        ids[:, :k] = np.searchsorted(joints, report.orders[a:a + rows])
        ids[:, k - 1] += k
        for i, tail in enumerate(tails, k):
            ids[:, i] = tail[a:a + rows]
        blocks.append("".join(vocab.take(ids.ravel()).tolist()))
    return "".join(blocks)


# The structured report is the text of json.dumps(payload, indent=2), with
# payload {"policy": [...], "sequence_count": n, "rows": [row, ...]}, row
# {"sequence": [...], "volume_mm3", "maxdim_mm", "naf", "per_step": [step,
# ...]} and float values rounded by round6. It is written from templates,
# each distinct total and each step once, since json.dumps with an indent
# runs the pure-Python encoder.
_ROW = """    {{
      "sequence": [
{}
      ],
      "volume_mm3": {},
      "maxdim_mm": {},
      "naf": {},
      "per_step": [
{}
      ]
    }}"""
_STEP = """        {{
          "joint": {},
          "volume_mm3": {!r},
          "maxdim_mm": {!r},
          "aerial": {}
        }}"""


def format_structured(report: RankedReport) -> str:
    c_vol, c_dim = report.c_vol.tolist(), report.c_dim.tolist()
    number = {v: repr(round6(v)) for v in {*c_vol, *c_dim}}
    joint, volume, max_dim, aerial = report.edges
    steps: dict[int, str] = {}

    def step(e: int) -> str:
        text = steps.get(e)
        if text is None:
            flag = "true" if aerial[e] else "false"
            text = steps[e] = _STEP.format(joint[e], round6(volume[e]), round6(max_dim[e]), flag)
        return text

    rows = [
        _ROW.format(
            ",\n".join(f"        {j}" for j in order),
            number[vol],
            number[dim],
            naf,
            ",\n".join(map(step, ids)),
        )
        for order, ids, vol, dim, naf in zip(
            report.orders.tolist(), report.steps.tolist(), c_vol, c_dim, report.c_aerial.tolist()
        )
    ]
    policy = ",\n".join(f"    {json.dumps(c)}" for c in report.criteria)
    listed = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return (
        f'{{\n  "policy": [\n{policy}\n  ],\n  "sequence_count": {report.sequence_count},\n'
        f'  "rows": {listed}\n}}\n'
    )


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
                "id": r.pose.panel_id,
                "rotation": [list(map(float, row)) for row in r.pose.pose.rotation],
                "translation": [float(v) for v in r.pose.pose.translation],
                "center": [float(v) for v in r.pose.center],
                "half_extents": [float(v) for v in r.pose.solid.half_extents],
            }
            for r in records
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


def explain(config: RunConfig, sequence=None, out=None) -> int:
    """Replay one sequence step by step and print a trace.

    ``sequence`` defaults to the one carried in the config.
    """
    out = out or sys.stdout
    try:
        tree = _load_tree(config)
    except (SpecValidationError, PlannerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_INVALID
    sequence = tuple(sequence) if sequence is not None else (config.explain or ())

    if sorted(sequence) != sorted(tree.foldable_ids):
        print(
            "error: sequence must order all foldable joints "
            f"{sorted(tree.foldable_ids)}, got {list(sequence)}",
            file=sys.stderr,
        )
        return EXIT_NO_SEQUENCES

    mask = 0
    for step, joint in enumerate(sequence, start=1):
        if not collision_check(tree, mask, joint):
            print(
                f"sequence invalid: step {step} (fold joint {joint}) collides",
                file=out,
            )
            return EXIT_NO_SEQUENCES
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
    return EXIT_OK


def run(config: RunConfig, out=None) -> int:
    """Build the fold-state lattice, rank it and report; returns the exit code."""
    if config.explain is not None:
        return explain(config, out=out)
    out = out or sys.stdout
    try:
        tree = _load_tree(config)
        if config.dump_dir is not None:
            Path(config.dump_dir).mkdir(parents=True, exist_ok=True)
        lattice = build_lattice(tree)
    except (SpecValidationError, PlannerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_INVALID

    report = rank_lattice(lattice, config.top)
    for line in lattice.stats.lines():
        logger.info("planner %s", line)

    if config.fmt == "table":
        out.write(format_table(report))
    elif config.fmt == "csv":
        out.write(format_csv(report))
    else:
        out.write(format_structured(report))

    if config.dump_dir is not None:
        dump_states(lattice.tree, report, config.dump_dir)

    if not report.sequence_count:
        logger.warning("no feasible folding sequence found")
        return EXIT_NO_SEQUENCES
    return EXIT_OK


def _parse_top(text: str) -> int | None:
    if text == "all":
        return None
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("--top must be a positive integer or 'all'")
    return value


def _parse_sequence(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sequence {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartonfold",
        description="Enumerate and rank collision-free folding sequences for a carton spec.",
    )
    parser.add_argument("--spec", required=True, help="path to the carton-spec YAML file")
    parser.add_argument(
        "--format", choices=("table", "csv", "structured"), default="table",
        help="report format (structured = JSON)",
    )
    parser.add_argument(
        "--top", type=_parse_top, default=20, metavar="N|all",
        help="how many ranked sequences to report (default 20)",
    )
    parser.add_argument("--tolerance-angle-deg", type=float, default=None,
                        help="override the sweep sampling granularity")
    parser.add_argument("--penetration-mm", type=float, default=None,
                        help="override the crease-contact penetration tolerance")
    parser.add_argument("--support-mm", type=float, default=None,
                        help="override the aerial-fold support tolerance")
    parser.add_argument("--dump-states", metavar="DIR", default=None,
                        help="write per-step pose dumps for the reported sequences")
    parser.add_argument("--explain", type=_parse_sequence, default=None, metavar="I,J,K",
                        help="trace one sequence step by step instead of enumerating")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("CARTONFOLD_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    config = RunConfig(
        spec_path=args.spec,
        fmt=args.format,
        top=args.top,
        tolerance_angle_deg=args.tolerance_angle_deg,
        penetration_mm=args.penetration_mm,
        support_mm=args.support_mm,
        dump_dir=args.dump_states,
        explain=args.explain,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
