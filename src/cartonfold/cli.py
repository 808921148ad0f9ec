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
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

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
    newline. The joint words are listed in slot order, so a step's word id
    is its edge's slot (plus k in last place), and the count words are
    0 .. k, so a count's word id follows from its value; each distinct
    total is formatted once, told apart from the others by its bits, so
    two that print differently never share a word. Each block of about
    CSV_BLOCK_WORDS words is one gather of slots, one gather from the
    vocabulary and one ``str.join``.
    """
    header = "sequence,volume_mm3,maxdim_mm,naf\n"
    n, k = report.steps.shape
    if not n:
        return header
    joints = report.joints.tolist()
    words = [f"{j}-" for j in joints] + [f"{j}," for j in joints] + [f"{c}\n" for c in range(k + 1)]
    tails = []  # the word of each row's volume, maxdim and count
    for column in (report.c_vol, report.c_dim):
        distinct, index = np.unique(column.view(np.int64), return_inverse=True)
        tails.append(index + len(words))
        words += map("{:.6f},".format, distinct.view(column.dtype).tolist())
    tails.append(report.c_aerial + 2 * k)
    vocab = np.array(words, dtype=object)
    slot = report.edges.slot
    rows = max(1, CSV_BLOCK_WORDS // (k + 3))
    blocks = [header]
    for a in range(0, n, rows):
        ids = np.empty((min(rows, n - a), k + 3), dtype=np.intp)
        ids[:, :k] = slot[report.steps[a:a + rows]]
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
    joints = report.joints.tolist()
    # Each distinct step edge's sequence line and step text, formatted once
    # from Python scalars.
    used = np.unique(report.steps)
    slot, volume, max_dim, aerial = (column[used].tolist() for column in report.edges)
    used = used.tolist()
    line = {e: f"        {joints[s]}" for e, s in zip(used, slot)}
    step = {
        e: _STEP.format(joints[s], round6(v), round6(d), "true" if a else "false")
        for e, s, v, d, a in zip(used, slot, volume, max_dim, aerial)
    }
    rows = [
        _ROW.format(
            ",\n".join([line[e] for e in ids]),
            number[vol],
            number[dim],
            naf,
            ",\n".join([step[e] for e in ids]),
        )
        for ids, vol, dim, naf in zip(report.steps.tolist(), c_vol, c_dim, report.c_aerial.tolist())
    ]
    # Every criterion is a plain name from RANKING_CRITERIA, so its JSON
    # text is the name in double quotes.
    policy = ",\n".join(f'    "{c}"' for c in report.criteria)
    listed = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return (
        f'{{\n  "policy": [\n{policy}\n  ],\n  "sequence_count": {report.sequence_count},\n'
        f'  "rows": {listed}\n}}\n'
    )


def run(config: RunConfig, out=None) -> int:
    """Build the fold-state lattice, rank it and report, or explain the
    config's sequence; returns the exit code."""
    out = out or sys.stdout
    try:
        tree = _load_tree(config)
        if config.explain is None:
            if config.dump_dir is not None:
                Path(config.dump_dir).mkdir(parents=True, exist_ok=True)
            lattice = build_lattice(tree)
    except (SpecValidationError, PlannerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_INVALID
    if config.explain is not None:
        from .replay import explain

        return EXIT_OK if explain(tree, config.explain, out) else EXIT_NO_SEQUENCES

    report = rank_lattice(lattice, config.top)
    if logger.isEnabledFor(logging.INFO):
        for line in lattice.stats.lines():
            logger.info("planner %s", line)

    if config.fmt == "table":
        out.write(format_table(report))
    elif config.fmt == "csv":
        out.write(format_csv(report))
    else:
        out.write(format_structured(report))

    if config.dump_dir is not None:
        from .replay import dump_states

        dump_states(lattice.tree, report, config.dump_dir)

    if not report.sequence_count:
        logger.warning("no feasible folding sequence found")
        return EXIT_NO_SEQUENCES
    return EXIT_OK


def _parse_top(text: str) -> int | None:
    if text == "all":
        return None
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("--top must be a positive integer or 'all'")


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
