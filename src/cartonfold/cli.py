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

# Words of CSV text in one block of a report, k + 3 to a row: run writes a
# report to its output a block of rows at a time, so every writer's word
# ids, gathered words and joined text grow with this, not with the report.
# A report of a few thousand rows, such as the tray's 1 680, is one block.
BLOCK_WORDS = 1 << 15


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


def block_rows(report: RankedReport) -> int:
    """Rows in one block of the report: about BLOCK_WORDS words of CSV text."""
    return max(1, BLOCK_WORDS // (report.steps.shape[1] + 3))


def _range(report: RankedReport, start: int, stop: int | None) -> tuple[int, int]:
    """Rows start .. stop - 1 of the report, all from start when stop is None.

    Each writer returns the text of such a range: the report's head with
    row 0 and its tail with the last row, so the texts of consecutive
    ranges join into the text of the whole report, which is the one-range
    case. An empty report is the one range (0, 0).
    """
    n = len(report)
    return start, n if stop is None else min(stop, n)


def format_table(report: RankedReport, start: int = 0, stop: int | None = None) -> str:
    start, stop = _range(report, start, stop)
    lines = [] if start else [
        f"policy: {' > '.join(report.criteria)}   "
        f"(showing {len(report)} of {report.sequence_count} sequences)\n",
        f"{'rank':>4}  {'sequence':<28} {'volume_mm3':>16} {'maxdim_mm':>12} {'naf':>4}\n",
    ]
    orders = report.joints[report.edges.slot[report.steps[start:stop]]].tolist()
    totals = zip(
        report.c_vol[start:stop].tolist(), report.c_dim[start:stop].tolist(),
        report.c_aerial[start:stop].tolist(),
    )
    for rank, (order, (c_vol, c_dim, naf)) in enumerate(zip(orders, totals), start=start + 1):
        seq = "[" + ", ".join(map(str, order)) + "]"
        lines.append(f"{rank:>4}  {seq:<28} {c_vol:>16.1f} {c_dim:>12.1f} {naf:>4}\n")
    return "".join(lines)


def format_csv(report: RankedReport, start: int = 0, stop: int | None = None) -> str:
    """The header, then one line per row: the order joined by "-", the
    volume and maxdim totals to 6 decimals, and the aerial count.

    A line is k + 3 words of a vocabulary: each joint with the separator
    that follows it (``5-``, or ``5,`` in last place), then the volume
    with its comma, the maxdim with its comma and the count with the
    newline. The joint words are listed in slot order, so a step's word id
    is its edge's slot (plus k in last place), and the count words are
    0 .. k, so a count's word id follows from its value; each distinct
    total of the range is formatted once, told apart from the others by
    its bits, so two that print differently never share a word. The range
    is one gather of slots, one gather from the vocabulary and one
    ``str.join``.
    """
    start, stop = _range(report, start, stop)
    header = "" if start else "sequence,volume_mm3,maxdim_mm,naf\n"
    k = report.steps.shape[1]
    if stop <= start:
        return header
    joints = report.joints.tolist()
    words = [f"{j}-" for j in joints] + [f"{j}," for j in joints] + [f"{c}\n" for c in range(k + 1)]
    ids = np.empty((stop - start, k + 3), dtype=np.intp)
    ids[:, :k] = report.edges.slot[report.steps[start:stop]]
    ids[:, k - 1] += k
    for i, column in enumerate((report.c_vol, report.c_dim), k):
        distinct, ids[:, i] = np.unique(column[start:stop].view(np.int64), return_inverse=True)
        ids[:, i] += len(words)
        words += map("{:.6f},".format, distinct.view(column.dtype).tolist())
    ids[:, k + 2] = report.c_aerial[start:stop] + 2 * k
    return header + "".join(np.array(words, dtype=object).take(ids.ravel()).tolist())


# The structured report is the text of json.dumps(payload, indent=2), with
# payload {"policy": [...], "sequence_count": n, "rows": [row, ...]}, row
# {"sequence": [...], "volume_mm3", "maxdim_mm", "naf", "per_step": [step,
# ...]} and float values rounded by round6. It is written from templates,
# each distinct total and each step of a range once, since json.dumps with
# an indent runs the pure-Python encoder. Every row but the first opens
# with the comma that separates it from the one before.
_ROW = """
    {{
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


def format_structured(report: RankedReport, start: int = 0, stop: int | None = None) -> str:
    start, stop = _range(report, start, stop)
    steps = report.steps[start:stop]
    c_vol, c_dim = report.c_vol[start:stop].tolist(), report.c_dim[start:stop].tolist()
    number = {v: repr(round6(v)) for v in {*c_vol, *c_dim}}
    joints = report.joints.tolist()
    # Each distinct step edge's sequence line and step text, formatted once
    # from Python scalars. The edge ids come back ascending from a mask,
    # since np.unique without flags imports numpy.ma.
    mask = np.zeros(len(report.edges.slot), dtype=bool)
    mask[steps] = True
    used = np.flatnonzero(mask)
    slot, volume, max_dim, aerial = (column[used].tolist() for column in report.edges)
    used = used.tolist()
    line = {e: f"        {joints[s]}" for e, s in zip(used, slot)}
    step = {
        e: _STEP.format(joints[s], round6(v), round6(d), "true" if a else "false")
        for e, s, v, d, a in zip(used, slot, volume, max_dim, aerial)
    }
    rows = ",".join([
        _ROW.format(
            ",\n".join([line[e] for e in ids]),
            number[vol],
            number[dim],
            naf,
            ",\n".join([step[e] for e in ids]),
        )
        for ids, vol, dim, naf in zip(steps.tolist(), c_vol, c_dim, report.c_aerial[start:stop].tolist())
    ])
    if start:
        head = ","
    else:
        # Every criterion is a plain name from RANKING_CRITERIA, so its
        # JSON text is the name in double quotes.
        policy = ",\n".join(f'    "{c}"' for c in report.criteria)
        head = (
            f'{{\n  "policy": [\n{policy}\n  ],\n  "sequence_count": {report.sequence_count},\n'
            '  "rows": ['
        )
    tail = ""
    if stop == len(report):
        tail = ("\n  ]" if stop else "]") + "\n}\n"
    # One copy of the rows' text: an f-string, not a chain of "+".
    return f"{head}{rows}{tail}"


def write_report(report: RankedReport, fmt: str, out) -> None:
    """Write the report in format ``fmt`` to ``out``, one block of rows at a time."""
    write = {"table": format_table, "csv": format_csv, "structured": format_structured}[fmt]
    rows = block_rows(report)
    for start in range(0, max(len(report), 1), rows):
        out.write(write(report, start, start + rows))


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

    write_report(report, config.fmt, out)

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
