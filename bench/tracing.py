"""Per-layer tracing of one plan, recorded from outside the program.

The tracer replaces public functions of the cartonfold modules with
wrappers that record a span per call: a name, a start, an end and the span
that was open when the call began (its parent). A layer's self time is the
sum over its spans of the span minus its children. Counts are taken at the
same boundaries, from the arguments and results of the wrapped calls, and
the planner's counters from the log lines the CLI emits at INFO level.

A name that a later refactor removes or reshapes does not stop the run:
every metric that depends on it is reported as missing.
"""

from __future__ import annotations

import logging
import sys
import time
from collections import Counter

# Functions timed as spans, as (module, attribute) of the cartonfold package.
SPANNED = (
    ("cli", "run"),
    ("cli", "format_table"),
    ("cli", "format_csv"),
    ("cli", "format_structured"),
    ("model", "load_spec"),
    ("model", "forward_kinematics"),
    ("geometry", "sat_overlap_matrix"),
    ("collision", "collision_check"),
    ("collision", "sweep_angles"),
    ("collision", "n_sweep_samples"),
    ("planner", "enumerate_sequences"),
    ("metrics", "score_and_rank"),
)
# Called too often to time: only counted.
TRANSFORM_INIT = ("geometry", "Transform.__post_init__")
PLANNER_LOG = ("cli", "planner log")

# name -> (unit, the (module, attribute) it needs, where it should move the
# end-to-end metrics). A self time also needs the children it subtracts, or
# it would silently absorb them. The README carries the same mapping.
LAYER_METRICS = {
    "model.load_spec_s": ("s", [("model", "load_spec")], "plan_s on every workload, by little"),
    "model.fk_calls": ("count", [("model", "forward_kinematics")], "plan_s on flaps8, tray-all"),
    "model.fk_states": ("count", [("model", "forward_kinematics")], "plan_s on flaps8, tray-all"),
    "model.fk_s": ("s", [("model", "forward_kinematics")], "plan_s on flaps8, tray-all"),
    "geometry.transforms": ("count", [TRANSFORM_INIT], "plan_s on flaps8"),
    "geometry.sat_calls": ("count", [("geometry", "sat_overlap_matrix")], "plan_s on tray-fine, not flaps8"),
    "geometry.sat_box_pairs": ("count", [("geometry", "sat_overlap_matrix")], "plan_s on tray-fine, not flaps8"),
    "geometry.sat_s": ("s", [("geometry", "sat_overlap_matrix")], "plan_s on tray-fine, not flaps8"),
    "collision.checks": ("count", [("collision", "collision_check")], "plan_s on tray-fine, little on flaps8"),
    "collision.checks_free": ("count", [("collision", "collision_check")], "plan_s on tray-fine, little on flaps8"),
    "collision.sweep_samples": ("count", [("collision", "collision_check"), ("collision", "sweep_angles")],
                                "plan_s on tray-fine, little on flaps8"),
    "collision.self_s": ("s", [("collision", "collision_check"), ("geometry", "sat_overlap_matrix"),
                               ("model", "forward_kinematics")], "plan_s on tray-fine, little on flaps8"),
    "planner.nodes_expanded": ("count", [PLANNER_LOG], "plan_s, peak_rss_mb on flaps8, not tray-fine"),
    "planner.memo_hits": ("count", [PLANNER_LOG], "plan_s, peak_rss_mb on flaps8, not tray-fine"),
    "planner.sequences": ("count", [("planner", "enumerate_sequences")], "plan_s, peak_rss_mb on flaps8, not tray-fine"),
    "planner.self_s": ("s", [("planner", "enumerate_sequences"), ("collision", "collision_check")],
                       "plan_s, peak_rss_mb on flaps8, not tray-fine"),
    "metrics.sequences_scored": ("count", [("metrics", "score_and_rank")], "plan_s, peak_rss_mb on flaps8; plan_s on tray-all"),
    "metrics.self_s": ("s", [("metrics", "score_and_rank"), ("model", "forward_kinematics")],
                       "plan_s, peak_rss_mb on flaps8; plan_s on tray-all"),
    "cli.format_s": ("s", [("cli", "format_csv"), ("cli", "format_structured")], "plan_s on tray-all only"),
    "cli.report_bytes": ("bytes", [("cli", "format_csv"), ("cli", "format_structured")], "plan_s on tray-all only"),
}


class Tracer:
    """Spans and counts of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.missing: set[tuple[str, str]] = set()
        self._fk_states: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._log_handler = None
        self._log_level = logging.NOTSET

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("cartonfold.") and mod is not None
        }
        everywhere = list(modules.values()) + [sys.modules["cartonfold"]]
        for target in SPANNED:
            module, attr = target
            original = getattr(modules.get(module), attr, None)
            if not callable(original):
                self.missing.add(target)
                continue
            wrapper = self._span_wrapper(f"{module}.{attr}", original, target)
            for mod in everywhere:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

        transform = getattr(modules.get("geometry"), "Transform", None)
        post_init = vars(transform).get("__post_init__") if transform else None
        if post_init is None:
            self.missing.add(TRANSFORM_INIT)
        else:
            counts = self.counts

            def counted_post_init(obj):
                counts["geometry.transforms"] += 1
                post_init(obj)

            self._patch(transform, "__post_init__", counted_post_init)

        logger = logging.getLogger("cartonfold.cli")
        self._log_handler = _PlannerLog(self.counts)
        self._log_level = logger.level
        logger.addHandler(self._log_handler)
        logger.setLevel(logging.INFO)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        logger = logging.getLogger("cartonfold.cli")
        logger.removeHandler(self._log_handler)
        logger.setLevel(self._log_level)
        if not self._log_handler.seen:
            self.missing.add(PLANNER_LOG)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _span_wrapper(self, span_name: str, fn, target):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [span_name, clock(), None, stack[-1] if stack else None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            try:
                self._count(span_name, args, result, record[3])
            except (AttributeError, IndexError, TypeError):
                self.missing.add(target)
            return result

        return wrapper

    def _count(self, name: str, args, result, parent) -> None:
        counts = self.counts
        counts[name] += 1
        if name == "model.forward_kinematics":
            self._fk_states.add(frozenset(args[1].angles.items()))
        elif name == "geometry.sat_overlap_matrix":
            counts["geometry.sat_box_pairs"] += len(args[0]) * len(args[3])
        elif name == "collision.collision_check":
            counts["collision.checks_free"] += bool(result)
        elif name == "collision.sweep_angles":
            if parent is not None and self.spans[parent][0] == "collision.collision_check":
                counts["collision.sweep_samples"] += len(result)
        elif name == "planner.enumerate_sequences":
            counts["planner.sequences"] += len(result)
        elif name == "metrics.score_and_rank":
            counts["metrics.sequences_scored"] += len(result.rows)
        elif name.startswith("cli.format_"):
            counts["cli.report_bytes"] += len(result.encode("utf-8"))

    # -- results --------------------------------------------------------

    def _totals(self) -> tuple[Counter, Counter]:
        """(total time per span name, self time per module)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            total[name] += end - start
            own[name.split(".")[0]] += end - start - children
        return total, own

    def metrics(self) -> dict[str, float | None]:
        """Every LAYER_METRICS value of this trace, None where missing."""
        total, own = self._totals()
        c = self.counts
        values = {
            "model.load_spec_s": total["model.load_spec"],
            "model.fk_calls": c["model.forward_kinematics"],
            "model.fk_states": len(self._fk_states),
            "model.fk_s": total["model.forward_kinematics"],
            "geometry.transforms": c["geometry.transforms"],
            "geometry.sat_calls": c["geometry.sat_overlap_matrix"],
            "geometry.sat_box_pairs": c["geometry.sat_box_pairs"],
            "geometry.sat_s": total["geometry.sat_overlap_matrix"],
            "collision.checks": c["collision.collision_check"],
            "collision.checks_free": c["collision.checks_free"],
            "collision.sweep_samples": c["collision.sweep_samples"],
            "collision.self_s": own["collision"],
            "planner.nodes_expanded": c["planner_log.nodes_expanded"],
            "planner.memo_hits": c["planner_log.cc_cache_hits"],
            "planner.sequences": c["planner.sequences"],
            "planner.self_s": own["planner"],
            "metrics.sequences_scored": c["metrics.sequences_scored"],
            "metrics.self_s": own["metrics"],
            "cli.format_s": sum(v for k, v in total.items() if k.startswith("cli.format_")),
            "cli.report_bytes": c["cli.report_bytes"],
        }
        for name, (_, needs, _) in LAYER_METRICS.items():
            if any(target in self.missing for target in needs):
                values[name] = None
        return values

    def record(self) -> dict:
        """The trace as JSON-ready data, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "fk_states": len(self._fk_states),
            "missing": sorted(".".join(t) for t in self.missing),
        }


class _PlannerLog(logging.Handler):
    """Collects the planner's key=value counters from the CLI's INFO log."""

    def __init__(self, counts: Counter):
        super().__init__(logging.INFO)
        self.counts = counts
        self.seen = False

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if not message.startswith("planner "):
            return
        key, _, value = message[len("planner "):].partition("=")
        if value.isdigit():
            self.counts[f"planner_log.{key}"] += int(value)
            self.seen = True
