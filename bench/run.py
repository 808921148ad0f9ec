"""Benchmark of cartonfold's planner, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload tray-all --seed 1 --seconds 35 --trace 0

Every plan goes through the program's public entry point,
``cartonfold.cli.run(RunConfig(...))``, built from ``src/`` of the checkout.
With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the per-layer metrics, from a separate traced run (see tracing.py). The
report of each run is checked against a computation that does not use the
program (see oracle.py). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Timings are medians over many plans after one warm-up plan, one process at
a time, with BLAS held to one thread and garbage collected before each plan.
The host's speed drifts by tens of percent over minutes, so each timed plan
and each set-up sample is scaled to a reference speed by a probe timed
right before and right after it (see Speed).
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TRAY_SPEC = ROOT / "specs" / "case_study_tray.yaml"

# Set by main(); modules that load numpy (cartonfold, oracle) are imported
# only after that, inside the functions that use them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PLANS = 3  # per end-to-end run
MIN_TRACED_PAIRS = 2  # per traced run
SETUP_SAMPLES = 7
# One pass of the speed probe folds a fixed 7-flap carton through all 2^7
# states with the oracle's kinematics, then builds and sorts PROBE_ROWS
# tuples. A probe repeats passes for at least PROBE_SHARE of the last
# measurement, so that it spans host-speed bursts as a long plan does.
# Scaled times are in seconds at the speed at which one pass takes
# PROBE_REF_S.
PROBE_FLAPS = 7
PROBE_ROWS = 100_000
PROBE_SEED = 0
PROBE_SHARE = 0.1
PROBE_REF_S = 0.25


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``flaps`` = 0 means the shipped case-study tray."""

    fmt: str
    top: int | None
    tolerance_angle_deg: float | None = None
    flaps: int = 0


WORKLOADS = {
    # The paper's use case: every ranked sequence of the k = 7 tray. Mixed
    # load: 272 collision checks, 1680 sequences scored, 1680 rows written.
    "tray-all": Workload(fmt="csv", top=None),
    # 8 free flaps: all 40320 orderings valid from 1024 collision checks, so
    # enumeration and scoring dominate.
    "flaps8": Workload(fmt="structured", top=20, flaps=8),
    # The tray at a 0.25 degree sweep step: the same checks with 19x the
    # samples, so the swept SAT check dominates.
    "tray-fine": Workload(fmt="structured", top=20, tolerance_angle_deg=0.25),
}


def _median(values) -> float:
    return float(statistics.median(values))


class Speed:
    """Probe of the host's current speed, independent of the program.

    One pass folds a fixed carton through every fold state with the
    oracle's own kinematics (numpy on small matrices driven from Python,
    like the collision checks) and then builds and sorts many small
    tuples (allocation-heavy Python, like enumeration and ranking). A
    probe is the mean time per pass over one or more passes. ``scale``
    times a measurement between two probes and rescales it by
    PROBE_REF_S over their mean, which cancels most of the drift of the
    host's speed between seconds and minutes.
    """

    def __init__(self):
        import oracle
        from cartons import free_flap_carton

        self._oracle = oracle
        self._spec = free_flap_carton(PROBE_FLAPS, PROBE_SEED)
        joints = range(2, PROBE_FLAPS + 2)
        self._states = [
            frozenset(s) for r in range(PROBE_FLAPS + 1) for s in itertools.combinations(joints, r)
        ]
        self.probes: list[float] = []
        self.probe()  # warm-up, not counted
        self.probes.clear()

    def _pass(self) -> float:
        gc.collect()
        start = time.perf_counter()
        carton = self._oracle.Carton(self._spec)
        for state in self._states:
            carton.state(state)
        rng = random.Random(PROBE_SEED)
        sorted((rng.random(), i, (i, i + 1)) for i in range(PROBE_ROWS))
        return time.perf_counter() - start

    def probe(self, span: float = 0.0) -> float:
        """Mean seconds per pass over passes lasting at least ``span``."""
        passes = [self._pass()]
        while sum(passes) < span:
            passes.append(self._pass())
        per_pass = sum(passes) / len(passes)
        self.probes.append(per_pass)
        return per_pass

    def scale(self, measure) -> tuple[float, float]:
        """(raw, scaled) seconds of ``measure()``, run between two probes."""
        before = self.probes[-1] if self.probes else self.probe()
        raw = measure()
        after = self.probe(PROBE_SHARE * raw)
        return raw, raw * PROBE_REF_S * 2.0 / (before + after)


def measure_setup_s(speed: Speed) -> float:
    """Median scaled time for a fresh interpreter to import cartonfold.cli.

    The first child compiles the byte code cache and is not counted.
    """
    code = (
        "import time; t = time.perf_counter(); import cartonfold.cli; "
        "t = time.perf_counter() - t; import cartonfold; print(cartonfold.__file__); print(t)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def sample() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        where, seconds = proc.stdout.split()[-2:]
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"cartonfold imported from {where}, not from {SRC}")
        return float(seconds)

    sample()
    samples = [speed.scale(sample) for _ in range(SETUP_SAMPLES)]
    print(f"set-up samples: {len(samples)}, raw median {_median(r for r, _ in samples):.6f} s")
    return _median(s for _, s in samples)


def prepare(name: str, seed: int) -> Path:
    """Spec file for the workload; the seeded carton is written under out/."""
    workload = WORKLOADS[name]
    if not workload.flaps:
        return TRAY_SPEC
    from cartons import write_free_flap_carton

    return write_free_flap_carton(
        workload.flaps, seed, OUT_DIR / f"{name}_seed{seed}.yaml"
    )


def check(name: str, spec_path: Path, report: str) -> list[str]:
    """Independent checks of one report (outside every timed region)."""
    import oracle

    workload = WORKLOADS[name]
    carton = oracle.Carton(spec_path)
    if workload.flaps:
        expected = list(itertools.permutations(carton.joints))
        naf = 0
    else:
        expected = oracle.tray_orderings()
        naf = 2
    errors = oracle.check_report(report, workload.fmt, carton, expected, naf, workload.top)
    ties = oracle.rounding_ties(report, workload.fmt, carton)
    print(f"ranking: {ties} adjacent row pair(s) tied within {oracle.REL_TOL:g} "
          "on a float criterion and ordered against a later one")
    return errors


class Planner:
    """One workload's plans through the public entry point."""

    def __init__(self, name: str, spec_path: Path):
        from cartonfold import cli

        workload = WORKLOADS[name]
        self.cli = cli
        self.config = cli.RunConfig(
            spec_path=str(spec_path),
            fmt=workload.fmt,
            top=workload.top,
            tolerance_angle_deg=workload.tolerance_angle_deg,
        )
        self.report: str | None = None
        self.attempted = 0
        self.failed = 0

    def plan(self) -> float:
        """Wall time of one plan; a non-zero exit or a changed report fails it."""
        gc.collect()
        out = io.StringIO()
        start = time.perf_counter()
        code = self.cli.run(self.config, out=out)
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        self.attempted += 1
        if self.report is None:
            self.report = text
        if code != 0 or text != self.report:
            self.failed += 1
        return elapsed


def _until(seconds: float, step, min_rounds: int) -> None:
    """Repeat ``step`` for about ``seconds``: no round starts that the last
    round's duration says would end after the window, so a run's length does
    not depend on where its last plan falls."""
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        step()
        last = time.perf_counter() - began
        rounds += 1


def end_to_end(planner: Planner, seconds: float) -> dict:
    planner.plan()  # warm-up: the first plan of a fresh process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = Speed()
    setup_s = measure_setup_s(speed)
    times: list[tuple[float, float]] = []
    _until(seconds, lambda: times.append(speed.scale(planner.plan)), MIN_PLANS)
    print(f"plans timed: {len(times)}, after one warm-up plan; raw median "
          f"{_median(r for r, _ in times):.6f} s, probe median {_median(speed.probes):.6f} s "
          f"(reference {PROBE_REF_S} s)")
    return {
        "plan_s": (_median(s for _, s in times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(planner: Planner, seconds: float, name: str, seed: int) -> tuple[dict, list[str]]:
    """Alternate untraced and traced plans; per-layer medians and counts."""
    import tracing

    planner.plan()  # warm-up
    untraced: list[float] = []
    traced: list[float] = []
    traces: list = []

    def pair() -> None:
        untraced.append(planner.plan())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(planner.plan())
        finally:
            tracer.uninstall()
        traces.append(tracer)

    _until(seconds, pair, MIN_TRACED_PAIRS)
    errors: list[str] = []
    rounds = [t.metrics() for t in traces]
    metrics = {}
    for metric, (unit, _, _) in tracing.LAYER_METRICS.items():
        values = [r[metric] for r in rounds]
        if values[0] is None:
            continue
        if unit == "s":
            metrics[metric] = (_median(values), unit)
        else:
            if len(set(values)) != 1:
                errors.append(f"{metric} differs between traced plans: {sorted(set(values))}")
            metrics[metric] = (values[0], unit)
    traced_s = _median(traced)
    untraced_s = _median(untraced)
    metrics["trace.plan_s"] = (traced_s, "s")
    metrics["trace.untraced_plan_s"] = (untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")

    path = OUT_DIR / f"trace_{name}_seed{seed}.json"
    record = {"workload": name, "seed": seed, "traced_plans": len(traces), **traces[0].record()}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"per-layer metrics of {name} (seed {seed}, {len(traces)} traced plans, trace: {path.name})")
    print(f"  {'metric':<26}{'value':>16}  {'unit':<6}moves")
    for metric, (unit, _, moves) in tracing.LAYER_METRICS.items():
        shown = f"{metrics[metric][0]:>16.6g}" if metric in metrics else f"{'missing':>16}"
        print(f"  {metric:<26}{shown}  {unit:<6}{moves}")
    print(f"  tracing overhead: {metrics['trace.overhead_pct'][0]:+.1f}% "
          f"({traced_s:.4f} s traced vs {untraced_s:.4f} s untraced, medians)")
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cartonfold" / "cli.py").is_file() or not TRAY_SPEC.is_file():
        print(f"error: {ROOT} is not a cartonfold checkout (no src/cartonfold or specs/)",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    spec_path = prepare(args.workload, args.seed)
    planner = Planner(args.workload, spec_path)
    if args.trace:
        metrics, errors = per_layer(planner, args.seconds, args.workload, args.seed)
    else:
        metrics, errors = end_to_end(planner, args.seconds), []

    errors = check(args.workload, spec_path, planner.report) + errors
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    if not args.trace:
        for metric, (value, unit) in metrics.items():
            print(f"{metric:<12} {value:12.6f} {unit}")
    print(f"workload {args.workload}, seed {args.seed}: attempted {planner.attempted}, "
          f"failed {planner.failed}, checks {'passed' if not errors else 'FAILED'}")
    print(json.dumps({
        "correct": not errors,
        "attempted": planner.attempted,
        "failed": planner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
