"""Steadiness check: run the benchmark with several seeds and report spreads.

    python3 bench/steadiness.py --runs 10                 # every workload
    python3 bench/steadiness.py --runs 5 --workloads flaps8
    python3 bench/steadiness.py --runs 10 --compare bench/out/steadiness_A.json
    python3 bench/steadiness.py --runs 2 --trace 1        # counts must repeat

Runs the command of BENCHMARK.json one process at a time, seeds 1 .. runs,
for ``run_seconds`` each. With ``--trace 0`` it prints, per workload and
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) /
median next to the metric's bound, and the share of failed operations. With
``--compare`` it also prints how far each median moved from an earlier set.
With ``--trace 1`` it runs each seed twice and requires every per-layer
count to repeat exactly. Results are saved under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, help="an earlier steadiness_*.json")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles or a repeat")
    OUT_DIR.mkdir(exist_ok=True)

    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in range(1, args.runs + 1):
            for _ in range(1 + args.trace):
                r = run_once(bench, workload, seed, args.trace)
                r["seed"] = seed
                results.setdefault(workload, []).append(r)
                print(f"{workload} seed {seed}: {r['wall_s']:.1f} s, correct={r['correct']}, "
                      f"failed {r['failed']}/{r['attempted']}, "
                      + ", ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                                  if args.trace == 0), flush=True)

    ok = all(r["correct"] for rs in results.values() for r in rs)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT_DIR / f"steadiness_{'trace_' if args.trace else ''}{stamp}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"saved {path}")

    if args.trace:
        for workload, rs in results.items():
            for a, b in zip(rs[::2], rs[1::2]):
                for name, meta in a["metrics"].items():
                    if meta["unit"] in ("count", "bytes") and b["metrics"].get(name) != meta:
                        ok = False
                        print(f"{workload} seed {a['seed']}: {name} {meta['value']} "
                              f"then {b['metrics'].get(name)}")
        print("per-layer counts repeat" if ok else "per-layer counts DIFFER")
        return 0 if ok else 1

    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    print(f"{'workload':<10} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'vs earlier':>10}")
    for workload, rs in results.items():
        for metric in bench["end_to_end"]:
            name = metric["name"]
            median, q1, q3, rel = spread([r["metrics"][name]["value"] for r in rs])
            moved = ""
            if workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                moved = f"{median / before - 1.0:+10.3f}"
            flag = "" if rel <= metric["bound"] / 3 else (" >1/3 bound" if rel <= metric["bound"]
                                                          else " OVER BOUND")
            print(f"{workload:<10} {name:<12} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:7.3f} {metric['bound']:6.3f} {moved}{flag}")
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"{workload:<10} failed share {sorted(shares)}, mean run "
              f"{statistics.mean(r['wall_s'] for r in rs):.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
