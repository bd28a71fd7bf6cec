"""Run the benchmark once per seed and report the run-to-run spread.

    python3 bench/repeat.py --workload route_check --seeds 1-10 --seconds 20

Runs ``bench/run.py`` in a fresh process for each workload and seed, one at
a time, and prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, beside the metric's bound
from ``BENCHMARK.json``. A spread under a third of its bound is marked ``ok``.
The collected results go to ``.bench_out/repeat-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workload:
        results = []
        for seed in seed_list(args.seeds):
            result = run(workload, seed, args.seconds, 0)
            results.append({"seed": seed, **result})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        (ROOT / ".bench_out" / f"repeat-{workload}.json").write_text(json.dumps(results))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {workload:15s} {name:12s} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} bound={bound} "
                  f"{'ok' if spread < bound / 3 else 'WIDE'}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
