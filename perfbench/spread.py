"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload balls --seeds 0-9 [--rounds 2]

Runs ``run.py --trace 0`` once per seed and round, then prints for every
end-to-end metric the median of each round and the quartile spread
(Q3 - Q1) / median, next to the metric's bound from ``BENCHMARK.json``.
A benchmark is steady when each spread but ``setup_s``'s stays within its
bound and the round medians agree within it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rounds = []
    for r in range(args.rounds):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, timeout=300)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not res["correct"] or res["failed"]:
                print(f"round {r} seed {seed}: exit {proc.returncode}, {res}")
                return 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"round {r} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
        rounds.append(values)
    for m in spec["end_to_end"]:
        meds = [statistics.median(v[m["name"]]) for v in rounds]
        spreads = []
        for v in rounds:
            q1, _, q3 = statistics.quantiles(v[m["name"]], n=4)
            spreads.append((q3 - q1) / statistics.median(v[m["name"]]))
        drift = max(meds) / min(meds) - 1.0
        print(f"{m['name']:<12} medians {' '.join(f'{x:.4g}' for x in meds)}  "
              f"spread {' '.join(f'{s:.3f}' for s in spreads)}  "
              f"round drift {drift:.3f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
