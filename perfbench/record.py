"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/record.py --seeds 1-10 --out FILE [--workloads a,b]
                                [--roadmap]

Runs `run.py --trace 0` once per workload and seed, one run at a time, for
BENCHMARK.json's run_seconds, and
writes to FILE the environment, every run's metrics, and per metric the
median, the quartiles (statistics.quantiles, n=4) and their spread as a share
of the median.  `--roadmap` also times the two figures ROADMAP.md quotes:
one full `loophom verify all` and the median of 11 `loophom eval U --n 3`
start-ups, both with the benchmark's warm bytecode cache.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

import run  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_once(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[0][len("env "):])
    return {"env": env, "result": json.loads(lines[-1])}


def summarize(results: list) -> dict:
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return metrics


def roadmap_figures() -> dict:
    code, out, _err, verify_s, _u = run.spawn([run.PYTHON, "-m", "loophom.cli", "verify", "all"], 170)
    if code != 0:
        raise RuntimeError("verify all failed")
    startups = []
    for _ in range(11):
        _c, _o, _e, seconds, _u = run.spawn([run.PYTHON, "-m", "loophom.cli", "eval", "U", "--n", "3"], 60)
        startups.append(seconds)
    return {"verify_all_cli_s": verify_s, "eval_startup_s": statistics.median(startups)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(workloads.GENERATORS))
    parser.add_argument("--roadmap", action="store_true")
    args = parser.parse_args(argv)

    record = {"seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            one = bench_once(workload, seed)
            record["env"] = {k: v for k, v in one["env"].items() if k not in ("workload", "seed", "trace")}
            runs.append(one["result"])
            print(workload, seed, json.dumps(one["result"]["metrics"]), flush=True)
        record["workloads"][workload] = {
            "runs": runs,
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "metrics": summarize(runs),
        }
    if args.roadmap:
        run.BUILD.mkdir(exist_ok=True)
        record["roadmap"] = roadmap_figures()
    record["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
