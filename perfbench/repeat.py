"""Run the benchmark over several seeds and summarize each metric's spread.

Usage (from the repository root):

    python3 perfbench/repeat.py --workloads verify-all symbolic oracle \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--out FILE]

Each run measures the end-to-end metrics (``--trace 0``) for the
``run_seconds`` that ``BENCHMARK.json`` gives.  For every workload and
metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median.  With ``--out``
the per-run results and the summary are also written as JSON, the form in
which baselines are recorded next to this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    env = next((line for line in lines if line.startswith("environment:")), "")
    return {"seed": seed, "environment": env, "result": json.loads(lines[-1])}


def summarize(runs) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "runs": len(values),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", help="write runs and summary to this JSON file")
    args = parser.parse_args()
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed))
            res = runs[-1]["result"]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        summary = summarize(runs)
        report[workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:10s} {name:32s} median={s['median']:.6g} {s['unit']} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={spread} runs={s['runs']}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
