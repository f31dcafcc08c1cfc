"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/steadiness.py --seeds 1-10 [--workloads order-dense,cli-mixed] [--seconds 10]

Runs bench/run.py once per workload and seed, one run at a time, and for
every end-to-end metric reports the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  Each set of runs is added to bench/steadiness.json
under its own label, so two sets of the same code can be compared, and every
set is summarised in bench/STEADINESS.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EVIDENCE = BENCH / "steadiness.json"
SUMMARY = BENCH / "STEADINESS.md"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--label", default=None, help="key of this set in steadiness.json")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    label = args.label or datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    evidence = json.loads(EVIDENCE.read_text()) if EVIDENCE.exists() else {}
    runs: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        runs[workload] = {"seeds": args.seeds, "values": values,
                          "summary": {k: summarize(v) for k, v in values.items()}}
        for name, s in runs[workload]["summary"].items():
            bound = bounds.get(name)
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else "  <-- above a third of its bound"
            print(f"  {workload:<12} {name:<18} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}){flag}")
    evidence[label] = {"seconds": args.seconds, "workloads": runs}
    EVIDENCE.write_text(json.dumps(evidence, indent=1) + "\n")
    SUMMARY.write_text(render(evidence, bounds))
    return 0


def render(evidence: dict, bounds: dict) -> str:
    lines = ["# Steadiness of the end-to-end metrics", "",
             "Written by `python3 bench/steadiness.py`; the raw values are in `steadiness.json`.",
             "Spread is (q3 - q1) / median over one run per seed.", ""]
    for label, run_set in evidence.items():
        lines += [f"## {label} ({run_set['seconds']:g} s a run)", "",
                  "| workload | metric | median | q1 | q3 | spread | bound |",
                  "| --- | --- | ---: | ---: | ---: | ---: | ---: |"]
        for workload, runs in run_set["workloads"].items():
            seeds = runs["seeds"]
            for name, s in runs["summary"].items():
                lines.append(f"| {workload} (seeds {seeds[0]}-{seeds[-1]}) | {name} | {s['median']:.6g} | "
                             f"{s['q1']:.6g} | {s['q3']:.6g} | {s['spread']:.4f} | {bounds.get(name)} |")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
