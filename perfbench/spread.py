"""Run one workload repeatedly, one fresh process at a time, and summarise.

    python3 perfbench/spread.py --workload synthetic --runs 10 --first-seed 1

Each run uses the next seed and the run length from BENCHMARK.json (or
``--seconds``).  For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median.  With BENCHMARK.json
present it also prints each end-to-end metric's bound and whether the
spread is within a third of it.  The last line is a JSON summary.
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


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_path.read_text()) if bench_path.is_file() else {}
    seconds = args.seconds if args.seconds is not None else bench.get("run_seconds", 10)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: checks failed\n{proc.stderr}", file=sys.stderr)
        shares.append(result["failed"] / result["attempted"])
        shown = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            shown.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(shown), flush=True)

    summary = {}
    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    for name, vals in values.items():
        s = summarise(vals)
        summary[name] = s
        line = (f"  {name:32s} median {s['median']:.6g} {units[name]}  "
                f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        if name in bounds:
            ok = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            line += f"  bound {bounds[name]:g} ({ok}: spread < bound/3)"
        print(line)
    print(f"  failed share per run: {sorted(set(shares))}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
