"""Steadiness of the benchmark on one commit.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--runs 10] [--workloads det-routes,...]
                                [--first-seed 1] [--traced] [--against FILE]

Runs each workload ``--runs`` times, each with another seed, and reports for
every end-to-end metric the median, the quartiles (``statistics.quantiles``,
n=4) and their distance as a share of the median, next to the metric's bound
in BENCHMARK.json.  ``--traced`` adds two traced runs per workload, each paired
with a one-round untraced run: it checks that every count repeats exactly
and reports the traced round's wall time over the untraced one (the tracing
overhead).  ``--runs 0 --traced`` does only that.  ``--against`` compares the medians
with an earlier report of this command.  The report is written to
perfbench/out/steady-<first seed>.json.
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


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def traced_pairs(workload: str, first_seed: int) -> dict:
    """Two traced runs, each right after a one-round untraced run: do the
    counts repeat exactly, and what does tracing add to a round's wall time?
    Pairing the runs keeps slow drift of the machine out of the ratio."""
    counts, ratios = [], []
    for i in range(2):
        seed = first_seed + i
        bench(workload, seed, 1, 0)
        traced = bench(workload, seed, 1, 1)
        counts.append({k: v["value"] for k, v in traced["metrics"].items() if v["unit"] != "s"})
        walls = [json.loads((HERE / "out" / f"{kind}-{workload}-seed{seed}.json").read_text())
                 ["rounds"][0]["wall_s"] for kind in ("trace", "result")]
        ratios.append(walls[0] / walls[1])
    return {"counts_repeat": counts[0] == counts[1],
            "traced_over_untraced_wall": statistics.median(ratios)}


def main(argv: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [bench(workload, args.first_seed + i, spec["run_seconds"], 0)
                for i in range(args.runs)]
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        entry = {"failed/attempted": shares, "correct": all(r["correct"] for r in runs),
                 "metrics": {}}
        print(f"{workload}: {args.runs} runs, failed/attempted {shares}, "
              f"all correct {entry['correct']}")
        ok &= entry["correct"] and all(f == 0 for f, _ in shares)
        for name, bound in bounds.items() if runs else ():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = s
            flag = "ok" if s["spread"] <= bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER")
            line = (f"  {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                    f"spread {s['spread']:.4f}  bound {bound}  {flag}")
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = s["median"] / before["median"] - 1
                line += f"  vs earlier {change:+.4f}"
                ok &= change <= bound
            if name != "setup_s":
                ok &= s["spread"] <= bound
            print(line)
        if args.traced:
            entry.update(traced_pairs(workload, args.first_seed + args.runs))
            print(f"  traced: counts repeat exactly {entry['counts_repeat']}, "
                  f"traced/untraced wall_s {entry['traced_over_untraced_wall']:.3f}")
            ok &= entry["counts_repeat"]
        report[workload] = entry
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.first_seed}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
