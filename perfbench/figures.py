"""Reference figures, measured once and recorded in README.md, not metrics.

Usage (from the root of a checkout):

    python3 perfbench/figures.py

Re-measures the baseline table of ROADMAP.md, each item in a fresh worker
process timed around the call, and the frontier: the largest n for which
`qhankel det --id qeuler --shift 0 --method all` finishes within 60 s with
the three routes equal.  Takes about seven minutes on a 2-core box.  Writes
perfbench/out/figures.json and prints a Markdown table.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import run

FRONTIER_LIMIT_S = 60

ITEMS = [
    ("verify --max-n 5", {"kind": "cli", "argv": ["verify", "--max-n", "5", "-f", "json"]}),
    *[(f"theorem1 shift 0, {route}, n = {n}",
       {"kind": "cli", "argv": ["det", "--id", "qeuler", "--n", str(n), "--method", route,
                                "-f", "json"]})
      for n in (10, 12, 14) for route in ("bruteforce", "closedform", "heilermann")],
    ("q_euler_recursive(40)", {"kind": "seq", "seq": "eps_recursive", "first": 40, "top": 40}),
    ("q_euler_explicit(40)", {"kind": "seq", "seq": "eps_explicit", "first": 40, "top": 40}),
    ("theta_moment(0, 0..29)", {"kind": "seq", "seq": "theta", "ell": 0, "top": 29}),
    ("xi_moment(0, 0..29)", {"kind": "seq", "seq": "xi", "ell": 0, "top": 29}),
    ("jfraction_from_moments, d = 10", {"kind": "jfrac_from_moments", "seq": "eps_recursive", "top": 20}),
    ("jfraction_from_moments, d = 14", {"kind": "jfrac_from_moments", "seq": "eps_recursive", "top": 28}),
]


def frontier() -> list:
    """(n, seconds or None, equal) for n = 10, 11, ... up to the first miss."""
    rows = []
    n = 10
    while True:
        argv = ["det", "--id", "qeuler", "--shift", "0", "--n", str(n), "--method", "all", "-f", "json"]
        cmd = [sys.executable, "-m", "qhankel.cli", *argv]
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=run.ROOT, env=run._env(), capture_output=True,
                                  text=True, timeout=FRONTIER_LIMIT_S)
        except subprocess.TimeoutExpired:
            rows.append((n, None, False))
            return rows
        seconds = time.perf_counter() - t
        equal = proc.returncode == 0 and json.loads(proc.stdout)["equal"] is True
        rows.append((n, seconds, equal))
        if not equal:
            return rows
        n += 1


def main() -> int:
    results = []
    for label, op in ITEMS:
        res = run.spawn([op], traced=False)
        if "crashed" in res or res["ops"][0]["error"]:
            raise RuntimeError(f"{label}: {res.get('crashed') or res['ops'][0]['error']}")
        results.append((label, res["ops"][0]["op_s"]))
        print(f"| {label} | {res['ops'][0]['op_s']:.2f} s |", flush=True)
    rows = frontier()
    for n, seconds, equal in rows:
        shown = f"{seconds:.1f} s" if seconds is not None else f"> {FRONTIER_LIMIT_S} s"
        print(f"| frontier n = {n} | {shown}, equal {equal} |", flush=True)
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "figures.json").write_text(json.dumps({"items": results, "frontier": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
