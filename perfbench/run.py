"""Benchmark of qhankel: cold determinant routes, moment generation and the
verify battery, each checked against an exact-rational reference.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload det-routes --seed 1 --seconds 30 --trace 0

Every operation runs in a fresh interpreter started by this process, one at
a time, so its cost never depends on what an earlier operation left in the
library's module caches.  A run repeats whole rounds of its workload for
about ``--seconds`` (a traced run does exactly one round), checks every
returned value, and prints one JSON object as the last line of standard
output.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Dict, List

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 11
# calibrate.py's time at the reference speed; times are reported at that speed
CAL_REF_S = 0.1
WORKER_TIMEOUT_S = 150
MAX_N_VERIFY = 5


def _det(seq: str, shift: int, n: int) -> dict:
    argv = ["det", "--id", seq, "--n", str(n), "--method", "all", "-f", "json"]
    if seq == "qeuler":
        argv += ["--shift", str(shift)]
    return {"kind": "cli", "seq": seq, "shift": shift, "n": n, "argv": argv}


def _seq(seq: str, top: int, **kw) -> dict:
    return {"kind": "seq", "seq": seq, "top": top, **kw}


# A round is a list of worker processes, each a list of ops run in order.
def _verify_round() -> List[list]:
    return [[{"kind": "verify_pass", "max_n": MAX_N_VERIFY}]]


def _det_round() -> List[list]:
    return [[_det("qeuler", 0, 9)], [_det("qeuler", 1, 8)],
            [_det("qeuler", 2, 8)], [_det("qbernoulli", 0, 9)]]


def _moments_round() -> List[list]:
    ops = [_seq(s, 40) for s in ("eps_recursive", "eps_explicit", "beta_recursive", "beta_explicit")]
    ops += [_seq("theta", 13, ell=ell) for ell in range(4)]
    ops += [_seq("xi", 35, ell=ell) for ell in range(4)]
    ops += [
        {"kind": "jfrac_from_moments", "seq": "eps_recursive", "top": 16},
        {"kind": "jfrac_from_moments", "seq": "xi", "ell": 0, "top": 16},
        {"kind": "jfrac_expand", "seq": "eps", "ell": 0, "order": 20},
        {"kind": "jfrac_expand", "seq": "xi", "ell": 0, "order": 24},
    ]
    return [[op] for op in ops]


WORKLOADS = {
    "verify-suite": _verify_round,
    "det-routes": _det_round,
    "moments-jfrac": _moments_round,
}


def seeded_q(seed: int) -> Fraction:
    """The rational point the outputs are checked at; never 0 or +-1."""
    points = [Fraction(a, b) for a in range(1, 8) for b in range(2, 9)
              if a != b and gcd(a, b) == 1]
    return random.Random(seed).choice(points)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def calibrate() -> float:
    """Seconds calibrate.py took just now, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], cwd=ROOT, env=_env(),
                          check=True, capture_output=True, text=True)
    return float(proc.stdout)


def measure_setup(spawns: int) -> float:
    """Median wall time of a fresh interpreter running `import qhankel`, each
    scaled to the reference speed by the calibrations on either side."""
    cals = [calibrate()]
    times = []
    for _ in range(spawns):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qhankel"], cwd=ROOT, env=_env(),
                       check=True, stdout=subprocess.DEVNULL)
        raw = time.perf_counter() - t
        cals.append(calibrate())
        times.append(raw * 2 * CAL_REF_S / (cals[-2] + cals[-1]))
    return statistics.median(times)


def spawn(ops: list, traced: bool) -> dict:
    """Run one worker process to its end; a crash or timeout fails its ops."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(ops)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {WORKER_TIMEOUT_S} s", "ops": []}
    if proc.returncode != 0 or not proc.stdout:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr[-2000:]}", "ops": []}
    return json.loads(proc.stdout.splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, traced: bool) -> List[dict]:
    """Whole rounds for about ``seconds``: another round starts only if it
    should end nearer to ``seconds`` than stopping now would.  At least one
    round; exactly one when traced.

    Untraced, a calibration process runs before each round and after each
    measured process.  ``speed`` scales a time measured between two
    calibrations to the reference speed: this shared machine's speed drifts
    by up to 2x over minutes, and scaling removes about half of that drift
    from the run-to-run spread.  A round's ``wall_s`` is the sum of its
    measured processes' wall times, calibrations excluded.
    """
    rng = random.Random(seed)
    rounds = []
    start = time.perf_counter()
    while True:
        procs = WORKLOADS[workload]()
        rng.shuffle(procs)
        t = time.perf_counter()
        cals = [] if traced else [calibrate()]
        results = []
        for ops in procs:
            t_proc = time.perf_counter()
            res = spawn(ops, traced)
            res["wall_s"] = time.perf_counter() - t_proc
            if not traced:
                cals.append(calibrate())
                res["speed"] = 2 * CAL_REF_S / (cals[-2] + cals[-1])
            results.append((ops, res))
        rounds.append({
            "elapsed_s": time.perf_counter() - t,
            "wall_s": sum(res["wall_s"] for _, res in results),
            "speed": CAL_REF_S / statistics.median(cals) if cals else None,
            "procs": results,
        })
        mean_round = statistics.mean(r["elapsed_s"] for r in rounds)
        if traced or time.perf_counter() - start + mean_round / 2 >= seconds:
            return rounds


def _ops_of(rounds: List[dict]):
    for rnd in rounds:
        for _, res in rnd["procs"]:
            yield from res["ops"]


def count_ops(rounds: List[dict]):
    """(attempted, failed); a crashed process fails as many ops as a
    completed copy of it ran, or one if none completed."""
    done: Dict[str, int] = {}
    for rnd in rounds:
        for ops, res in rnd["procs"]:
            if "crashed" not in res:
                done[json.dumps(ops)] = len(res["ops"])
    attempted = failed = 0
    for rnd in rounds:
        for ops, res in rnd["procs"]:
            if "crashed" in res:
                n = done.get(json.dumps(ops), 1)
                attempted += n
                failed += n
                print(f"process failed: {res['crashed'][:500]}", file=sys.stderr)
            else:
                attempted += len(res["ops"])
                for op in res["ops"]:
                    if op["error"]:
                        failed += 1
                        print(f"op failed: {op['op']}: {op['error'][:300]}", file=sys.stderr)
    return attempted, failed


def check_outputs(rounds: List[dict], q: Fraction) -> bool:
    oracles = (checks.Oracle(q), checks.Oracle(Fraction(1)))
    problems: List[str] = []
    for op in _ops_of(rounds):
        if op["error"]:
            continue
        try:
            problems += checks.check_op(op["op"], op["result"], oracles)
        except Exception as exc:  # a malformed output is a wrong output
            problems.append(f"{op['op']}: check raised {type(exc).__name__}: {exc}")
    for p in problems[:20]:
        print(f"WRONG: {p[:400]}", file=sys.stderr)
    return not problems


def end_to_end(rounds: List[dict], setup_s: float) -> Dict[str, float]:
    """Times at the reference speed.  wall_s is the median round; op_p50_s
    the median over the round's operations of each one's median time across
    rounds.  Every round runs the same operations, so this is the median
    operation cost, without the plain median's jumps across the gap between
    two operations of very different size."""
    times: Dict[str, List[float]] = {}
    for rnd in rounds:
        for _, res in rnd["procs"]:
            for op in res["ops"]:
                if not op["error"]:
                    key = json.dumps(op["op"], sort_keys=True)
                    times.setdefault(key, []).append(op["op_s"] * res["speed"])
    rss = [res["rss_kb"] for rnd in rounds for _, res in rnd["procs"] if "rss_kb" in res]
    per_op = [statistics.median(v) for v in times.values()]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall_s"] * r["speed"] for r in rounds),
        "op_p50_s": statistics.median(per_op) if per_op else float("nan"),
        "peak_rss_mb": max(rss) / 1024 if rss else float("nan"),
    }


def per_layer(rounds: List[dict], names: List[str]) -> Dict[str, float]:
    """Layer metrics from the merged span reports of every process.

    ``<span>_calls`` counts calls; ``<span>_s`` is self time, except for a
    verification check, whose whole time is reported.  A span the program
    no longer has reads 0 and is named on stderr.
    """
    totals: Dict[str, list] = {}
    max_degree = max_bits = 0
    missing = set()
    for rnd in rounds:
        for _, res in rnd["procs"]:
            rep = res.get("trace")
            if not rep:
                continue
            for name, (calls, total_s, self_s) in rep["totals"].items():
                rec = totals.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total_s
                rec[2] += self_s
            max_degree = max(max_degree, rep["max_degree"])
            max_bits = max(max_bits, rep["max_bits"])
            missing.update(rep["missing"])
    cli_bytes = sum(len(op["result"].encode()) for op in _ops_of(rounds)
                    if op["op"]["kind"] == "cli" and op["result"])
    for m in sorted(missing):
        print(f"note: the program has no {m}; its span reads 0", file=sys.stderr)
    out: Dict[str, float] = {}
    for name in names:
        if name == "ratcore.result_max_degree":
            out[name] = max_degree
        elif name == "ratcore.result_max_coeff_bits":
            out[name] = max_bits
        elif name == "cli.output_bytes":
            out[name] = cli_bytes
        elif name.endswith("_calls"):
            out[name] = totals.get(name[: -len("_calls")], [0])[0]
        elif name.startswith("verification."):
            out[name] = totals.get(name[: -len("_s")], [0, 0.0])[1]
        else:
            out[name] = totals.get(name[: -len("_s")], [0, 0.0, 0.0])[2]
    return out


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qhankel" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'qhankel'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = bool(args.trace)
    # The build: byte-compile once, so no timed interpreter compiles source.
    compileall.compile_dir(str(SRC / "qhankel"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    setup_s = None if traced else measure_setup(SETUP_SPAWNS)
    rounds = run_rounds(args.workload, args.seed, args.seconds, traced)
    attempted, failed = count_ops(rounds)
    q = seeded_q(args.seed)
    correct = check_outputs(rounds, q)

    if traced:
        wanted = spec["per_layer"]
        values = per_layer(rounds, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(rounds, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "q": str(q), "traced": traced,
        "rounds": [
            {"wall_s": rnd["wall_s"], "speed": rnd["speed"],
             "procs": [{"ops": [{k: v for k, v in op.items() if k != "result"}
                                for op in res["ops"]],
                        "wall_s": res["wall_s"], "speed": res.get("speed"),
                        "crashed": res.get("crashed"), "rss_kb": res.get("rss_kb"),
                        "trace": res.get("trace")}
                       for _, res in rnd["procs"]]}
            for rnd in rounds
        ],
        "metrics": metrics,
    }
    kind = "trace" if traced else "result"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record, separators=(",", ":")) + "\n")

    print(f"{args.workload} seed={args.seed} q={q}: {len(rounds)} round(s), "
          f"{attempted} ops, {failed} failed, correct={correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
