"""Runs benchmark operations in one fresh interpreter and reports them.

Usage: python3 perfbench/worker.py '<json list of ops>' [--trace]

The parent puts ``src`` on PYTHONPATH.  Every module an op needs is imported
before any timing starts, so an op's time is its own cold cost: no module
cache holds anything from an earlier op unless the ops share this process
on purpose (the checks of one verify pass do).  The last line of standard
output is one JSON object: per op its time, whether it raised, and its
result in a form the parent can check; the process's peak RSS; and with
``--trace`` the span report.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def _dump(v) -> dict:
    # hex is exact for any size, unlike str() of a huge int
    return {"num": [hex(c) for c in v.num.coeffs] or ["0x0"],
            "den": [hex(c) for c in v.den.coeffs]}


_SEQ_FNS = {
    "eps_recursive": ("carlitz", "q_euler_recursive"),
    "eps_explicit": ("carlitz", "q_euler_explicit"),
    "beta_recursive": ("carlitz", "q_bernoulli_recursive"),
    "beta_explicit": ("carlitz", "q_bernoulli_explicit"),
    "theta": ("functionals", "theta_moment"),
    "xi": ("functionals", "xi_moment"),
}


def _prefix(spec: dict) -> list:
    import qhankel

    mod, name = _SEQ_FNS[spec["seq"]]
    fn = getattr(getattr(qhankel, mod), name)
    indices = range(spec.get("first", 0), spec["top"] + 1)
    if "ell" in spec:
        return [fn(spec["ell"], n) for n in indices]
    return [fn(n) for n in indices]


def _run_cli(argv: list, main) -> tuple:
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def run_op(op: dict, tracer=None):
    """Run one op; return (seconds, error or None, checkable result)."""
    from qhankel import hankel

    kind = op["kind"]
    if kind == "cli":
        from qhankel import cli

        main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.self")
        fn = lambda: _run_cli(op["argv"], main)  # noqa: E731
    elif kind == "seq":
        fn = lambda: _prefix(op)  # noqa: E731
    elif kind == "jfrac_from_moments":
        fn = lambda: hankel.jfraction_from_moments(_prefix(op))  # noqa: E731
    elif kind == "jfrac_expand":
        maker = hankel.jfraction_for_eps if op["seq"] == "eps" else hankel.jfraction_for_xi
        fn = lambda: hankel.jfraction_expand(maker(op["ell"]), op["order"])  # noqa: E731
    elif kind == "check":
        from qhankel import verification

        fn = lambda: verification.run_checks(op["max_n"], only=op["name"])  # noqa: E731
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    if tracer is not None:
        fn = tracer.wrap(fn, f"op.{kind}")
    t = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # one failing op must not hide the others
        return time.perf_counter() - t, f"{type(exc).__name__}: {exc}", None
    seconds = time.perf_counter() - t
    if kind == "cli":
        code, text = out
        return seconds, (None if code in (0, None) else f"exit {code}"), text
    if kind == "seq":
        return seconds, None, [_dump(v) for v in out]
    if kind == "jfrac_from_moments":
        return seconds, None, {"mu0": _dump(out.mu0), "a": [_dump(v) for v in out.a_list],
                               "b": [_dump(v) for v in out.b_list]}
    if kind == "jfrac_expand":
        return seconds, None, [_dump(v) for v in out]
    return seconds, None, [{"name": r.name, "passed": r.passed, "cases": r.cases}
                           for r in out]


def _expand(ops: list) -> list:
    """A verify pass becomes one check op per registered name, in order."""
    out = []
    for op in ops:
        if op["kind"] == "verify_pass":
            from qhankel.verification import available_checks

            out += [{"kind": "check", "name": n, "max_n": op["max_n"]}
                    for n in available_checks()]
        else:
            out.append(op)
    return out


def peak_rss_kb() -> int:
    """This process's own peak RSS.  ru_maxrss is not used: Linux carries it
    across exec, so it would include the parent's size at the fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list) -> int:
    ops = json.loads(argv[0])
    traced = "--trace" in argv[1:]
    import qhankel  # noqa: F401

    kinds = {op["kind"] for op in ops}
    if "cli" in kinds:
        import qhankel.cli  # noqa: F401
    if kinds & {"verify_pass", "check"}:
        import qhankel.verification  # noqa: F401
    ops = _expand(ops)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        extra = {}
        if "qhankel.verification" in sys.modules:
            checks = sys.modules["qhankel.verification"].CHECKS
            extra = {f"verification.{n}": [(checks, n)] for n in checks}
        tracer.install(extra)
    report = []
    for op in ops:
        seconds, error, result = run_op(op, tracer)
        report.append({"op": op, "op_s": seconds, "error": error, "result": result})
    payload = {
        "ops": report,
        "rss_kb": peak_rss_kb(),
        "trace": None if tracer is None else tracer.report(),
    }
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
