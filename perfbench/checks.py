"""Correctness checks on what the program returned, run after timing.

Each value the program returned is evaluated at the run's seeded rational
q, and at q = 1 where the reference has a finite value there, and compared
with :mod:`reference`.  Nothing here compares against stored output.  Every
check returns a list of problems; an empty list means the op was correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import reference

_DET_ROUTES = {
    "qeuler": {"bruteforce", "closedform", "heilermann"},
    "qbernoulli": {"bruteforce", "closedform"},
}


def _poly_at(coeffs: Sequence[int], q: Fraction):
    """(b^d * p(a/b), b^d) for q = a/b, by integer Horner."""
    a, b = q.numerator, q.denominator
    acc = 0
    bpow = 1
    for c in reversed(coeffs):
        acc = acc * a + c * bpow
        bpow *= b
    return acc, bpow // b if coeffs else 1


def value_at(value: dict, q: Fraction) -> Optional[Fraction]:
    """A serialized rational function {"num": [...], "den": [...]} at q;
    None at a pole.  Coefficients are decimal or 0x-prefixed strings."""
    num = [int(c, 0) for c in value["num"]]
    den = [int(c, 0) for c in value["den"]]
    n_val, n_scale = _poly_at(num, q)
    d_val, d_scale = _poly_at(den, q)
    if d_val == 0:
        return None
    return Fraction(n_val * d_scale, d_val * n_scale)


class Oracle:
    """Reference values at one point, computed once per sequence and length."""

    def __init__(self, q: Fraction) -> None:
        self.q = q
        self._cache: Dict[tuple, List[Fraction]] = {}

    def seq(self, name: str, top: int, ell: int = 0) -> List[Fraction]:
        key = (name, ell)
        have = self._cache.get(key)
        if have is None or len(have) <= top:
            if name in ("eps", "beta"):
                have = getattr(reference, name)(self.q, top)
            else:
                have = getattr(reference, name)(self.q, ell, top)
            self._cache[key] = have
        return have[: top + 1]


def _compare(label: str, got: Sequence[dict], want: Sequence[Fraction], q: Fraction) -> List[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, expected {len(want)}"]
    problems = []
    for k, (g, w) in enumerate(zip(got, want)):
        v = value_at(g, q)
        if v != w:
            problems.append(f"{label}[{k}] at q={q}: got {v}, reference {w}")
    return problems


# seq names of the worker -> (reference sequence, defined at q = 1)
_SEQ_REFS = {
    "eps_recursive": ("eps", True),
    "eps_explicit": ("eps", True),
    "beta_recursive": ("beta", True),
    "beta_explicit": ("beta", True),
    "theta": ("theta", False),
    "xi": ("xi", True),
}


def _seq_ref(oracle: Oracle, op: dict, top: int) -> List[Fraction]:
    name, _ = _SEQ_REFS[op["seq"]]
    return oracle.seq(name, top, op.get("ell", 0))


def check_op(op: dict, result, oracles: Sequence[Oracle]) -> List[str]:
    """Problems with one op's result; ``oracles[0]`` is the seeded point,
    ``oracles[1]`` is q = 1."""
    kind = op["kind"]
    label = json.dumps(op, sort_keys=True)
    at_q, at_one = oracles
    if kind == "check":
        named = [r for r in result if r["name"] == op["name"]]
        if len(named) != 1:
            return [f"{label}: check {op['name']!r} ran {len(named)} times"]
        if not named[0]["passed"] or named[0]["cases"] < 1:
            return [f"{label}: did not pass ({named[0]})"]
        return []
    if kind == "cli":
        return _check_det(label, op, result, oracles)
    if kind == "seq":
        problems = _compare(label, result, _seq_ref(at_q, op, op["top"]), at_q.q)
        if _SEQ_REFS[op["seq"]][1]:
            problems += _compare(label, result, _seq_ref(at_one, op, op["top"]), at_one.q)
        return problems
    if kind == "jfrac_expand":
        ell, order = op["ell"], op["order"]
        problems = []
        for oracle in oracles:
            if op["seq"] == "eps":
                want = oracle.seq("eps", order + ell)[ell:]
            else:
                want = oracle.seq("xi", order, ell)
            problems += _compare(label, result, want, oracle.q)
        return problems
    if kind == "jfrac_from_moments":
        return _check_recovery(label, op, result, at_q)
    return [f"{label}: unknown op kind"]


def _check_recovery(label: str, op: dict, result: dict, oracle: Oracle) -> List[str]:
    """The recovered a, b must regenerate the moments through the Jacobi
    operator; for eps they must also be the paper's theta_0 coefficients."""
    q = oracle.q
    d = op["top"] // 2
    if len(result["a"]) != d or len(result["b"]) != d - 1:
        return [f"{label}: got {len(result['a'])} a and {len(result['b'])} b, expected {d}, {d - 1}"]
    mu0 = value_at(result["mu0"], q)
    a = [value_at(v, q) for v in result["a"]]
    b = [Fraction(0)] + [value_at(v, q) for v in result["b"]]
    if None in a or None in b or mu0 is None:
        return [f"{label}: pole at q={q}"]
    moments = _seq_ref(oracle, op, op["top"])
    problems = []
    if reference.jacobi_moments(mu0, a, b, 2 * d - 1) != moments[: 2 * d]:
        problems.append(f"{label}: recovered J-fraction does not regenerate the moments at q={q}")
    if op["seq"] == "eps_recursive":
        for n in range(d):
            ra, rb = reference.theta_coeffs(q, 0, n)
            if a[n] != ra or (n and b[n] != rb):
                problems.append(f"{label}: (a, b)[{n}] differ from the paper's at q={q}")
    return problems


def _check_det(label: str, op: dict, text: str, oracles: Sequence[Oracle]) -> List[str]:
    """`det --method all -f json`: routes all present, structurally equal,
    "equal": true, and each value equal to the Fraction determinant."""
    try:
        out = json.loads(text)
    except (TypeError, ValueError):
        return [f"{label}: output is not JSON"]
    seq, shift, n = op["seq"], op["shift"], op["n"]
    routes = out.get("results", {})
    problems = []
    if [out.get("seq"), out.get("shift"), out.get("n")] != [seq, shift, n]:
        problems.append(f"{label}: output is for {out.get('seq')} shift {out.get('shift')} n {out.get('n')}")
    if out.get("equal") is not True:
        problems.append(f"{label}: the CLI reports \"equal\": {out.get('equal')}")
    if set(routes) != _DET_ROUTES.get(seq, set()):
        problems.append(f"{label}: routes {sorted(routes)} for {seq}")
    if len({json.dumps(v, sort_keys=True) for v in routes.values()}) > 1:
        problems.append(f"{label}: routes differ structurally")
    ref_seq = "eps" if seq == "qeuler" else "beta"
    for oracle in oracles:
        want = reference.hankel_det(oracle.seq(ref_seq, 2 * n + shift), shift, n)
        for route, value in sorted(routes.items()):
            got = value_at(value, oracle.q)
            if got != want:
                problems.append(f"{label}: {route} at q={oracle.q} is {got}, reference {want}")
    return problems
