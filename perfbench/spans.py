"""Spans around the public functions of each ``qhankel`` layer.

The program is not edited: :func:`install` replaces each traced function, in
every ``qhankel`` module namespace and module-level dict that refers to it,
with a wrapper that records a span.  A span has a name, a start, an end and a
parent; its self time is its duration minus the time its child spans cover.

Coarse spans (a moment sequence entry, a determinant route, a check) are
kept one by one.  The ratcore arithmetic spans run tens of thousands of
times per round, so they are aggregated where they happen: calls, total and
self time per (name, nearest kept ancestor).  Everything stays in memory
until :meth:`Tracer.report`.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# metric name -> (module, attribute path) of every function it covers
SPANS: Dict[str, List[Tuple[str, str]]] = {
    "ratcore.exact_div": [("qhankel.ratcore", "QPoly.exact_div")],
    "ratcore.qpoly_mul": [("qhankel.ratcore", "QPoly.__mul__")],
    "ratcore.ratfunc_add": [
        ("qhankel.ratcore", "RatFuncQ.__add__"),
        ("qhankel.ratcore", "RatFuncQ.__radd__"),
    ],
    "ratcore.ratfunc_mul": [
        ("qhankel.ratcore", "RatFuncQ.__mul__"),
        ("qhankel.ratcore", "RatFuncQ.__rmul__"),
    ],
    "ratcore.ratfunc_new": [("qhankel.ratcore", "RatFuncQ.__init__")],
    "ratcore.gcd": [("qhankel.ratcore", "_gcd_full"), ("qhankel.ratcore", "poly_gcd")],
    "qkit.poch": [("qhankel.qkit", "poch"), ("qhankel.qkit", "q_pochhammer")],
    "carlitz.eps_recursive": [("qhankel.carlitz", "q_euler_recursive")],
    "carlitz.eps_explicit": [("qhankel.carlitz", "q_euler_explicit")],
    "carlitz.beta_recursive": [("qhankel.carlitz", "q_bernoulli_recursive")],
    "carlitz.beta_explicit": [("qhankel.carlitz", "q_bernoulli_explicit")],
    "functionals.theta_moment": [("qhankel.functionals", "theta_moment")],
    "functionals.xi_moment": [("qhankel.functionals", "xi_moment")],
    "functionals.diagonal_basis": [
        ("qhankel.functionals", "to_diagonal_basis"),
        ("qhankel.functionals", "from_diagonal_basis"),
        ("qhankel.functionals", "qbinom_basis"),
    ],
    "functionals.orthogonality": [
        ("qhankel.functionals", "verify_orthogonality"),
        ("qhankel.functionals", "apply_functional"),
    ],
    "orthopoly.three_term_build": [("qhankel.orthopoly", "three_term_build")],
    "orthopoly.series_family": [
        ("qhankel.orthopoly", "build_j_via_phi2"),
        ("qhankel.orthopoly", "build_jtilde_via_phi2"),
        ("qhankel.orthopoly", "build_p_via_phi2"),
    ],
    "orthopoly.coeffs": [
        ("qhankel.orthopoly", "coeffs_ab"),
        ("qhankel.orthopoly", "coeffs_monic"),
        ("qhankel.orthopoly", "coeffs_p"),
    ],
    "hankel.det_exact": [("qhankel.hankel", "det_exact")],
    "hankel.closed_form": [
        ("qhankel.hankel", "closed_form_theorem1"),
        ("qhankel.hankel", "closed_form_chapoton_zeng"),
        ("qhankel.hankel", "closed_form_theta_det"),
        ("qhankel.hankel", "closed_form_xi_det"),
    ],
    "hankel.recurrence": [
        ("qhankel.hankel", "det_heilermann"),
        ("qhankel.hankel", "det_shifted_via_favard"),
    ],
    "hankel.jfraction_from_moments": [("qhankel.hankel", "jfraction_from_moments")],
    "hankel.jfraction_expand": [("qhankel.hankel", "jfraction_expand")],
}

# Aggregated in place instead of kept one by one; their results are sized.
LEAVES = frozenset(
    ["ratcore.exact_div", "ratcore.qpoly_mul", "ratcore.ratfunc_add",
     "ratcore.ratfunc_mul", "ratcore.ratfunc_new", "ratcore.gcd"]
)
_SIZED = frozenset(["ratcore.ratfunc_add", "ratcore.ratfunc_mul", "ratcore.ratfunc_new"])


def _coeff_bits(coeffs: tuple) -> int:
    return max(max(coeffs), -min(coeffs)).bit_length() if coeffs else 0


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        # open frames: [start, child_s, anchor span id]
        self.stack: List[list] = []
        # kept spans: (id, name, start, end, parent id, self_s)
        self.spans: List[tuple] = []
        # (name, anchor id) -> [calls, total_s, self_s]
        self.leaves: Dict[Tuple[str, int], list] = {}
        self.max_degree = 0
        self.max_bits = 0
        self.missing: List[str] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        clock = time.perf_counter
        stack = self.stack
        if name in LEAVES:
            leaves = self.leaves
            sized = name in _SIZED
            is_init = fn.__name__ == "__init__"

            def leaf(*args, **kwargs):
                t = clock()
                anchor = stack[-1][2] if stack else -1
                frame = [t, 0.0, anchor]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    rec = leaves.get((name, anchor))
                    if rec is None:
                        leaves[(name, anchor)] = [1, dur, dur - frame[1]]
                    else:
                        rec[0] += 1
                        rec[1] += dur
                        rec[2] += dur - frame[1]
                if sized:
                    self._size(args[0] if is_init else result)
                return result

            return leaf

        spans = self.spans

        def kept(*args, **kwargs):
            t = clock()
            parent = stack[-1][2] if stack else -1
            span_id = len(spans)
            spans.append(None)  # reserve the id in call order
            frame = [t, 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - t
                if stack:
                    stack[-1][1] += dur
                spans[span_id] = (span_id, name, t, end, parent, dur - frame[1])

        return kept

    def _size(self, value) -> None:
        if not hasattr(value, "num"):  # NotImplemented from a reflected operator
            return
        num, den = value.num.coeffs, value.den.coeffs
        deg = max(len(num), len(den)) - 1
        if deg > self.max_degree:
            self.max_degree = deg
        bits = max(_coeff_bits(num), _coeff_bits(den))
        if bits > self.max_bits:
            self.max_bits = bits

    def install(self, extra: Optional[Dict[str, List[Tuple[object, str]]]] = None) -> None:
        """Wrap every function named in SPANS, wherever qhankel refers to it.

        ``extra`` maps further span names to (dict, key) places to wrap, such
        as the verification registry.  A function the program no longer has
        is noted in ``missing`` and left out.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "qhankel" or n.startswith("qhankel.")) and m is not None]
        for name, places in SPANS.items():
            for mod_name, path in places:
                owner = sys.modules.get(mod_name)
                attr, _, method = path.partition(".")
                target = getattr(owner, attr, None)
                if method:
                    original = getattr(target, method, None) if isinstance(target, type) else None
                    if original is None:
                        self.missing.append(f"{mod_name}.{path}")
                        continue
                    setattr(target, method, self.wrap(original, name))
                    continue
                if target is None:
                    self.missing.append(f"{mod_name}.{path}")
                    continue
                wrapper = self.wrap(target, name)
                for mod in modules:
                    space = vars(mod)
                    for key, value in list(space.items()):
                        if key.startswith("__"):
                            continue
                        if value is target:
                            space[key] = wrapper
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is target:
                                    value[k] = wrapper
        for name, places in (extra or {}).items():
            for holder, key in places:
                holder[key] = self.wrap(holder[key], name)

    def report(self) -> dict:
        """Per-name totals plus every kept span and aggregated leaf."""
        totals: Dict[str, list] = {}
        for _, name, start, end, _, self_s in self.spans:
            rec = totals.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += self_s
        for (name, _), (calls, total_s, self_s) in self.leaves.items():
            rec = totals.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total_s
            rec[2] += self_s
        return {
            "totals": totals,
            "max_degree": self.max_degree,
            "max_bits": self.max_bits,
            "missing": self.missing,
            "spans": [[i, n, s - self.t0, e - self.t0, p, x] for i, n, s, e, p, x in self.spans],
            "leaves": [[n, a, c, t, x] for (n, a), (c, t, x) in self.leaves.items()],
        }
