"""Carlitz q-Euler and q-Bernoulli numbers, each by two independent routes.

The explicit binomial sums and the defining recursions share no code on
purpose: agreement between them is one of the library's standing checks.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from typing import Callable, List

from .qkit import parity_sign, q_int
from .ratcore import Q_ONE, RatFuncQ, const, qpow


class MomentSeq:
    """Lazily extended sequence of exact values; computed entries never change."""

    def __init__(self, seq_id: str, fn: Callable[[int], RatFuncQ]) -> None:
        self.id = seq_id
        self._fn = fn
        self._values: List[RatFuncQ] = []
        # Extension reads the length, computes, then appends; callers sharing
        # one sequence across threads must not interleave those steps.
        self._lock = threading.Lock()

    def value(self, n: int) -> RatFuncQ:
        if n < 0:
            raise ValueError("sequence index must be >= 0")
        with self._lock:
            while len(self._values) <= n:
                self._values.append(self._fn(len(self._values)))
        return self._values[n]

    def prefix(self, n: int) -> List[RatFuncQ]:
        """Values 0..n inclusive."""
        self.value(n)
        return list(self._values[: n + 1])

    def __repr__(self) -> str:
        return f"MomentSeq({self.id!r}, {len(self._values)} cached)"


def q_euler_explicit(n: int) -> RatFuncQ:
    """epsilon_n from the alternating binomial sum over (1+q)/(1+q^{k+1})."""
    if n < 0:
        raise ValueError("n must be >= 0")
    one_plus_q = Q_ONE + qpow(1)
    total = sum(
        (const(parity_sign(k) * comb(n, k)) * one_plus_q / (Q_ONE + qpow(k + 1))
         for k in range(n + 1)),
        start=const(0),
    )
    return total / (Q_ONE - qpow(1)) ** n


def q_bernoulli_explicit(n: int) -> RatFuncQ:
    """beta_n from the alternating binomial sum over (k+1)/[k+1]_q."""
    if n < 0:
        raise ValueError("n must be >= 0")
    total = sum(
        (const(parity_sign(k) * comb(n, k) * (k + 1)) / q_int(k + 1)
         for k in range(n + 1)),
        start=const(0),
    )
    return total / (Q_ONE - qpow(1)) ** n


_EULER_CACHE: List[RatFuncQ] = []
_BERNOULLI_CACHE: List[RatFuncQ] = []
# Extending a cache reads its length and then appends; two threads doing that
# at once would store entries at the wrong index.
_CACHE_LOCK = threading.Lock()


def q_euler_recursive(n: int) -> RatFuncQ:
    """epsilon_n by solving sum_k C(n,k) q^{k+1} eps_k + eps_n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _CACHE_LOCK:
        while len(_EULER_CACHE) <= n:
            m = len(_EULER_CACHE)
            if m == 0:
                _EULER_CACHE.append(Q_ONE)
                continue
            acc = const(0)
            for k in range(m):
                acc = acc + const(comb(m, k)) * qpow(k + 1) * _EULER_CACHE[k]
            _EULER_CACHE.append(-acc / (Q_ONE + qpow(m + 1)))
    return _EULER_CACHE[n]


def q_bernoulli_recursive(n: int) -> RatFuncQ:
    """beta_n by solving sum_k C(n,k) q^{k+1} beta_k - beta_n = [n == 1]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _CACHE_LOCK:
        while len(_BERNOULLI_CACHE) <= n:
            m = len(_BERNOULLI_CACHE)
            if m == 0:
                _BERNOULLI_CACHE.append(Q_ONE)
                continue
            rhs = Q_ONE if m == 1 else const(0)
            acc = const(0)
            for k in range(m):
                acc = acc + const(comb(m, k)) * qpow(k + 1) * _BERNOULLI_CACHE[k]
            _BERNOULLI_CACHE.append((rhs - acc) / (qpow(m + 1) - Q_ONE))
    return _BERNOULLI_CACHE[n]


def q_euler_seq() -> MomentSeq:
    return MomentSeq("qeuler", q_euler_recursive)


def q_bernoulli_seq() -> MomentSeq:
    return MomentSeq("qbernoulli", q_bernoulli_recursive)


_LIMIT_FNS = {
    "qeuler": q_euler_recursive,
    "qbernoulli": q_bernoulli_recursive,
}


def limit_q1(seq_id: str, n: int) -> Fraction:
    """Value of the n-th sequence entry at q = 1 (always finite here)."""
    try:
        fn = _LIMIT_FNS[seq_id]
    except KeyError:
        raise ValueError(f"unknown sequence {seq_id!r}") from None
    return fn(n).eval_at(Fraction(1))
