"""Carlitz q-Euler and q-Bernoulli numbers, each by two independent routes.

The explicit binomial sums and the defining recursions share no code on
purpose: agreement between them is one of the library's standing checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from typing import Callable

from .qkit import parity_sign, q_int
from .ratcore import Q_ONE, RatFuncQ, const, qpow


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


def _binomial_tail(x: Callable[[int], RatFuncQ], n: int) -> RatFuncQ:
    """sum_{k<n} C(n,k) q^{k+1} x(k), asking for x(k) with k ascending."""
    acc = const(0)
    for k in range(n):
        acc = acc + const(comb(n, k)) * qpow(k + 1) * x(k)
    return acc


# Both recursions ask for entries 0..n-1 in ascending order, so each entry
# they need is already in the memo: a cold call recurses one level deep.
@cache
def q_euler_recursive(n: int) -> RatFuncQ:
    """epsilon_n by solving sum_k C(n,k) q^{k+1} eps_k + eps_n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Q_ONE
    return -_binomial_tail(q_euler_recursive, n) / (Q_ONE + qpow(n + 1))


@cache
def q_bernoulli_recursive(n: int) -> RatFuncQ:
    """beta_n by solving sum_k C(n,k) q^{k+1} beta_k - beta_n = [n == 1]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Q_ONE
    rhs = Q_ONE if n == 1 else const(0)
    return (rhs - _binomial_tail(q_bernoulli_recursive, n)) / (qpow(n + 1) - Q_ONE)


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
