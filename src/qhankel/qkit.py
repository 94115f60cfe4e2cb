"""q-integers, q-binomials, q-Pochhammer symbols and terminating q-series.

Everything returns :class:`~qhankel.ratcore.RatFuncQ`, so downstream code can
mix these building blocks freely without worrying about normal forms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

from .ratcore import Q, Q_ONE, Q_ZERO, QPoly, RatFuncQ, const, qpow


class VanishingPochhammerError(ArithmeticError):
    """A Pochhammer factor in a series denominator is zero; ``k`` says where."""

    def __init__(self, k: int) -> None:
        self.k = k
        super().__init__(f"denominator Pochhammer vanishes at term k = {k}")


def parity_sign(k: int) -> int:
    """(-1)**k; the single place sign factors come from."""
    return -1 if k & 1 else 1


def q_int(m: int) -> RatFuncQ:
    """[m]_q = (1 - q^m)/(1 - q) for any integer m."""
    if m >= 0:
        return RatFuncQ(QPoly((1,) * m))
    # [m]_q = -(1 + q + ... + q^{|m|-1}) / q^{|m|}
    return RatFuncQ(QPoly((-1,) * (-m)), QPoly.q_power(-m))


@lru_cache(maxsize=None)
def q_factorial(m: int) -> RatFuncQ:
    """[m]_q! = [1]_q [2]_q ... [m]_q."""
    if m < 0:
        raise ValueError("q_factorial wants m >= 0")
    if m == 0:
        return Q_ONE
    return q_factorial(m - 1) * q_int(m)


@lru_cache(maxsize=None)
def q_binom(m: int, n: int) -> RatFuncQ:
    """Gaussian binomial [m choose n]_q; zero outside 0 <= n <= m."""
    if n < 0 or m < 0 or n > m:
        return Q_ZERO
    return q_factorial(m) / (q_factorial(n) * q_factorial(m - n))


@lru_cache(maxsize=None)
def poch(base: Union[RatFuncQ, int], length: int) -> RatFuncQ:
    """(base; q)_length = prod_{k<length} (1 - base*q^k)."""
    if length < 0:
        raise ValueError("poch length must be >= 0")
    out = Q_ONE
    for k in range(length):
        out = out * (Q_ONE - base * qpow(k))
    return out


def q_hyper_terminating(
    num_params: Sequence[RatFuncQ],
    den_params: Sequence[RatFuncQ],
    arg: RatFuncQ,
    terms: int,
) -> RatFuncQ:
    """Sum_{k=0}^{terms} of the basic hypergeometric term ratio.

    The term at k is  prod_i (a_i;q)_k * arg^k / ((q;q)_k prod_j (b_j;q)_k).
    The caller picks ``terms``; a terminating numerator parameter q^{-n}
    makes everything past k = n vanish.  A vanishing denominator factor
    raises :class:`VanishingPochhammerError` naming the term where it enters.
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    total = Q_ZERO
    num_prod = Q_ONE
    den_prod = Q_ONE
    arg_pow = Q_ONE
    for k in range(terms + 1):
        if k:
            qk1 = qpow(k - 1)
            for a in num_params:
                num_prod = num_prod * (Q_ONE - a * qk1)
            factor = Q_ONE - qpow(k)  # the (q;q)_k piece, never zero for k >= 1
            for b in den_params:
                piece = Q_ONE - b * qk1
                if piece.is_zero:
                    raise VanishingPochhammerError(k)
                factor = factor * piece
            den_prod = den_prod * factor
            arg_pow = arg_pow * arg
        total = total + num_prod * arg_pow / den_prod
    return total


def verify_q_chu_vandermonde(a: RatFuncQ, c: RatFuncQ, n: int) -> bool:
    """Check 2phi1(a, q^{-n}; c; q, q) against its closed product form.

    For a = 0 the right side is the limit of a^n (c/a; q)_n / (c; q)_n,
    which collapses to (-1)^n c^n q^(n(n-1)/2) / (c; q)_n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lhs = q_hyper_terminating([a, qpow(-n)], [c], Q, n)
    cn = poch(c, n)
    if a.is_zero:
        rhs = const(parity_sign(n)) * c ** n * qpow(n * (n - 1) // 2) / cn
    else:
        rhs = a ** n * poch(c / a, n) / cn
    return lhs == rhs
