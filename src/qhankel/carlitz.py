"""Carlitz q-Euler and q-Bernoulli numbers, each by two independent routes.

The explicit binomial sums and the defining recursions share no formula on
purpose: agreement between them is one of the library's standing checks
(`carlitz-consistency`), and a formula shared by both would pass it however
wrong it was.  What they share is arithmetic: ``ratcore`` (``RatFuncQ`` and
its certified gcd) and the binomial step: multiplying an integer polynomial
by 1 +- q^m in one linear pass (``ratcore.mul_binomial``, or a shift of its
packed integer).  Neither route reads the other's values, denominators or
memo.

**The recursions in Z[q].**  Carlitz's recursion for epsilon_n,

    sum_{k<=n} C(n,k) q^{k+1} eps_k + eps_n = 0,

solves to eps_n (1 + q^{n+1}) = -sum_{k<n} C(n,k) q^{k+1} eps_k, so eps_n
has the denominator M_n = prod_{m=2}^{n+1} (1 + q^m) before reduction.  With
E_n = eps_n M_n and M_{n-1} / M_k = prod_{m=k+2}^{n} (1 + q^m),

    E_n = -sum_{k<n} C(n,k) q^{k+1} E_k prod_{m=k+2}^{n} (1 + q^m),

an identity in Z[q].  Horner's rule evaluates the sum from k = 0 up:

    S <- S (1 + q^{k+1}) + C(n,k) q^{k+1} E_k,    k = 0, ..., n-1,

since term k is multiplied exactly by the factors of the later steps,
m = k+2, ..., n.  Each step is one binomial multiply and one shifted add;
no step takes a gcd.  For beta_n the recursion
sum_{k<=n} C(n,k) q^{k+1} beta_k - beta_n = [n = 1] solves to
beta_n (1 - q^{n+1}) = sum_{k<n} C(n,k) q^{k+1} beta_k - [n = 1].  With
D_n = prod_{m=2}^{n+1} (1 - q^m) and B_n = beta_n D_n the same steps run with
1 - q^{k+1}, and B_n = S - [n = 1] D_{n-1}, where D_0 = 1.  Each served
value is one certified reduction RatFuncQ(E_n, M_n) or RatFuncQ(B_n, D_n).

The pass runs on integers.  At x = 256^w a polynomial P becomes the integer
P(x) (``ratcore._pack``), multiplying by 1 +- q^m becomes P(x) +- P(x) x^m,
a shift, and a whole step is S(x) += (+-S(x) + C(n,k) E_k(x)) x^{k+1}.
Evaluation at x is a ring homomorphism, so S(x) is exact however the digits
carry; ``ratcore._unpack`` reads back the coefficients of S, which is right
when each of them is below x/2 in absolute value.  Every 1 +- q^m has
1-norm 2, so |S|_inf <= sum_{k<n} C(n,k) |E_k|_1 2^{n-k-1}, and w is taken
from that bound: the read-back needs no further check.  The memos hold each
E_n as the tuple (E_n(x), w, length, |E_n|_1) at the narrowest w that holds
its coefficients; one integer per entry takes far less memory than one
object per coefficient.

**The epsilon sum in Z[q].**  In eps_n = (1-q)^{-n} sum_k (-1)^k C(n,k)
(1+q) / (1+q^{k+1}) the k = 0 term is 1 and the others have the
denominators 1 + q^m, m = 2..n+1, so the sum is N / M_n with
N = M_n + (1+q) U_n and U_n = sum_{k=1}^{n} (-1)^k C(n,k) M_n / (1+q^{k+1}).
Horner's rule over the prefix products M_{j-1} gives

    U_j = U_{j-1} (1 + q^{j+1}) + (-1)^j C(n,j) M_{j-1},    j = 1, ..., n.

Then 1 - q is divided out of N as often as it divides, up to n times: the
quotient's coefficients are the prefix sums of N's, and the division is
exact exactly when the last of them, N(1), is 0.  The factors that do not
divide stay in the denominator (on every n tried, all n divide), and one
reduction of N / (M_n (1-q)^r) serves the value.  The beta sum stays on
RatFuncQ: its Z[q] form was slower over prod (1 - q^m) and barely faster
over the lcm of its denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb
from operator import add
from typing import Callable, Sequence

from .qkit import parity_sign, q_int
from .ratcore import Q_ONE, QPoly, RatFuncQ, _pack, _unpack, const, mul_binomial, qpow


def _add_scaled(a: Sequence[int], b: int, x: Sequence[int]) -> list:
    """a + b x on coefficient sequences."""
    bx = [b * c for c in x]
    return list(map(add, a, bx)) + list(a[len(bx):] or bx[len(a):])


def _stripped(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _binomial_product(n: int, sign: int) -> tuple:
    """prod_{m=2}^{n+1} (1 + sign q^m)."""
    p = (1,)
    for m in range(2, n + 2):
        p = mul_binomial(p, m, sign)
    return p


def q_euler_explicit(n: int) -> RatFuncQ:
    """epsilon_n from the alternating binomial sum over (1+q)/(1+q^{k+1})."""
    if n < 0:
        raise ValueError("n must be >= 0")
    u, prefix = (), (1,)
    for j in range(1, n + 1):
        u = _add_scaled(mul_binomial(u, j + 1, 1), parity_sign(j) * comb(n, j), prefix)
        prefix = mul_binomial(prefix, j + 1, 1)
    num = _stripped(_add_scaled(prefix, 1, mul_binomial(u, 1, 1)))
    left = n
    while left:
        sums = list(accumulate(num))
        if sums[-1]:
            break
        num, left = sums[:-1], left - 1
    den = prefix
    for _ in range(left):
        den = mul_binomial(den, 1, -1)
    return RatFuncQ(QPoly(num), QPoly(den))


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


def _packed(coeffs: list) -> tuple:
    """(c(x), w, len c, |c|_1) for c without trailing zeros, at the smallest
    x = 256**w whose balanced digits hold every coefficient."""
    c = _stripped(coeffs)
    width = (2 * max(map(abs, c), default=0)).bit_length() // 8 + 1
    return _pack(c, width), width, len(c), sum(map(abs, c))


def _horner_tail(scaled: Callable[[int], tuple], n: int, sign: int) -> list:
    """Coefficients of sum_{k<n} C(n,k) q^{k+1} X_k prod_{m=k+2}^{n}
    (1 + sign q^m) for the packed X_k = scaled(k), asked for with k
    ascending; the pass runs on integers at a width the 1-norm bound sets."""
    parts = [scaled(k) for k in range(n)]
    bound = sum(comb(n, k) * l1 << (n - k - 1) for k, (_, _, _, l1) in enumerate(parts))
    width = (2 * bound).bit_length() // 8 + 1
    length = max(k + 1 + size + (n * (n + 1) - (k + 1) * (k + 2)) // 2
                 for k, (_, _, size, _) in enumerate(parts))
    acc = 0
    for k, (value, w, size, _) in enumerate(parts):
        if w != width:
            value = _pack(_unpack(value, w, size), width)
        acc += (sign * acc + comb(n, k) * value) << (8 * width * (k + 1))
    return _unpack(acc, width, length)


# Each memo asks for entries 0..n-1 in ascending order, so each entry it
# needs is already there: a cold call recurses one level deep.  The served
# memos do the same, so after any call they hold the whole prefix 0..n, each
# entry reduced once.
@cache
def _euler_scaled(n: int) -> tuple:
    """E_n = eps_n * prod_{m=2}^{n+1} (1 + q^m) in Z[q], packed."""
    if n == 0:
        return _packed([1])
    return _packed([-c for c in _horner_tail(_euler_scaled, n, 1)])


@cache
def _bernoulli_scaled(n: int) -> tuple:
    """B_n = beta_n * prod_{m=2}^{n+1} (1 - q^m) in Z[q], packed."""
    if n == 0:
        return _packed([1])
    s = _horner_tail(_bernoulli_scaled, n, -1)
    if n == 1:
        s[0] -= 1
    return _packed(s)


def _served(scaled: tuple, den: tuple) -> RatFuncQ:
    """The packed scaled numerator over its product, by one certified gcd."""
    value, width, size, _ = scaled
    return RatFuncQ(QPoly(_unpack(value, width, size)), QPoly(den))


@cache
def q_euler_recursive(n: int) -> RatFuncQ:
    """epsilon_n by solving sum_k C(n,k) q^{k+1} eps_k + eps_n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for k in range(n):
        q_euler_recursive(k)
    return _served(_euler_scaled(n), _binomial_product(n, 1))


@cache
def q_bernoulli_recursive(n: int) -> RatFuncQ:
    """beta_n by solving sum_k C(n,k) q^{k+1} beta_k - beta_n = [n == 1]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for k in range(n):
        q_bernoulli_recursive(k)
    return _served(_bernoulli_scaled(n), _binomial_product(n, -1))


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
