"""Carlitz q-Euler and q-Bernoulli numbers, each by two independent routes.

The explicit binomial sums and the defining recursions share no formula on
purpose: agreement between them is one of the library's standing checks
(`carlitz-consistency`), and a formula shared by both would pass it however
wrong it was.  What they share is arithmetic: ``ratcore`` (``RatFuncQ`` and
its certified gcd) and one Horner kernel in Z[q], ``_horner``.  Neither
route reads the other's values, denominators or memo.

**The kernel.**  Each route is a pass of steps

    S <- S (1 + s q^m) + c q^t X,    s = +1 or -1,

on integers: at x = 256^w a polynomial P becomes the integer P(x)
(``ratcore._pack``), multiplying by 1 + s q^m becomes P(x) + s P(x) x^m, a
shift, and the whole step is one shift-and-add.  Evaluation at x is a ring
homomorphism, so S(x) is exact however the digits carry; ``ratcore._digits``
reads back the coefficients of S, which is right when each of them is below
x/2 in absolute value.  Every 1 + s q^m has 1-norm 2, so a 1-norm bound on
the result, known before the pass, fixes w (``ratcore._width``): the
read-back needs no further check, and only the result is read back.  The
products prod_{m=2}^{n+1} (1 + s q^m), of 1-norm 2^n, are such passes too.

**The recursions.**  Carlitz's recursion for epsilon_n,

    sum_{k<=n} C(n,k) q^{k+1} eps_k + eps_n = 0,

solves to eps_n (1 + q^{n+1}) = -sum_{k<n} C(n,k) q^{k+1} eps_k, so eps_n
has the denominator M_n = prod_{m=2}^{n+1} (1 + q^m) before reduction.  With
E_n = eps_n M_n and M_{n-1} / M_k = prod_{m=k+2}^{n} (1 + q^m),

    E_n = -sum_{k<n} C(n,k) q^{k+1} E_k prod_{m=k+2}^{n} (1 + q^m),

an identity in Z[q].  Horner's rule evaluates the sum from k = 0 up:

    S <- S (1 + q^{k+1}) + C(n,k) q^{k+1} E_k,    k = 0, ..., n-1,

since term k is multiplied exactly by the factors of the later steps,
m = k+2, ..., n; no step takes a gcd.  For beta_n the recursion
sum_{k<=n} C(n,k) q^{k+1} beta_k - beta_n = [n = 1] solves to
beta_n (1 - q^{n+1}) = sum_{k<n} C(n,k) q^{k+1} beta_k - [n = 1].  With
D_n = prod_{m=2}^{n+1} (1 - q^m) and B_n = beta_n D_n the same steps run with
1 - q^{k+1}, and B_n = S - [n = 1] D_{n-1}, where D_0 = 1.  Each served
value is one certified reduction RatFuncQ(E_n, M_n) or RatFuncQ(B_n, D_n).
The bound is |S|_inf <= sum_{k<n} C(n,k) |E_k|_1 2^{n-k-1}.

The memos hold each E_n as the tuple (E_n(x), w, |E_n|_1) at the width of
the pass that made it; one integer per entry takes far less memory than one
object per coefficient.  A pass needs every earlier entry at its own
width, so pass widths are rounded up to a multiple of 8 bytes, and each
sequence keeps one copy of its prefix packed at the current width
(``_PASS_PREFIX``).  A pass extends the copy by the entries it lacks and
repacks the whole prefix only when its width grows, a few times up to
n = 60, instead of repacking nearly every earlier entry at every step.

**The sums.**  Since 1/[k+1]_q = (1-q)/(1-q^{k+1}), both explicit sums are

    (1-q)^{-n} sum_{k<=n} c_k (1 + s q) / (1 + s q^{k+1}),

with s = 1, c_k = (-1)^k C(n,k) for eps_n and s = -1,
c_k = (-1)^k C(n,k) (k+1) for beta_n.  The k = 0 term is c_0, and the others
have the denominators 1 + s q^m, m = 2..n+1, so with the prefix products
P_j = prod_{m=2}^{j+1} (1 + s q^m) the sum is N / P_n, where
N = c_0 P_n + (1 + s q) U_n and U_n = sum_{k=1}^{n} c_k P_n / (1 + s q^{k+1}).
Horner's rule over the prefix products gives

    U_j = U_{j-1} (1 + s q^{j+1}) + c_j P_{j-1},    j = 1, ..., n,

and N is one more step, U_n (1 + s q) + c_0 P_n.  Since |P_j|_1 <= 2^j,
|N|_1 <= 2^n sum_k |c_k| bounds the pass.  Then 1 - q is divided out of N
as often as it divides, up to n times: the quotient's coefficients are the
prefix sums of N's, and the division is exact exactly when the last of them,
N(1), is 0.  The factors that do not divide stay in the denominator (for
both sums and every n <= 60, all n divide), and one reduction of
N / (P_n (1-q)^r) serves the value; the pass multiplies P_n by the r
factors 1 - q, at a width that also holds 2^{2n} >= |P_n (1-q)^r|_1.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import comb
from typing import Callable, Iterable

from .qkit import parity_sign
from .ratcore import QPoly, RatFuncQ, _digits, _pack, _width


def _horner(steps: Iterable[tuple], sign: int, width: int, acc: int = 0) -> int:
    """The packed S after S <- S (1 + sign q^m) + c q^t X for each step
    (m, c, t, X) in order, every polynomial packed at x = 256**width."""
    bits = 8 * width
    for m, c, t, x in steps:
        acc += (sign * acc << bits * m) + (c * x << bits * t)
    return acc


def _binomial_product(n: int, sign: int) -> list:
    """prod_{m=2}^{n+1} (1 + sign q^m), whose 1-norm is 2^n."""
    width = _width(1 << n)
    return _digits(_horner(((m, 0, 0, 0) for m in range(2, n + 2)), sign, width, 1), width)


def _alternating_sum(n: int, sign: int, weight: Callable[[int], int]) -> RatFuncQ:
    """(1-q)^{-n} sum_{k<=n} (-1)^k C(n,k) weight(k) (1 + sign q) / (1 + sign q^{k+1}),
    by one Horner pass over the prefix products P_j (module docstring)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    c = [parity_sign(k) * comb(n, k) * weight(k) for k in range(n + 1)]
    # |N|_1 <= 2^n sum |c_k|, and the denominator's 1-norm is at most 2^{2n}
    width = _width(max(sum(map(abs, c)), 1 << n) << n)
    prefix = [1]  # P_0..P_n, each step a multiply by 1 + sign q^m alone
    for m in range(2, n + 2):
        prefix.append(_horner([(m, 0, 0, 0)], sign, width, prefix[-1]))
    steps = [(j + 1, c[j], 0, prefix[j - 1]) for j in range(1, n + 1)]
    steps.append((1, c[0], 0, prefix[n]))
    num = _digits(_horner(steps, sign, width), width)
    left = n
    while left:
        sums = list(accumulate(num))
        if sums[-1]:
            break
        num, left = sums[:-1], left - 1
    den = _digits(_horner([(1, 0, 0, 0)] * left, -1, width, prefix[n]), width)
    return RatFuncQ(QPoly(num), QPoly(den))


def q_euler_explicit(n: int) -> RatFuncQ:
    """epsilon_n from the alternating binomial sum over (1+q)/(1+q^{k+1})."""
    return _alternating_sum(n, 1, lambda k: 1)


def q_bernoulli_explicit(n: int) -> RatFuncQ:
    """beta_n from the alternating binomial sum over (k+1)/[k+1]_q."""
    return _alternating_sum(n, -1, lambda k: k + 1)


def _scaled_entry(value: int, width: int) -> tuple:
    """(value, width, |c|_1) for the polynomial c packed as value at
    x = 256**width."""
    return value, width, sum(map(abs, _digits(value, width)))


# Widths of the recursion passes are multiples of this many bytes, so the
# shared prefix below is repacked only when a pass outgrows its width.
_GRID = 8
# For each scaled memo: (width, its entries 0..len-1 packed at that width).
# Each pair is replaced whole, never mutated, so concurrent passes read a
# consistent one; a pass that finds a stale or short pair still computes
# the same entries.
_PASS_PREFIX: dict = {}


def _horner_tail(scaled: Callable[[int], tuple], n: int, sign: int) -> tuple:
    """(S(x), w) for S = sum_{k<n} C(n,k) q^{k+1} X_k
    prod_{m=k+2}^{n} (1 + sign q^m), the packed X_k = scaled(k) asked for
    with k ascending, at x = 256**w."""
    parts = [scaled(k) for k in range(n)]
    bound = sum(comb(n, k) * l1 << (n - k - 1) for k, (_, _, l1) in enumerate(parts))
    width = -(-_width(bound) // _GRID) * _GRID
    have_width, have = _PASS_PREFIX.get(scaled, (0, ()))
    if width > have_width:
        have = ()
    else:
        width = have_width
    if len(have) < n:
        have += tuple(v if w == width else _pack(_digits(v, w), width)
                      for v, w, _ in parts[len(have):])
        _PASS_PREFIX[scaled] = width, have
    acc = _horner(((k + 1, comb(n, k), k + 1, have[k]) for k in range(n)), sign, width)
    return acc, width


# Each memo asks for entries 0..n-1 in ascending order, so each entry it
# needs is already there: a cold call recurses one level deep.  The served
# memos do the same, so after any call they hold the whole prefix 0..n, each
# entry reduced once.
@cache
def _euler_scaled(n: int) -> tuple:
    """E_n = eps_n * prod_{m=2}^{n+1} (1 + q^m) in Z[q], packed."""
    if n == 0:
        return 1, 1, 1
    acc, width = _horner_tail(_euler_scaled, n, 1)
    return _scaled_entry(-acc, width)


@cache
def _bernoulli_scaled(n: int) -> tuple:
    """B_n = beta_n * prod_{m=2}^{n+1} (1 - q^m) in Z[q], packed."""
    if n == 0:
        return 1, 1, 1
    acc, width = _horner_tail(_bernoulli_scaled, n, -1)
    return _scaled_entry(acc - (n == 1), width)


def _served(scaled: tuple, den: list) -> RatFuncQ:
    """The packed scaled numerator over its product, by one certified gcd."""
    value, width, _ = scaled
    return RatFuncQ(QPoly(_digits(value, width)), QPoly(den))


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
