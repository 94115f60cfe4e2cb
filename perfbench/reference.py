"""Exact-rational oracle for the benchmark, sharing no code with ``qhankel``.

Every value is a ``fractions.Fraction`` at one rational point q.  Each
quantity is computed from its definition, by a route the library does not
use for the same quantity:

* eps and beta from their defining recursions (at q = 1, beta from the
  classical Bernoulli recursion, since the q-recursion divides by q - 1);
* xi_ell from the product (-q;q)_n q^{(ell+1)n} / (-q^{ell+2};q)_n;
* theta_ell from the paper's J-fraction coefficients a(n), b(n), applied
  through the Jacobi operator (the library reaches theta through the
  q-binomial diagonal basis);
* Hankel determinants by Gaussian elimination over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple

ONE = Fraction(1)


def eps(q: Fraction, top: int) -> List[Fraction]:
    """eps_0..eps_top from sum_{k<m} C(m,k) q^{k+1} eps_k + (1 + q^{m+1}) eps_m = 0."""
    out = [ONE]
    for m in range(1, top + 1):
        acc = sum(comb(m, k) * q ** (k + 1) * out[k] for k in range(m))
        out.append(-acc / (1 + q ** (m + 1)))
    return out


def beta(q: Fraction, top: int) -> List[Fraction]:
    """beta_0..beta_top from sum_{k<m} C(m,k) q^{k+1} beta_k + (q^{m+1} - 1) beta_m = [m == 1]."""
    if q == 1:
        return bernoulli(top)
    out = [ONE]
    for m in range(1, top + 1):
        acc = sum(comb(m, k) * q ** (k + 1) * out[k] for k in range(m))
        out.append(((1 if m == 1 else 0) - acc) / (q ** (m + 1) - 1))
    return out


def bernoulli(top: int) -> List[Fraction]:
    """Classical B_0..B_top with B_1 = -1/2: sum_{k<=j} C(j+1,k) B_k = 0 for j >= 1."""
    out = [ONE]
    for j in range(1, top + 1):
        out.append(-sum(comb(j + 1, k) * out[k] for k in range(j)) / (j + 1))
    return out


def _poch(base: Fraction, q: Fraction, n: int) -> Fraction:
    out = ONE
    for k in range(n):
        out *= 1 - base * q ** k
    return out


def xi(q: Fraction, ell: int, top: int) -> List[Fraction]:
    """xi_{ell,0..top} from the product formula."""
    return [
        q ** ((ell + 1) * n) * _poch(-q, q, n) / _poch(-q ** (ell + 2), q, n)
        for n in range(top + 1)
    ]


def theta_coeffs(q: Fraction, ell: int, n: int) -> Tuple[Fraction, Fraction]:
    """The paper's (a(n), b(n)) for theta_ell, in the convention
    p_{n+1} = (z + a(n)) p_n - b(n) p_{n-1}."""
    a = q ** (2 * n + ell) * (1 + q) * (1 + q ** ell) / (
        (1 - q) * (1 + q ** (2 * n + ell)) * (1 + q ** (2 * n + ell + 2))
    ) - 1 / (1 - q)
    if n == 0:
        return a, Fraction(0)
    b = -q ** (2 * n + 2 * ell - 1) * (1 - q ** (2 * n)) * (1 - q ** (2 * n + 2 * ell)) / (
        (1 - q) ** 2
        * (1 + q ** (2 * n + ell - 1))
        * (1 + q ** (2 * n + ell)) ** 2
        * (1 + q ** (2 * n + ell + 1))
    )
    return a, b


def jacobi_moments(
    mu0: Fraction, a: Sequence[Fraction], b: Sequence[Fraction], top: int
) -> List[Fraction]:
    """mu_0..mu_top of the functional whose monic orthogonal polynomials satisfy
    p_{n+1} = (z + a[n]) p_n - b[n] p_{n-1}; ``b[0]`` is unused.

    z^k is tracked in the basis p_n: multiplying by z maps p_n to
    p_{n+1} - a[n] p_n + b[n] p_{n-1}, and the functional keeps only the
    p_0 coordinate.  A coordinate above top//2 cannot get back to p_0 within
    the remaining steps, so a[0..top//2] and b[1..top//2] suffice.
    """
    width = top // 2 + 1
    if len(a) < width or len(b) < width:
        raise ValueError(f"need {width} recurrence terms for {top + 1} moments")
    zero = Fraction(0)
    c = [ONE] + [zero] * (width - 1)
    out = [mu0]
    for _ in range(top):
        c = [
            (c[n - 1] if n else zero)
            - a[n] * c[n]
            + (b[n + 1] * c[n + 1] if n + 1 < width else zero)
            for n in range(width)
        ]
        out.append(mu0 * c[0])
    return out


def theta(q: Fraction, ell: int, top: int) -> List[Fraction]:
    """theta_ell(z^0..z^top) through the Jacobi operator of the J-fraction."""
    pairs = [theta_coeffs(q, ell, n) for n in range(top // 2 + 1)]
    return jacobi_moments(ONE, [p[0] for p in pairs], [p[1] for p in pairs], top)


def det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [list(row) for row in matrix]
    n = len(m)
    out = ONE
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        p = m[k][k]
        out *= p
        for i in range(k + 1, n):
            f = m[i][k] / p
            if f:
                row_i, row_k = m[i], m[k]
                for j in range(k + 1, n):
                    row_i[j] -= f * row_k[j]
    return out


def hankel_det(seq: Sequence[Fraction], shift: int, n: int) -> Fraction:
    """det(seq[i + j + shift])_{i,j = 0..n}."""
    return det([[seq[i + j + shift] for j in range(n + 1)] for i in range(n + 1)])
