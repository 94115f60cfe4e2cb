"""The benchmark's exact-rational reference against classical values."""

from fractions import Fraction
from math import comb, factorial, prod

import reference as R


def test_eps_at_one_is_classical():
    want = [1, Fraction(-1, 2), 0, Fraction(1, 4), 0, Fraction(-1, 2), 0,
            Fraction(17, 8), 0, Fraction(-31, 2)]
    assert R.eps(Fraction(1), 9) == want


def test_beta_at_one_is_bernoulli():
    want = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42),
            0, Fraction(-1, 30), 0, Fraction(5, 66)]
    assert R.beta(Fraction(1), 10) == want


def test_theorem1_shift0_at_one():
    eps = R.eps(Fraction(1), 14)
    for n in range(7):
        want = Fraction(-1, 4) ** comb(n + 1, 2) * prod(factorial(k) ** 2 for k in range(1, n + 1))
        assert R.hankel_det(eps, 0, n) == want


def test_beta_recursion_at_a_generic_point():
    q = Fraction(2, 3)
    beta = R.beta(q, 8)
    for m in range(1, 9):
        lhs = sum(comb(m, k) * q ** (k + 1) * beta[k] for k in range(m + 1)) - beta[m]
        assert lhs == (1 if m == 1 else 0)


def test_xi_by_hand():
    # xi_{0,1} = q (1 + q) / (1 + q^2); every xi is 1 at q = 1
    assert R.xi(Fraction(1, 2), 0, 1)[1] == Fraction(3, 5)
    assert R.xi(Fraction(1), 2, 6) == [1] * 7


def test_jacobi_operator_gives_gaussian_moments():
    # a(n) = 0, b(n) = n is the Hermite recurrence: mu_2k = (2k-1)!!, odd moments 0
    top = 10
    a = [Fraction(0)] * (top // 2 + 1)
    b = [Fraction(n) for n in range(top // 2 + 1)]
    want = [prod(range(1, k, 2)) if k % 2 == 0 else 0 for k in range(top + 1)]
    assert R.jacobi_moments(Fraction(1), a, b, top) == want


def test_theta_starts_at_one_and_uses_the_first_coefficient():
    q = Fraction(3, 5)
    for ell in range(4):
        th = R.theta(q, ell, 3)
        assert th[0] == 1
        assert th[1] == -R.theta_coeffs(q, ell, 0)[0]


def test_det_of_hilbert_matrix():
    h = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert R.det(h) == Fraction(1, 2160)
    assert R.det([[0, 1], [1, 0]]) == -1
