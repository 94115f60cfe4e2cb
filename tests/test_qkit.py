"""q-integers, Gaussian binomials, Pochhammer products, basic hypergeometric sums."""

import pytest
from hypothesis import given, settings, strategies as st

from qhankel.qkit import (
    VanishingPochhammerError,
    parity_sign,
    poch,
    q_binom,
    q_factorial,
    q_hyper_terminating,
    q_int,
    verify_q_chu_vandermonde,
)
from qhankel.ratcore import Q, Q_ONE, Q_ZERO, QPoly, RatFuncQ, const, qpow


def P(*coeffs):
    return QPoly(coeffs)


class TestQInt:
    def test_small(self):
        assert q_int(0) == Q_ZERO
        assert q_int(1) == Q_ONE
        assert q_int(3) == RatFuncQ(P(1, 1, 1))

    def test_negative(self):
        assert q_int(-1) == -qpow(-1)
        # [-m] = -[m]/q^m
        for m in range(1, 8):
            assert q_int(-m) == -q_int(m) * qpow(-m)

    def test_classical_limit(self):
        for m in range(-6, 7):
            assert q_int(m).eval_at(1) == m


class TestQFactorial:
    def test_values(self):
        assert q_factorial(0) == Q_ONE
        assert q_factorial(1) == Q_ONE
        assert q_factorial(3) == RatFuncQ(P(1, 1) * P(1, 1, 1))

    def test_recurrence(self):
        for m in range(1, 10):
            assert q_factorial(m) == q_int(m) * q_factorial(m - 1)


class TestQBinom:
    def test_values(self):
        assert q_binom(2, 1) == RatFuncQ(P(1, 1))
        assert q_binom(4, 2) == RatFuncQ(P(1, 0, 1) * P(1, 1, 1))

    def test_out_of_range(self):
        assert q_binom(1, 3) == Q_ZERO
        assert q_binom(2, -1) == Q_ZERO

    def test_symmetry(self):
        for m in range(8):
            for n in range(m + 1):
                assert q_binom(m, n) == q_binom(m, m - n)

    def test_pascal_both_forms(self):
        for m in range(1, 9):
            for n in range(m + 1):
                lhs = q_binom(m, n)
                assert lhs == q_binom(m - 1, n) + qpow(m - n) * q_binom(m - 1, n - 1)
                assert lhs == qpow(n) * q_binom(m - 1, n) + q_binom(m - 1, n - 1)

    def test_is_polynomial_in_q(self):
        for m in range(10):
            for n in range(m + 1):
                assert q_binom(m, n).den == P(1)


class TestPochhammer:
    def test_empty_product(self):
        assert poch(Q, 0) == Q_ONE

    def test_single_factor(self):
        assert poch(qpow(2), 1) == RatFuncQ(P(1, 0, -1))

    def test_vanishing(self):
        # (q^-2; q)_3 hits the factor 1 - q^-2 * q^2 = 0
        assert poch(qpow(-2), 3) == Q_ZERO

    def test_int_base_coerced(self):
        assert poch(1, 5) == Q_ZERO
        assert poch(0, 4) == Q_ONE

    def test_one_step_extension(self):
        for length in range(5):
            a = poch(Q, length)
            assert poch(Q, length + 1) == a * (Q_ONE - qpow(1 + length))

    def test_spec_is_cached_key(self):
        assert poch(Q, 3) is poch(Q, 3)
        assert poch(Q, 3) == (Q_ONE - Q) * (Q_ONE - qpow(2)) * (Q_ONE - qpow(3))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            poch(Q, -1)


def test_parity_sign():
    assert [parity_sign(k) for k in range(4)] == [1, -1, 1, -1]


class TestHyperTerminating:
    def test_zero_terms_is_one(self):
        assert q_hyper_terminating([Q], [const(2)], Q, 0) == Q_ONE

    def test_single_step(self):
        # (q^-1, 0; -q^2) at z=q, one term past the constant
        val = q_hyper_terminating(
            [qpow(-1), Q_ZERO], [-qpow(2)], Q, 1
        )
        assert val == RatFuncQ(P(0, 0, 1), P(1, 0, 1))

    def test_matches_hand_sum(self):
        a, b, z = Q, -qpow(2), qpow(1)
        total = Q_ZERO
        for k in range(4):
            total = total + poch(a, k) * z**k / (poch(Q, k) * poch(b, k))
        assert q_hyper_terminating([a], [b], z, 3) == total

    def test_vanishing_denominator_reported(self):
        with pytest.raises(VanishingPochhammerError) as e:
            q_hyper_terminating([Q], [qpow(-2)], Q, 5)
        assert e.value.k == 3


class TestChuVandermonde:
    def test_worked_cases(self):
        assert verify_q_chu_vandermonde(Q, -qpow(2), 2)
        assert verify_q_chu_vandermonde(-Q, -qpow(3), 3)

    def test_a_zero_limit(self):
        for n in range(5):
            assert verify_q_chu_vandermonde(Q_ZERO, -qpow(2), n)

    def test_grid(self):
        for a in (Q, -Q, qpow(2)):
            for c in (-qpow(2), -qpow(3), qpow(3)):
                for n in range(4):
                    assert verify_q_chu_vandermonde(a, c, n)


# The q-binomial theorem gives (z; q)_n as a polynomial identity in z over Q(q).
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8))
def test_q_binomial_theorem(n):
    from qhankel.orthopoly import ZPoly

    lhs = ZPoly([Q_ONE])
    for k in range(n):
        lhs = lhs * ZPoly([Q_ONE, -qpow(k)])
    rhs = ZPoly([Q_ZERO])
    for k in range(n + 1):
        coeff = parity_sign(k) * qpow(k * (k - 1) // 2) * q_binom(n, k)
        rhs = rhs + ZPoly([Q_ZERO] * k + [coeff])
    assert lhs == rhs
