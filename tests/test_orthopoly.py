"""Polynomial families in z and their three-term recurrences."""

import pytest

from qhankel.orthopoly import (
    DegenerateRecurrenceError,
    JFraction,
    ZPoly,
    affine_transform,
    build_j_via_phi2,
    build_jtilde_via_phi2,
    build_p_via_phi2,
    coeffs_ab,
    coeffs_monic,
    coeffs_p,
    jfraction_for_theta,
    jfraction_for_xi,
    p1_at_zero_closed,
    three_term_build,
)
from qhankel.ratcore import Q_ONE, Q_ZERO, QPoly, RatFuncQ, const, qpow


def P(*coeffs):
    return QPoly(coeffs)


class TestZPoly:
    def test_normalization(self):
        assert ZPoly([Q_ONE, Q_ZERO]).degree == 0
        assert ZPoly([]).is_zero
        assert ZPoly([Q_ZERO]).is_zero

    def test_int_coeffs_coerced(self):
        assert ZPoly([1, 2]) == ZPoly([Q_ONE, const(2)])

    def test_arithmetic(self):
        z = ZPoly.z()
        assert (z + ZPoly.one()) * (z - ZPoly.one()) == z * z - ZPoly.one()
        assert z - z == ZPoly.zero()

    def test_monomial_and_shift(self):
        assert ZPoly.monomial(3) == ZPoly.one().shift_up(3)
        assert ZPoly.monomial(0) == ZPoly.one()

    def test_scale(self):
        p = ZPoly([Q_ONE, Q_ONE])
        assert p.scale(Q_ZERO).is_zero
        assert p.scale(qpow(1)) == ZPoly([qpow(1), qpow(1)])

    def test_compose(self):
        # (z+1)^2 composed with 2z gives 4z^2 + 4z + 1
        p = ZPoly([Q_ONE, Q_ONE]) * ZPoly([Q_ONE, Q_ONE])
        assert p.compose(ZPoly([Q_ZERO, const(2)])) == ZPoly(
            [Q_ONE, const(4), const(4)]
        )

    def test_call(self):
        p = ZPoly([Q_ONE, const(2), Q_ONE])
        assert p(qpow(1)) == (Q_ONE + qpow(1)) ** 2

    def test_coeff_out_of_range(self):
        assert ZPoly([Q_ONE]).coeff(5) == Q_ZERO

    def test_monic_flag(self):
        assert ZPoly([qpow(3), Q_ONE]).is_monic
        assert not ZPoly([Q_ONE, qpow(1)]).is_monic
        assert not ZPoly.zero().is_monic


class TestThreeTermBuild:
    def test_constant_coefficient_toy(self):
        # a == 0, b == 1 gives p2 = z^2 - 1, p3 = z^3 - 2z
        data = JFraction(Q_ONE, a=lambda n: Q_ZERO, b=lambda n: Q_ONE)
        polys = three_term_build(data, 3)
        assert polys[0] == ZPoly.one()
        assert polys[1] == ZPoly.z()
        assert polys[2] == ZPoly([const(-1), Q_ZERO, Q_ONE])
        assert polys[3] == ZPoly([Q_ZERO, const(-2), Q_ZERO, Q_ONE])

    def test_upto_zero(self):
        data = JFraction(Q_ONE, a=lambda n: Q_ZERO, b=lambda n: Q_ONE)
        assert three_term_build(data, 0) == [ZPoly.one()]
        with pytest.raises(ValueError):
            three_term_build(data, -1)

    def test_degenerate_b_detected(self):
        data = JFraction(Q_ONE, a=lambda n: Q_ZERO, b=lambda n: Q_ZERO)
        with pytest.raises(DegenerateRecurrenceError) as e:
            three_term_build(data, 2)
        assert e.value.n == 1
        # b(0) is never consumed, so depth 1 works fine
        assert len(three_term_build(data, 1)) == 2


class TestRecurrenceCoefficients:
    def test_frozen_values(self):
        one_q2 = RatFuncQ(P(1, 0, 1))
        assert coeffs_ab(0, 0)[0] == RatFuncQ(P(1, -1)) / one_q2
        assert coeffs_monic(0, 0)[0] == RatFuncQ(P(0, -1) * P(1, 1)) / one_q2
        assert coeffs_p(0, 0)[0] == RatFuncQ(P(0, 1)) / one_q2
        want_b = RatFuncQ(
            P(0, -1) * P(1, 1), (P(1, 0, 1) * P(1, 0, 1)) * P(1, 0, 0, 1)
        )
        assert coeffs_p(0, 1)[1] == want_b

    def test_b_at_zero_vanishes(self):
        for ell in range(4):
            assert coeffs_ab(ell, 0)[1] == Q_ZERO
            assert coeffs_monic(ell, 0)[1] == Q_ZERO
            assert coeffs_p(ell, 0)[1] == Q_ZERO

    def test_b_nonzero_for_positive_n(self):
        for ell in range(3):
            for n in range(1, 6):
                assert not coeffs_monic(ell, n)[1].is_zero
                assert not coeffs_p(ell, n)[1].is_zero

    def test_bad_args(self):
        with pytest.raises(ValueError):
            coeffs_p(-1, 0)
        with pytest.raises(ValueError):
            coeffs_monic(0, -1)


class TestFamilies:
    def test_degree_one_member(self):
        want = ZPoly([RatFuncQ(P(0, 1), P(1, 0, 1)), Q_ONE])
        assert build_p_via_phi2(0, 1) == want

    def test_series_recurrence_affine_agree(self):
        u = RatFuncQ(P(0, -1, 1))
        v = qpow(1)
        for ell in range(3):
            series = [build_p_via_phi2(ell, n) for n in range(6)]
            recur = three_term_build(jfraction_for_theta(ell), 5)
            jtilde = [build_jtilde_via_phi2(ell, n) for n in range(6)]
            assert series == recur
            assert series == affine_transform(jtilde, u, v)

    def test_monic_route_matches_series(self):
        for ell in range(3):
            built = three_term_build(jfraction_for_xi(ell), 5)
            for n in range(6):
                assert built[n] == build_jtilde_via_phi2(ell, n)

    def test_monicity_and_degree(self):
        for ell in range(3):
            for n in range(6):
                assert build_p_via_phi2(ell, n).is_monic
                assert build_jtilde_via_phi2(ell, n).is_monic
                assert build_j_via_phi2(ell, n).degree == n

    def test_nonmonic_recurrence(self):
        for ell in range(3):
            js = [build_j_via_phi2(ell, n) for n in range(7)]
            for n in range(1, 6):
                A, B = coeffs_ab(ell, n)
                lhs = js[n + 1].scale(A)
                rhs = js[n] * ZPoly([A + B - Q_ONE, Q_ONE]) - js[n - 1].scale(B)
                assert lhs == rhs

    def test_value_at_zero_closed_form(self):
        for n in range(9):
            assert build_p_via_phi2(1, n)(Q_ZERO) == p1_at_zero_closed(n)

    def test_degree_one_constant_term_is_a0(self):
        for ell in range(4):
            assert build_p_via_phi2(ell, 1)(Q_ZERO) == coeffs_p(ell, 0)[0]


class TestAffineTransform:
    def test_identity(self):
        polys = three_term_build(jfraction_for_theta(0), 4)
        assert affine_transform(polys, Q_ONE, Q_ZERO) == polys

    def test_preserves_monic(self):
        polys = three_term_build(jfraction_for_xi(1), 4)
        for p in affine_transform(polys, qpow(2), -qpow(1)):
            assert p.is_monic

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            affine_transform([ZPoly.one()], Q_ZERO, Q_ONE)

    def test_inverse_composition(self):
        u, v = qpow(1), const(3)
        polys = three_term_build(jfraction_for_theta(2), 3)
        there = affine_transform(polys, u, v)
        back = affine_transform(there, Q_ONE / u, -v / u)
        assert back == polys

