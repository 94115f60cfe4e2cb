"""Polynomial families in z and their three-term recurrences."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from qhankel import hankel, orthopoly, ratcore, verification
from qhankel.functionals import jfraction_for
from qhankel.orthopoly import (
    JFraction,
    NotQuasiDefiniteError,
    ZPoly,
    affine_transform,
    build_j_via_phi2,
    build_jtilde_via_phi2,
    build_p_via_phi2,
    coeffs_ab,
    coeffs_monic,
    coeffs_p,
    three_term_build,
)
from qhankel.ratcore import Q_ONE, Q_ZERO, QPoly, RatFuncQ, const, qpow
from test_ratcore import _oracle_gcd


def P(*coeffs):
    return QPoly(coeffs)


# Coefficient-wise arithmetic on tuples of reduced RatFuncQ, every step
# reduced: the oracle for ZPoly's numerators over one denominator.
def _o_trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return tuple(cs)


def _o_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _o_trim(out)


def _o_neg(a):
    return tuple(-c for c in a)


def _o_mul(a, b):
    if not a or not b:
        return ()
    out = [Q_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _o_trim(out)


def _o_scale(a, s):
    return _o_trim(c * s for c in a)


def _o_compose(a, inner):
    out = ()
    for c in reversed(a):
        out = _o_add(_o_mul(out, inner), _o_trim([c]))
    return out


def _o_call(a, x):
    acc = Q_ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


# Small factors that the random coefficients share, so that sums and
# products cancel often.
_FACTORS = [P(1, 1), P(1, -1), P(0, 1), P(1, 0, 1), P(2), P(3), P(1, 1, 1), P(-1)]


def _rand_qpoly(rng, factors):
    out = QPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
    for _ in range(factors):
        out = out * rng.choice(_FACTORS)
    return out


def _rand_scalar(rng, kind):
    num = _rand_qpoly(rng, rng.randint(0, 2))
    if kind == "integral":
        return RatFuncQ(num)
    if kind == "constant-den":
        return RatFuncQ(num, P(rng.choice([1, 2, 3, 6])))
    den = P(1)
    for _ in range(rng.randint(0, 3)):
        den = den * rng.choice(_FACTORS)
    return RatFuncQ(num, den)


_KINDS = ("zero", "integral", "constant-den", "monic", "general")


def _rand_coeffs(rng, kind):
    if kind == "zero":
        return ()
    scalar = "general" if kind == "monic" else kind
    cs = [_rand_scalar(rng, scalar) for _ in range(rng.randint(1, 4))]
    if kind == "monic":
        cs.append(Q_ONE)
    return _o_trim(cs)


def _check_canonical(p, want):
    """p holds the coefficients want, in canonical form."""
    assert tuple(p.coeffs) == want
    assert p == ZPoly(want) and hash(p) == hash(ZPoly(want))
    assert p.degree == len(want) - 1 and p.is_zero == (not want)
    assert p.leading == (want[-1] if want else Q_ZERO)
    assert p.is_monic == (bool(want) and want[-1] == Q_ONE)
    for k in range(-1, len(want) + 2):
        assert p.coeff(k) == (want[k] if 0 <= k < len(want) else Q_ZERO)
    assert p.den.leading > 0
    assert len(p.nums) == len(want) and (not p.nums or not p.nums[-1].is_zero)
    common = p.den
    for t in p.nums:
        if not t.is_zero:
            common = _oracle_gcd(common, t)
    assert common == P(1)


class TestZPoly:
    def test_normalization(self):
        assert ZPoly([Q_ONE, Q_ZERO]).degree == 0
        assert ZPoly([]).is_zero
        assert ZPoly([Q_ZERO]).is_zero

    def test_int_coeffs_coerced(self):
        assert ZPoly([1, 2]) == ZPoly([Q_ONE, const(2)])

    def test_fraction_coeffs_coerced(self):
        p = ZPoly([Fraction(1, 2), 1])
        assert p == ZPoly([RatFuncQ(P(1), P(2)), Q_ONE])
        assert repr(p) == "ZPoly(['(1)/(2)', '1'])"

    @pytest.mark.parametrize("entry", [0.5, "1", P(1, 1), None])
    def test_other_entries_rejected(self, entry):
        with pytest.raises(TypeError, match=type(entry).__name__):
            ZPoly([Q_ONE, entry])

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


class TestZPolyAgainstTheOracle:
    """Seeded random inputs of each kind; every result is compared with the
    coefficient-wise oracle and checked for canonical form."""

    @pytest.mark.parametrize("kind_a", _KINDS)
    @pytest.mark.parametrize("kind_b", _KINDS)
    def test_ring_operations(self, kind_a, kind_b):
        rng = random.Random(f"ring-{kind_a}-{kind_b}")
        for _ in range(6):
            a, b = _rand_coeffs(rng, kind_a), _rand_coeffs(rng, kind_b)
            pa, pb = ZPoly(a), ZPoly(b)
            _check_canonical(pa, a)
            _check_canonical(pa + pb, _o_add(a, b))
            _check_canonical(-pa, _o_neg(a))
            _check_canonical(pa - pb, _o_add(a, _o_neg(b)))
            _check_canonical(pa - pa, ())
            _check_canonical(pa * pb, _o_mul(a, b))
            _check_canonical(pa.shift_up(2), _o_mul(a, (Q_ZERO, Q_ZERO, Q_ONE)))

    @pytest.mark.parametrize("kind", _KINDS)
    def test_scale_call_and_compose(self, kind):
        rng = random.Random(f"scale-{kind}")
        for _ in range(8):
            a = _rand_coeffs(rng, kind)
            s = _rand_scalar(rng, rng.choice(["integral", "constant-den", "general"]))
            inner = _rand_coeffs(rng, rng.choice(_KINDS))[:3]
            pa = ZPoly(a)
            _check_canonical(pa.scale(s), _o_scale(a, s))
            _check_canonical(pa.scale(Q_ZERO), ())
            _check_canonical(pa.compose(ZPoly(inner)), _o_compose(a, inner))
            assert pa(s) == _o_call(a, s)
            assert pa(Q_ZERO) == _o_call(a, Q_ZERO)

    def test_compose_with_a_constant_that_cancels(self):
        # z^2 - z + 7 at z = 1: the Horner sum vanishes halfway
        p = ZPoly([7, -1, 1])
        _check_canonical(p.compose(ZPoly([1])), (const(7),))
        _check_canonical(p.compose(ZPoly.zero()), (const(7),))

    def test_equal_values_by_different_routes(self):
        rng = random.Random("routes")
        for _ in range(12):
            a, b, c = (ZPoly(_rand_coeffs(rng, "general")) for _ in range(3))
            s, t = (_rand_scalar(rng, "general") for _ in range(2))
            pairs = [
                ((a + b) + c, a + (c + b)),
                (a * (b + c), b * a + c * a),
                ((a - b) + b, a),
                (a.scale(s).scale(t), a.scale(s * t)),
                (a * ZPoly([s]), a.scale(s)),
                (a.compose(b + c), ZPoly(_o_compose(a.coeffs, (b + c).coeffs))),
                ((a * b).compose(c), a.compose(c) * b.compose(c)),
            ]
            for x, y in pairs:
                assert x == y and hash(x) == hash(y)
                assert (x.nums, x.den) == (y.nums, y.den)


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

    def test_one_reduction_per_polynomial(self):
        # p_{n+1} = (z + a(n)) p_n - b(n) p_{n-1}: the product of two monic
        # polynomials takes no gcd, the scaling one, and the difference one
        # for its denominators plus one per numerator while a common factor
        # remains.  A coefficient-wise build takes one or two per coefficient.
        jf = jfraction_for("theta", 0)
        want = three_term_build(jf, 9)  # computes and caches a(n), b(n)
        real = ratcore._gcd_full
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        with mock.patch.object(ratcore, "_gcd_full", counting), \
                mock.patch.object(orthopoly, "_gcd_full", counting):
            got = three_term_build(jf, 9)
        assert got == want
        assert 0 < len(calls) <= 100

    def test_degenerate_b_detected(self):
        data = JFraction(Q_ONE, a=lambda n: Q_ZERO, b=lambda n: Q_ZERO)
        with pytest.raises(NotQuasiDefiniteError) as e:
            three_term_build(data, 2)
        assert e.value.depth == 1
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
        with pytest.raises(ValueError):
            coeffs_ab(0, -1)

    def test_ab_matches_its_closed_form(self):
        # coeffs_ab is derived from coeffs_monic; its own closed form is the oracle
        for ell in range(7):
            for n in range(41):
                A = (Q_ONE - qpow(2 * n + 2 * ell + 2)) / (
                    (Q_ONE + qpow(2 * n + ell + 1)) * (Q_ONE + qpow(2 * n + ell + 2)))
                B = -qpow(2 * n + 2 * ell + 1) * (Q_ONE - qpow(2 * n)) / (
                    (Q_ONE + qpow(2 * n + ell)) * (Q_ONE + qpow(2 * n + ell + 1)))
                assert coeffs_ab(ell, n) == (A, B), (ell, n)

    def test_ab_reads_the_monic_table(self):
        # a~ times q: coeffs_ab (and coeffs_p) must follow the double, so the
        # series family J_n no longer satisfies the derived contiguity
        real = orthopoly.coeffs_monic

        def off_by_one(ell, n):
            a, b = real(ell, n)
            return a * qpow(1), b

        caches = (orthopoly.coeffs_ab, orthopoly.coeffs_p)
        for f in caches:
            f.cache_clear()
        try:
            with mock.patch.object(orthopoly, "coeffs_monic", off_by_one):
                _, failures = verification.CHECKS["cross-route-families"](3)
        finally:
            for f in caches:
                f.cache_clear()
        broke = [f for f in failures if f.startswith("three-point contiguity broke")]
        assert broke == [f"three-point contiguity broke at ell={ell}, n={n}"
                         for ell in range(4) for n in range(1, 4)]


class TestFamilies:
    def test_degree_one_member(self):
        want = ZPoly([RatFuncQ(P(0, 1), P(1, 0, 1)), Q_ONE])
        assert build_p_via_phi2(0, 1) == want

    def test_series_recurrence_affine_agree(self):
        u = RatFuncQ(P(0, -1, 1))
        v = qpow(1)
        for ell in range(3):
            series = [build_p_via_phi2(ell, n) for n in range(6)]
            recur = three_term_build(jfraction_for("theta", ell), 5)
            jtilde = [build_jtilde_via_phi2(ell, n) for n in range(6)]
            assert series == recur
            assert series == affine_transform(jtilde, u, v)

    def test_monic_route_matches_series(self):
        for ell in range(3):
            built = three_term_build(jfraction_for("xi", ell), 5)
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
        # p_{n+1}(0) / p_n(0) = -d_n / d'_n for Theorem 1's shifts 2 and 1
        at_zero = [Q_ONE]
        for d1, d2 in zip(hankel.theorem1_quotients(1, 7), hankel.theorem1_quotients(2, 7)):
            at_zero.append(-at_zero[-1] * d2 / d1)
        assert [build_p_via_phi2(1, n)(Q_ZERO) for n in range(9)] == at_zero

    def test_degree_one_constant_term_is_a0(self):
        for ell in range(4):
            assert build_p_via_phi2(ell, 1)(Q_ZERO) == coeffs_p(ell, 0)[0]


class TestAffineTransform:
    def test_identity(self):
        polys = three_term_build(jfraction_for("theta", 0), 4)
        assert affine_transform(polys, Q_ONE, Q_ZERO) == polys

    def test_preserves_monic(self):
        polys = three_term_build(jfraction_for("xi", 1), 4)
        for p in affine_transform(polys, qpow(2), -qpow(1)):
            assert p.is_monic

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            affine_transform([ZPoly.one()], Q_ZERO, Q_ONE)

    def test_inverse_composition(self):
        u, v = qpow(1), const(3)
        polys = three_term_build(jfraction_for("theta", 2), 3)
        there = affine_transform(polys, u, v)
        back = affine_transform(there, Q_ONE / u, -v / u)
        assert back == polys

