"""Hankel determinants by brute force, recurrence data, and closed forms."""

import json
import random
from fractions import Fraction
from functools import partial
from math import comb, factorial

import pytest

from qhankel import hankel, ratcore
from qhankel.carlitz import q_bernoulli_recursive, q_euler_recursive
from qhankel.functionals import jfraction_for, moments_for, theta_moment, xi_moment
from qhankel.hankel import (
    ROUTES,
    InsufficientMomentsError,
    JFraction,
    NotQuasiDefiniteError,
    chapoton_zeng_quotients,
    favard_quotients,
    hankel_matrix,
    hankel_product,
    heilermann_quotients,
    jfraction_expand,
    jfraction_from_moments,
    minor_quotients,
    shift0_exponent,
    shift12_exponent,
    theorem1_quotients,
    theta_det_quotients,
    verify_exponent_integrality,
    xi_det_quotients,
)
from qhankel.orthopoly import (
    ZPoly,
    coeffs_monic,
    coeffs_p,
    three_term_build,
)
from qhankel.qkit import parity_sign
from qhankel.ratcore import (
    Q_ONE, Q_ZERO, QPoly, RatFuncQ, clear_denominators, const, qpow, serialize,
)
from support import invoke


def P(*coeffs):
    return QPoly(coeffs)


def identity(n):
    return [[Q_ONE if i == j else Q_ZERO for j in range(n)] for i in range(n)]


def _det_cofactor(matrix):
    """Direct expansion; only for dimension <= 3 (the independent
    small oracle for minor_quotients)."""
    n = len(matrix)
    if n > 3:
        raise ValueError("cofactor oracle is limited to dimension <= 3")
    if n == 0:
        return Q_ONE
    if n == 1:
        return matrix[0][0]
    if n == 2:
        (a, b), (c, d) = matrix
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = matrix
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class TestHankelMatrix:
    def test_layout(self):
        seq = [const(k) for k in range(6)]
        m = hankel_matrix(seq, 1, 1)
        assert m == [[const(1), const(2)], [const(2), const(3)]]

    def test_accepts_moment_seq(self):
        m = hankel_matrix(q_euler_recursive, 0, 1)
        assert m[0][0] == Q_ONE
        assert m[0][1] == m[1][0] == q_euler_recursive(1)
        assert m[1][1] == q_euler_recursive(2)

    def test_too_short(self):
        with pytest.raises(InsufficientMomentsError):
            hankel_matrix([Q_ONE, Q_ONE], 0, 1)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            hankel_matrix([Q_ONE], -1, 0)
        with pytest.raises(ValueError):
            hankel_matrix([Q_ONE], 0, -1)


class TestDeterminants:
    def test_trivial(self):
        assert hankel_product(minor_quotients([[Q_ONE]])) == Q_ONE
        assert hankel_product(minor_quotients(identity(4))) == Q_ONE
        assert _det_cofactor([]) == Q_ONE

    def test_zero_first_pivot_raises(self):
        # a zero H_0 before the last pivot raises, by the module's one rule
        m = [[Q_ZERO, Q_ONE], [Q_ONE, Q_ZERO]]
        with pytest.raises(NotQuasiDefiniteError) as e:
            minor_quotients(m)
        assert e.value.depth == 0
        assert _det_bareiss(m) == _det_cofactor(m) == const(-1)

    def test_singular(self):
        m = [[Q_ONE, Q_ONE], [Q_ONE, Q_ONE]]
        assert hankel_product(minor_quotients(m)) == Q_ZERO
        zero = [[Q_ZERO, Q_ZERO], [Q_ZERO, Q_ZERO]]
        assert _expanded(zero) == _oracle(zero) == "depth 0"
        assert _det_cofactor(zero) == Q_ZERO

    def test_matches_cofactor_on_random(self):
        rng = random.Random(5)
        for dim in (1, 2, 3):
            for _ in range(8):
                m = [
                    [
                        const(rng.randint(-3, 3)) / (Q_ONE + qpow(rng.randint(1, 3)))
                        for _ in range(dim)
                    ]
                    for _ in range(dim)
                ]
                assert _expanded(m) == _oracle(m, _det_cofactor)

    def test_cofactor_dimension_cap(self):
        with pytest.raises(ValueError):
            _det_cofactor(identity(4))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            minor_quotients([[Q_ONE, Q_ONE], [Q_ONE]])

    def test_frozen_shift0_n1(self):
        want = RatFuncQ(
            P(0, -1) * P(1, 1), P(1, 0, 1) * P(1, 0, 1) * P(1, 0, 0, 1)
        )
        assert hankel_product(minor_quotients(hankel_matrix(q_euler_recursive, 0, 1))) == want


def _det_bareiss(matrix):
    """Bareiss's fraction-free elimination (Math. Comp. 22, 1968): each row is
    cleared by its denominator lcm and each update is divided exactly by the
    previous pivot.  The oracle for minor_quotients' primitive-row
    elimination."""
    n = len(matrix)
    m, factors = [], []
    for row in matrix:
        lcm, nums = clear_denominators(row)
        m.append(nums)
        factors.append(lcm)
    sign = 1
    prev = QPoly((1,))
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if pivot_row is None:
                return Q_ZERO
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            lead = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - lead * m[k][j]).exact_div(prev)
            m[i][k] = QPoly()
        prev = pivot
    result = RatFuncQ(m[n - 1][n - 1].scale(sign))
    for f in factors:
        result = result / RatFuncQ(f)
    return result


def _expanded(matrix):
    """hankel_product(minor_quotients(matrix)), or "depth k" for the
    NotQuasiDefiniteError(k) it raises instead."""
    try:
        return hankel_product(minor_quotients(matrix))
    except NotQuasiDefiniteError as e:
        return f"depth {e.depth}"


def _oracle(matrix, det=_det_bareiss):
    """What _expanded(matrix) must give, by ``det`` on the leading
    submatrices: "depth k" for the first k < n - 1 whose minor vanishes,
    else the determinant."""
    for k in range(len(matrix) - 1):
        if det([row[: k + 1] for row in matrix[: k + 1]]).is_zero:
            return f"depth {k}"
    return det(matrix)


def _random_poly(rng, degree=4, span=5):
    return QPoly(rng.randint(-span, span) for _ in range(rng.randint(0, degree) + 1))


def _random_matrix(rng, dim, zero_rate=0.2):
    """Integer polynomials, some zero, a few over a denominator 1 + q^k."""
    def entry():
        if rng.random() < zero_rate:
            return Q_ZERO
        value = RatFuncQ(_random_poly(rng))
        return value / (Q_ONE + qpow(rng.randint(1, 3))) if rng.random() < 0.2 else value
    return [[entry() for _ in range(dim)] for _ in range(dim)]


def _combine(rows, weights):
    """sum of weights[r] * rows[r], entry by entry."""
    out = [Q_ZERO] * len(rows[0])
    for row, w in zip(rows, weights):
        out = [a + w * b for a, b in zip(out, row)]
    return out


def _structured_matrices(rng):
    """Matrices whose elimination meets a zero pivot after step 0, turns
    singular part way through, or meets zero leads."""
    out = []
    for dim in range(3, 7):
        # row 1 = t * row 0 + (0, 0, *): its update is zero at column 1, so
        # pivot 1 vanishes
        m = _random_matrix(rng, dim, zero_rate=0)
        t = RatFuncQ(_random_poly(rng, 2))
        m[1] = [t * a + (b if j >= 2 else Q_ZERO) for j, (a, b) in enumerate(zip(m[0], m[1]))]
        out.append(m)
        # the last row a combination of two earlier ones: its update vanishes
        # at step 1 (or at step 0 when it is a multiple of row 0)
        m = _random_matrix(rng, dim, zero_rate=0)
        m[-1] = _combine(m[:2], [RatFuncQ(_random_poly(rng, 2)), RatFuncQ(_random_poly(rng, 2))])
        out.append(m)
        m = _random_matrix(rng, dim, zero_rate=0)
        t = RatFuncQ(_random_poly(rng, 2))
        m[-1] = [t * e for e in m[0]]
        out.append(m)
        # zero leads: zeros in the first columns of the later rows
        m = _random_matrix(rng, dim, zero_rate=0)
        for i in range(1, dim):
            for j in range(min(i, 2)):
                if rng.random() < 0.7:
                    m[i][j] = Q_ZERO
        out.append(m)
    return out


# every ROUTES row, with theta and xi at ell = 0 and 1
ROUTE_ROWS = [(key, ell) for key in ROUTES for ell in ((0, 1) if key[0] in ("theta", "xi") else (0,))]


def _route_matrix(key, ell, n):
    return hankel_matrix(moments_for(key[0], ell), key[1], n)


class TestPrimitiveRows:
    @pytest.mark.parametrize("key, ell", ROUTE_ROWS)
    def test_routes_match_bareiss(self, key, ell):
        for n in range(7):
            m = _route_matrix(key, ell, n)
            assert hankel_product(minor_quotients(m)) == _det_bareiss(m)

    @pytest.mark.parametrize("key, ell", ROUTE_ROWS)
    def test_quotients_are_ratios_of_leading_minors(self, key, ell):
        ds = minor_quotients(_route_matrix(key, ell, 6))
        for n in range(7):
            assert hankel_product(ds[: n + 1]) == _det_bareiss(_route_matrix(key, ell, n))

    def test_singular_leading_minor(self):
        # moments 1, 1, 1, 0, 0: H_1 = 0 and H_2 = -1
        m = hankel_matrix([const(v) for v in (1, 1, 1, 0, 0)], 0, 2)
        with pytest.raises(NotQuasiDefiniteError) as e:
            minor_quotients(m)
        assert e.value.depth == 1
        assert _det_bareiss(m) == const(-1) == _det_cofactor(m)

    @pytest.mark.parametrize("matrix", [
        [[Q_ONE, Q_ONE]],
        [[Q_ONE, Q_ONE], [Q_ONE]],
        [[Q_ONE, Q_ONE], [Q_ONE, Q_ONE], [Q_ONE, Q_ONE]],
    ], ids=["1x2", "ragged", "3x2"])
    def test_non_square_rejected(self, matrix):
        with pytest.raises(ValueError, match="square"):
            minor_quotients(matrix)

    def test_a_vanishing_last_minor_is_a_zero_quotient(self):
        assert minor_quotients([[Q_ONE, Q_ONE], [Q_ONE, Q_ONE]]) == [Q_ONE, Q_ZERO]

    def test_random_matrices_match_bareiss(self):
        rng = random.Random(0xB4E155)
        for dim in range(2, 7):
            for _ in range(6):
                m = _random_matrix(rng, dim)
                want = _oracle(m)
                assert _expanded(m) == want
                if dim <= 3:
                    assert want == _oracle(m, _det_cofactor)

    def test_zero_pivots_singular_steps_and_zero_leads(self):
        rng = random.Random(0x5A4B)
        singular = raised = 0
        for m in _structured_matrices(rng):
            want = _oracle(m)
            raised += isinstance(want, str)
            singular += not isinstance(want, str) and want.is_zero
            assert _expanded(m) == want
        assert raised >= 4  # a zero pivot 1, dims 3..6
        assert singular >= 8  # both kinds of dependent last row, dims 3..6

    def test_row_with_a_zero_tail_and_a_large_pivot(self):
        # only the lead survives in row 1, so the pivot alone sets the width
        big = RatFuncQ(QPoly((0, 10 ** 30)))
        m = [[big, Q_ONE], [Q_ONE, Q_ZERO]]
        assert hankel_product(minor_quotients(m)) == const(-1)
        m = [[big, Q_ONE, qpow(1)], [Q_ONE, Q_ZERO, Q_ZERO], [Q_ZERO, Q_ONE, big]]
        assert hankel_product(minor_quotients(m)) == _det_bareiss(m) == _det_cofactor(m)

    def _matrices(self):
        rng = random.Random(0xFA11)
        out = [_route_matrix(key, ell, n) for key, ell in ROUTE_ROWS for n in range(6)]
        return out + [_random_matrix(rng, dim) for dim in range(2, 7)] + _structured_matrices(rng)

    def test_content_alone_when_the_candidate_fails(self, monkeypatch):
        # a candidate of degree 4999 divides no entry, so every row keeps
        # only its integer content; the values must not change
        matrices = self._matrices()
        want = [_expanded(m) for m in matrices]
        divisors = []
        eliminate = hankel._eliminate_row

        def spy(*args):
            out = eliminate(*args)
            if out is not None:
                divisors.append(out[0])
            return out

        monkeypatch.setattr(hankel, "_split_content", lambda digits: (1, (1,) * 5000))
        monkeypatch.setattr(hankel, "_eliminate_row", spy)
        assert [_expanded(m) for m in matrices] == want
        assert divisors and all(g.degree == 0 for g in divisors)

    def test_a_spurious_factor_of_the_combined_gcd_keeps_the_content(self, monkeypatch):
        # row 1's tail at the first step is (f, q f, 4, -3) for f = q + 2:
        # 3 * 4 + 4 * (-3) = 0, so f(x) divides the first value, the second
        # and sum_i i v_i, and the candidate f is refused by the trial
        # division of 4; the row keeps its integer content 1
        f = RatFuncQ(P(2, 1))
        m = [[Q_ONE, Q_ZERO, Q_ZERO, Q_ZERO, Q_ZERO],
             [Q_ONE, f, qpow(1) * f, const(4), const(-3)],
             [Q_ZERO, Q_ONE, Q_ZERO, Q_ZERO, Q_ONE],
             [Q_ZERO, Q_ZERO, Q_ONE, Q_ZERO, qpow(2)],
             [Q_ZERO, Q_ZERO, Q_ZERO, Q_ONE, Q_ONE]]
        refused = []
        quotients = hankel._quotients

        def spy(values, cand, width, bound):
            out = quotients(values, cand, width, bound)
            refused.append((tuple(cand), out is None))
            return out

        monkeypatch.setattr(hankel, "_quotients", spy)
        got = minor_quotients(m)
        assert refused[0] == ((2, 1), True)
        assert hankel_product(got) == _det_bareiss(m) != Q_ZERO
        monkeypatch.setattr(hankel, "_quotients", quotients)
        assert minor_quotients(m) == got

    def test_certificate_shortfall_goes_to_trial_division(self, monkeypatch):
        # row 1's update is (E1, E2) with gcd h = (1+q)^4; E1 / h = (1-q)^4
        # has |h| * |E1 / h| * 5 = 180 against x/2 = 128 for the values'
        # width, so _exact_quotient decides; a refusal there keeps the
        # integer content alone and must not change any value
        h = P(1, 1) ** 4
        e1, e2 = RatFuncQ(h * P(1, -1) ** 4), RatFuncQ(h * P(1, 0, 1))
        shortfall = [[Q_ONE, Q_ZERO, Q_ZERO], [Q_ONE, e1, e2], [Q_ZERO, Q_ZERO, Q_ONE]]
        matrices = [shortfall] + self._matrices()
        want = [_expanded(m) for m in matrices]
        assert want[0] == e1 == _det_bareiss(shortfall)
        exact_quotient = hankel._exact_quotient
        calls = []

        def spy(a, b):
            calls.append((tuple(a), tuple(b)))
            return exact_quotient(a, b)

        monkeypatch.setattr(hankel, "_exact_quotient", spy)
        assert hankel_product(minor_quotients(shortfall)) == e1
        assert (e1.num.coeffs, h.coeffs) in calls
        monkeypatch.setattr(hankel, "_exact_quotient", lambda a, b: None)
        assert [_expanded(m) for m in matrices] == want

    def test_theorem1_shift0_at_n11(self):
        m = hankel_matrix(q_euler_recursive, 0, 11)
        assert hankel_product(minor_quotients(m)) == hankel_product(theorem1_quotients(0, 11))


class TestJFraction:
    def test_from_lists_offsets(self):
        jf = JFraction.from_lists(Q_ONE, [const(5), const(6)], [const(7)])
        assert jf.a(0) == const(5)
        assert jf.a(1) == const(6)
        assert jf.b(1) == const(7)

    def test_from_lists_rejects_indices_outside_the_prefix(self):
        jf = JFraction.from_lists(Q_ONE, [Q_ONE, qpow(1)], [qpow(2), qpow(3)])
        assert jf.b(2) == qpow(3)
        for bad in (lambda: jf.b(0), lambda: jf.b(3), lambda: jf.a(-1), lambda: jf.a(2)):
            with pytest.raises(IndexError):
                bad()

    def test_eps_ell_domain(self):
        with pytest.raises(ValueError, match=r"the eps J-fraction is stated for ell in \{0, 1\}"):
            jfraction_for("qeuler", 2)

    def test_eps_and_xi_names_are_the_one_builder(self):
        # perfbench/worker.py expands hankel.jfraction_for_eps and _xi
        for name, seq in (("jfraction_for_eps", "qeuler"), ("jfraction_for_xi", "xi")):
            for ell in (0, 1):
                got = getattr(hankel, name)(ell)
                assert jfraction_expand(got, 6) == jfraction_expand(jfraction_for(seq, ell), 6)

    def test_head_coefficients(self):
        jf = jfraction_for("qeuler", 0)
        assert jf.mu0 == Q_ONE
        assert jf.a(0) == RatFuncQ(P(0, 1), P(1, 0, 1))
        jf1 = jfraction_for("qeuler", 1)
        assert jf1.mu0 == q_euler_recursive(1)


class TestJFractionExpansion:
    def test_order_zero(self):
        assert jfraction_expand(jfraction_for("qeuler", 0), 0) == [Q_ONE]

    def test_order_one(self):
        jf = jfraction_for("qeuler", 0)
        got = jfraction_expand(jf, 1)
        assert got == [Q_ONE, -jf.a(0) * Q_ONE]
        assert got[1] == q_euler_recursive(1)

    def test_generates_eps_tails(self):
        for ell in (0, 1):
            got = jfraction_expand(jfraction_for("qeuler", ell), 12)
            for k, val in enumerate(got):
                assert val == q_euler_recursive(k + ell)

    def test_generates_theta_and_xi_moments(self):
        got = jfraction_expand(jfraction_for("theta", 2), 8)
        assert got == [theta_moment(2, k) for k in range(9)]
        got = jfraction_expand(jfraction_for("xi", 1), 8)
        assert got == [xi_moment(1, k) for k in range(9)]

    def test_negative_order(self):
        with pytest.raises(ValueError):
            jfraction_expand(jfraction_for("qeuler", 0), -1)


class TestJFractionFromMoments:
    def test_even_weight_toy(self):
        jf = jfraction_from_moments([Q_ONE, Q_ZERO, Q_ONE, Q_ZERO, Q_ONE])
        assert jf.a_list == [Q_ZERO, Q_ZERO]
        assert jf.b_list == [Q_ONE]

    def test_catalan_tail(self):
        moments = [1, 0, 1, 0, 2, 0, 5, 0, 14]
        jf = jfraction_from_moments([const(v) for v in moments])
        assert jf.a_list == [Q_ZERO] * 4
        assert jf.b_list == [Q_ONE] * 3

    def test_quasi_definiteness_enforced(self):
        moments = [Q_ONE, Q_ZERO, Q_ONE, Q_ZERO, Q_ONE, Q_ZERO, Q_ONE]
        with pytest.raises(NotQuasiDefiniteError) as e:
            jfraction_from_moments(moments)
        assert e.value.depth == 2

    def test_empty_rejected(self):
        with pytest.raises(InsufficientMomentsError):
            jfraction_from_moments([])

    @pytest.mark.parametrize("moments", [[0], [2]])
    def test_too_few_moments_give_an_empty_prefix(self, moments):
        # d = 0: nothing is recovered, so a zero mu_0 is never divided by
        jf = jfraction_from_moments([const(v) for v in moments])
        assert (jf.mu0, jf.a_list, jf.b_list) == (const(moments[0]), [], [])

    def test_zero_mu0_fails_at_depth_zero(self):
        # two moments already give d = 1, and b(0) = mu_0 is divided by
        for moments in ([0, 1], [0, 1, 1]):
            with pytest.raises(NotQuasiDefiniteError) as e:
                jfraction_from_moments([const(v) for v in moments])
            assert e.value.depth == 0

    def test_deep_recovery_of_eps(self):
        jf = jfraction_from_moments([q_euler_recursive(k) for k in range(25)])
        assert len(jf.a_list) == 12
        assert len(jf.b_list) == 11
        for n, a in enumerate(jf.a_list):
            assert a == coeffs_p(0, n)[0]
        for k, b in enumerate(jf.b_list, start=1):
            assert b == coeffs_p(0, k)[1]

    def test_roundtrip_against_recurrence(self):
        moments = jfraction_expand(jfraction_for("qeuler", 0), 12)
        jf = jfraction_from_moments(moments)
        assert jf.mu0 == Q_ONE
        assert len(jf.a_list) == 6
        assert len(jf.b_list) == 5
        for n, a in enumerate(jf.a_list):
            assert a == coeffs_p(0, n)[0]
        for k, b in enumerate(jf.b_list, start=1):
            assert b == coeffs_p(0, k)[1]

    def test_roundtrip_xi(self):
        moments = [xi_moment(2, k) for k in range(11)]
        jf = jfraction_from_moments(moments)
        for n, a in enumerate(jf.a_list):
            assert a == coeffs_monic(2, n)[0]
        for k, b in enumerate(jf.b_list, start=1):
            assert b == coeffs_monic(2, k)[1]


# The polynomial routes that served J-fraction recovery and expansion before
# the scalar tables, kept as oracles: Gram-Schmidt over ZPoly, and the series
# of the convergent read to depth ceil(order/2) + 1.
def _gram_schmidt_jfraction(moments):
    vals = list(moments)

    def pair(p):
        out = Q_ZERO
        for k, c in enumerate(p.coeffs):
            out = out + c * vals[k]
        return out

    d = len(vals) // 2
    a_list, b_list = [], []
    p_prev, p_cur = ZPoly.zero(), ZPoly.one()
    norm_prev, norm_cur = Q_ONE, pair(p_cur * p_cur)
    for m in range(d):
        if norm_cur.is_zero:
            raise NotQuasiDefiniteError(m)
        a_m = -pair(p_cur.shift_up(1) * p_cur) / norm_cur
        a_list.append(a_m)
        if m:
            b_list.append(norm_cur / norm_prev)
        p_next = ZPoly([a_m, Q_ONE]) * p_cur
        if m:
            p_next = p_next - p_prev.scale(b_list[-1])
        p_prev, p_cur = p_cur, p_next
        if m + 1 < d:
            norm_prev, norm_cur = norm_cur, pair(p_cur * p_cur)
    return JFraction.from_lists(vals[0], a_list, b_list)


def _convergent_expand(jf, order):
    depth = (order + 1) // 2 + 1
    num = ZPoly([Q_ONE, jf.a(depth - 1)])
    den = ZPoly.one()
    for k in range(depth - 2, -1, -1):
        num, den = ZPoly([Q_ONE, jf.a(k)]) * num - den.scale(jf.b(k + 1)).shift_up(2), num
    out = []
    for m in range(order + 1):
        val = jf.mu0 * den.coeff(m)
        for j in range(1, m + 1):
            val = val - num.coeff(j) * out[m - j]
        out.append(val)
    return out


def _recovery(recover, moments):
    """(a_list, b_list) of a recovery, or the depth it reports as failing."""
    try:
        jf = recover(moments)
    except NotQuasiDefiniteError as exc:
        return exc.depth
    return jf.a_list, jf.b_list


def _rational(rng, span):
    return const(rng.randint(-span, span)) / const(rng.randint(1, span))


def _random_prefix(rng, d):
    """A J-fraction prefix of rational constants with every b nonzero."""
    a = [_rational(rng, 4) for _ in range(d)]
    b = [_rational(rng, 4) for _ in range(d)]
    b = [v if not v.is_zero else Q_ONE for v in b]
    return JFraction.from_lists(_rational(rng, 3) or Q_ONE, a, b)


def _zero_laden_prefix(rng, d):
    """A J-fraction prefix a(0..d-1), b(1..d) of small integers, zeros frequent."""
    return JFraction.from_lists(const(rng.choice((0, 1, 2))),
                                [const(rng.choice((0, 1, -1, 2))) for _ in range(d)],
                                [const(rng.choice((0, 1, -1, 2, 3))) for _ in range(d)])


def _outcome(route):
    """A route's quotient list, or the depth it reports as failing."""
    try:
        return route()
    except NotQuasiDefiniteError as exc:
        return exc.depth


FAMILIES = [("eps", 0)] + [(kind, ell) for kind in ("theta", "xi") for ell in range(4)]


def _family_moments(kind, ell):
    if kind == "eps":
        return [q_euler_recursive(k) for k in range(15)]
    moment = theta_moment if kind == "theta" else xi_moment
    return [moment(ell, k) for k in range(11)]


class TestJFractionTables:
    def test_recovery_matches_gram_schmidt_on_random_prefixes(self):
        rng = random.Random(0xC4E8)
        for _ in range(40):
            d = rng.randint(1, 6)
            jf = _random_prefix(rng, d + 1)
            moments = _convergent_expand(jf, 2 * d)
            got = jfraction_from_moments(moments)
            assert (got.a_list, got.b_list) == _recovery(_gram_schmidt_jfraction, moments)
            assert got.a_list == jf.a_list[:d]
            assert got.b_list == jf.b_list[: d - 1]

    def test_failing_depth_matches_gram_schmidt_on_random_constants(self):
        # b(k) = 0 makes the Hankel determinant of order k vanish
        rng = random.Random(0x5161)
        outcomes = set()
        for _ in range(60):
            d = rng.randint(1, 6)
            jf = _random_prefix(rng, d + 1)
            jf.b_list[rng.randrange(d)] = Q_ZERO
            cases = [_convergent_expand(jf, 2 * d)]
            cases.append([const(rng.randint(-1, 1)) for _ in range(rng.randint(1, 11))])
            for moments in cases:
                want = _recovery(_gram_schmidt_jfraction, moments)
                assert _recovery(jfraction_from_moments, moments) == want
                outcomes.add(want if isinstance(want, int) else "ok")
        assert {"ok", 0, 1, 2, 3, 4, 5} <= outcomes

    @pytest.mark.parametrize("kind, ell", FAMILIES)
    def test_recovery_matches_gram_schmidt_on_family_moments(self, kind, ell):
        moments = _family_moments(kind, ell)
        assert _recovery(jfraction_from_moments, moments) == _recovery(
            _gram_schmidt_jfraction, moments
        )

    def test_expansion_matches_convergents(self):
        rng = random.Random(0xE4A)
        fractions = [jfraction_for("qeuler", 0), jfraction_for("qeuler", 1)]
        fractions += [jfraction_for("theta", ell) for ell in range(4)]
        fractions += [jfraction_for("xi", ell) for ell in range(4)]
        fractions += [_random_prefix(rng, 8) for _ in range(10)]
        fractions += [_zero_laden_prefix(rng, 8) for _ in range(40)]
        for jf in fractions:
            assert jfraction_expand(jf, 13) == _convergent_expand(jf, 13)

    @pytest.mark.parametrize("kind, ell", FAMILIES)
    def test_b_is_a_ratio_of_hankel_determinants(self, kind, ell):
        moments = _family_moments(kind, ell)
        jf = jfraction_from_moments(moments)
        dets = [Q_ONE] + [
            hankel_product(minor_quotients(hankel_matrix(moments, 0, k)))
            for k in range(len(jf.a_list))
        ]  # dets[k + 1] = Delta_k, dets[0] = Delta_{-1} = 1
        for k, b in enumerate(jf.b_list, start=1):
            assert b == dets[k + 1] * dets[k - 1] / dets[k] ** 2

    def test_prefix_expands_back_to_its_moments(self):
        # 2d moments give a(0..d-1), b(1..d-1): exactly what mu_0..mu_{2d-1} need
        mu = [q_euler_recursive(k) for k in range(20)]
        for d in range(1, 11):
            jf = jfraction_from_moments(mu[: 2 * d])
            assert jfraction_expand(jf, 2 * d - 1) == mu[: 2 * d]

    def test_favard_matches_the_polynomial_at_zero(self):
        for jf in (jfraction_for("qeuler", 0), jfraction_for("qeuler", 1), jfraction_for("theta", 2)):
            polys = three_term_build(jf, 9)
            shifted, plain = favard_quotients(jf, 8), heilermann_quotients(jf, 8)
            for n in range(9):
                want = const(parity_sign(n + 1)) * polys[n + 1](Q_ZERO) * hankel_product(plain[: n + 1])
                assert hankel_product(shifted[: n + 1]) == want

    @pytest.mark.parametrize("ell", [0, 1])
    def test_favard_quotients_at_n14(self, ell):
        # d_k = -(Heilermann's d_k) p_{k+1}(0) / p_k(0), read off the polynomials
        jf = jfraction_for("qeuler", ell)
        at_zero = [p(Q_ZERO) for p in three_term_build(jf, 15)]
        want = [-d * at_zero[k + 1] / at_zero[k] for k, d in enumerate(heilermann_quotients(jf, 14))]
        assert favard_quotients(jf, 14) == want


def _gcd_work(monkeypatch, fn):
    """(calls, sum of operand lengths) of ratcore._gcd_full during fn()."""
    real, work = ratcore._gcd_full, [0, 0]

    def counting(a, b):
        work[0] += 1
        work[1] += len(a.coeffs) + len(b.coeffs)
        return real(a, b)

    with monkeypatch.context() as m:
        m.setattr(ratcore, "_gcd_full", counting)
        m.setattr(hankel, "_gcd_full", counting)
        fn()
    return tuple(work)


class TestRecurrenceWork:
    """Both J-fraction recurrences run on ratios, whose operands stay the
    size of the quotients d_k; on the raw sigma_k(l) and p_k(0), which grow
    like Hankel determinants, the same reductions read far longer inputs."""

    def test_recovery_operand_volume(self, monkeypatch):
        # eps_0..16 (d = 8): 450 calls on 46,009 coefficients on sigma_k(l),
        # 443 on 32,521 on tau_k(l)
        mu = [q_euler_recursive(k) for k in range(17)]
        calls, volume = _gcd_work(monkeypatch, lambda: jfraction_from_moments(mu))
        assert calls <= 470
        assert volume <= 39_000

    def test_favard_gcd_calls(self, monkeypatch):
        # 148 calls on p_k(0), 98 on r_k = p_{k+1}(0) / p_k(0)
        jf = jfraction_for("qeuler", 1)
        want = favard_quotients(jf, 12)  # computes and caches a(k), b(k)
        calls, _ = _gcd_work(monkeypatch, lambda: favard_quotients(jf, 12))
        assert calls <= 120
        assert favard_quotients(jf, 12) == want


class TestHeilermann:
    def test_depth_zero_is_mu0(self):
        jf = jfraction_for("qeuler", 1)
        assert heilermann_quotients(jf, 0) == [jf.mu0]

    def test_depth_one(self):
        jf = jfraction_for("qeuler", 0)
        assert hankel_product(heilermann_quotients(jf, 1)) == jf.mu0 ** 2 * jf.b(1)

    def test_matches_bruteforce(self):
        eps = q_euler_recursive
        jf = jfraction_for("qeuler", 0)
        assert heilermann_quotients(jf, 4) == minor_quotients(hankel_matrix(eps, 0, 4))

    def test_shifted_depth_zero(self):
        # first shifted determinant is just the first moment
        got = favard_quotients(jfraction_for("qeuler", 0), 0)
        assert got == [q_euler_recursive(1)]

    def test_shifted_matches_bruteforce(self):
        eps = q_euler_recursive
        jf = jfraction_for("qeuler", 0)
        assert favard_quotients(jf, 3) == minor_quotients(hankel_matrix(eps, 1, 3))

    def test_double_shift_through_tail_sequence(self):
        # shift-2 determinants are shift-1 determinants of the tail moments
        eps = q_euler_recursive
        jf1 = jfraction_for("qeuler", 1)
        assert favard_quotients(jf1, 3) == minor_quotients(hankel_matrix(eps, 2, 3))

    def test_shifted_zero_minor_matches_bruteforce(self):
        # a(0) = 0 makes mu_1 = 0: the shift-1 minor of order 0 vanishes, so
        # d_0 = 0 and d_1 is undefined, by the recurrence and by brute force
        jf = JFraction.from_lists(Q_ONE, [Q_ZERO, Q_ONE], [qpow(1)])
        moments = jfraction_expand(jf, 3)
        assert favard_quotients(jf, 0) == minor_quotients(hankel_matrix(moments, 1, 0)) == [Q_ZERO]
        for route in (lambda: favard_quotients(jf, 1),
                      lambda: minor_quotients(hankel_matrix(moments, 1, 1))):
            with pytest.raises(NotQuasiDefiniteError) as e:
                route()
            assert e.value.depth == 0

    def test_zero_at_zero_fails_one_step_later(self):
        # p_2(0) = a(1) p_1(0) - b(1) = 0: the shift-1 minor of order 1
        # vanishes, so d_1 = 0 and d_2 is undefined, by both routes
        jf = JFraction.from_lists(Q_ONE, [Q_ONE, Q_ONE, qpow(1), Q_ONE], [Q_ONE, qpow(2), qpow(1)])
        moments = jfraction_expand(jf, 6)
        want = [-Q_ONE, Q_ZERO]
        assert favard_quotients(jf, 1) == minor_quotients(hankel_matrix(moments, 1, 1)) == want
        for route in (lambda: favard_quotients(jf, 2),
                      lambda: minor_quotients(hankel_matrix(moments, 1, 2))):
            with pytest.raises(NotQuasiDefiniteError) as e:
                route()
            assert e.value.depth == 1

    def test_routes_follow_the_bruteforce_rule_on_zero_laden_prefixes(self):
        # d_0..d_n, or NotQuasiDefiniteError(k) at the first k < n with d_k = 0,
        # exactly as minor_quotients gives on the expanded moments
        rng = random.Random(0x2E40)
        raised = set()
        for _ in range(3000):
            n = rng.randint(0, 4)
            jf = _zero_laden_prefix(rng, n + 1)
            moments = jfraction_expand(jf, 2 * n + 2)
            for shift, route in ((0, heilermann_quotients), (1, favard_quotients)):
                want = _outcome(lambda: minor_quotients(hankel_matrix(moments, shift, n)))
                assert _outcome(lambda: route(jf, n)) == want
                if isinstance(want, int):
                    raised.add((shift, want))
        assert raised == {(shift, k) for shift in (0, 1) for k in range(4)}

    def test_zero_b_at_the_last_step_is_a_zero_quotient(self):
        # b(1) = 0 terminates the fraction: 1 / (1 - 0 x^2 / (1 + ...)) = 1
        jf = JFraction.from_lists(Q_ONE, [Q_ZERO, Q_ZERO], [Q_ZERO])
        moments = jfraction_expand(jf, 3)
        assert moments == [Q_ONE, Q_ZERO, Q_ZERO, Q_ZERO]
        assert heilermann_quotients(jf, 1) == minor_quotients(hankel_matrix(moments, 0, 1)) == [Q_ONE, Q_ZERO]

    def test_zero_mu0_raises_at_depth_zero(self):
        jf = JFraction.from_lists(Q_ZERO, [Q_ONE] * 3, [Q_ONE] * 3)
        moments = jfraction_expand(jf, 4)
        for route in (lambda: heilermann_quotients(jf, 2),
                      lambda: minor_quotients(hankel_matrix(moments, 0, 2))):
            with pytest.raises(NotQuasiDefiniteError) as e:
                route()
            assert e.value.depth == 0

    def test_negative_n(self):
        with pytest.raises(ValueError):
            heilermann_quotients(jfraction_for("qeuler", 0), -1)
        with pytest.raises(ValueError):
            favard_quotients(jfraction_for("qeuler", 0), -1)


class TestClosedForms:
    def test_shift0(self):
        eps = q_euler_recursive
        assert theorem1_quotients(0, 4) == minor_quotients(hankel_matrix(eps, 0, 4))

    def test_shift1(self):
        eps = q_euler_recursive
        assert theorem1_quotients(1, 3) == minor_quotients(hankel_matrix(eps, 1, 3))

    def test_shift2(self):
        eps = q_euler_recursive
        assert theorem1_quotients(2, 3) == minor_quotients(hankel_matrix(eps, 2, 3))

    def test_bad_shift(self):
        with pytest.raises(ValueError):
            theorem1_quotients(3, 1)
        with pytest.raises(ValueError):
            theorem1_quotients(0, -1)

    def test_value_at_one(self):
        # the determinant itself has no pole at q = 1
        eps = q_euler_recursive
        for n in range(4):
            det = hankel_product(minor_quotients(hankel_matrix(eps, 0, n)))
            want = Fraction(-1, 4) ** comb(n + 1, 2)
            for k in range(1, n + 1):
                want *= Fraction(factorial(k)) ** 2
            assert det.eval_at(1) == want

    def test_chapoton_zeng_frozen(self):
        want = RatFuncQ(P(-1), P(1, 1) * P(1, 1) * P(1, 1, 1))
        assert hankel_product(chapoton_zeng_quotients(1)) == want

    def test_chapoton_zeng_matches_bruteforce(self):
        beta = q_bernoulli_recursive
        assert chapoton_zeng_quotients(4) == minor_quotients(hankel_matrix(beta, 0, 4))

    def test_theta_det_three_ways(self):
        for ell in range(3):
            seq = partial(theta_moment, ell)
            jf = jfraction_for("theta", ell)
            want = theta_det_quotients(ell, 3)
            assert minor_quotients(hankel_matrix(seq, 0, 3)) == want
            assert heilermann_quotients(jf, 3) == want

    def test_xi_det_three_ways(self):
        for ell in range(3):
            seq = partial(xi_moment, ell)
            jf = jfraction_for("xi", ell)
            want = xi_det_quotients(ell, 3)
            assert minor_quotients(hankel_matrix(seq, 0, 3)) == want
            assert heilermann_quotients(jf, 3) == want

    def test_theta_closed_forms_match_recurrence_routes(self):
        # theorem 1 shifts 0 and 1 and every xi closed form go through theta's
        eps0 = jfraction_for("qeuler", 0)
        assert theorem1_quotients(0, 8) == heilermann_quotients(eps0, 8)
        assert theorem1_quotients(1, 8) == favard_quotients(eps0, 8)
        for ell in range(4):
            assert xi_det_quotients(ell, 8) == heilermann_quotients(jfraction_for("xi", ell), 8)

    def test_theta_det_at_ell_zero_collapses(self):
        assert theta_det_quotients(0, 4) == minor_quotients(
            hankel_matrix(partial(theta_moment, 0), 0, 4)
        )

    def test_shift1_factors_through_theta(self):
        # shift-1 determinants of eps = eps_1^{n+1} times the theta_1 determinant
        eps1 = q_euler_recursive(1)
        assert theorem1_quotients(1, 4) == [eps1 * d for d in theta_det_quotients(1, 4)]


class TestExponents:
    def test_closed_forms(self):
        for n in range(20):
            assert shift0_exponent(n) == sum(k * k for k in range(n + 1))
            assert shift12_exponent(n) == sum(k * k for k in range(n + 2))

    def test_integrality_sweep(self):
        assert verify_exponent_integrality(80)


def test_hankel_result_json():
    # det --method X -f json: one route's H_n, tagged with how it was obtained;
    # the value is eps_0 eps_2 - eps_1^2 = -q / ((1 + q^2)^2 (1 - q + q^2))
    result = invoke(
        ["det", "--id", "qeuler", "--n", "1", "--method", "closedform", "-f", "json"])
    assert result.exit_code == 0
    value = {"num": ["0", "-1"], "den": ["1", "-1", "3", "-2", "3", "-1", "1"]}
    assert json.loads(result.output) == {
        "seq": "qeuler",
        "shift": 0,
        "n": 1,
        "method": "closedform",
        "value": value,
    }
    assert value == json.loads(serialize(q_euler_recursive(2) - q_euler_recursive(1) ** 2))
