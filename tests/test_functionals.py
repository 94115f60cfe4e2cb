"""Moment functionals, the q-binomial diagonal basis, and orthogonality checks."""

import json
import random
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from qhankel import functionals, orthopoly, ratcore
from qhankel.carlitz import q_bernoulli_recursive, q_euler_explicit, q_euler_recursive
from qhankel.cli import main
from qhankel.functionals import (
    SEQUENCES,
    _pairing_failures,
    apply_functional,
    favard_family,
    from_diagonal_basis,
    jfraction_for,
    moments_for,
    phi,
    phi_closed_m_n,
    phi_closed_n1_n,
    phi_via_basis,
    qbinom_basis,
    theta_moment,
    theta_moment_via_basis,
    theta_on_basis,
    to_diagonal_basis,
    verify_orthogonality,
    verify_phi_relation,
    xi_moment,
)
from qhankel.hankel import jfraction_expand
from qhankel.orthopoly import (
    JFraction,
    ZPoly,
    build_jtilde_via_phi2,
    build_p_via_phi2,
    coeffs_monic,
    coeffs_p,
    three_term_build,
)
from qhankel.qkit import poch
from qhankel.ratcore import Q_ONE, Q_ZERO, QPoly, RatFuncQ, const, qpow, serialize


def P(*coeffs):
    return QPoly(coeffs)


class TestQBinomBasis:
    def test_base_cases(self):
        assert qbinom_basis(0, 0) == ZPoly.one()
        assert qbinom_basis(3, 0) == ZPoly.one()

    def test_degree_one(self):
        assert qbinom_basis(1, 1) == ZPoly([Q_ONE, qpow(1)])

    def test_shift_identity(self):
        # ([m-n+1]_q + q^{m-n+1} z) [m+1, z choose n]_q
        #     == ([m+1]_q + q^{m+1} z) [m, z choose n]_q
        from qhankel.qkit import q_int

        for m in range(5):
            for n in range(m + 1):
                low = ZPoly([q_int(m - n + 1), qpow(m - n + 1)])
                high = ZPoly([q_int(m + 1), qpow(m + 1)])
                assert low * qbinom_basis(m + 1, n) == high * qbinom_basis(m, n)

    def test_degree_equals_n(self):
        for m in range(5):
            for n in range(m + 1):
                assert qbinom_basis(m, n).degree == n


class TestDiagonalBasis:
    def test_z_expansion(self):
        # z = -(1/q) * 1 + (1/q) * (1 + q z)... written in the diagonal basis
        assert to_diagonal_basis(ZPoly.z()) == [-qpow(-1), qpow(-1)]

    def test_zero(self):
        assert to_diagonal_basis(ZPoly.zero()) == []
        assert from_diagonal_basis([]) == ZPoly.zero()

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(25):
            coeffs = [
                const(rng.randint(-4, 4)) * qpow(rng.randint(-2, 2))
                for _ in range(rng.randint(1, 6))
            ]
            p = ZPoly(coeffs)
            assert from_diagonal_basis(to_diagonal_basis(p)) == p

    def test_roundtrip_other_direction(self):
        cs = [Q_ONE, -qpow(2), Q_ZERO, const(3)]
        assert to_diagonal_basis(from_diagonal_basis(cs)) == cs


class TestPhi:
    def test_moments_are_q_euler(self):
        for n in range(10):
            assert phi(ZPoly.monomial(n)) == q_euler_recursive(n)

    def test_on_basis_values(self):
        assert theta_on_basis(0, 0) == Q_ONE
        assert theta_on_basis(0, 1) == RatFuncQ(P(1), P(1, 0, 1))
        assert theta_on_basis(0, 2) == RatFuncQ(P(1), P(1, 0, 1) * P(1, 0, 0, 1))

    def test_two_routes_agree(self):
        rng = random.Random(21)
        for _ in range(20):
            p = ZPoly([const(rng.randint(-5, 5)) for _ in range(rng.randint(1, 8))])
            assert phi(p) == phi_via_basis(p)

    def test_kills_degree_one_member(self):
        assert phi(build_p_via_phi2(0, 1)) == Q_ZERO

    def test_closed_forms(self):
        assert phi_closed_m_n(0, 1) == RatFuncQ(P(0, -1), P(1, 0, 1))
        assert phi_closed_n1_n(0) == Q_ONE
        for n in range(7):
            for m in range(n + 1):
                assert phi(qbinom_basis(m, n)) == phi_closed_m_n(m, n)
            assert phi(qbinom_basis(n + 1, n)) == phi_closed_n1_n(n)

    def test_closed_form_domain(self):
        with pytest.raises(ValueError):
            phi_closed_m_n(3, 2)
        with pytest.raises(ValueError):
            phi_closed_n1_n(-1)

    def test_functional_relation(self):
        assert verify_phi_relation(ZPoly.one())
        assert verify_phi_relation(ZPoly.z())
        for n in range(9):
            assert verify_phi_relation(ZPoly.monomial(n))
        rng = random.Random(99)
        for _ in range(30):
            p = ZPoly(
                [
                    const(rng.randint(-6, 6)) * qpow(rng.randint(0, 2))
                    for _ in range(rng.randint(1, 9))
                ]
            )
            assert verify_phi_relation(p)


class TestThetaAndXi:
    def test_theta_zero_moment(self):
        for ell in range(4):
            assert theta_moment(ell, 0) == Q_ONE

    def test_theta_on_basis_closed_form(self):
        for ell in range(3):
            for n in range(6):
                want = poch(qpow(ell + 1), n) / (
                    poch(qpow(1), n) * poch(-qpow(ell + 2), n)
                )
                assert theta_on_basis(ell, n) == want

    def test_moment_intertwining(self):
        # eps_{n+ell} = eps_ell * theta_ell(z^n) for ell = 0, 1
        for ell in (0, 1):
            eps_ell = q_euler_recursive(ell)
            for n in range(31):
                assert q_euler_recursive(n + ell) == eps_ell * theta_moment(ell, n), (ell, n)

    def test_xi_frozen_value(self):
        # xi_{0,1} = q (1+q) / (1+q^2)
        assert xi_moment(0, 1) == RatFuncQ(P(0, 1) * P(1, 1), P(1, 0, 1))

    def test_xi_on_pochhammer_polys(self):
        # Xi_ell((z; q)_n) = (q^{ell+1}; q)_n / (-q^{ell+2}; q)_n
        for ell in range(4):
            prod = ZPoly.one()
            for n in range(9):
                want = poch(qpow(ell + 1), n) / poch(-qpow(ell + 2), n)
                assert apply_functional("xi", ell, prod) == want
                prod = prod * ZPoly([Q_ONE, -qpow(n)])

    def test_moment_seq_ids(self):
        def seq_json(*argv):
            result = CliRunner().invoke(main, ["seq", *argv, "--max-n", "3", "-f", "json"])
            assert result.exit_code == 0
            return json.loads(result.output)

        assert seq_json("--id", "theta", "--ell", "2")["id"] == "theta_ell(2)"
        assert seq_json("--id", "xi")["id"] == "xi_ell(0)"
        got = seq_json("--id", "theta", "--ell", "1")["values"][3]
        assert got == json.loads(serialize(theta_moment(1, 3)))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            xi_moment(-1, 0)
        with pytest.raises(ValueError):
            theta_on_basis(0, -2)

    def test_negative_indices_raise(self):
        # theta_moment(0, -1) once returned 1 through the basis route
        for ell, n in ((0, -1), (-1, 0), (2, -3)):
            with pytest.raises(ValueError):
                theta_moment(ell, n)
            with pytest.raises(ValueError):
                theta_moment_via_basis(ell, n)
            with pytest.raises(ValueError):
                xi_moment(ell, n)

    def test_closed_sum_matches_basis_route(self):
        for ell in range(4):
            for n in range(17):
                assert theta_moment(ell, n) == theta_moment_via_basis(ell, n), (ell, n)

    def test_closed_sum_reads_no_other_route_and_reduces_once(self, monkeypatch):
        theta_moment.cache_clear()
        want = {(ell, n): theta_moment(ell, n) for ell in range(4) for n in range(9)}
        theta_moment.cache_clear()

        def refuse(*args, **kwargs):
            raise AssertionError("theta_moment read another route")

        for module, name in ((functionals, "jfraction_for"),
                             (functionals, "coeffs_p"),
                             (orthopoly, "three_term_build"),
                             (functionals, "three_term_build"),
                             (functionals, "theta_on_basis"),
                             (functionals, "to_diagonal_basis"),
                             (functionals, "theta_moment_via_basis")):
            monkeypatch.setattr(module, name, refuse)
        calls = []
        gcd_full = ratcore._gcd_full

        def counted(a, b):
            calls.append(1)
            return gcd_full(a, b)

        monkeypatch.setattr(ratcore, "_gcd_full", counted)
        for key, value in want.items():
            calls.clear()
            assert theta_moment(*key) == value, key
            assert len(calls) == 1, key

    def test_ratio_steps_match_the_product(self):
        # oracle: q^{(ell+1) n} (-q; q)_n / (-q^{ell+2}; q)_n as two products
        # in Z[q], compared by cross-multiplication (no gcd, so it stays fast)
        one = QPoly.const(1)
        for ell in range(4):
            num, den = one, one
            for n in range(61):
                if n:
                    num = num * (one + QPoly.q_power(n))
                    den = den * (one + QPoly.q_power(ell + n + 1))
                xi = xi_moment(ell, n)
                assert xi.num * den == xi.den * QPoly.q_power((ell + 1) * n) * num, (ell, n)

    def test_cold_calls_stay_shallow(self):
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        xi_moment.cache_clear()
        theta_moment.cache_clear()
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            xi = xi_moment(1, 300)
            theta = theta_moment(1, 30)
        finally:
            sys.setrecursionlimit(old)
        # independent values: the product formula at q = 1/2, and
        # eps_{n+1} = eps_1 theta_1(z^n)
        x = Fraction(1, 2)
        want = x ** 600
        for k in range(300):
            want *= (1 + x ** (k + 1)) / (1 + x ** (k + 3))
        assert xi.eval_at(x) == want
        assert q_euler_recursive(1) * theta == q_euler_explicit(31)


# The J-fractions the table pairs with its moments, and the ells they are
# pinned at: the eps J-fraction is stated for ell in {0, 1} only.
_TABLE_ELLS = {"qeuler": (0, 1), "theta": (0, 1, 2), "xi": (0, 1, 2)}


class TestFunctionalId:
    """A functional is named by its (sequence id, ell), a key of SEQUENCES."""

    def test_validation(self):
        with pytest.raises(ValueError):
            moments_for("theta", -1)
        with pytest.raises(ValueError):
            favard_family("qeuler", 2, 3)  # no eps J-fraction at ell = 2
        with pytest.raises(ValueError, match="qbernoulli"):
            favard_family("qbernoulli", 0, 3)
        assert SEQUENCES["qbernoulli"].coeffs is None

    def test_an_unknown_id_is_a_value_error_naming_it(self):
        for call in (lambda: moments_for("psi", 0), lambda: favard_family("psi", 0, 3),
                     lambda: apply_functional("psi", 0, ZPoly.one()),
                     lambda: verify_orthogonality("psi", 0, 2)):
            with pytest.raises(ValueError, match="'psi'"):
                call()

    def test_moments_for_shift(self):
        # for qeuler and qbernoulli, ell shifts the sequence
        shifted = moments_for("qeuler", 1)
        beta = moments_for("qbernoulli", 2)
        for n in range(6):
            assert shifted(n) == q_euler_recursive(n + 1)
            assert beta(n) == q_bernoulli_recursive(n + 2)

    @pytest.mark.parametrize("seq, ell", [(seq, ell) for seq, ells in _TABLE_ELLS.items()
                                          for ell in ells])
    def test_each_jfraction_expands_to_its_moments(self, seq, ell):
        moments = moments_for(seq, ell)
        assert jfraction_expand(jfraction_for(seq, ell), 8) == [moments(n) for n in range(9)]

    def test_every_jfraction_is_pinned(self):
        assert set(_TABLE_ELLS) == {seq for seq, entry in SEQUENCES.items()
                                    if entry.coeffs is not None}


def _functional_oracle(seq, ell, p):
    """L(p) summed over p's reduced coefficients, one RatFuncQ product and
    sum per coefficient: the oracle for apply_functional's one reduction."""
    moments = moments_for(seq, ell)
    out = Q_ZERO
    for k, c in enumerate(p.coeffs):
        if not c.is_zero:
            out = out + c * moments(k)
    return out


def _orthogonality_oracle(seq, ell, upto):
    """The per-pair route over Q(q): expand each product p_m p_n as a ZPoly
    and sum the functional over its monomial moments, reducing at every
    step.  The oracle for verify_orthogonality's packed pairing in Z[q]."""
    polys = functionals.favard_family(seq, ell, upto)
    failures = []
    head = _functional_oracle(seq, ell, polys[0])
    if head.is_zero:
        failures.append((0, 0, head))
    for n in range(1, upto + 1):
        for m in range(n):
            value = _functional_oracle(seq, ell, polys[m] * polys[n])
            if not value.is_zero:
                failures.append((m, n, value))
    return failures


_ALL_PAIRS = (
    [("qeuler", 0), ("qeuler", 1)]
    + [("theta", ell) for ell in range(4)]
    + [("xi", ell) for ell in range(4)]
)


def _pair_id(pair):
    """The functional, as the paper names it, and the name of its Favard
    family, e.g. theta_ell(2)-p_family(2)."""
    seq, ell = pair
    name = {("qeuler", 0): "phi", ("qeuler", 1): "phi_ell(1)"}.get(pair, f"{seq}_ell({ell})")
    family = "monic_big_q_jacobi" if seq == "xi" else "p_family"
    return f"{name}-{family}({ell})"


def _with_member(index, change):
    """A favard_family double whose member p_index is change(p_index)."""
    real = functionals.favard_family

    def polys(seq, ell, upto):
        out = real(seq, ell, upto)
        out[index] = change(out)
        return out

    return polys


class TestFavardFamily:
    def test_equals_the_recurrence_and_series_families(self):
        # The recurrence of each functional's own coefficient table (coeffs_p
        # for qeuler and theta, coeffs_monic for xi), and the 2phi1 series
        # family it must equal.
        for seq, ell in _ALL_PAIRS:
            coeffs, series = ((coeffs_monic, build_jtilde_via_phi2) if seq == "xi"
                              else (coeffs_p, build_p_via_phi2))
            jf = JFraction(Q_ONE, lambda n: coeffs(ell, n)[0], lambda n: coeffs(ell, n)[1])
            got = favard_family(seq, ell, 5)
            assert got == three_term_build(jf, 5), (seq, ell)
            assert got == [series(ell, n) for n in range(6)], (seq, ell)


class TestPackedPairing:
    @pytest.mark.parametrize("pair", _ALL_PAIRS, ids=_pair_id)
    def test_matches_the_oracle_on_every_pair(self, pair):
        assert verify_orthogonality(*pair, 4) == _orthogonality_oracle(*pair, 4) == []

    @pytest.mark.parametrize("pair", [("theta", 2), ("xi", 1)], ids=_pair_id)
    def test_a_changed_coefficient_fails_as_the_oracle_says(self, monkeypatch, pair):
        # p_3's z^1 coefficient gains c = q / (1 + q^2), a factor that no
        # denominator of the family holds; L(p_m p_3) moves by c L(z p_m),
        # which is nonzero for m <= 1 only
        bump = ZPoly([Q_ZERO, qpow(1) / (Q_ONE + qpow(2))])
        monkeypatch.setattr(functionals, "favard_family",
                            _with_member(3, lambda ps: ps[3] + bump))
        failures = verify_orthogonality(*pair, 5)
        want = _orthogonality_oracle(*pair, 5)
        assert [(m, n) for m, n, _ in want] == [(0, 3), (1, 3)]
        assert failures == want
        assert [serialize(v) for *_, v in failures] == [serialize(v) for *_, v in want]

    def test_a_vanishing_head_is_reported(self, monkeypatch):
        monkeypatch.setattr(functionals, "favard_family", _with_member(0, lambda ps: ps[1]))
        failures = verify_orthogonality("theta", 1, 3)
        want = _orthogonality_oracle("theta", 1, 3)
        assert want[0] == (0, 0, Q_ZERO)
        assert failures == want

    def test_prebuilt_polys_are_cut_to_upto(self):
        polys = favard_family("qeuler", 0, 6)
        polys[5] = polys[5] + ZPoly.one()  # beyond upto, so never paired
        assert verify_orthogonality("qeuler", 0, 3, polys) == []

    def test_a_short_family_is_rejected(self):
        # three polynomials cannot check the pairings up to degree 6
        with pytest.raises(ValueError, match=r"holds 3 polynomials, fewer than the 7"):
            verify_orthogonality("theta", 0, 6, favard_family("theta", 0, 2))

    @pytest.mark.parametrize("pair", _ALL_PAIRS, ids=_pair_id)
    def test_apply_functional_matches_the_coefficient_sum(self, pair):
        rng = random.Random(f"{pair[0]}-{pair[1]}")
        polys = favard_family(*pair, 3)
        for _ in range(4):
            p = polys[rng.randrange(4)] * polys[rng.randrange(4)]
            p = p.scale(RatFuncQ(P(rng.randint(1, 5), 1), P(1, rng.randint(-3, 3), 1)))
            p = p + ZPoly([const(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))])
            assert apply_functional(*pair, p) == _functional_oracle(*pair, p)
        assert apply_functional(*pair, ZPoly.zero()) == Q_ZERO

    def test_apply_functional_reads_a_replaced_moment_map(self, monkeypatch):
        # the cleared moments are kept by value, so a double put in place
        # of theta_moment is read, not an earlier sum's moments
        p = favard_family("theta", 1, 3)[3]
        assert apply_functional("theta", 1, p) == Q_ZERO
        monkeypatch.setattr(functionals, "theta_moment",
                            lambda ell, n: theta_moment(ell, n) + const(n))
        got = apply_functional("theta", 1, p)
        assert got == _functional_oracle("theta", 1, p) != Q_ZERO

    @pytest.mark.parametrize("moments, p1", [
        # (128 - q) + 128, from moments that each fit one byte
        ([RatFuncQ(P(128, -1)), const(128), Q_ZERO], [1, 1]),
        # (2 - q) + 127 * 2, from small moments and a family coefficient 127
        ([RatFuncQ(P(2, -1)), const(2), Q_ZERO], [1, 127]),
    ])
    def test_the_width_covers_a_numerator_that_vanishes_at_256(self, moments, p1):
        # L(p_0 p_1) = mu_0 p1[0] + mu_1 p1[1] is 256 - q, which is zero at
        # x = 256 although every input fits one byte there: a packing point
        # chosen from the moments' or the family's coefficients alone would
        # call the pair orthogonal
        polys = [ZPoly.one(), ZPoly([const(c) for c in p1])]
        assert _pairing_failures(moments, polys) == [(0, 1, RatFuncQ(P(256, -1)))]


class TestOrthogonality:
    def test_phi_pairs(self):
        assert verify_orthogonality("qeuler", 0, 5) == []

    def test_phi_shifted_pairs(self):
        assert verify_orthogonality("qeuler", 1, 4) == []

    def test_theta_pairs(self):
        assert verify_orthogonality("theta", 2, 5) == []

    def test_xi_pairs(self):
        assert verify_orthogonality("xi", 1, 4) == []

    def test_negative_upto(self):
        with pytest.raises(ValueError):
            verify_orthogonality("qeuler", 0, -1)
