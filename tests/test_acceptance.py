"""Acceptance suite: every headline identity, checked exactly, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Every comparison is structural equality of canonical
rational functions; there are no tolerances anywhere.
"""

import random
from fractions import Fraction
from functools import partial
from math import comb, factorial

from qhankel.carlitz import (
    q_bernoulli_explicit,
    q_bernoulli_recursive,
    q_euler_explicit,
    q_euler_recursive,
)
from qhankel.functionals import (
    apply_functional,
    jfraction_for,
    phi_closed_m_n,
    phi_closed_n1_n,
    phi_via_basis,
    qbinom_basis,
    theta_moment,
    verify_phi_relation,
    xi_moment,
)
from qhankel.hankel import (
    chapoton_zeng_quotients,
    favard_quotients,
    hankel_matrix,
    hankel_product,
    heilermann_quotients,
    jfraction_expand,
    jfraction_from_moments,
    minor_quotients,
    theorem1_quotients,
    theta_det_quotients,
    xi_det_quotients,
)
from qhankel.orthopoly import (
    ZPoly,
    affine_transform,
    build_j_via_phi2,
    build_jtilde_via_phi2,
    build_p_via_phi2,
    coeffs_ab,
    coeffs_p,
    three_term_build,
)
from qhankel.ratcore import Q_ONE, QPoly, RatFuncQ, const, qpow
from qhankel.verification import run_checks


def _line(num: int, desc: str, bad: list) -> None:
    tag = "PASS" if not bad else "FAIL"
    print(f"[{tag}] criterion {num:02d}: {desc}")
    assert not bad, f"criterion {num}: " + "; ".join(str(b) for b in bad[:5])


def _differing(*lists) -> list:
    """f"n={n}" for each n whose quotient d_n differs between the lists: equal
    lists d_0..d_n mean equal determinants H_0..H_n."""
    return [f"n={n}" for n, ds in enumerate(zip(*lists)) if len(set(ds)) > 1]


def test_criterion_01_shift0_three_ways():
    eps = q_euler_recursive
    jf = jfraction_for("qeuler", 0)
    brute = minor_quotients(hankel_matrix(eps, 0, 6))
    bad = _differing(brute, theorem1_quotients(0, 6), heilermann_quotients(jf, 6))
    _line(1, "shift-0 determinants agree brute/closed/recurrence, n <= 6", bad)


def test_criterion_02_shift1_three_ways():
    eps = q_euler_recursive
    jf = jfraction_for("qeuler", 0)
    brute = minor_quotients(hankel_matrix(eps, 1, 6))
    bad = _differing(brute, theorem1_quotients(1, 6), favard_quotients(jf, 6))
    _line(2, "shift-1 determinants agree brute/closed/recurrence, n <= 6", bad)


def test_criterion_03_shift2_three_ways():
    eps = q_euler_recursive
    jf_tail = jfraction_for("qeuler", 1)
    brute = minor_quotients(hankel_matrix(eps, 2, 5))
    bad = _differing(brute, theorem1_quotients(2, 5), favard_quotients(jf_tail, 5))
    _line(3, "shift-2 determinants agree brute/closed/recurrence, n <= 5", bad)


def test_criterion_04_value_at_one():
    bad = []
    closed = theorem1_quotients(0, 5)
    for n in range(6):
        want = Fraction(-1, 4) ** comb(n + 1, 2)
        for k in range(1, n + 1):
            want *= Fraction(factorial(k)) ** 2
        if hankel_product(closed[: n + 1]).eval_at(1) != want:
            bad.append(f"n={n}")
    _line(4, "shift-0 closed form at q=1 equals (-1/4)^C(n+1,2) prod k!^2", bad)


def test_criterion_05_two_definitions_agree():
    eps_at_one = [
        Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(1, 4), Fraction(0),
        Fraction(-1, 2), Fraction(0), Fraction(17, 8), Fraction(0), Fraction(-31, 2),
    ]
    bad = []
    for n in range(21):
        if q_euler_explicit(n) != q_euler_recursive(n):
            bad.append(f"eps n={n}")
        if q_bernoulli_explicit(n) != q_bernoulli_recursive(n):
            bad.append(f"beta n={n}")
    for n, want in enumerate(eps_at_one):
        if q_euler_recursive(n).eval_at(Fraction(1)) != want:
            bad.append(f"eps at q=1, n={n}")
    _line(5, "explicit and recursive q-sequences agree, with known q=1 values", bad)


def test_criterion_06_bernoulli_determinants():
    beta = q_bernoulli_recursive
    bad = _differing(minor_quotients(hankel_matrix(beta, 0, 5)), chapoton_zeng_quotients(5))
    _line(6, "q-Bernoulli Hankel determinants match the closed form, n <= 5", bad)


def test_criterion_07_jfraction_generates_moments():
    bad = []
    for ell in (0, 1):
        got = jfraction_expand(jfraction_for("qeuler", ell), 12)
        for k, val in enumerate(got):
            if val != q_euler_recursive(k + ell):
                bad.append(f"ell={ell}, k={k}")
    _line(7, "J-fraction expansion reproduces eps tails to order 12", bad)


def test_criterion_08_orthogonality_suites():
    bad = []
    for n in range(1, 9):
        if not apply_functional("qeuler", 0, build_p_via_phi2(0, n)).is_zero:
            bad.append(f"phi kills P(0,{n})")
        if not apply_functional("qeuler", 1, build_p_via_phi2(1, n)).is_zero:
            bad.append(f"phi_1 kills P(1,{n})")
    for ell in range(4):
        polys = [build_p_via_phi2(ell, n) for n in range(7)]
        for n in range(1, 7):
            if not apply_functional("theta", ell, polys[n]).is_zero:
                bad.append(f"theta_{ell} kills P({ell},{n})")
        for n in range(6):
            for m in range(n):
                if not apply_functional("theta", ell, polys[m] * polys[n]).is_zero:
                    bad.append(f"theta_{ell} pairwise ({m},{n})")
        for n in range(1, 7):
            if not apply_functional("xi", ell, build_jtilde_via_phi2(ell, n)).is_zero:
                bad.append(f"xi_{ell} kills Jt({ell},{n})")
    _line(8, "orthogonality of each functional against its family", bad)


def test_criterion_09_functional_relation_random():
    rng = random.Random(0xE95)
    bad = []
    for i in range(100):
        deg = rng.randint(0, 8)
        p = ZPoly([const(rng.randint(-9, 9)) for _ in range(deg + 1)])
        if not verify_phi_relation(p):
            bad.append(f"trial {i}")
    _line(9, "q phi(P(1+qz)) + phi(P) = (1+q) P(0) on 100 random P", bad)


def test_criterion_10_basis_closed_forms():
    bad = []
    for n in range(7):
        for m in range(n + 1):
            if phi_closed_m_n(m, n) != phi_via_basis(qbinom_basis(m, n)):
                bad.append(f"(m,n)=({m},{n})")
        if phi_closed_n1_n(n) != phi_via_basis(qbinom_basis(n + 1, n)):
            bad.append(f"(n+1,n)=({n + 1},{n})")
    _line(10, "phi closed forms on the q-binomial basis, 0 <= m <= n <= 6", bad)


def test_criterion_11_theta_xi_determinants():
    bad = []
    for ell in range(4):
        xi_seq = partial(xi_moment, ell)
        brute = minor_quotients(hankel_matrix(xi_seq, 0, 5))
        bad += [f"xi ell={ell}, {n}" for n in _differing(brute, xi_det_quotients(ell, 5))]
        th_seq = partial(theta_moment, ell)
        brute = minor_quotients(hankel_matrix(th_seq, 0, 4))
        bad += [f"theta ell={ell}, {n}" for n in _differing(brute, theta_det_quotients(ell, 4))]
    for ell in (0, 1):
        eps_ell = q_euler_recursive(ell)
        for n in range(11):
            if q_euler_recursive(n + ell) != eps_ell * theta_moment(ell, n):
                bad.append(f"intertwining ell={ell}, n={n}")
    _line(11, "xi and theta determinant closed forms, moment intertwining", bad)


def test_criterion_12_cross_route_polynomials():
    bad = []
    u = RatFuncQ(QPoly((0, -1, 1)))
    v = qpow(1)
    for ell in range(4):
        series = [build_p_via_phi2(ell, n) for n in range(9)]
        recur = three_term_build(jfraction_for("theta", ell), 8)
        jtilde = [build_jtilde_via_phi2(ell, n) for n in range(9)]
        affine = affine_transform(jtilde, u, v)
        for n in range(9):
            if not (series[n] == recur[n] == affine[n]):
                bad.append(f"P routes ell={ell}, n={n}")
        js = [build_j_via_phi2(ell, n) for n in range(8)]
        for n in range(1, 7):
            A, B = coeffs_ab(ell, n)
            lhs = js[n + 1].scale(A)
            rhs = js[n] * ZPoly([A + B - Q_ONE, Q_ONE]) - js[n - 1].scale(B)
            if lhs != rhs:
                bad.append(f"J recurrence ell={ell}, n={n}")
    _line(12, "polynomial families agree across all construction routes", bad)


def test_criterion_13_moment_roundtrip():
    moments = [q_euler_recursive(k) for k in range(13)]
    jf = jfraction_from_moments(moments)
    bad = []
    for n in range(6):
        if jf.a_list[n] != coeffs_p(0, n)[0]:
            bad.append(f"a({n})")
    for k in range(1, 6):
        if jf.b_list[k - 1] != coeffs_p(0, k)[1]:
            bad.append(f"b({k})")
    _line(13, "recurrence data recovered from the first 13 eps moments", bad)


def test_criterion_14_exponent_integrality():
    bad = []
    for n in range(51):
        if comb(2 * n + 2, 3) != 4 * sum(k * k for k in range(n + 1)):
            bad.append(f"shift0 n={n}")
        if comb(2 * n + 4, 3) != 4 * sum(k * k for k in range(n + 2)):
            bad.append(f"shift12 n={n}")
    (check,) = run_checks(5, only="exponent-integrality")
    if not (check.passed and check.cases == 51):
        bad.append(f"exponent-integrality: {check}")
    _line(14, "quarter-binomial exponents are the square-sum integers, n <= 50", bad)
