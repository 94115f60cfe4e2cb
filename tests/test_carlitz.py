"""Carlitz q-Euler and q-Bernoulli sequences."""

import json
import math
import sys
import threading
from fractions import Fraction
from functools import partial

import pytest

from qhankel import carlitz, ratcore
from qhankel.carlitz import (
    q_bernoulli_explicit,
    q_bernoulli_recursive,
    q_euler_explicit,
    q_euler_recursive,
)
from qhankel.functionals import theta_moment
from qhankel.hankel import hankel_matrix
from qhankel.ratcore import Q_ONE, QPoly, RatFuncQ, serialize
from qhankel.verification import run_checks
from support import invoke


def P(*coeffs):
    return QPoly(coeffs)


EPS_AT_ONE = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 4),
    Fraction(0),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(17, 8),
    Fraction(0),
    Fraction(-31, 2),
]


class TestQEuler:
    def test_first_values(self):
        assert q_euler_recursive(0) == Q_ONE
        assert q_euler_recursive(1) == RatFuncQ(P(0, -1), P(1, 0, 1))
        # eps_2 = -q(1-q^2) / ((1+q^2)(1+q^3))
        want = RatFuncQ(P(0, -1) * P(1, 0, -1), P(1, 0, 1) * P(1, 0, 0, 1))
        assert q_euler_recursive(2) == want
        assert want == RatFuncQ(P(0, -1, 1), P(1, -1, 2, -1, 1))

    def test_routes_agree(self):
        for n in range(21):
            assert q_euler_explicit(n) == q_euler_recursive(n)

    def test_values_at_one(self):
        for n, want in enumerate(EPS_AT_ONE):
            assert q_euler_recursive(n).eval_at(Fraction(1)) == want

    def test_negative_index(self):
        with pytest.raises(ValueError):
            q_euler_explicit(-1)
        with pytest.raises(ValueError):
            q_euler_recursive(-2)


class TestQBernoulli:
    def test_first_values(self):
        assert q_bernoulli_recursive(0) == Q_ONE
        assert q_bernoulli_recursive(1) == RatFuncQ(P(-1), P(1, 1))

    def test_routes_agree(self):
        for n in range(21):
            assert q_bernoulli_explicit(n) == q_bernoulli_recursive(n)

    def test_values_at_one(self):
        # classical Bernoulli numbers
        want = [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 6),
            Fraction(0),
            Fraction(-1, 30),
            Fraction(0),
            Fraction(1, 42),
        ]
        for n, b in enumerate(want):
            assert q_bernoulli_recursive(n).eval_at(Fraction(1)) == b


def _seq_json(seq_id, max_n):
    result = invoke(["seq", "--id", seq_id, "--max-n", str(max_n), "-f", "json"])
    assert result.exit_code == 0
    return json.loads(result.output)


class TestMomentSeq:
    """The recursive moments are memoized functions n -> mu_n."""

    def test_prefix_is_inclusive(self):
        vals = _seq_json("qeuler", 3)["values"]
        assert len(vals) == 4
        assert vals[0] == json.loads(serialize(Q_ONE))
        assert vals[2] == json.loads(serialize(q_euler_recursive(2)))

    def test_value_is_stable(self):
        first = q_bernoulli_recursive(5)
        assert q_bernoulli_recursive(5) is first
        assert hankel_matrix(q_bernoulli_recursive, 1, 2)[2][2] is first

    def test_ids(self):
        assert _seq_json("qeuler", 1)["id"] == "qeuler"
        assert _seq_json("qbernoulli", 1)["id"] == "qbernoulli"

    def test_negative_index(self):
        with pytest.raises(ValueError):
            q_euler_recursive(-1)
        with pytest.raises(ValueError):
            q_bernoulli_recursive(-1)


def _in_threads(fns, timeout):
    """Run each fn in its own thread, switching threads as often as the
    interpreter allows; return the threads after joining them."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fn) for fn in fns]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return threads


def test_recursive_caches_survive_concurrent_extension():
    # Fill each memo from empty in four threads at once; a lost or misplaced
    # update shows up as a wrong value or a wrong entry count.
    top = 25
    q_euler_recursive.cache_clear()
    q_bernoulli_recursive.cache_clear()
    _in_threads(
        [partial(fn, top) for fn in (q_euler_recursive, q_bernoulli_recursive) for _ in range(2)],
        timeout=120,
    )
    assert q_euler_recursive.cache_info().currsize == top + 1
    assert q_bernoulli_recursive.cache_info().currsize == top + 1
    for n in range(top + 1):
        assert q_euler_recursive(n) == q_euler_explicit(n)
        assert q_bernoulli_recursive(n) == q_bernoulli_explicit(n)


def test_moment_seq_survives_concurrent_extension():
    # Four threads build the same theta Hankel matrix from an empty memo.
    ell, n = 1, 4
    moments = partial(theta_moment, ell)
    want = hankel_matrix(moments, 0, n)
    theta_moment.cache_clear()
    got = [None] * 4

    def build(i):
        got[i] = hankel_matrix(moments, 0, n)

    _in_threads([partial(build, i) for i in range(4)], timeout=120)
    assert got == [want] * 4


def test_cold_recursion_stays_shallow():
    # Entry n asks for entries 0..n-1 in ascending order, so each is already
    # memoized: a cold call needs a few frames, not n.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    q_euler_recursive.cache_clear()
    q_bernoulli_recursive.cache_clear()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        eps = q_euler_recursive(45)
        beta = q_bernoulli_recursive(45)
    finally:
        sys.setrecursionlimit(old)
    assert eps == q_euler_explicit(45)
    assert beta == q_bernoulli_explicit(45)


def test_beta_49_needs_no_modular_fallback(monkeypatch):
    # The heuristic gcd once gave up on the reduction of beta_49 (a gcd of
    # degree 519 outgrew its evaluation points) and left it to a modular gcd
    # after eight points.  That fallback is gone and the heuristic widens
    # until it answers, but every gcd of the cold beta_49 reduction and of
    # run_checks(2) must still answer within those first eight points.
    real_gcd, real_pack = ratcore._heu_gcd, ratcore._pack
    points = []  # per _heu_gcd call, the evaluation points it used

    def gcd(f, g):
        points.append(set())
        return real_gcd(f, g)

    def evaluate(coeffs, width):
        # the gcd's own evaluations, not the packs of products or of the
        # trial divisions inside _cofactors
        if sys._getframe(1).f_code.co_name == "_heu_gcd":
            points[-1].add(width)
        return real_pack(coeffs, width)

    q_bernoulli_recursive.cache_clear()
    carlitz._bernoulli_scaled.cache_clear()
    monkeypatch.setattr(ratcore, "_heu_gcd", gcd)
    monkeypatch.setattr(ratcore, "_pack", evaluate)
    assert q_bernoulli_recursive(49) == q_bernoulli_explicit(49)
    assert all(r.passed for r in run_checks(2))
    assert len(points) > 1000
    assert max(map(len, points)) <= 8


_MEMOS = (q_euler_recursive, q_bernoulli_recursive,
          carlitz._euler_scaled, carlitz._bernoulli_scaled)


def _clear_carlitz_memos():
    for memo in _MEMOS:
        memo.cache_clear()


def _frames():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_cold_scaled_memos_stay_shallow():
    # Clear the served and the scaled memos, so both fill from empty: each
    # asks for entries 0..n-1 in ascending order and stays a few frames deep.
    _clear_carlitz_memos()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 40)
    try:
        eps = q_euler_recursive(45)
        beta = q_bernoulli_recursive(45)
    finally:
        sys.setrecursionlimit(old)
    assert eps == q_euler_explicit(45)
    assert beta == q_bernoulli_explicit(45)
    for memo in _MEMOS:
        assert memo.cache_info().currsize == 46


def test_scaled_memos_survive_concurrent_extension():
    top = 25
    _clear_carlitz_memos()
    _in_threads(
        [partial(fn, top) for fn in (q_euler_recursive, q_bernoulli_recursive) for _ in range(2)],
        timeout=120,
    )
    for memo in _MEMOS:
        assert memo.cache_info().currsize == top + 1
    for n in range(top + 1):
        assert q_euler_recursive(n) == q_euler_explicit(n)
        assert q_bernoulli_recursive(n) == q_bernoulli_explicit(n)


def _binomial_product(n, sign):
    p = QPoly([1])
    for m in range(2, n + 2):
        p = p * QPoly((1,) + (0,) * (m - 1) + (sign,))
    return p


def test_binomial_product_matches_multiplication():
    for n in range(41):
        for sign in (1, -1):
            assert tuple(carlitz._binomial_product(n, sign)) == _binomial_product(n, sign).coeffs


def test_scaled_numerators_are_the_values_times_their_denominators():
    # E_n = eps_n * prod (1 + q^m) and B_n = beta_n * prod (1 - q^m),
    # m = 2..n+1, are integer polynomials, each memoized packed into one
    # integer with its width and 1-norm.
    for n in range(16):
        for scaled, sign, explicit in ((carlitz._euler_scaled, 1, q_euler_explicit),
                                       (carlitz._bernoulli_scaled, -1, q_bernoulli_explicit)):
            value, width, l1 = scaled(n)
            num = ratcore._digits(value, width)
            assert num[-1] != 0 and l1 == sum(map(abs, num))
            assert 2 * max(map(abs, num)) < 256 ** width
            assert RatFuncQ(QPoly(num), _binomial_product(n, sign)) == explicit(n)


def _beta_sum_at(n, q):
    """(1-q)^{-n} sum_k (-1)^k C(n,k) (k+1) / [k+1]_q over the rationals."""
    total = sum(Fraction((-1) ** k * math.comb(n, k) * (k + 1)) / sum(q ** i for i in range(k + 1))
                for k in range(n + 1))
    return total / (1 - q) ** n


def test_beta_explicit_matches_the_sum_over_the_rationals():
    q = Fraction(2, 3)
    for n in range(13):
        assert q_bernoulli_explicit(n).eval_at(q) == _beta_sum_at(n, q)


def test_beta_explicit_matches_the_recursion_to_45():
    for n in range(46):
        assert q_bernoulli_explicit(n) == q_bernoulli_recursive(n)


def test_beta_pass_with_a_wrong_weight_is_caught():
    # The same pass with the weight k in place of k + 1 is not beta_n: the
    # rational sum and the recursion both tell it apart at every n >= 1.
    q = Fraction(2, 3)
    for n in range(1, 9):
        wrong = carlitz._alternating_sum(n, -1, lambda k: k)
        assert wrong.eval_at(q) != _beta_sum_at(n, q)
        assert wrong != q_bernoulli_recursive(n)


def test_cold_recursion_repacks_each_entry_once_per_width(monkeypatch):
    # Each pass reuses the prefix packed at its width; an entry is repacked
    # only when a pass outgrows that width, so a cold eps_0..40 packs about
    # 40 entries per width step, not one per earlier entry per pass (~n^2/2).
    widths = []

    def counting(coeffs, width):
        widths.append(width)
        return ratcore._pack(coeffs, width)

    top = 40
    _clear_carlitz_memos()
    monkeypatch.setattr(carlitz, "_PASS_PREFIX", {})
    monkeypatch.setattr(carlitz, "_pack", counting)
    value, width, _ = carlitz._euler_scaled(top)
    steps = len(set(widths))
    assert 1 <= steps <= 4
    assert len(widths) <= top * steps < top * top // 4
    num = ratcore._digits(value, width)
    assert RatFuncQ(QPoly(num), _binomial_product(top, 1)) == q_euler_explicit(top)
