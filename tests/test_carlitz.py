"""Carlitz q-Euler and q-Bernoulli sequences."""

import sys
import threading
import time
from fractions import Fraction

import pytest

from qhankel import carlitz, ratcore
from qhankel.carlitz import (
    MomentSeq,
    limit_q1,
    q_bernoulli_explicit,
    q_bernoulli_recursive,
    q_bernoulli_seq,
    q_euler_explicit,
    q_euler_recursive,
    q_euler_seq,
)
from qhankel.ratcore import Q_ONE, QPoly, RatFuncQ, const


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
            assert limit_q1("qeuler", n) == want

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
            assert limit_q1("qbernoulli", n) == b


class TestMomentSeq:
    def test_prefix_is_inclusive(self):
        seq = q_euler_seq()
        vals = seq.prefix(3)
        assert len(vals) == 4
        assert vals[0] == Q_ONE
        assert vals[2] == q_euler_recursive(2)

    def test_value_is_stable(self):
        seq = q_bernoulli_seq()
        first = seq.value(5)
        assert seq.value(5) == first
        assert seq.prefix(5)[5] == first

    def test_ids(self):
        assert q_euler_seq().id == "qeuler"
        assert q_bernoulli_seq().id == "qbernoulli"

    def test_negative_index(self):
        with pytest.raises(ValueError):
            q_euler_seq().value(-1)

    def test_custom_sequence(self):
        calls = []

        def fn(n):
            calls.append(n)
            return Q_ONE

        seq = MomentSeq("probe", fn)
        seq.value(2)
        seq.value(1)
        assert calls == [0, 1, 2]


def test_limit_q1_rejects_unknown_id():
    with pytest.raises(ValueError):
        limit_q1("fibonacci", 3)


def test_recursive_caches_survive_concurrent_extension():
    # Fill each cache from empty in four threads at once, switching threads
    # as often as the interpreter allows; a lost update shows up as a wrong
    # or misplaced entry.
    top = 25
    carlitz._EULER_CACHE.clear()
    carlitz._BERNOULLI_CACHE.clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=fn, args=(top,))
            for fn in (q_euler_recursive, q_bernoulli_recursive)
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(carlitz._EULER_CACHE) == top + 1
    assert len(carlitz._BERNOULLI_CACHE) == top + 1
    for n in range(top + 1):
        assert carlitz._EULER_CACHE[n] == q_euler_explicit(n)
        assert carlitz._BERNOULLI_CACHE[n] == q_bernoulli_explicit(n)


def test_moment_seq_survives_concurrent_extension():
    # A slow fn leaves a wide gap between reading the length and appending,
    # so unsynchronized threads would append the same index more than once.
    def slow(n):
        time.sleep(0.001)
        return const(n)

    top = 20
    seq = MomentSeq("probe", slow)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=seq.value, args=(top,)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert seq.prefix(top + 5) == [const(n) for n in range(top + 6)]
    assert len(seq._values) == top + 6


def test_beta_37_needs_no_subresultant_fallback(monkeypatch):
    # beta_37 once fell back to the subresultant chain (25-33 s) because the
    # heuristic gcd threw away a correct candidate; now the heuristic or the
    # modular gcd must answer every gcd on the way.
    def refuse(f, g):
        raise AssertionError("subresultant gcd reached")

    monkeypatch.setattr(carlitz, "_BERNOULLI_CACHE", [])
    monkeypatch.setattr(ratcore, "_subresultant_gcd", refuse)
    assert q_bernoulli_recursive(37) == q_bernoulli_explicit(37)
