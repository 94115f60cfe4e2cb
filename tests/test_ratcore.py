"""Exact polynomial and rational-function arithmetic."""

import contextlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qhankel import ratcore
from qhankel.ratcore import (
    DeserializeError,
    DivisionByZeroError,
    PoleError,
    Q,
    Q_ONE,
    Q_ZERO,
    QPoly,
    RatFuncQ,
    _digits,
    _exact_quotient,
    _exact_quotient_schoolbook,
    _gcd_full,
    _mul_kronecker,
    _mul_schoolbook,
    _norm,
    _pack,
    _split_content,
    _width,
    clear_denominators,
    const,
    decimal_to_int,
    deserialize,
    int_to_decimal,
    poly_gcd,
    poly_text,
    qpow,
    serialize,
)
from qhankel.verification import run_checks


def P(*coeffs):
    return QPoly(coeffs)


class TestQPoly:
    def test_zero_is_empty_tuple(self):
        assert QPoly().coeffs == ()
        assert QPoly([0, 0, 0]).coeffs == ()
        assert QPoly().is_zero

    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)

    def test_degree_and_leading(self):
        assert P(1, 0, 3).degree == 2
        assert P(1, 0, 3).leading == 3
        assert QPoly().degree == -1

    def test_arithmetic(self):
        a = P(1, 1)        # 1 + q
        b = P(1, -1)       # 1 - q
        assert a + b == P(2)
        assert a - b == P(0, 2)
        assert a * b == P(1, 0, -1)
        assert -a == P(-1, -1)

    def test_pow(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(1, 1) ** 0 == P(1)

    def test_exact_div(self):
        num = P(1, 0, -1)                 # 1 - q^2
        assert num.exact_div(P(1, 1)) == P(1, -1)
        with pytest.raises(ArithmeticError):
            P(1, 1, 1).exact_div(P(1, 1))

    def test_evaluate(self):
        assert P(1, 2, 3).evaluate(Fraction(2)) == Fraction(17)
        assert P(0, -1).evaluate(Fraction(1, 2)) == Fraction(-1, 2)

    def test_content(self):
        assert P(4, -6, 8).content() == 2


class TestPolyText:
    def test_rendering(self):
        assert poly_text(P(1, -1, 0, 2)) == "1 - q + 2q^3"
        assert poly_text(P(0, 1)) == "q"
        assert poly_text(P(-1)) == "-1"
        assert poly_text(QPoly()) == "0"

    def test_latex(self):
        assert poly_text(P(1, -1, 0, 2), latex=True) == "1 - q + 2q^{3}"
        assert poly_text(P(0, 0, -1), latex=True) == "-q^{2}"


class TestHugeCoefficients:
    """Coefficients past CPython's 4,300-digit int/str conversion limit."""

    BIG = 3 ** 10000

    @staticmethod
    def _decimal(n):
        # test-side oracle: lift the interpreter's limit around one str()
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(old)

    def test_serialize_roundtrip(self):
        v = RatFuncQ(P(-self.BIG, 1), P(7, 0, 1))
        blob = serialize(v)
        assert json.loads(blob)["num"][0] == "-" + self._decimal(self.BIG)
        assert deserialize(blob) == v
        assert serialize(deserialize(blob)) == blob

    def test_text_and_latex(self):
        digits = self._decimal(self.BIG)
        v = RatFuncQ(P(0, self.BIG, 0, -self.BIG))
        assert str(v) == f"{digits}q - {digits}q^3"
        assert poly_text(v.num, latex=True) == f"{digits}q - {digits}q^{{3}}"

    def test_decimal_pair(self):
        for n in (0, 7, -10 ** 599, 10 ** 2000, -(3 ** 10000) - 1, 2 ** 40000 + 12345):
            text = int_to_decimal(n)
            assert text == self._decimal(n)
            assert decimal_to_int(text) == n
        assert decimal_to_int("+" + self._decimal(self.BIG)) == self.BIG


# Multiplication is dispatched between two implementations; they must agree.
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), max_size=40),
    st.lists(st.integers(-10**6, 10**6), max_size=40),
)
def test_kronecker_matches_schoolbook(a, b):
    pa, pb = QPoly(a), QPoly(b)
    if pa.is_zero or pb.is_zero:
        assert (pa * pb).is_zero
        return
    assert tuple(_mul_kronecker(pa.coeffs, pb.coeffs)) == tuple(
        _mul_schoolbook(pa.coeffs, pb.coeffs)
    )


def test_kronecker_matches_schoolbook_on_big_operands():
    # Both operands past the cutoff, coefficients up to 2**400 in size.
    rng = random.Random(11)
    for _ in range(40):
        bits = rng.randrange(1, 401)
        a, b = ([rng.randrange(-2 ** bits, 2 ** bits + 1) for _ in range(rng.randrange(24, 121))]
                for _ in range(2))
        a[-1] = a[-1] or 1
        b[-1] = b[-1] or 1
        assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)


@pytest.mark.parametrize("sign", (1, -1))
def test_kronecker_at_the_coefficient_bound(sign):
    # [M]*L times [+-M]*L has middle coefficient +-M*M*L, the bound itself.
    # M = 2**j - 1 and L = 2**m put the bound just below 2**t: for t = 8w - 1
    # it is the top of the width w it selects, and for t = 8w it needs the
    # sign bit that the next width adds.
    for t in (7, 8, 15, 16, 71, 72, 399, 400):
        for m in (m for m in (t % 2, t % 2 + 2, t % 2 + 6) if t - m >= 4):
            big, length = 2 ** ((t - m) // 2) - 1, 2 ** m
            assert (big * big * length).bit_length() == t
            a, b = [big] * length, [sign * big] * length
            assert _mul_kronecker(a, b)[length - 1] == sign * big * big * length
            assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)
    for big, length in ((1, 1), (2 ** 400, 120), (3 ** 250, 97), (255, 24)):
        a, b = [big] * length, [sign * big] * length
        assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)


def test_packed_division_matches_schoolbook():
    # Divisor and quotient past the cutoff, coefficients up to 2**400 in size.
    rng = random.Random(23)
    for _ in range(40):
        bits = rng.randrange(1, 401)
        b, c = ([rng.randrange(-2 ** bits, 2 ** bits + 1) for _ in range(rng.randrange(24, 121))]
                for _ in range(2))
        b[-1] = b[-1] or 1
        c[-1] = c[-1] or 1
        a = _mul_schoolbook(b, c)
        assert _exact_quotient(a, b) == _exact_quotient_schoolbook(a, b) == c
        i = rng.randrange(len(a))
        a[i] += rng.choice((1, -1))
        a = QPoly(a).coeffs
        assert _exact_quotient(a, b) is None
        assert _exact_quotient_schoolbook(a, b) is None


def test_packed_division_by_a_divisor_of_larger_norm():
    # (1 + q)**40 / (1 + q) * (1 + q**25): the dividend's norm is about half
    # the divisor's.
    b = (P(1, 1) ** 40).coeffs
    c = [(-1) ** i for i in range(25)]
    a = _mul_schoolbook(b, c)
    assert max(map(abs, a)) < max(b)
    assert _exact_quotient(a, b) == c
    assert _exact_quotient(_mul_schoolbook(a, [1, 1]), b) == _mul_schoolbook(c, [1, 1])


def test_packed_division_by_a_divisor_with_zero_constant_term():
    rng = random.Random(29)
    b = [rng.randrange(-2 ** 60, 2 ** 60) for _ in range(40)] + [3]
    c = [rng.randrange(-2 ** 60, 2 ** 60) for _ in range(50)] + [-5]
    for k in (1, 7):
        shifted = [0] * k + b
        a = _mul_schoolbook(shifted, c)
        assert _exact_quotient(a, shifted) == c
        assert _exact_quotient(a[:k - 1] + [1] + a[k:], shifted) is None


def test_packed_division_certifies_a_quotient_larger_than_its_dividend():
    # A has 28-bit coefficients and the quotient 142-bit ones, so the packed
    # candidate at the first width is wrong and must not be returned.
    a = (P(1, *[0] * 30, -1) ** 30).coeffs
    b = (P(1, -1) ** 30).coeffs
    want = (QPoly([1] * 31) ** 30).coeffs
    assert max(a).bit_length() == 28 and max(want).bit_length() == 142
    assert tuple(_exact_quotient(a, b)) == want
    assert QPoly(a).exact_div(QPoly(b)).coeffs == want


def test_packed_division_survives_a_quotient_too_wide_to_unpack():
    # A candidate with more digits than the quotient can have is dropped and
    # the division retried wider.  The wrong candidate here has the right
    # value at x, its top digit carried into one more place, so only the
    # norm certificate can refuse it.
    rng = random.Random(31)
    b = [rng.randrange(-2 ** 80, 2 ** 80) for _ in range(30)] + [1]
    c = [rng.randrange(-2 ** 80, 2 ** 80) for _ in range(30)] + [1]
    calls = []

    def first_too_long(value, width):
        calls.append(width)
        got = _digits(value, width)
        if len(calls) == 1:
            got[-1:] = [got[-1] - 256 ** width, 1]
            assert _pack(got, width) == value
        return got

    with mock.patch.object(ratcore, "_digits", first_too_long):
        assert _exact_quotient(_mul_schoolbook(b, c), b) == c
    assert len(calls) == 2 and calls[1] > calls[0]


def test_packed_division_needs_no_schoolbook_fallback():
    # (1 - q^31)^30 / (1 - q)^30: 28-bit coefficients in, 142-bit ones out.
    # The first packed candidates wrap and understate the quotient's norm;
    # the widening retries must still certify it without handing the
    # division to the schoolbook loop.
    a = (P(1, *[0] * 30, -1) ** 30).coeffs
    b = (P(1, -1) ** 30).coeffs
    want = list((QPoly([1] * 31) ** 30).coeffs)
    with mock.patch.object(ratcore, "_exact_quotient_schoolbook",
                           side_effect=AssertionError("schoolbook fallback")):
        assert _exact_quotient(a, b) == want


class TestPolyGcd:
    def test_difference_of_powers(self):
        # gcd(1 - q^2, 1 - q^3); normalized to positive leading coefficient
        g = poly_gcd(P(1, 0, -1), P(1, 0, 0, -1))
        assert g == P(-1, 1)

    def test_with_zero(self):
        assert poly_gcd(P(2, 4), QPoly()) == P(1, 2)
        assert poly_gcd(QPoly(), QPoly()) == QPoly()

    def test_coprime(self):
        assert poly_gcd(P(1, 0, 1), P(1, 0, 0, 1)) == P(1)

    def test_result_is_primitive(self):
        g = poly_gcd(P(2, 2) * P(3, 0, 3), P(2, 2) * P(5, 5))
        assert g.content() == 1


def _pseudo_rem(A, B):
    """Remainder of lc(B)^(deg A - deg B + 1) * A modulo B, over Z."""
    rem = list(A)
    db = len(B) - 1
    lb = B[-1]
    steps = len(A) - len(B) + 1
    while rem and len(rem) - 1 >= db:
        la = rem[-1]
        shift = len(rem) - 1 - db
        new = [lb * c for c in rem]
        for j, bc in enumerate(B):
            new[shift + j] -= la * bc
        new.pop()
        while new and new[-1] == 0:
            new.pop()
        rem = new
        steps -= 1
    if steps > 0 and rem:
        f = lb ** steps
        rem = [c * f for c in rem]
    return rem


def _exact_int_div(a, b):
    qt, r = divmod(a, b)
    assert r == 0, "inexact integer division in the subresultant chain"
    return qt


def _subresultant_gcd(f, g):
    """Test oracle: gcd of nonzero primitive QPolys, deg f >= deg g, by a
    subresultant PRS; it shares no code with the library's gcd routes."""
    A = list(f.coeffs)
    B = list(g.coeffs)
    gg = 1
    h = 1
    while True:
        d = (len(A) - 1) - (len(B) - 1)
        R = _pseudo_rem(A, B)
        if not R:
            break
        if len(R) == 1:
            return P(1)
        divisor = gg * h ** d
        A, B = B, [_exact_int_div(c, divisor) for c in R]
        gg = A[-1]
        if d == 1:
            h = gg
        elif d > 1:
            h = _exact_int_div(gg ** d, h ** (d - 1))
    content = math.gcd(*B) if B[-1] > 0 else -math.gcd(*B)
    return QPoly(c // content for c in B)


def _primitive(p):
    k = p.content() if p.leading > 0 else -p.content()
    return QPoly(c // k for c in p.coeffs)


def _oracle_gcd(f, h):
    """Test oracle: gcd of f and h in Z[q], not both zero, with its content
    and a positive leading coefficient: the content gcd times the
    subresultant gcd of the primitive parts."""
    if f.is_zero:
        f, h = h, f
    c = math.gcd(f.content(), h.content())
    if h.is_zero:
        return _primitive(f).scale(c)
    pf, ph = _primitive(f), _primitive(h)
    if pf.degree < ph.degree:
        pf, ph = ph, pf
    return (P(1) if ph.degree == 0 else _subresultant_gcd(pf, ph)).scale(c)


def _check_gcd_against_subresultant(a, b, c):
    pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
    if pa.is_zero or pb.is_zero or pc.is_zero:
        return
    f, g = pa * pc, pb * pc
    got = poly_gcd(f, g)
    fa = QPoly(_split_content(f.coeffs)[1])
    fb = QPoly(_split_content(g.coeffs)[1])
    if fa.degree < fb.degree:
        fa, fb = fb, fa
    want = P(1) if fb.degree == 0 else _subresultant_gcd(fa, fb)
    assert got == want
    # and the common factor must survive into the gcd
    assert got.exact_div(poly_gcd(got, QPoly(_split_content(pc.coeffs)[1])))


# A coprime pair met while building eps_n and beta_n, n <= 40.  Its values
# share small primes at many points (gcd 364 at 97, 30940 at 223), each a
# non-dividing candidate.
_COPRIME_F = (
    0, -1, 3, 11, 94, 344, 799, 658, -2813, -15569, -70736, -54831, -80605, 189384,
    338026, 540480, 310710, 144108, -414445, -662163, -920252, -488637, -202741, 278990,
    313523, 431948, 161942, 53911, -119977, -16445, -34320, 11440
)
_COPRIME_G = (
    1, -3, 6, -9, 13, -17, 22, -26, 30, -32, 34, -34, 34, -32, 30, -26, 22, -17, 13, -9,
    6, -3, 1
)


# Coefficients of about 143 bits.
_BIG_GCD = (5 ** 50, -(2 ** 130 + 1), 3 ** 90)

# (a, b, c) for the gcd of a*c and b*c: fixed inputs that every gcd route and
# oracle comparison runs besides the generated ones.
_FIXED_GCD_INPUTS = (
    ((1, 1), (1, 1, 1), (1, -1)),            # 1 - q^2 and 1 - q^3
    ((1, 0, 1), (1, 0, 0, 1), (1,)),
    ((3, 0, 3), (5, 5), (2, 2)),
    (_COPRIME_F, _COPRIME_G, (1,)),
    ((7, 0, 0, 1), (9, 2), _BIG_GCD),
)


def _gcd_inputs(test):
    for a, b, c in _FIXED_GCD_INPUTS:
        test = example(a=list(a), b=list(b), c=list(c))(test)
    return given(
        a=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        b=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        c=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    )(test)


@settings(max_examples=150, deadline=None)
@_gcd_inputs
def test_heuristic_gcd_matches_subresultant(a, b, c):
    _check_gcd_against_subresultant(a, b, c)


# Patches that force each gcd route.  GCDHEU is the only one, so it runs
# as it stands.
_GCD_ROUTES = {
    "heuristic": (),
}


def _reduced(num, den):
    """num/den reduced by the oracle gcd and exact_div."""
    g = _oracle_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    return (num, den) if den.leading > 0 else (-num, -den)


@pytest.mark.parametrize("route", sorted(_GCD_ROUTES))
@settings(max_examples=100, deadline=None)
@_gcd_inputs
def test_gcd_cofactors_through_each_route(route, a, b, c):
    pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
    if pa.is_zero or pb.is_zero or pc.is_zero:
        return
    with contextlib.ExitStack() as stack:
        for name, kwargs in _GCD_ROUTES[route]:
            stack.enter_context(mock.patch.object(ratcore, name, **kwargs))
        for f, h in ((pa * pc, pb * pc), ((pa * pc).scale(6), (pb * pc).scale(-4))):
            g, qf, qh = _gcd_full(f, h)
            assert g * qf == f and g * qh == h
            assert g == _oracle_gcd(f, h)
        u, v = RatFuncQ(pa * pc, pb), RatFuncQ(pc.scale(3), pa * pb)
        assert (u.num, u.den) == _reduced(pa * pc, pb)
        assert ((u + v).num, (u + v).den) == _reduced(u.num * v.den + v.num * u.den, u.den * v.den)
        assert ((u * v).num, (u * v).den) == _reduced(u.num * v.num, u.den * v.den)


@settings(max_examples=100, deadline=None)
@_gcd_inputs
def test_gcd_of_equal_inputs_needs_no_gcd(a, b, c):
    # g = a with its content and a positive leading coefficient, and the
    # cofactors are +-1, without a call into the heuristic gcd.
    f = QPoly(a) * QPoly(c)
    if f.is_zero:
        return
    for p in (f, -f, f.scale(6), f.scale(-10)):
        want = _oracle_gcd(p, p)
        with mock.patch.object(ratcore, "_heu_gcd", side_effect=AssertionError):
            g, qa, qb = _gcd_full(p, QPoly(p.coeffs))
        assert g == want and g.leading > 0
        assert qa == qb == QPoly.const(1 if p.leading > 0 else -1)
        assert g * qa == p


@pytest.mark.parametrize("route", sorted(_GCD_ROUTES))
@settings(max_examples=100, deadline=None)
@_gcd_inputs
def test_gcd_of_a_divisor_skips_dividing_it_by_itself(route, a, b, c):
    # When one input divides the other, the certified candidate is that
    # input's primitive part, whose cofactor is 1 with no trial division.
    pa, pb = QPoly(a), QPoly(b)
    if pa.is_zero or pb.is_zero:
        return
    divisions = []
    real = ratcore._exact_quotient

    def quotient(A, B):
        divisions.append(list(A) == list(B))
        return real(A, B)

    for f, h in ((pa, pa * pb), (pa.scale(-6), (pa * pb).scale(4))):
        want = _oracle_gcd(f, h)
        with contextlib.ExitStack() as stack:
            for name, kwargs in _GCD_ROUTES[route]:
                stack.enter_context(mock.patch.object(ratcore, name, **kwargs))
            stack.enter_context(mock.patch.object(ratcore, "_exact_quotient", quotient))
            g, qf, qh = _gcd_full(f, h)
        assert g == want
        assert g * qf == f and g * qh == h
        assert not any(divisions)


def _balanced_reference(value, base):
    digits = []
    while value:
        r = value % base
        if 2 * r >= base:
            r -= base
        digits.append(r)
        value = (value - r) // base
    return digits


def test_balanced_digits_match_the_digit_loop():
    rng = random.Random(7)
    cases = [(0, 1), (128, 1), (-128, 1), (256 ** 5, 2), (-(256 ** 9) // 2, 3)]
    for _ in range(300):
        value = rng.randrange(10 ** rng.randrange(3001)) * rng.choice((1, -1))
        cases.append((value, rng.randrange(1, 41)))
    for value, width in cases:
        # the reference ends on a nonzero digit, as _digits does
        got = _digits(value, width)
        assert got == _balanced_reference(value, 256 ** width)
        assert _pack(got, width) == value


def test_clear_denominators_puts_values_over_their_lcm():
    assert clear_denominators([]) == (QPoly((1,)), [])
    rng = random.Random(0xC1EA)
    for _ in range(40):
        values = [RatFuncQ(P(rng.randint(-4, 4), rng.randint(-4, 4)),
                           P(1, 1) ** rng.randint(0, 3) * P(1, 0, 1) ** rng.randint(0, 2)
                           * P(rng.choice((1, 2, 3))))
                  for _ in range(rng.randint(1, 5))]
        lcm, nums = clear_denominators(values)
        assert [RatFuncQ(num, lcm) for num in nums] == values
        # every denominator divides lcm, and the multipliers lcm / den share
        # no factor, so no common multiple is smaller
        multipliers = [lcm.exact_div(v.den) for v in values]
        common = multipliers[0]
        for m in multipliers[1:]:
            common = _gcd_full(common, m)[0]
        assert common == QPoly((1,))


def _gcd_fold(values):
    """clear_denominators as one gcd per value: D grows by each cofactor."""
    lcm = values[0].den
    for v in values[1:]:
        lcm = lcm * _gcd_full(lcm, v.den)[2]
    return lcm, [v.num * lcm.exact_div(v.den) for v in values]


def test_clear_denominators_matches_the_gcd_fold():
    rng = random.Random(0xF01D)
    factors = [P(1, 1), P(1, 0, 1), P(1, -1, 1), P(2, 1), P(3), P(1, 2, 0, 1), P(0, 1)]
    for _ in range(80):
        values = [RatFuncQ(P(*(rng.randint(-5, 5) for _ in range(3))),
                           reduce(mul, (rng.choice(factors) ** rng.randint(0, 2) for _ in range(3))))
                  for _ in range(rng.randint(1, 6))]
        assert clear_denominators(values) == _gcd_fold(values)


def test_nested_denominators_take_no_gcd():
    # prefix products, as the moment sequences have: each divides the last
    values = [RatFuncQ(P(k + 2, -1), reduce(mul, (P(1, *[0] * m, 1) for m in range(1, k + 1)), P(1)))
              for k in range(10)]
    rng = random.Random(5)
    rng.shuffle(values)
    with mock.patch.object(ratcore, "_gcd_full") as gcd:
        got = clear_denominators(values)
    assert not gcd.called
    assert got == _gcd_fold(values)


def test_heuristic_gcd_answers_a_coprime_pair_it_used_to_give_up_on():
    # The heuristic must answer without raising.
    f, g = _COPRIME_F, _COPRIME_G
    got = tuple(map(tuple, ratcore._heu_gcd(f, g)))
    want = _subresultant_gcd(QPoly(f), QPoly(g))
    assert got == (want.coeffs, tuple(QPoly(f).exact_div(want).coeffs),
                   tuple(QPoly(g).exact_div(want).coeffs))


class TestLargeGcd:
    BIG = P(*_BIG_GCD)
    # Coefficients of about 1,130 bits.
    HUGE = P(5 ** 480, -(2 ** 1130 + 1), 3 ** 700)

    @staticmethod
    def _check_against_subresultant(G):
        f, g = G * P(7, 0, 0, 1), G * P(9, 2)
        assert poly_gcd(f, g) == G == _subresultant_gcd(f, g)
        g_full, qf, qg = _gcd_full(f.scale(6), g.scale(-4))
        assert g_full == G.scale(2)
        assert qf == P(7, 0, 0, 1).scale(3) and qg == P(9, 2).scale(-2)

    def test_big_gcd_matches_subresultant(self):
        self._check_against_subresultant(self.BIG)

    def test_huge_gcd_is_certified(self):
        self._check_against_subresultant(self.HUGE)

    def test_huge_gcd_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")
        f, g = self.HUGE * P(7, 0, 0, 1), self.HUGE * P(9, 2)
        want = sympy.Poly(sympy.gcd(sympy.Poly(f.coeffs[::-1], q), sympy.Poly(g.coeffs[::-1], q)), q)
        assert poly_gcd(f, g).coeffs == tuple(int(c) for c in want.all_coeffs()[::-1])

    def test_gcd_keeps_widening_until_a_candidate_divides(self):
        # With its first twelve candidates refused, the heuristic goes on to
        # a thirteenth evaluation point: five one-byte steps, then the width
        # doubles at every retry, and the certified gcd comes back.  Only
        # the gcd's own evaluations count, not the packs of the trial
        # divisions inside _cofactors.
        f, g = self.BIG * P(7, 0, 0, 1), self.BIG * P(9, 2)
        real_cofactors, real_pack = ratcore._cofactors, ratcore._pack
        candidates, points = [], set()

        def refuse_twelve(f, g, h):
            candidates.append(h)
            return None if len(candidates) <= 12 else real_cofactors(f, g, h)

        def evaluate(coeffs, width):
            if sys._getframe(1).f_code.co_name == "_heu_gcd":
                points.add(width)
            return real_pack(coeffs, width)

        with mock.patch.object(ratcore, "_cofactors", refuse_twelve), \
                mock.patch.object(ratcore, "_pack", evaluate):
            got, qf, qg = ratcore._heu_gcd(f.coeffs, g.coeffs)
        assert (P(*got), P(*qf), P(*qg)) == (self.BIG, P(7, 0, 0, 1), P(9, 2))
        assert len(candidates) == 13
        widths = sorted(points)
        w = widths[0]
        assert widths == [w + k for k in range(6)] + [(w + 5) << k for k in range(1, 8)]


def test_evaluation_by_halves_matches_horner():
    # _pack takes any integer coefficients: negative ones, and ones wider
    # than the width, as GCDHEU packs below the larger input's norm.
    assert _pack([], 1) == _pack((), 5) == 0
    rng = random.Random(0xE7A1)
    negative = wide = 0
    for _ in range(200):
        coeffs = [rng.randrange(-2 ** 300, 2 ** 300) >> rng.randrange(300)
                  for _ in range(rng.randrange(1, 90))]
        width = rng.randrange(1, 12)
        x = 256 ** width
        want = 0
        for c in reversed(coeffs):
            want = want * x + c
        assert _pack(coeffs, width) == _pack(tuple(coeffs), width) == want
        negative += min(coeffs) < 0
        wide += 2 * _norm(coeffs) >= x
    assert negative > 100 and wide > 100


def _at(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("width", (1, 2, 4, 8))
def test_struct_widths_round_trip_the_extreme_digits(width):
    # -B/2 and B/2 - 1 are the ends of a signed word of width bytes
    half = 256 ** width // 2
    rng = random.Random(width)
    for _ in range(50):
        coeffs = [rng.choice((-half, half - 1, 0, rng.randrange(-half, half)))
                  for _ in range(rng.randrange(40))]
        coeffs.append(rng.choice((-half, half - 1)))
        value = _at(coeffs, 256 ** width)
        with mock.patch.object(ratcore, "_eval_halves") as halves:
            assert _pack(coeffs, width) == value
        assert not halves.called
        assert _digits(value, width) == coeffs


@pytest.mark.parametrize("width", (1, 2, 4, 8))
def test_coefficients_too_wide_for_a_word_fall_back_to_halves(width):
    x = 256 ** width
    for wide in (x // 2, -x // 2 - 1, 3 * x, -(x ** 3)):
        coeffs = [1, -x // 2, wide, x // 2 - 1]
        with mock.patch.object(ratcore, "_eval_halves", wraps=ratcore._eval_halves) as halves:
            assert _pack(coeffs, width) == _pack(tuple(coeffs), width) == _at(coeffs, x)
        assert halves.called


def test_width_is_a_power_of_two_up_to_eight_bytes():
    rng = random.Random(0x3D)
    bounds = [0, 1, 127, 128, 2 ** 31, 2 ** 63 - 1, 2 ** 63, 2 ** 64]
    bounds += [rng.randrange(2 ** rng.randrange(1, 200)) for _ in range(500)]
    for bound in bounds:
        w = _width(bound)
        assert 2 * bound < 256 ** w
        if w <= 8:
            # no smaller power of two would do
            assert w in (1, 2, 4, 8) and (w == 1 or 2 * bound >= 256 ** (w // 2))
        else:
            assert 2 * bound >= 256 ** (w - 1)


@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_schoolbook_and_kronecker_agree_at_the_cutoff(offset):
    # the length of the shorter operand picks the path of * and exact_div
    length = ratcore._KRONECKER_CUTOFF + offset
    rng = random.Random(length)
    for bits in (1, 7, 8, 31, 62, 63, 64, 200):
        a, b = ([rng.randrange(-2 ** bits, 2 ** bits) for _ in range(n)]
                for n in (length, rng.randrange(length, 3 * length)))
        a[0] = a[-1] = b[0] = b[-1] = 2 ** bits - 1  # no power of q to take out
        with mock.patch.object(ratcore, "_mul_kronecker", wraps=_mul_kronecker) as kron:
            prod = QPoly(a) * QPoly(b)
        assert kron.called == (offset >= 0)
        assert list(prod.coeffs) == _mul_schoolbook(a, b)
        assert prod.exact_div(QPoly(a)) == QPoly(b)
        assert _exact_quotient(prod.coeffs, a) == _exact_quotient_schoolbook(prod.coeffs, a) == b
        off = list(prod.coeffs)
        off[rng.randrange(len(off))] += 1
        off = QPoly(off).coeffs
        assert _exact_quotient(off, a) is None and _exact_quotient_schoolbook(off, a) is None
        with pytest.raises(ArithmeticError):
            QPoly(off).exact_div(QPoly(a))


# The kernel takes the power of q out of every operand before it multiplies,
# divides or takes a gcd.  These inputs carry a random q**i in front.
_Q_FREE = st.lists(st.integers(-9, 9), min_size=1, max_size=30).filter(lambda cs: cs[0] and cs[-1])
_Q_POWER = st.integers(0, 12)


def _times_q(k, coeffs):
    return [0] * k + list(coeffs)


@settings(max_examples=150, deadline=None)
@given(_Q_FREE, _Q_FREE, _Q_POWER, _Q_POWER)
@example([3], [1, 1], 5, 0)
@example([1], [-1], 2, 7)
def test_product_of_q_power_multiples_matches_schoolbook(a, b, i, j):
    pa, pb = _times_q(i, a), _times_q(j, b)
    assert (QPoly(pa) * QPoly(pb)).coeffs == tuple(_mul_schoolbook(pa, pb))


@settings(max_examples=150, deadline=None)
@given(_Q_FREE, _Q_FREE, _Q_POWER, _Q_POWER, st.integers(2, 7))
@example([2, 1], [5], 3, 4, 3)
def test_exact_quotient_of_q_power_multiples(b, c, i, j, d):
    a = _mul_schoolbook(_times_q(j, b), _times_q(i, c))
    assert _exact_quotient(a, _times_q(j, b)) == _times_q(i, c)
    # the dividend lacks the divisor's power of q
    assert _exact_quotient(a, _times_q(i + j + 1, b)) is None
    # a constant times a power of q divides coefficient by coefficient, or
    # not at all
    scaled = [d * x for x in a]
    assert _exact_quotient(scaled, [d]) == a
    assert _exact_quotient(scaled, _times_q(i + j, [d])) == _mul_schoolbook(b, c)
    if any(x % d for x in a):
        assert _exact_quotient(a, [d]) is None
        assert _exact_quotient(a, _times_q(j, [d])) is None


@settings(max_examples=150, deadline=None)
@given(_Q_FREE, _Q_FREE, _Q_FREE, _Q_POWER, _Q_POWER, _Q_POWER)
@example([1], [1, -1], [1, 1], 4, 0, 3)
@example([2], [6], [1], 3, 5, 0)
def test_gcd_of_q_power_multiples_matches_subresultant(a, b, c, i, j, k):
    f = QPoly(_times_q(i + k, _mul_schoolbook(a, c)))
    h = QPoly(_times_q(j + k, _mul_schoolbook(b, c)))
    g, qf, qh = _gcd_full(f, h)
    assert g * qf == f and g * qh == h
    assert g == _oracle_gcd(f, h)


@settings(max_examples=100, deadline=None)
@given(_Q_FREE, _Q_FREE, _Q_FREE, _Q_FREE, _Q_POWER, _Q_POWER, _Q_POWER, _Q_POWER)
@example([1], [1], [2], [1], 3, 0, 0, 0)
@example([1, 1], [1], [1, -1], [1], 2, 0, 1, 0)
def test_ratfunc_arithmetic_with_q_powers_matches_a_reduction(n1, d1, n2, d2, i, j, k, m):
    u = RatFuncQ(QPoly(_times_q(i, n1)), QPoly(_times_q(j, d1)))
    v = RatFuncQ(QPoly(_times_q(k, n2)), QPoly(_times_q(m, d2)))
    for x, y in ((u, v), (u, RatFuncQ(u.num)), (RatFuncQ(u.num), RatFuncQ(v.num)),
                 (qpow(i - j), v)):
        total, prod = x + y, x * y
        assert (total.num, total.den) == _reduced(x.num * y.den + y.num * x.den, x.den * y.den)
        assert (prod.num, prod.den) == _reduced(x.num * y.num, x.den * y.den)


def test_kernel_multiplies_and_takes_gcds_only_on_q_free_parts():
    # Every schoolbook product in a verify pass has two operands of two or
    # more terms whose constant terms are nonzero: powers of q and constant
    # factors never reach the loop.
    operands = []

    def record(a, b):
        operands.append((tuple(a), tuple(b)))
        return _mul_schoolbook(a, b)

    with mock.patch.object(ratcore, "_mul_schoolbook", record):
        assert all(r.passed for r in run_checks(2))
    assert operands
    assert all(len(p) >= 2 and p[0] for pair in operands for p in pair)
    # Multiplying or dividing by a power of q evaluates no gcd, and two
    # polynomials take no gcd at all.
    r = RatFuncQ(P(0, 0, 2, 1), P(1, 1, 0, 3))
    s, t = RatFuncQ(P(0, 0, 1, 4)), RatFuncQ(P(3, 0, 5))
    want = [RatFuncQ(P(0, 0, 2, 1) * QPoly.q_power(7), P(1, 1, 0, 3)),
            RatFuncQ(P(2, 1), P(0, 1, 1, 0, 3)),
            RatFuncQ(P(0, 0, 3, 12, 5, 20)), RatFuncQ(P(3, 0, 6, 4))]
    real_pack = ratcore._pack

    def pack_outside_gcd(coeffs, width):
        if sys._getframe(1).f_code.co_name == "_heu_gcd":
            raise AssertionError("gcd evaluated")
        return real_pack(coeffs, width)

    with mock.patch.object(ratcore, "_pack", pack_outside_gcd):
        got = [qpow(7) * r, r / qpow(3)]
        with mock.patch.object(ratcore, "_gcd_full", side_effect=AssertionError("gcd taken")):
            got += [s * t, s + t]
    assert got == want


def test_verify_runs_with_sympy_blocked():
    # sympy is a test-only oracle: the library must never import it.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.modules['sympy'] = None; from qhankel.cli import main; "
            "main(['verify', '--max-n', '2'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, timeout=300)
    assert out.returncode == 0, out.stderr


class TestRatFuncQ:
    def test_common_denominator_collapse(self):
        left = RatFuncQ(P(0, 1), P(1, 1))    # q/(1+q)
        right = RatFuncQ(P(1), P(1, 1))      # 1/(1+q)
        assert left + right == Q_ONE

    def test_div_cancellation(self):
        v = RatFuncQ(P(1, 0, -1), P(1)) / RatFuncQ(P(1, -1), P(1))
        assert v == RatFuncQ(P(1, 1))

    def test_square(self):
        v = RatFuncQ(P(0, 1), P(1, 0, 1))
        sq = v * v
        assert sq.num == P(0, 0, 1)
        assert sq.den == P(1, 0, 2, 0, 1)

    def test_canonical_den_positive_leading(self):
        v = RatFuncQ(P(1), P(0, -1))
        assert v.den.leading > 0
        assert v == RatFuncQ(P(-1), P(0, 1))

    def test_scalar_fraction(self):
        half = RatFuncQ.from_fraction(Fraction(1, 2))
        assert half + half == Q_ONE

    def test_zero_den_rejected(self):
        with pytest.raises(DivisionByZeroError):
            RatFuncQ(P(1), QPoly())
        with pytest.raises(DivisionByZeroError):
            Q_ONE / Q_ZERO

    def test_eval_at(self):
        eps1 = RatFuncQ(P(0, -1), P(1, 0, 1))
        assert eps1.eval_at(1) == Fraction(-1, 2)
        assert eps1.eval_at(Fraction(1, 2)) == Fraction(-2, 5)

    def test_eval_reduces_before_checking_pole(self):
        v = RatFuncQ(P(1, -1), P(1, -1))
        assert v.eval_at(1) == 1

    def test_pole(self):
        v = RatFuncQ(P(1), P(1, -1))
        with pytest.raises(PoleError):
            v.eval_at(1)

    def test_pow_negative(self):
        v = RatFuncQ(P(0, 1), P(1, 1))
        assert v ** -2 == (Q_ONE / v) ** 2
        assert v ** 0 == Q_ONE

    def test_qpow_negative_exponent(self):
        assert qpow(-2) * qpow(2) == Q_ONE

    def test_int_coercion(self):
        assert Q + 1 == RatFuncQ(P(1, 1))
        assert 2 * Q == RatFuncQ(P(0, 2))
        assert 1 - Q == RatFuncQ(P(1, -1))

    def test_named_arith(self):
        assert Q * Q == qpow(2)
        with pytest.raises(TypeError):
            Q % Q

    def test_hashable(self):
        assert len({Q, qpow(1), Q + Q_ZERO}) == 1

    def test_constants_hash_like_the_numbers_they_equal(self):
        # a == b must imply hash(a) == hash(b), also across int and Fraction
        half = RatFuncQ.from_fraction(Fraction(1, 2))
        for value, number in [(const(3), 3), (Q_ZERO, 0), (const(-7), -7), (half, Fraction(1, 2)),
                              (RatFuncQ(P(-2), P(6)), Fraction(-1, 3))]:
            assert value == number
            assert hash(value) == hash(number)
        assert len({Q_ZERO, 0}) == 1
        assert len({half, Fraction(1, 2), Fraction(2, 4)}) == 1
        assert {const(2): "a"}[2] == "a"


def ratfuncs(max_deg=4, coeff=6):
    polys = st.lists(st.integers(-coeff, coeff), min_size=1, max_size=max_deg + 1)
    return st.builds(
        lambda n, d: RatFuncQ(QPoly(n), QPoly(d)),
        polys,
        polys.filter(lambda cs: any(cs)),
    )


@settings(max_examples=120, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == Q_ZERO
    if not a.is_zero:
        assert a / a == Q_ONE


@settings(max_examples=120, deadline=None)
@given(ratfuncs())
def test_canonical_form_is_fixed_point(a):
    again = RatFuncQ(a.num, a.den)
    assert again.num.coeffs == a.num.coeffs
    assert again.den.coeffs == a.den.coeffs
    assert _oracle_gcd(a.num, a.den).degree <= 0
    assert a.den.leading > 0


class TestSerialization:
    def test_one(self):
        assert json.loads(serialize(Q_ONE)) == {"num": ["1"], "den": ["1"]}

    def test_eps1_shape(self):
        eps1 = RatFuncQ(P(0, -1), P(1, 0, 1))
        assert json.loads(serialize(eps1)) == {
            "num": ["0", "-1"],
            "den": ["1", "0", "1"],
        }

    def test_zero(self):
        assert deserialize(serialize(Q_ZERO)) == Q_ZERO

    def test_bytes_deterministic(self):
        v = RatFuncQ(P(3, 0, -2), P(1, 1))
        assert serialize(v) == serialize(RatFuncQ(P(-3, 0, 2), P(-1, -1)))

    def test_reject_garbage(self):
        with pytest.raises(DeserializeError):
            deserialize("not json")
        with pytest.raises(DeserializeError):
            deserialize('{"num":["1"]}')
        with pytest.raises(DeserializeError):
            deserialize('{"num":["1"],"den":["0"]}')
        with pytest.raises(DeserializeError):
            deserialize('{"num":["1"],"den":["1"],"extra":[]}')
        with pytest.raises(DeserializeError):
            deserialize('{"num":["1.5"],"den":["1"]}')

    def test_position_in_error(self):
        try:
            deserialize('{"num":["1","x"],"den":["1"]}')
        except DeserializeError as e:
            assert e.position
        else:
            pytest.fail("expected DeserializeError")


@settings(max_examples=150, deadline=None)
@given(ratfuncs(max_deg=6, coeff=30))
def test_serialize_roundtrip(v):
    blob = serialize(v)
    assert deserialize(blob) == v
    assert serialize(deserialize(blob)) == blob


def test_const_and_singletons():
    assert const(0) is Q_ZERO
    assert const(1) is Q_ONE
    assert const(-3) == RatFuncQ(P(-3))
    assert Q == RatFuncQ(P(0, 1))
