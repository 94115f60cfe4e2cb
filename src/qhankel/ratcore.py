"""Exact arithmetic in Z[q] and its fraction field Q(q).

``QPoly`` is a dense integer-coefficient polynomial in the formal variable q,
``RatFuncQ`` a fully reduced quotient of two of them.  RatFuncQ is the scalar
type used by every other module; equality of reduced representatives is
semantic equality, so values can be compared and hashed structurally.
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction
from itertools import count
from typing import Iterable, Optional, Sequence, Union


class DivisionByZeroError(ZeroDivisionError):
    """Division by the zero polynomial or zero rational function."""


class PoleError(ZeroDivisionError):
    """Evaluation at a point where the reduced denominator vanishes."""


class DeserializeError(ValueError):
    """Rejected serialized input; ``position`` names the offending piece."""

    def __init__(self, message: str, position: str = "") -> None:
        self.position = position
        super().__init__(f"{message} (at {position})" if position else message)


# Kronecker substitution pays off once operands stop being tiny: with the
# struct codec of _pack and _digits, from six terms of the shorter operand
# on, the fastest end to end of the cutoffs 4, 6, 8, 12 and 24.
_KRONECKER_CUTOFF = 6


def _mul_schoolbook(a: Sequence[int], b: Sequence[int]) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _norm(coeffs: Sequence[int]) -> int:
    return max(max(coeffs), -min(coeffs))


def _width(bound: int) -> int:
    """A width w in bytes with bound < 256**w / 2: at x = 256**w, balanced
    digits hold every coefficient of absolute value at most bound.  Up to 8
    bytes w is the fewest such bytes rounded up to a power of two, a width
    at which _pack and _digits run through struct; above 8 it is the fewest.
    Every caller needs only x > 2 * bound, so a wider x is as correct."""
    w = bound.bit_length() // 8 + 1
    return w if w > 8 else 1 << (w - 1).bit_length()


def _words(count: int, width: int) -> Optional[struct.Struct]:
    """The codec of count little-endian two's-complement words of width
    bytes, for a width of 1, 2, 4 or 8; None for any other width.  It is
    made afresh, as the module-level struct functions would keep up to 100
    of them alive per process, one per count."""
    if width in (1, 2, 4, 8):
        return struct.Struct(f"<{count}{'bhiq'[width.bit_length() - 1]}")
    return None


def _top_bits(count: int, width: int) -> int:
    """M = sum of 2**(8 * width - 1) * 256**(width * i) for i < count: the
    top bit of each of count digits of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The value of coeffs at x = 256**width, for integer coefficients of any
    size and sign; the empty list packs to 0.

    At a width of 1, 2, 4 or 8 bytes, struct writes the coefficients as
    two's-complement words, c mod x each; XOR with M (_top_bits) flips each
    word's top bit, which makes it c + x/2, and subtracting M leaves the
    value.  A coefficient outside [-x/2, x/2), which _heu_gcd packs, makes
    struct raise; it and every other width take the evaluation by halves."""
    words = _words(len(coeffs), width)
    if words:
        try:
            raw = words.pack(*coeffs)
        except struct.error:
            pass
        else:
            top = _top_bits(len(coeffs), width)
            return (int.from_bytes(raw, "little") ^ top) - top
    return _eval_halves(coeffs, 0, len(coeffs), 8 * width)


def _digits(value: int, width: int) -> list:
    """The balanced base-B digits of value, B = 256**width, lowest first,
    each in [-B/2, B/2), trailing zeros dropped.  Adding M (_top_bits), B/2
    at every digit place, turns them into the plain base-B digits of a
    nonnegative integer, which to_bytes slices out in one linear pass.  At
    a width of 1, 2, 4 or 8 bytes, XOR with M flips each digit's top bit
    back, which leaves the balanced digits as two's-complement words for
    one struct call to read; other widths read each digit on its own."""
    count = abs(value).bit_length() // (8 * width) + 2
    top = _top_bits(count, width)
    words = _words(count, width)
    if words:
        out = list(words.unpack(((value + top) ^ top).to_bytes(width * count, "little")))
    else:
        half = 1 << (8 * width - 1)
        raw = (value + top).to_bytes(width * count, "little")
        out = [int.from_bytes(raw[i:i + width], "little") - half
               for i in range(0, width * count, width)]
    while out and not out[-1]:
        out.pop()
    return out


def _mul_kronecker(a: Sequence[int], b: Sequence[int]) -> list:
    # Pack each polynomial into one big integer with signed byte-aligned
    # blocks; CPython multiplies huge ints subquadratically, which beats
    # pure-Python convolution by a wide margin at these sizes.
    width = _width(_norm(a) * _norm(b) * min(len(a), len(b)))
    return _digits(_pack(a, width) * _pack(b, width), width)


class QPoly:
    """Dense univariate integer polynomial; ``coeffs[i]`` multiplies q**i.

    Canonical form strips trailing zeros; the zero polynomial is the empty
    tuple everywhere.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c: int) -> "QPoly":
        return QPoly((c,))

    @staticmethod
    def q_power(m: int) -> "QPoly":
        if m < 0:
            raise ValueError("q_power wants m >= 0; negative powers live in RatFuncQ")
        return QPoly((0,) * m + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def __neg__(self) -> "QPoly":
        return QPoly(-c for c in self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        """q**(i + j) * (a / q**i) * (b / q**j) for i = val a and j = val b:
        the multiplication sees only the parts that q does not divide, and
        an operand left with one term is a constant."""
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        i, j = _val(a), _val(b)
        a, b = a[i:], b[j:]
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            prod = b if a[0] == 1 else [a[0] * c for c in b]
        elif len(a) < _KRONECKER_CUTOFF:
            prod = _mul_schoolbook(a, b)
        else:
            prod = _mul_kronecker(a, b)
        return _shifted(prod, i + j)

    def scale(self, k: int) -> "QPoly":
        if k == 0:
            return _P_ZERO
        return QPoly(c * k for c in self.coeffs)

    def __pow__(self, k: int) -> "QPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = _P_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def exact_div(self, other: "QPoly") -> "QPoly":
        """Quotient self/other when other divides self exactly over Z[q].

        Small operands run the schoolbook loop; above the Kronecker cutoff
        both are packed into integers and divided once, and a norm bound
        certifies the unpacked quotient (see _exact_quotient)."""
        if other.is_zero:
            raise DivisionByZeroError("polynomial division by zero")
        if self.is_zero:
            return _P_ZERO
        quot = _exact_quotient(self.coeffs, other.coeffs)
        if quot is None:
            raise ArithmeticError("inexact polynomial division")
        return QPoly(quot)

    def evaluate(self, point: Union[int, Fraction]) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return Fraction(acc)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return poly_text(self)


_P_ZERO = QPoly()
_P_ONE = QPoly((1,))
_P_MINUS_ONE = QPoly((-1,))


def _val(coeffs: Sequence[int]) -> int:
    """The q-adic valuation of a nonzero polynomial: its number of leading
    zero coefficients."""
    if coeffs[0]:
        return 0
    # the first nonzero coefficient, then its first occurrence: every
    # earlier entry is 0
    return coeffs.index(next(filter(None, coeffs)))


def _shifted(coeffs: Sequence[int], k: int) -> QPoly:
    """q**k times the polynomial whose coefficients, last one nonzero, are
    given."""
    p = object.__new__(QPoly)
    p.coeffs = (0,) * k + tuple(coeffs) if k else tuple(coeffs)
    return p


# CPython refuses str(int) and int(str) past 4,300 digits by default (and the
# limit can be set as low as 640), so longer numbers are split on powers of 10.
_DEC_CHUNK = 600


def int_to_decimal(n: int) -> str:
    """Decimal text of n, however many digits it has."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n.bit_length() <= 3 * _DEC_CHUNK:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(n, 10 ** k)
    return int_to_decimal(hi) + int_to_decimal(lo).zfill(k)


def decimal_to_int(text: str) -> int:
    """Inverse of :func:`int_to_decimal`; accepts an optional sign."""
    if len(text) <= _DEC_CHUNK:
        return int(text)
    if text[0] in "+-":
        value = decimal_to_int(text[1:])
        return -value if text[0] == "-" else value
    k = len(text) // 2
    return decimal_to_int(text[:-k]) * 10 ** k + decimal_to_int(text[-k:])


def poly_text(p: QPoly, latex: bool = False) -> str:
    """Ascending-degree rendering, ``1 - q + 2q^3`` or ``1 - q + 2q^{3}``."""
    if p.is_zero:
        return "0"
    chunks = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            body = int_to_decimal(abs(c))
        else:
            v = "q" if i == 1 else (f"q^{{{i}}}" if latex else f"q^{i}")
            body = v if abs(c) == 1 else f"{int_to_decimal(abs(c))}{v}"
        chunks.append((c < 0, body))
    neg, body = chunks[0]
    out = ("-" if neg else "") + body
    for neg, body in chunks[1:]:
        out += (" - " if neg else " + ") + body
    return out


def _split_content(coeffs: Sequence[int]) -> tuple:
    """(u, p) for nonzero coeffs = u * p, p primitive with positive leading term."""
    u = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        u = -u
    return u, (coeffs if u == 1 else [c // u for c in coeffs])


def _eval_halves(coeffs: Sequence[int], lo: int, hi: int, bits: int) -> int:
    """The value of coeffs[lo:hi] at x = 2**bits, by halves:
    f(x) = low(x) + (high(x) << bits * len low), with short Horner runs of
    shifts at the leaves.  Each level of the halving adds numbers of the full
    size once, so the cost is O(size * log len) where Horner with one
    multiply per coefficient is quadratic in the length.  (A nested helper
    would hold coeffs in a reference cycle until the garbage collector ran.)"""
    # Leaves of 16 coefficients timed fastest of 4, 8, 16, 32 and 64 on
    # inputs of 10 to 160 coefficients; up to 16 this is plain Horner.
    if hi - lo <= 16:
        acc = 0
        for c in reversed(coeffs[lo:hi]):
            acc = (acc << bits) + c
        return acc
    mid = (lo + hi) // 2
    return (_eval_halves(coeffs, lo, mid, bits)
            + (_eval_halves(coeffs, mid, hi, bits) << bits * (mid - lo)))


def _exact_quotient(A: Sequence[int], B: Sequence[int]) -> Optional[list]:
    """Quotient of A by B over Z if B divides A exactly, else None.

    Above the Kronecker cutoff both are packed at x = 256**w and divided as
    integers.  A nonzero remainder proves that B does not divide A, since
    A = B * C in Z[q] gives A(x) = B(x) * C(x).  Otherwise the balanced
    digits of the integer quotient (_digits) are the candidate C, and C is
    returned only under a norm certificate, taken with C's own length as
    the theorem states it.

    Theorem: if A(x) = B(x) * C(x) and
    |A|_inf + |B|_inf * |C|_inf * min(len B, len C) < x/2, then A = B * C.
    Proof: D = A - B * C has integer coefficients of absolute value below
    x/2 and D(x) = 0.  If D were nonzero, with lowest nonzero coefficient
    d_k, then x^k * d_k = -(sum over i > k of d_i * x^i) is a multiple of
    x^(k+1), so x divides d_k, which is impossible for 0 < |d_k| < x/2.

    A candidate that fails the bound is tried again at the width the bound
    asks for.  A wrapped candidate can understate the norm of the true
    quotient, which may exceed the dividend's by far (a denominator divided
    by a gcd, say), so that width can fall short again; the next two tries
    at least double it.  If every try fails, the schoolbook loop decides.
    """
    n = len(A) - len(B) + 1
    if min(len(B), n) < _KRONECKER_CUTOFF:
        return _exact_quotient_schoolbook(A, B)
    if A[-1] % B[-1]:
        return None
    na, nb = _norm(A), _norm(B)
    width = _width(max(na, nb) * len(A))
    for attempt in range(4):
        qv, r = divmod(_pack(A, width), _pack(B, width))
        if r:
            return None
        cand = _digits(qv, width)
        bound = 2 * (na + nb * _norm(cand) * min(len(B), len(cand)))
        if bound < 1 << (8 * width):
            return cand
        width = max(_width(bound), 2 * width if attempt else 0)
    return _exact_quotient_schoolbook(A, B)


def _exact_quotient_schoolbook(A: Sequence[int], B: Sequence[int]) -> Optional[list]:
    """Quotient of A by B over Z if B divides A exactly, else None."""
    if len(A) < len(B):
        return None
    rem = list(A)
    lb = B[-1]
    width = len(B)
    out = [0] * (len(A) - width + 1)
    for k in range(len(out) - 1, -1, -1):
        top = rem[k + width - 1]
        if top == 0:
            continue
        qt, r = divmod(top, lb)
        if r:
            return None
        out[k] = qt
        for j, bc in enumerate(B):
            rem[k + j] -= qt * bc
    if any(rem[: width - 1]):
        return None
    return out


def _same(a: Sequence[int], b: Sequence[int]) -> bool:
    """Equal coefficient sequences, whether each is a list or a tuple."""
    return len(a) == len(b) and list(a) == list(b)


def _cofactors(f: Sequence[int], g: Sequence[int], h: Sequence[int]) -> Optional[tuple]:
    """(h, f / h, g / h) if h divides both f and g over Z, else None; an
    input equal to h has the cofactor 1 without a trial division."""
    qf = _ONE_TUPLE if _same(f, h) else _exact_quotient(f, h)
    qg = None if qf is None else _ONE_TUPLE if _same(g, h) else _exact_quotient(g, h)
    return None if qg is None else (h, qf, qg)


def _heu_gcd(f_coeffs: Sequence[int], g_coeffs: Sequence[int]) -> tuple:
    """(G, f / G, g / G) for nonzero primitive f, g with positive leading
    terms and G = gcd(f, g), by the heuristic gcd GCDHEU.

    A constant input is 1, so G = 1.  Otherwise both inputs are packed at
    x = 256**w, w set by the smaller norm (so x may sit below the larger
    input's norm, which _pack allows), and a candidate divisor h is read
    back off the balanced base-x digits of the integer gcd of the values
    with _digits.  The trial divisions that test h also give the two
    cofactors.  The first five retries multiply x by 256 and every later one
    squares it, for gcds whose coefficients outgrow a few bytes, until a
    candidate divides both inputs.

    Theorem (Char, Geddes & Gonnet, 1989): for primitive f, g and
    x >= 2 * min(|f|_inf, |g|_inf) + 2, the primitive part of h is gcd(f, g)
    if and only if it divides both f and g.  Proof: if it divides both, then
    G = gcd(f, g) = pp(h) * k for some k in Z[q].  G(x) divides
    gcd(f(x), g(x)) = h(x) = cont(h) * pp(h)(x), so k(x) divides cont(h),
    which divides a nonzero digit and so |k(x)| <= x/2.  Every root a of k is
    a root of the input of smaller norm, so |a| < 1 + min(|f|, |g|) <= x/2
    (Cauchy), and |k(x)| = |lc k| * prod |x - a| > (x/2)^deg k.  Hence k is a
    constant, and +-1 since G and pp(h) are primitive.  The same bound shows
    that an integer gcd of 1, or a constant h, means gcd(f, g) = 1.  The first
    x below meets the bound and each retry only enlarges it, so a candidate
    that passes trial division into both inputs is returned as it stands.

    Termination: write f = G * F and g = G * H with F, H coprime.  Then
    gcd(f(x), g(x)) = k * |G(x)| with k = gcd(F(x), H(x)).  If F or H is
    constant, it is 1 (f and g are primitive with positive leading terms),
    and k = 1; let R = 1.  Otherwise s * F + t * H = R = Res(F, H) for some
    s, t in Z[q], so k divides the nonzero integer R.  Once
    x > 2 * |R| * |G|_inf and neither input vanishes at x, the integer gcd
    is the value at x of +-k * G, whose coefficients are below x/2 in
    absolute value.  Balanced base-x digits are unique, so the digits read
    back are +-k * G; their primitive part is G, and trial division accepts
    it.  Squaring x at every later retry passes any such bound.
    """
    if len(f_coeffs) == 1 or len(g_coeffs) == 1:
        return _ONE_TUPLE, f_coeffs, g_coeffs
    width = _width(2 * min(_norm(f_coeffs), _norm(g_coeffs)) + 29)
    for attempt in count():
        fv = _pack(f_coeffs, width)
        gv = _pack(g_coeffs, width)
        if fv and gv:
            h = math.gcd(fv, gv)
            if h == 1:
                return _ONE_TUPLE, f_coeffs, g_coeffs
            cand = _split_content(_digits(h, width))[1]
            if len(cand) == 1:
                return _ONE_TUPLE, f_coeffs, g_coeffs
            found = _cofactors(f_coeffs, g_coeffs, cand)
            if found is not None:
                return found
        width = width + 1 if attempt < 5 else 2 * width


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Gcd in Z[q], normalized primitive with positive leading coefficient:
    the primitive part of _gcd_full's g, and of the other input if one is
    zero."""
    g = b if a.is_zero else a if b.is_zero else _gcd_full(a, b)[0]
    return QPoly(_split_content(g.coeffs)[1]) if g.coeffs else _P_ZERO


def _gcd_full(a: QPoly, b: QPoly) -> tuple:
    """(g, a / g, b / g) for nonzero a, b and their gcd g in Z[q], integer
    content included and leading coefficient positive; equal inputs need
    no gcd.

    The power of q comes off before any work.  Lemma: q is prime in Z[q]
    (Z[q]/(q) = Z is a domain), so for f and g that q does not divide,
    gcd(q**i * f, q**j * g) = q**min(i, j) * gcd(f, g): q divides no common
    factor of f and g, and every prime other than q divides q**i * f exactly
    as often as it divides f.  So GCDHEU runs on the q-free primitive parts,
    q**min(i, j) joins g and the rest of each power joins its cofactor.  A
    monomial input leaves a constant, which _heu_gcd answers at once."""
    if a == b:
        if a.leading > 0:
            return a, _P_ONE, _P_ONE
        return -a, _P_MINUS_ONE, _P_MINUS_ONE
    i, j = _val(a.coeffs), _val(b.coeffs)
    ua, fa = _split_content(a.coeffs[i:])
    ub, fb = _split_content(b.coeffs[j:])
    c = math.gcd(ua, ub)
    G, qa, qb = _heu_gcd(fa, fb)
    k = min(i, j)
    if c == 1 and k == 0 and len(G) == 1:
        return _P_ONE, a, b
    ka, kb = ua // c, ub // c
    return (_shifted(G if c == 1 else [x * c for x in G], k),
            _shifted(qa if ka == 1 else [x * ka for x in qa], i - k),
            _shifted(qb if kb == 1 else [x * kb for x in qb], j - k))


def clear_denominators(values: Sequence[RatFuncQ]) -> tuple:
    """(D, [v.num * (D / v.den) for v in values]) for D the lcm of the
    denominators, so v = numerator / D for each v; D = 1 for no values.

    D starts as a denominator of greatest degree, and each multiplier D / d
    is first tried as an exact division.  Only when d does not divide D does
    g = gcd(D, d) run; D then grows by d / g, lcm(D, d) = D * (d / g), and
    so does every multiplier taken before.  The lcm with positive leading
    coefficient is unique, so the order changes nothing; nested
    denominators, as the moment sequences have, take no gcd."""
    if not values:
        return _P_ONE, []
    lcm = max((v.den for v in values), key=lambda d: d.degree)
    mults = []
    for v in values:
        quot = _exact_quotient(lcm.coeffs, v.den.coeffs)
        if quot is not None:
            mults.append(QPoly(quot))
            continue
        _, rest, grow = _gcd_full(lcm, v.den)
        lcm = lcm * grow
        mults = [m * grow for m in mults]
        mults.append(rest)
    return lcm, [v.num * m for v, m in zip(values, mults)]


_ONE_TUPLE = (1,)


class RatFuncQ:
    """Element of Q(q) as a reduced fraction of integer polynomials.

    Invariants: den is nonzero with positive leading coefficient, and the
    full gcd of num and den (content included) is 1.  Under those rules each
    value has exactly one representative, so ``==`` and ``hash`` are textual
    and semantic at the same time.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Union[QPoly, int], den: Union[QPoly, int, None] = None) -> None:
        if isinstance(num, int):
            num = QPoly.const(num)
        if den is None:
            den = _P_ONE
        elif isinstance(den, int):
            den = QPoly.const(den)
        if den.is_zero:
            raise DivisionByZeroError("zero denominator")
        if num.is_zero:
            self.num, self.den = _P_ZERO, _P_ONE
        else:
            _, num, den = _gcd_full(num, den)
            if den.leading < 0:
                num, den = -num, -den
            self.num, self.den = num, den
        self._hash = None

    @classmethod
    def _raw(cls, num: QPoly, den: QPoly) -> "RatFuncQ":
        # Internal: caller certifies the pair is already canonical.
        self = object.__new__(cls)
        self.num = num
        self.den = den
        self._hash = None
        return self

    @classmethod
    def from_fraction(cls, f: Fraction) -> "RatFuncQ":
        return cls(QPoly.const(f.numerator), QPoly.const(f.denominator))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @staticmethod
    def _coerce(x: object) -> "RatFuncQ":
        if isinstance(x, RatFuncQ):
            return x
        if isinstance(x, int):
            return const(x)
        if isinstance(x, Fraction):
            return RatFuncQ.from_fraction(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "RatFuncQ":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        na, da, nb, db = self.num, self.den, o.num, o.den
        if da.coeffs == db.coeffs == _ONE_TUPLE:
            # a polynomial over 1 is already reduced
            return RatFuncQ._raw(na + nb, _P_ONE)
        # Fraction-style reduced addition: only gcds of structured pieces.
        g, sa, sb = _gcd_full(da, db)
        t = na * sb + nb * sa
        if t.is_zero:
            return Q_ZERO
        if g.coeffs == _ONE_TUPLE:
            return RatFuncQ._raw(t, da * db)
        g2, t, gq = _gcd_full(t, g)
        # db / g2 = sb * (g / g2)
        return RatFuncQ._raw(t, sa * (db if g2.coeffs == _ONE_TUPLE else sb * gq))

    __radd__ = __add__

    def __neg__(self) -> "RatFuncQ":
        if self.is_zero:
            return self
        return RatFuncQ._raw(-self.num, self.den)

    def __sub__(self, other: object) -> "RatFuncQ":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "RatFuncQ":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "RatFuncQ":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Q_ZERO
        if self.den.coeffs == o.den.coeffs == _ONE_TUPLE:
            return RatFuncQ._raw(self.num * o.num, _P_ONE)
        _, na, db = _gcd_full(self.num, o.den)
        _, nb, da = _gcd_full(o.num, self.den)
        return RatFuncQ._raw(na * nb, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RatFuncQ":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZeroError("division by zero rational function")
        if self.is_zero:
            return Q_ZERO
        recip = RatFuncQ._raw(o.den, o.num) if o.num.leading > 0 else RatFuncQ._raw(-o.den, -o.num)
        return self * recip

    def __rtruediv__(self, other: object) -> "RatFuncQ":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> "RatFuncQ":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return Q_ONE
        if k < 0:
            if self.is_zero:
                raise DivisionByZeroError("zero to a negative power")
            base = Q_ONE / self
            k = -k
        else:
            base = self
        # num and den stay coprime under powers, so no re-reduction needed.
        return RatFuncQ._raw(base.num ** k, base.den ** k)

    def eval_at(self, point: Union[int, Fraction]) -> Fraction:
        dv = self.den.evaluate(point)
        if dv == 0:
            raise PoleError(f"pole at q = {point}")
        return self.num.evaluate(point) / dv

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            num, den = self.num.coeffs, self.den.coeffs
            if len(num) <= 1 and len(den) == 1:
                # a constant equals the int or Fraction it coerces from
                h = hash(Fraction(num[0] if num else 0, den[0]))
            else:
                h = hash((num, den))
            self._hash = h
        return h

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"RatFuncQ({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"

    def __str__(self) -> str:
        if self.den.coeffs == _ONE_TUPLE:
            return poly_text(self.num)
        return f"({poly_text(self.num)})/({poly_text(self.den)})"


Q_ZERO = RatFuncQ._raw(_P_ZERO, _P_ONE)
Q_ONE = RatFuncQ._raw(_P_ONE, _P_ONE)
Q = RatFuncQ._raw(QPoly((0, 1)), _P_ONE)


def const(k: int) -> RatFuncQ:
    if k == 0:
        return Q_ZERO
    if k == 1:
        return Q_ONE
    return RatFuncQ._raw(QPoly.const(k), _P_ONE)


def qpow(m: int) -> RatFuncQ:
    """q**m for any integer m, negative exponents included."""
    if m >= 0:
        return RatFuncQ._raw(QPoly.q_power(m), _P_ONE)
    return RatFuncQ._raw(_P_ONE, QPoly.q_power(-m))


def json_object(f: RatFuncQ) -> dict:
    """The object that :func:`serialize` writes: num and den as lists of
    decimal strings, ascending."""
    return {
        "num": [int_to_decimal(c) for c in f.num.coeffs] or ["0"],
        "den": [int_to_decimal(c) for c in f.den.coeffs],
    }


def serialize(f: RatFuncQ) -> str:
    """Canonical JSON text for a RatFuncQ; byte-stable for equal values."""
    return json.dumps(json_object(f), sort_keys=True, separators=(",", ":"))


_INT_CHARS = set("0123456789")


def _parse_coeff_list(obj: object, key: str) -> QPoly:
    if not isinstance(obj, list):
        raise DeserializeError("expected an array of decimal strings", key)
    coeffs = []
    for i, item in enumerate(obj):
        if not isinstance(item, str) or not item:
            raise DeserializeError("coefficient must be a decimal string", f"{key}[{i}]")
        body = item[1:] if item[0] in "+-" else item
        if not body or set(body) - _INT_CHARS:
            raise DeserializeError(f"bad integer literal {item!r}", f"{key}[{i}]")
        coeffs.append(decimal_to_int(item))
    return QPoly(coeffs)


def deserialize(text: str) -> RatFuncQ:
    """Parse the output of :func:`serialize`; errors carry a position."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DeserializeError(f"invalid JSON: {e.msg}", f"offset {e.pos}") from None
    if not isinstance(data, dict):
        raise DeserializeError("expected a JSON object", "top level")
    extra = set(data) - {"num", "den"}
    if extra:
        raise DeserializeError(f"unexpected key {sorted(extra)[0]!r}", "top level")
    for key in ("num", "den"):
        if key not in data:
            raise DeserializeError(f"missing key {key!r}", "top level")
    num = _parse_coeff_list(data["num"], "num")
    den = _parse_coeff_list(data["den"], "den")
    if den.is_zero:
        raise DeserializeError("zero denominator", "den")
    return RatFuncQ(num, den)
