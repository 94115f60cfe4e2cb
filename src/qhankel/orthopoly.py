"""Polynomials in z over Q(q), each held as integer numerators over one
denominator (ZPoly): three-term recurrences and the specialized big q-Jacobi
families (series route, recurrence route, affine route).
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .ratcore import (
    _P_ONE,
    _P_ZERO,
    Q_ONE,
    Q_ZERO,
    QPoly,
    RatFuncQ,
    _gcd_full,
    clear_denominators,
    qpow,
)


class NotQuasiDefiniteError(ValueError):
    """A leading Hankel determinant vanished; ``depth`` names which one."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        super().__init__(f"Hankel determinant of order {depth} vanishes")


class ZPoly:
    """Dense polynomial in z over Q(q), ascending order, held as integer
    numerators over one denominator: p = sum_k nums[k] z^k / den, with
    ``nums`` a tuple of QPoly and ``den`` a QPoly.

    Canonical form: den has a positive leading coefficient, the last
    numerator is nonzero, and gcd(den, nums[0], ..., nums[-1]) = 1 in Z[q],
    integer content included.  The zero polynomial is no numerators over 1.

    Lemma: each polynomial has exactly one canonical pair, and its den is
    the lcm L of the reduced coefficients' denominators b_k.  For
    coefficients a_k / b_k, each nums[k] = den * a_k / b_k lies in Z[q] with
    a_k and b_k coprime, so b_k divides den, and den = L * u.  Then u
    divides den and every nums[k] = u * (L a_k / b_k), so u = +-1, and the
    sign of the leading coefficient makes u = 1.  Conversely (L, L a_k / b_k)
    is canonical: a prime power p^e exactly dividing L exactly divides some
    b_j, and p divides neither a_j nor L / b_j.  So ``==`` and ``hash`` read
    (nums, den) and mean the same as comparing reduced coefficients.

    ``coeffs`` is the tuple of reduced RatFuncQ coefficients, built on first
    use; ``coeff(k)`` reduces entry k alone.  Each operation reduces its
    result once, by the only factor it can leave (see ``__add__``,
    ``__mul__`` and ``scale``).
    """

    __slots__ = ("nums", "den", "_coeffs", "_content", "_hash")

    def __init__(self, coeffs: Iterable[Union[RatFuncQ, int, Fraction]] = ()) -> None:
        cs = []
        for c in coeffs:
            r = RatFuncQ._coerce(c)
            if r is NotImplemented:
                raise TypeError("ZPoly coefficients are int, Fraction or RatFuncQ, "
                                f"not {type(c).__name__}")
            cs.append(r)
        while cs and cs[-1].is_zero:
            cs.pop()
        den, nums = clear_denominators(cs)  # the canonical pair, by the lemma
        self.nums = tuple(nums)
        self.den = den
        self._coeffs = tuple(cs)
        self._content = None
        self._hash = None

    @classmethod
    def _raw(cls, nums: Tuple[QPoly, ...], den: QPoly) -> "ZPoly":
        # Internal: caller certifies the pair is already canonical.
        self = object.__new__(cls)
        self.nums = nums
        self.den = den
        self._coeffs = None
        self._content = None
        self._hash = None
        return self

    @staticmethod
    def zero() -> "ZPoly":
        return _Z_ZERO

    @staticmethod
    def one() -> "ZPoly":
        return _Z_ONE

    @staticmethod
    def z() -> "ZPoly":
        return _Z_VAR

    @staticmethod
    def monomial(n: int) -> "ZPoly":
        return _Z_ONE.shift_up(n)

    @property
    def coeffs(self) -> Tuple[RatFuncQ, ...]:
        cs = self._coeffs
        if cs is None:
            cs = self._coeffs = tuple(self.coeff(k) for k in range(len(self.nums)))
        return cs

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading(self) -> RatFuncQ:
        return self.coeff(len(self.nums) - 1)

    @property
    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    def coeff(self, k: int) -> RatFuncQ:
        if not 0 <= k < len(self.nums):
            return Q_ZERO
        if self._coeffs is not None:
            return self._coeffs[k]
        if self.den.coeffs == _ONE:
            return RatFuncQ._raw(self.nums[k], _P_ONE)
        return RatFuncQ(self.nums[k], self.den)

    def _cont(self) -> QPoly:
        """The content of the numerators, gcd(nums...) in Z[q], up to sign;
        1 with no gcd for a monic polynomial, whose last numerator is den."""
        c = self._content
        if c is None:
            if self.nums[-1] == self.den:
                c = _P_ONE
            else:
                for t in self.nums:
                    if t.coeffs:
                        c = t if c is None else _gcd_full(c, t)[0]
                        if c.coeffs == _ONE:
                            break
            self._content = c
        return c

    def __add__(self, other: "ZPoly") -> "ZPoly":
        """Over L = lcm(da, db) = da * sb, for g = gcd(da, db), sa = da / g and
        sb = db / g, the numerators are T = na * sb + nb * sa.  A prime
        dividing L and every T_k divides g: if it divided sa, it would not
        divide sb (sa and sb are coprime), so it would divide every na_k and
        da, which canonical form rules out; likewise for sb.  So the factor
        to cancel is gcd(g, T...), sought only while it is not 1."""
        if not self.nums:
            return other
        if not other.nums:
            return self
        da, db = self.den, other.den
        g, sa, sb = _gcd_full(da, db)
        na, nb = self.nums, other.nums
        if sb.coeffs != _ONE:
            na = tuple(t * sb for t in na)
        if sa.coeffs != _ONE:
            nb = tuple(t * sa for t in nb)
        if len(na) < len(nb):
            na, nb = nb, na
        total = list(na)
        for i, t in enumerate(nb):
            total[i] = total[i] + t
        while total and not total[-1].coeffs:
            total.pop()
        if not total:
            return _Z_ZERO
        return _cancel(total, da * sb, g)

    def __neg__(self) -> "ZPoly":
        return ZPoly._raw(tuple(-t for t in self.nums), self.den)

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        """Gauss's lemma: cont(Na * Nb) = cont Na * cont Nb in Z[q], so with
        each input canonical the product's common factor is
        gcd(da, cont Nb) * gcd(db, cont Na), and each part cancels before
        the product is formed."""
        if not self.nums or not other.nums:
            return _Z_ZERO
        g1, g2 = _gcd_cont(self.den, other), _gcd_cont(other.den, self)
        nums = _convolve([_quo(t, g2) for t in self.nums], [_quo(t, g1) for t in other.nums])
        return ZPoly._raw(tuple(nums), _quo(self.den, g1) * _quo(other.den, g2))

    def scale(self, s: RatFuncQ) -> "ZPoly":
        """s * self; by Gauss's lemma, as for ``__mul__`` with the constant
        s.num / s.den, the common factor is gcd(den, s.num) * gcd(s.den, cont)."""
        if s.is_zero or not self.nums:
            return _Z_ZERO
        g1 = _P_ONE if self.den.coeffs == _ONE else _gcd_full(self.den, s.num)[0]
        g2 = _gcd_cont(s.den, self)
        factor = _quo(s.num, g1)
        nums = [_quo(t, g2) for t in self.nums]
        if factor.coeffs != _ONE:
            nums = [t * factor for t in nums]
        return ZPoly._raw(tuple(nums), _quo(self.den, g1) * _quo(s.den, g2))

    def shift_up(self, k: int = 1) -> "ZPoly":
        """Multiply by z**k."""
        if not self.nums:
            return self
        return ZPoly._raw((_P_ZERO,) * k + self.nums, self.den)

    def compose(self, inner: "ZPoly") -> "ZPoly":
        """Substitute ``inner`` = I / e for z: Horner on the numerators,
        sum_k nums[k] I^k e^(d-k) over den e^d for d the degree, reduced once."""
        if not self.nums or not inner.nums:
            return ZPoly([self.coeff(0)])
        e = inner.den
        acc = [self.nums[-1]]
        e_pow = _P_ONE
        for t in reversed(self.nums[:-1]):
            e_pow = e_pow * e
            acc = _convolve(acc, inner.nums)
            if acc:
                acc[0] = acc[0] + t * e_pow
            else:
                acc = [t * e_pow]
            while acc and not acc[-1].coeffs:
                acc.pop()
        if not acc:
            return _Z_ZERO
        den = self.den * e_pow
        return _cancel(acc, den, den)

    def __call__(self, point: RatFuncQ) -> RatFuncQ:
        """p(x / y) = sum_k nums[k] x^k y^(d-k) / (den y^d) for d the
        degree, reduced once."""
        if not self.nums:
            return Q_ZERO
        point = RatFuncQ._coerce(point)
        x, y = point.num, point.den
        acc = self.nums[-1]
        y_pow = _P_ONE
        for t in reversed(self.nums[:-1]):
            y_pow = y_pow * y
            acc = acc * x + t * y_pow
        return RatFuncQ(acc, self.den * y_pow)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ZPoly) and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.nums, self.den))
        return h

    def __repr__(self) -> str:
        return f"ZPoly({[str(c) for c in self.coeffs]})"


def _quo(t: QPoly, g: QPoly) -> QPoly:
    """t / g for g dividing t."""
    return t if g.coeffs == _ONE else t.exact_div(g)


def _gcd_cont(d: QPoly, p: ZPoly) -> QPoly:
    """gcd(d, cont p), with no gcd when d is 1 or p is monic."""
    if d.coeffs == _ONE:
        return _P_ONE
    c = p._cont()
    return _P_ONE if c.coeffs == _ONE else _gcd_full(d, c)[0]


def _convolve(a: Sequence[QPoly], b: Sequence[QPoly]) -> List[QPoly]:
    """The numerators of the product of two polynomials in z over Z[q]."""
    if not a or not b:
        return []
    out = [_P_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.coeffs:
            for j, y in enumerate(b):
                if y.coeffs:
                    out[i + j] = out[i + j] + x * y
    return out


def _cancel(nums: List[QPoly], den: QPoly, g: QPoly) -> ZPoly:
    """The canonical ZPoly of nums / den, for nums with a nonzero last
    entry, den with a positive leading coefficient, and g a divisor of den
    that every common factor of den and the nums divides.

    One gcd per numerator narrows g to the common factor, and stops once it
    is 1.  Each gcd's cofactors give the numerators divided by it: a
    quotient by the old g times the old g over the new one is the quotient
    by the new g."""
    if g.coeffs == _ONE:
        return ZPoly._raw(tuple(nums), den)
    quots: List[QPoly] = []
    for t in nums:
        if t.coeffs:
            g_new, shrink, t = _gcd_full(g, t)
            if g_new.coeffs == _ONE:
                return ZPoly._raw(tuple(nums), den)
            if shrink.coeffs != _ONE:
                quots = [x * shrink for x in quots]
            g = g_new
        quots.append(t)
    return ZPoly._raw(tuple(quots), den.exact_div(g))


_ONE = (1,)
_Z_ZERO = ZPoly._raw((), _P_ONE)
_Z_ONE = ZPoly._raw((_P_ONE,), _P_ONE)
_Z_VAR = ZPoly._raw((_P_ZERO, _P_ONE), _P_ONE)


def _indexed(values: List[RatFuncQ], first: int) -> Callable[[int], RatFuncQ]:
    def get(n: int) -> RatFuncQ:
        if not first <= n < first + len(values):
            raise IndexError(f"index {n} is outside the stored prefix")
        return values[n - first]

    return get


class JFraction(NamedTuple):
    """mu0 / (1 + a(0) x - b(1) x^2 / (1 + a(1) x - ...)).

    The same data drives the monic recurrence
    p_{n+1} = (z + a(n)) p_n - b(n) p_{n-1}.  A finite prefix built by
    :meth:`from_lists` also keeps its values in ``a_list`` and ``b_list``.
    """

    mu0: RatFuncQ
    a: Callable[[int], RatFuncQ]
    b: Callable[[int], RatFuncQ]
    a_list: Optional[List[RatFuncQ]] = None
    b_list: Optional[List[RatFuncQ]] = None

    @classmethod
    def from_lists(cls, mu0: RatFuncQ, a_list: Sequence[RatFuncQ], b_list: Sequence[RatFuncQ]) -> "JFraction":
        """Finite prefix; b_list[0] corresponds to b(1)."""
        a_vals = list(a_list)
        b_vals = list(b_list)
        return cls(mu0, _indexed(a_vals, 0), _indexed(b_vals, 1), a_vals, b_vals)


def three_term_build(data: JFraction, upto: int) -> List[ZPoly]:
    """Monic polynomials p_0 .. p_upto from the recurrence.  p_{n+1} needs
    H_n != 0, and b(n) = H_n H_{n-2} / H_{n-1}^2, so a zero b(n) raises
    NotQuasiDefiniteError(n)."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    polys = [_Z_ONE]
    if upto >= 1:
        polys.append(ZPoly([data.a(0), Q_ONE]))
    for n in range(1, upto):
        b = data.b(n)
        if b.is_zero:
            raise NotQuasiDefiniteError(n)
        polys.append(ZPoly([data.a(n), Q_ONE]) * polys[n] - polys[n - 1].scale(b))
    return polys


@lru_cache(maxsize=None)
def coeffs_ab(ell: int, n: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """(A, B) of the kind-one family's A J_{n+1} = (z + A + B - 1) J_n -
    B J_{n-1}, read from ``coeffs_monic`` at z = 1: J_n(1) = 1, as (z;q)_k
    vanishes there for k >= 1, and c_n J_n = p~_n, so c_n = p~_n(1) and
    A(n) = c_{n+1}/c_n = 1 + a~(n) - B(n), B(n) = b~(n)/A(n-1), B(0) = 0."""
    _check_ell_n(ell, n)
    a, b = coeffs_monic(ell, n)
    for k in range(n - 1):  # ascending, so a cold call recurses one level deep
        coeffs_ab(ell, k)
    B = b / coeffs_ab(ell, n - 1)[0] if n else Q_ZERO
    return Q_ONE + a - B, B


@lru_cache(maxsize=None)
def coeffs_monic(ell: int, n: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """(a~, b~) of the monic recurrence for the kind-one family."""
    _check_ell_n(ell, n)
    a = (
        -qpow(2 * n + ell + 1)
        * (Q_ONE + qpow(1))
        * (Q_ONE + qpow(ell))
        / ((Q_ONE + qpow(2 * n + ell)) * (Q_ONE + qpow(2 * n + ell + 2)))
    )
    b = (
        -qpow(2 * n + 2 * ell + 1)
        * (Q_ONE - qpow(2 * n))
        * (Q_ONE - qpow(2 * n + 2 * ell))
        / (
            (Q_ONE + qpow(2 * n + ell - 1))
            * (Q_ONE + qpow(2 * n + ell)) ** 2
            * (Q_ONE + qpow(2 * n + ell + 1))
        )
    )
    return a, b


# u of the affine map from the kind-one family to the affine-shifted one (coeffs_p)
_AFFINE_U = qpow(2) - qpow(1)


@lru_cache(maxsize=None)
def coeffs_p(ell: int, n: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """(a, b) of the monic recurrence for the affine-shifted family
    p_n(z) = u^{-n} p~_n(u z + q), u = q^2 - q (``_AFFINE_U``), of the
    kind-one family p~.  Put x = u z + q in p~'s recurrence
    p~_{n+1}(x) = (x + a~) p~_n(x) - b~ p~_{n-1}(x) and divide by u^{n+1}:
    a = (a~ + q) / u and b = b~ / u^2 for (a~, b~) = coeffs_monic(ell, n)."""
    a, b = coeffs_monic(ell, n)
    return (a + qpow(1)) / _AFFINE_U, b / _AFFINE_U ** 2


def _check_ell_n(ell: int, n: int) -> None:
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if n < 0:
        raise ValueError("n must be >= 0")


def _series_family_sum(ell: int, n: int, w: ZPoly) -> ZPoly:
    """Terminating 3phi2 with polynomial third parameter.

    sum_{k=0}^n (q^{-n};q)_k (-q^{n+ell+1};q)_k (w;q)_k q^k
                / ((q;q)_k (q^{ell+1};q)_k)
    where (w;q)_k is the running product of (1 - w q^j) over j < k.

    The k-th term is the (k-1)-th times r_k (1 - w q^{k-1}), with
    r_k = (1 - q^{k-1-n}) (1 + q^{n+ell+k}) q / ((1 - q^k) (1 - q^{ell+k}))
        = a_k / b_k,  a_k = (q^{n-k+1} - 1) (1 + q^{n+ell+k}),
                      b_k = q^{n-k} (1 - q^k) (1 - q^{ell+k}),
    so the sum runs by Horner's rule from the inside out:
    1 + r_1 (1 - w) (1 + r_2 (1 - w q) (1 + ... (1 + r_n (1 - w q^{n-1})))).

    The partial sums are integer numerators T over one D in Z[q].  For
    w = W / e, 1 + r_k (1 - w q^{k-1}) T / D is
    (b_k e D + a_k (e - q^{k-1} W) T) / (b_k e D), and the sum is reduced
    once, at the end (_cancel).  D keeps a positive leading coefficient, as
    b_k and e have one.  w has degree >= 1, so the last numerator, a
    product of nonzero last terms, never vanishes.
    """
    q_pow = QPoly.q_power
    e = w.den
    total, den = [_P_ONE], _P_ONE
    for k in range(n, 0, -1):
        a = (q_pow(n - k + 1) - _P_ONE) * (_P_ONE + q_pow(n + ell + k))
        b = q_pow(n - k) * (_P_ONE - q_pow(k)) * (_P_ONE - q_pow(ell + k))
        factor = [-(t * q_pow(k - 1)) for t in w.nums]
        factor[0] = factor[0] + e
        den = b * e * den
        total = [a * t for t in _convolve(factor, total)]
        total[0] = total[0] + den
    return _cancel(total, den, den)


@lru_cache(maxsize=None)
def build_j_via_phi2(ell: int, n: int) -> ZPoly:
    """The kind-one family straight from its terminating series definition."""
    _check_ell_n(ell, n)
    return _series_family_sum(ell, n, _Z_VAR)


@lru_cache(maxsize=None)
def _monic_scale(ell: int, n: int) -> RatFuncQ:
    """c_n = p~_n(1) = c_{n-1} A(n-1) (see ``coeffs_ab``), the inverse of
    the leading coefficient of :func:`build_j_via_phi2`."""
    for k in range(1, n):  # ascending, as in coeffs_ab
        _monic_scale(ell, k)
    return _monic_scale(ell, n - 1) * coeffs_ab(ell, n - 1)[0] if n else Q_ONE


@lru_cache(maxsize=None)
def build_jtilde_via_phi2(ell: int, n: int) -> ZPoly:
    """Monic rescaling c_n J_n of :func:`build_j_via_phi2`, c_n = p~_n(1)."""
    return build_j_via_phi2(ell, n).scale(_monic_scale(ell, n))


@lru_cache(maxsize=None)
def build_p_via_phi2(ell: int, n: int) -> ZPoly:
    """The affine-shifted monic family from its series definition: the
    affine image u^{-n} c_n J_n(u z + q) of c_n J_n (see coeffs_p), so the
    3phi2 runs on w = q + u z with prefactor c_n / u^n, c_n = p~_n(1)."""
    _check_ell_n(ell, n)
    w = ZPoly([qpow(1), _AFFINE_U])
    return _series_family_sum(ell, n, w).scale(_monic_scale(ell, n) / _AFFINE_U ** n)


def affine_transform(polys: Sequence[ZPoly], u: RatFuncQ, v: RatFuncQ) -> List[ZPoly]:
    """Map each p_n to u^{-n} p_n(u z + v); keeps monic families monic."""
    if u.is_zero:
        raise ValueError("affine scale u must be nonzero")
    sub = ZPoly([v, u])
    out = []
    u_inv_pow = Q_ONE
    for n, p in enumerate(polys):
        if n:
            u_inv_pow = u_inv_pow / u
        out.append(p.compose(sub).scale(u_inv_pow))
    return out
