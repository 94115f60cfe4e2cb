"""Polynomials in z over Q(q): three-term recurrences and the specialized
big q-Jacobi families (series route, recurrence route, affine route).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .carlitz import q_euler_recursive
from .qkit import parity_sign, poch
from .ratcore import Q_ONE, Q_ZERO, RatFuncQ, const, qpow
from .record import Record


class DegenerateRecurrenceError(ValueError):
    """A recurrence coefficient b(n) that must be nonzero vanished."""

    def __init__(self, n: int) -> None:
        self.n = n
        super().__init__(f"recurrence coefficient b({n}) is zero")


class ZPoly:
    """Dense polynomial in z with RatFuncQ coefficients, ascending order."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable[RatFuncQ] = ()) -> None:
        cs = [c if isinstance(c, RatFuncQ) else const(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)
        self._hash = None

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
        return ZPoly([Q_ZERO] * n + [Q_ONE])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> RatFuncQ:
        return self.coeffs[-1] if self.coeffs else Q_ZERO

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one

    def coeff(self, k: int) -> RatFuncQ:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Q_ZERO

    def __add__(self, other: "ZPoly") -> "ZPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return ZPoly(out)

    def __neg__(self) -> "ZPoly":
        return ZPoly([-c for c in self.coeffs])

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _Z_ZERO
        out = [Q_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai.is_zero:
                continue
            for j, bj in enumerate(b):
                if bj.is_zero:
                    continue
                out[i + j] = out[i + j] + ai * bj
        return ZPoly(out)

    def scale(self, s: RatFuncQ) -> "ZPoly":
        if s.is_zero:
            return _Z_ZERO
        return ZPoly([c * s for c in self.coeffs])

    def shift_up(self, k: int = 1) -> "ZPoly":
        """Multiply by z**k."""
        if self.is_zero:
            return self
        return ZPoly([Q_ZERO] * k + list(self.coeffs))

    def compose(self, inner: "ZPoly") -> "ZPoly":
        """Substitute ``inner`` for z."""
        out = _Z_ZERO
        for c in reversed(self.coeffs):
            out = out * inner + ZPoly([c])
        return out

    def __call__(self, point: RatFuncQ) -> RatFuncQ:
        acc = Q_ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.coeffs)
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"ZPoly({[str(c) for c in self.coeffs]})"


_Z_ZERO = ZPoly()
_Z_ONE = ZPoly([Q_ONE])
_Z_VAR = ZPoly([Q_ZERO, Q_ONE])


def _indexed(values: List[RatFuncQ], first: int) -> Callable[[int], RatFuncQ]:
    def get(n: int) -> RatFuncQ:
        if not first <= n < first + len(values):
            raise IndexError(f"index {n} is outside the stored prefix")
        return values[n - first]

    return get


class JFraction(Record):
    """mu0 / (1 + a(0) x - b(1) x^2 / (1 + a(1) x - ...)).

    The same data drives the monic recurrence
    p_{n+1} = (z + a(n)) p_n - b(n) p_{n-1}.  A finite prefix built by
    :meth:`from_lists` also keeps its values in ``a_list`` and ``b_list``.
    """

    __slots__ = ("mu0", "a", "b", "a_list", "b_list")

    def __init__(self, mu0: RatFuncQ, a: Callable[[int], RatFuncQ], b: Callable[[int], RatFuncQ],
                 a_list: Optional[List[RatFuncQ]] = None,
                 b_list: Optional[List[RatFuncQ]] = None) -> None:
        self._init(mu0, a, b, a_list, b_list)

    @classmethod
    def from_lists(cls, mu0: RatFuncQ, a_list: Sequence[RatFuncQ], b_list: Sequence[RatFuncQ]) -> "JFraction":
        """Finite prefix; b_list[0] corresponds to b(1)."""
        a_vals = list(a_list)
        b_vals = list(b_list)
        return cls(mu0, _indexed(a_vals, 0), _indexed(b_vals, 1), a_vals, b_vals)

    def b_checked(self, n: int) -> RatFuncQ:
        val = self.b(n)
        if val.is_zero:
            raise DegenerateRecurrenceError(n)
        return val


def three_term_build(data: JFraction, upto: int) -> List[ZPoly]:
    """Monic polynomials p_0 .. p_upto from the recurrence."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    polys = [_Z_ONE]
    if upto >= 1:
        polys.append(ZPoly([data.a(0), Q_ONE]))
    for n in range(1, upto):
        head = ZPoly([data.a(n), Q_ONE])
        polys.append(head * polys[n] - polys[n - 1].scale(data.b_checked(n)))
    return polys


@lru_cache(maxsize=None)
def coeffs_ab(ell: int, n: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """(A, B) of the non-monic recurrence for the kind-one family."""
    _check_ell_n(ell, n)
    a_num = Q_ONE - qpow(2 * n + 2 * ell + 2)
    a_den = (Q_ONE + qpow(2 * n + ell + 1)) * (Q_ONE + qpow(2 * n + ell + 2))
    b_num = -qpow(2 * n + 2 * ell + 1) * (Q_ONE - qpow(2 * n))
    b_den = (Q_ONE + qpow(2 * n + ell)) * (Q_ONE + qpow(2 * n + ell + 1))
    return a_num / a_den, b_num / b_den


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


@lru_cache(maxsize=None)
def coeffs_p(ell: int, n: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """(a, b) of the monic recurrence for the affine-shifted family."""
    _check_ell_n(ell, n)
    one_minus_q = Q_ONE - qpow(1)
    a = (
        qpow(2 * n + ell)
        * (Q_ONE + qpow(1))
        * (Q_ONE + qpow(ell))
        / (one_minus_q * (Q_ONE + qpow(2 * n + ell)) * (Q_ONE + qpow(2 * n + ell + 2)))
        - Q_ONE / one_minus_q
    )
    b = (
        -qpow(2 * n + 2 * ell - 1)
        * (Q_ONE - qpow(2 * n))
        * (Q_ONE - qpow(2 * n + 2 * ell))
        / (
            one_minus_q ** 2
            * (Q_ONE + qpow(2 * n + ell - 1))
            * (Q_ONE + qpow(2 * n + ell)) ** 2
            * (Q_ONE + qpow(2 * n + ell + 1))
        )
    )
    return a, b


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
    """
    total = _Z_ZERO
    poch_w = _Z_ONE
    coef = Q_ONE
    for k in range(n + 1):
        if k:
            qk1 = qpow(k - 1)
            coef = (
                coef
                * (Q_ONE - qpow(-n) * qk1)
                * (Q_ONE + qpow(n + ell + 1) * qk1)
                * qpow(1)
                / ((Q_ONE - qpow(k)) * (Q_ONE - qpow(ell + 1) * qk1))
            )
            poch_w = poch_w * (_Z_ONE - w.scale(qpow(k - 1)))
        total = total + poch_w.scale(coef)
    return total


@lru_cache(maxsize=None)
def build_j_via_phi2(ell: int, n: int) -> ZPoly:
    """The kind-one family straight from its terminating series definition."""
    _check_ell_n(ell, n)
    return _series_family_sum(ell, n, _Z_VAR)


@lru_cache(maxsize=None)
def build_jtilde_via_phi2(ell: int, n: int) -> ZPoly:
    """Monic rescaling of :func:`build_j_via_phi2`."""
    scale = poch(qpow(ell + 1), n) / poch(-qpow(n + ell + 1), n)
    return build_j_via_phi2(ell, n).scale(scale)


@lru_cache(maxsize=None)
def build_p_via_phi2(ell: int, n: int) -> ZPoly:
    """The affine-shifted monic family from its series definition."""
    _check_ell_n(ell, n)
    w = ZPoly([qpow(1), qpow(2) - qpow(1)])  # q + (q^2 - q) z
    pref = (
        const(parity_sign(n))
        * poch(qpow(ell + 1), n)
        / (qpow(n) * (Q_ONE - qpow(1)) ** n * poch(-qpow(n + ell + 1), n))
    )
    return _series_family_sum(ell, n, w).scale(pref)


def jfraction_for_eps(ell: int) -> JFraction:
    """J-fraction generating sum_k eps_{k+ell} x^k, for ell in {0, 1}."""
    if ell not in (0, 1):
        raise ValueError("the eps J-fraction is stated for ell in {0, 1}")
    return JFraction(
        mu0=q_euler_recursive(ell),
        a=lambda n: coeffs_p(ell, n)[0],
        b=lambda n: coeffs_p(ell, n)[1],
    )


def jfraction_for_theta(ell: int) -> JFraction:
    """J-fraction of the theta_ell moments (mu0 = 1, same a/b as the family)."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return JFraction(
        mu0=Q_ONE,
        a=lambda n: coeffs_p(ell, n)[0],
        b=lambda n: coeffs_p(ell, n)[1],
    )


def jfraction_for_xi(ell: int) -> JFraction:
    """J-fraction of the xi_ell moments (mu0 = 1, monic-family a~/b~)."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return JFraction(
        mu0=Q_ONE,
        a=lambda n: coeffs_monic(ell, n)[0],
        b=lambda n: coeffs_monic(ell, n)[1],
    )


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


def p1_at_zero_closed(n: int) -> RatFuncQ:
    """Constant term of the ell = 1 affine-shifted polynomial, closed form."""
    if n < 0:
        raise ValueError("n must be >= 0")
    pref = (
        const(parity_sign(n + 1))
        * poch(qpow(1), n)
        / ((Q_ONE - qpow(1)) ** n * poch(-qpow(n + 1), n + 1))
    )
    tail = const(-1) + const(parity_sign(n + 1)) * qpow((n + 1) ** 2)
    return pref * tail

