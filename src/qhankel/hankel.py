"""Hankel matrices, exact determinants, J-fractions, and closed forms.

The determinant kernel clears each row of a rational-function matrix to a
common polynomial denominator, runs fraction-free Bareiss elimination over
Z[q], then divides the cleared factors back out.  Cofactor expansion is kept
as an independent oracle for dimensions up to three.
"""

from __future__ import annotations

import json
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .carlitz import q_bernoulli_recursive, q_euler_recursive
from .functionals import theta_moment, xi_moment
from .qkit import parity_sign, poch, q_factorial
from .orthopoly import (
    JFraction,
    ZPoly,
    jfraction_for_eps,
    jfraction_for_theta,
    jfraction_for_xi,
    three_term_build,
)
from .ratcore import (
    Q_ONE,
    Q_ZERO,
    QPoly,
    RatFuncQ,
    _gcd_full,
    const,
    qpow,
    serialize,
)
from .record import FrozenRecord


class InsufficientMomentsError(ValueError):
    """The supplied moment list is too short for the requested object."""


class NotQuasiDefiniteError(ValueError):
    """A leading Hankel determinant vanished; ``depth`` names which one."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        super().__init__(f"Hankel determinant of order {depth} vanishes")


Matrix = List[List[RatFuncQ]]
Moments = Callable[[int], RatFuncQ]  # n -> mu_n


def hankel_matrix(seq: Union[Moments, Sequence[RatFuncQ]], shift: int, n: int) -> Matrix:
    """(n+1) x (n+1) matrix with entry [i][j] = mu_{i + j + shift}, where
    ``seq`` is a moment function n -> mu_n or a list of moments."""
    if shift < 0:
        raise ValueError("shift must be >= 0")
    if n < 0:
        raise ValueError("n must be >= 0")
    top = 2 * n + shift
    if callable(seq):
        values = [seq(k) for k in range(top + 1)]
    else:
        if len(seq) <= top:
            raise InsufficientMomentsError(
                f"need values up to index {top}, got {len(seq)}"
            )
        values = list(seq[: top + 1])
    return [[values[i + j + shift] for j in range(n + 1)] for i in range(n + 1)]


def _row_lcm(dens: Sequence[QPoly]) -> QPoly:
    out = dens[0]
    for d in dens[1:]:
        out = out * _gcd_full(out, d)[2]
    return out


def _det_bareiss(matrix: Matrix) -> RatFuncQ:
    n = len(matrix)
    cleared: List[List[QPoly]] = []
    factors: List[QPoly] = []
    for row in matrix:
        lcm = _row_lcm([entry.den for entry in row])
        cleared.append([entry.num * lcm.exact_div(entry.den) for entry in row])
        factors.append(lcm)
    m = cleared
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
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - lead * row_k[j]).exact_div(prev)
            row_i[k] = QPoly()
        prev = pivot
    det_poly = m[n - 1][n - 1]
    if det_poly.is_zero:
        return Q_ZERO
    result = RatFuncQ(det_poly.scale(sign))
    for f in factors:
        result = result / RatFuncQ(f)
    return result


def det_cofactor(matrix: Matrix) -> RatFuncQ:
    """Direct expansion; only for dimension <= 3 (independent small oracle)."""
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


def det_exact(matrix: Matrix) -> RatFuncQ:
    """Exact determinant of a square RatFuncQ matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return Q_ONE
    if n == 1:
        return matrix[0][0]
    return _det_bareiss([list(row) for row in matrix])


def det_heilermann(jf: JFraction, n: int) -> RatFuncQ:
    """det of the shift-0 Hankel matrix from recurrence data:
    mu0^{n+1} * prod_{k=1}^{n} b(k)^{n+1-k}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = jf.mu0 ** (n + 1)
    for k in range(1, n + 1):
        out = out * jf.b_checked(k) ** (n + 1 - k)
    return out


def det_shifted_via_favard(jf: JFraction, n: int) -> RatFuncQ:
    """det of the shift-1 Hankel matrix: shift-0 value times (-1)^{n+1} p_{n+1}(0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    polys = three_term_build(jf, n + 1)
    return det_heilermann(jf, n) * const(parity_sign(n + 1)) * polys[n + 1](Q_ZERO)


def jfraction_expand(jf: JFraction, order: int) -> List[RatFuncQ]:
    """Power-series coefficients 0..order of the J-fraction.

    The finite continued fraction is assembled bottom-up as a ratio of
    polynomials in x; truncation depth ceil(order/2) + 1 leaves every
    coefficient up to ``order`` untouched because each deeper level enters
    through an extra factor of x^2.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    depth = (order + 1) // 2 + 1
    num = ZPoly([Q_ONE, jf.a(depth - 1)])  # deepest tail: 1 + a(depth-1) x
    den = ZPoly.one()
    for k in range(depth - 2, -1, -1):
        head = ZPoly([Q_ONE, jf.a(k)])
        num, den = head * num - den.scale(jf.b_checked(k + 1)).shift_up(2), num
    # series of mu0 * den / num; num has constant term 1
    n_coeffs = [num.coeff(i) for i in range(order + 1)]
    d_coeffs = [den.coeff(i) for i in range(order + 1)]
    out: List[RatFuncQ] = []
    for m in range(order + 1):
        val = jf.mu0 * d_coeffs[m]
        for j in range(1, m + 1):
            if not n_coeffs[j].is_zero:
                val = val - n_coeffs[j] * out[m - j]
        out.append(val)
    return out


def jfraction_from_moments(moments: Sequence[RatFuncQ]) -> JFraction:
    """Recover the J-fraction prefix from moments 0..len-1.

    Builds the monic orthogonal polynomials by Gram-Schmidt against the
    moment functional and reads (a_n, b_n) off the recurrence.  With 2d+1
    moments the result holds a(0..d-1) and b(1..d-1).  A vanishing
    squared norm means some leading Hankel determinant is zero and raises
    :class:`NotQuasiDefiniteError` with the failing depth.
    """
    if not moments:
        raise InsufficientMomentsError("need at least one moment")
    vals = list(moments)

    def pair(p: ZPoly) -> RatFuncQ:
        if p.degree >= len(vals):
            raise InsufficientMomentsError(
                f"need moment index {p.degree}, got only {len(vals) - 1}"
            )
        out = Q_ZERO
        for k, c in enumerate(p.coeffs):
            if not c.is_zero:
                out = out + c * vals[k]
        return out

    mu0 = vals[0]
    d = (len(vals) - 1) // 2
    a_list: List[RatFuncQ] = []
    b_list: List[RatFuncQ] = []
    p_prev: ZPoly = ZPoly.zero()
    p_cur: ZPoly = ZPoly.one()
    norm_prev: RatFuncQ = Q_ONE
    norm_cur = pair(p_cur * p_cur)
    for m in range(d):
        if norm_cur.is_zero:
            raise NotQuasiDefiniteError(m)
        a_m = -pair(p_cur.shift_up(1) * p_cur) / norm_cur
        a_list.append(a_m)
        if m:
            b_list.append(norm_cur / norm_prev)
        head = ZPoly([a_m, Q_ONE])
        p_next = head * p_cur - (p_prev.scale(b_list[-1]) if m else ZPoly.zero())
        p_prev, p_cur = p_cur, p_next
        if m + 1 < d:
            norm_prev, norm_cur = norm_cur, pair(p_cur * p_cur)
    return JFraction.from_lists(mu0, a_list, b_list)


def _sum_of_first_squares(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) // 6


def shift0_exponent(n: int) -> int:
    """C(2n+2, 3)/4, an integer equal to 1^2 + 2^2 + ... + n^2."""
    c = comb(2 * n + 2, 3)
    if c % 4:
        raise ArithmeticError(f"C(2n+2,3) not divisible by 4 at n={n}")
    return c // 4


def shift12_exponent(n: int) -> int:
    """C(2n+4, 3)/4, an integer equal to 1^2 + ... + (n+1)^2."""
    c = comb(2 * n + 4, 3)
    if c % 4:
        raise ArithmeticError(f"C(2n+4,3) not divisible by 4 at n={n}")
    return c // 4


def verify_exponent_integrality(upto: int = 50) -> bool:
    """The quarter-binomial exponents are integers with the expected values."""
    for n in range(upto + 1):
        if shift0_exponent(n) != _sum_of_first_squares(n):
            return False
        if shift12_exponent(n) != _sum_of_first_squares(n + 1):
            return False
    return True


def _even_poch_ratio(bases_num: Sequence[RatFuncQ], bases_den: Sequence[RatFuncQ], upto: int) -> RatFuncQ:
    """prod_{k=1}^{upto} prod(num;q^2)_k / prod(den;q^2)_k."""
    out = Q_ONE
    for k in range(1, upto + 1):
        for base in bases_num:
            out = out * poch(base, k, step=2)
        for base in bases_den:
            out = out / poch(base, k, step=2)
    return out


def closed_form_theorem1(shift: int, n: int) -> RatFuncQ:
    """Closed form of det(eps_{i+j+shift})_{0..n} for shift in {0, 1, 2}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    one_minus_q = Q_ONE - qpow(1)
    if shift == 0:
        sign = parity_sign(comb(n + 1, 2))
        head = const(sign) * qpow(shift0_exponent(n)) / one_minus_q ** (n * (n + 1))
        prod = _even_poch_ratio(
            [qpow(2), qpow(2)],
            [-qpow(1), -qpow(2), -qpow(2), -qpow(3)],
            n,
        )
        return head * prod
    if shift == 1:
        sign = parity_sign(comb(n + 2, 2))
        head = (
            const(sign)
            * qpow(shift12_exponent(n))
            / (one_minus_q ** (n * (n + 1)) * (Q_ONE + qpow(2)) ** (n + 1))
        )
        prod = _even_poch_ratio(
            [qpow(2), qpow(4)],
            [-qpow(2), -qpow(3), -qpow(3), -qpow(4)],
            n,
        )
        return head * prod
    if shift == 2:
        sign = parity_sign(comb(n + 2, 2))
        head = (
            const(sign)
            * qpow(shift12_exponent(n))
            * (Q_ONE + qpow(1)) ** n
            * (Q_ONE - const(parity_sign(n)) * qpow((n + 2) ** 2))
            / (
                one_minus_q ** (n * (n + 1))
                * (Q_ONE + qpow(2)) ** (2 * (n + 1))
                * (Q_ONE + qpow(3)) ** (n + 1)
            )
        )
        prod = _even_poch_ratio(
            [qpow(4), qpow(4)],
            [-qpow(3), -qpow(4), -qpow(4), -qpow(5)],
            n,
        )
        return head * prod
    raise ValueError("closed form exists for shift in {0, 1, 2} only")


def closed_form_chapoton_zeng(n: int) -> RatFuncQ:
    """det(beta_{i+j})_{0..n} = (-1)^C(n+1,2) q^C(n+1,3)
    prod_{k=1}^{n} [k]_q!^6 / ([2k]_q! [2k+1]_q!)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = const(parity_sign(comb(n + 1, 2))) * qpow(comb(n + 1, 3))
    for k in range(1, n + 1):
        out = out * q_factorial(k) ** 6 / (q_factorial(2 * k) * q_factorial(2 * k + 1))
    return out


def closed_form_theta_det(ell: int, n: int) -> RatFuncQ:
    """Closed form of det(theta_ell(z^{i+j}))_{0..n}."""
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    e = 2 * comb(n + 2, 3) + (2 * ell - 1) * comb(n + 1, 2)
    head = (
        const(parity_sign(comb(n + 1, 2)))
        * qpow(e)
        / (Q_ONE - qpow(1)) ** (n * (n + 1))
    )
    prod = _even_poch_ratio(
        [qpow(2), qpow(2 * ell + 2)],
        [-qpow(ell + 1), -qpow(ell + 2), -qpow(ell + 2), -qpow(ell + 3)],
        n,
    )
    return head * prod


def closed_form_xi_det(ell: int, n: int) -> RatFuncQ:
    """Closed form of det(xi_{ell, i+j})_{0..n}."""
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    e = 2 * comb(n + 2, 3) + (2 * ell + 1) * comb(n + 1, 2)
    head = const(parity_sign(comb(n + 1, 2))) * qpow(e)
    prod = _even_poch_ratio(
        [qpow(2), qpow(2 * ell + 2)],
        [-qpow(ell + 1), -qpow(ell + 2), -qpow(ell + 2), -qpow(ell + 3)],
        n,
    )
    return head * prod


Route = Callable[[int, int], RatFuncQ]


class DetRoutes(NamedTuple):
    """One row of :data:`ROUTES`: the moments and their determinant routes."""

    moments: Callable[[int], Moments]  # ell -> (n -> mu_n)
    routes: Dict[str, Route]  # route name -> fn(ell, n)


def _row(moments: Callable[[int], Moments], shift: int, closed: Route, recurrence: Optional[Route] = None) -> DetRoutes:
    routes = {
        "bruteforce": lambda ell, n: det_exact(hankel_matrix(moments(ell), shift, n)),
        "closedform": closed,
    }
    if recurrence is not None:
        routes["heilermann"] = recurrence
    return DetRoutes(moments, routes)


# (sequence id, shift) -> its independent determinant routes.  A new identity
# or route is one entry here; ``det`` and ``verify`` both read this table.
# Routes call the module-level functions by name at call time, so a wrapper
# put in their place on this module (a tracer, a test double) is used.
# Only theta and xi depend on ell; the other rows ignore it.
ROUTES: Dict[Tuple[str, int], DetRoutes] = {
    ("qeuler", 0): _row(
        lambda ell: q_euler_recursive, 0,
        lambda ell, n: closed_form_theorem1(0, n),
        lambda ell, n: det_heilermann(jfraction_for_eps(0), n),
    ),
    ("qeuler", 1): _row(
        lambda ell: q_euler_recursive, 1,
        lambda ell, n: closed_form_theorem1(1, n),
        lambda ell, n: det_shifted_via_favard(jfraction_for_eps(0), n),
    ),
    ("qeuler", 2): _row(
        lambda ell: q_euler_recursive, 2,
        lambda ell, n: closed_form_theorem1(2, n),
        lambda ell, n: det_shifted_via_favard(jfraction_for_eps(1), n),
    ),
    ("qbernoulli", 0): _row(
        lambda ell: q_bernoulli_recursive, 0,
        lambda ell, n: closed_form_chapoton_zeng(n),
    ),
    ("theta", 0): _row(
        lambda ell: lambda n: theta_moment(ell, n), 0,
        lambda ell, n: closed_form_theta_det(ell, n),
        lambda ell, n: det_heilermann(jfraction_for_theta(ell), n),
    ),
    ("xi", 0): _row(
        lambda ell: lambda n: xi_moment(ell, n), 0,
        lambda ell, n: closed_form_xi_det(ell, n),
        lambda ell, n: det_heilermann(jfraction_for_xi(ell), n),
    ),
}


class HankelResult(FrozenRecord):
    """One computed determinant, tagged with how it was obtained: method is
    "bruteforce", "heilermann" or "closedform"."""

    __slots__ = ("seq_id", "shift", "n", "method", "value")

    def __init__(self, seq_id: str, shift: int, n: int, method: str, value: RatFuncQ) -> None:
        self._init(seq_id, shift, n, method, value)

    def to_json_dict(self) -> dict:
        return {
            "seq": self.seq_id,
            "shift": self.shift,
            "n": self.n,
            "method": self.method,
            "value": json.loads(serialize(self.value)),
        }
