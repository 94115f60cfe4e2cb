"""Hankel matrices, exact determinants, J-fractions, and closed forms.

The determinant kernel clears each row of a rational-function matrix to a
common polynomial denominator and runs fraction-free elimination over Z[q]
on primitive rows: each updated row is divided by a common factor of its
own entries, found by one GCDHEU evaluation of three numbers made from the
row, and a scale in Q(q) per row records what was multiplied in and
divided out.  Row i
always holds its scale times row i of the current Schur complement, so the
pivots over their scales multiply to the determinant.  Each determinant
route returns its quotients d_k = H_k / H_{k-1}, expanded by hankel_product.

Every route returns d_0..d_n when d_0..d_{n-1} are nonzero (a zero d_n is
just H_n = 0), and otherwise raises NotQuasiDefiniteError(k) at the first
k < n with d_k = 0, before anything divides by d_k.

The J-fraction functions run the three-term recurrence on scalar ratios the
size of the quotients: the Jacobi-operator table recovers a(n), b(n) from
moments (Chebyshev) and expands them back, Favard reads p_{k+1}(0) / p_k(0).
"""

from __future__ import annotations

from functools import partial, reduce
from math import comb, gcd
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .functionals import jfraction_for, moments_for
from .qkit import parity_sign, q_factorial
from .orthopoly import _AFFINE_U, JFraction, NotQuasiDefiniteError
from .ratcore import (
    Q_ONE,
    Q_ZERO,
    QPoly,
    RatFuncQ,
    _digits,
    _exact_quotient,
    _gcd_full,
    _norm,
    _pack,
    _split_content,
    _width,
    clear_denominators,
    const,
    qpow,
)


class InsufficientMomentsError(ValueError):
    """The supplied moment list is too short for the requested object."""


Matrix = List[List[RatFuncQ]]
Moments = Callable[[int], RatFuncQ]  # n -> mu_n

# functionals.jfraction_for at two sequence ids, under the names that
# perfbench/worker.py reads through this module.
jfraction_for_eps = partial(jfraction_for, "qeuler")
jfraction_for_xi = partial(jfraction_for, "xi")


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


def _eliminate_row(pivot: QPoly, lead: QPoly, row_i: Sequence[QPoly],
                   row_k: Sequence[QPoly]) -> Tuple[QPoly, List[QPoly]]:
    """(g, [(pivot * a - lead * b) / g for a, b in zip(row_i, row_k)]) for a
    common divisor g of those entries, which is 1 when they all vanish.

    Each entry E is formed as one integer, its value at x = 256**w, with w
    set so that x > 2N for a bound N on the coefficients of pivot, lead and
    every pivot * a - lead * b.  So E(x) = 0 only for E = 0, and the
    balanced base-x digits of E(x) are the coefficients of E.  The candidate
    h is the primitive part of the digits of one integer gcd, as in
    ratcore._heu_gcd, of three numbers: the first two nonzero values v_1,
    v_2 and the fixed combination sum_i i v_i of all nonzero values.  Every
    common divisor of the row divides all three, and three numbers cost far
    less than a gcd of the whole row; a factor the three share by chance
    only makes the trial division fail.  If h divides every entry (see
    _quotients), g is h times the integer content of the quotients;
    otherwise g is the integer content of the row alone.  Any common divisor
    will do, so nothing checks that g is the greatest one.
    """
    P, L = pivot.coeffs, lead.coeffs
    pairs = [(a.coeffs, b.coeffs) for a, b in zip(row_i, row_k)]
    norm_p, norm_l = _norm(P), _norm(L)
    bound = max([norm_p, norm_l] + [
        (norm_p * _norm(a) * min(len(P), len(a)) if a else 0)
        + (norm_l * _norm(b) * min(len(L), len(b)) if b else 0)
        for a, b in pairs])
    # x > 4N, one bit more than the digits need: with that headroom fewer
    # quotients in _quotients miss their certificate and fall back to
    # _exact_quotient
    width = _width(2 * bound)
    xp, xl = _pack(P, width), _pack(L, width)
    values = [xp * _pack(a, width) - xl * _pack(b, width) for a, b in pairs]
    nonzero = [v for v in values if v]
    if not nonzero:
        return QPoly.const(1), [QPoly()] * len(values)
    h = gcd(nonzero[0], sum(i * v for i, v in enumerate(nonzero, 1)), *nonzero[1:2])
    cand = _split_content(_digits(h, width))[1]
    entries = _quotients(values, cand, width, bound) if len(cand) > 1 else None
    if entries is None:
        cand, entries = (1,), [_digits(v, width) for v in values]
    content = gcd(*(c for e in entries for c in e))
    if content != 1:
        entries = [[c // content for c in e] for e in entries]
    return QPoly(cand).scale(content), [QPoly(e) for e in entries]


def _quotients(values: Sequence[int], cand: Sequence[int], width: int,
               bound: int) -> Optional[List[List[int]]]:
    """The coefficients of E / cand for each entry E given by its value at
    x = 256**width, where bound >= |E| and x > 2 * bound; None unless cand
    divides every E.

    Trial division at the same point: a nonzero remainder of E(x) / cand(x)
    proves that cand does not divide E.  Otherwise a zero remainder and the
    norm certificate of ratcore._exact_quotient,
    |E| + |cand| * |C| * min(len cand, len C) < x/2, make the unpacked
    quotient C exact; where that certificate falls short, _exact_quotient
    decides.
    """
    hx, top = _pack(cand, width), 1 << (8 * width - 1)
    out = []
    for v in values:
        qv, r = divmod(v, hx)
        if r:
            return None
        quot = _digits(qv, width)
        if quot and bound + _norm(cand) * _norm(quot) * min(len(cand), len(quot)) >= top:
            quot = _exact_quotient(_digits(v, width), cand)
            if quot is None:
                return None
        out.append(quot)
    return out


def minor_quotients(matrix: Matrix) -> List[RatFuncQ]:
    """The pivots m[k][k] / s_k of a fraction-free elimination that keeps
    every updated row primitive; their product is the determinant.

    Row i is cleared by the lcm of its denominators and carries a scale
    s_i in Q(q), at first that lcm.  Invariant: row i stores s_i times row i
    of the current Schur complement.  Take pivot P = m[k][k], a row with lead
    L = m[i][k] != 0, and d = gcd(P, L).  For the complement rows r,
    (P m[i] - L m[k]) / d = (s_i P / d) (r_i - (r_i[k] / r_k[k]) r_k), which
    is s_i P / d times row i of the next complement.  Dividing it by any
    common divisor g of its entries keeps the invariant with
    s_i <- s_i P / (d g).  A zero lead leaves the row and s_i as they are.  So
    correctness never rests on d g being the row's gcd: it only decides how
    large the entries stay.  Bareiss's division by the previous pivot instead
    leaves the rows' shared factors in every entry.

    Pivot k is H_k / H_{k-1} for the leading minors H_k (H_{-1} = 1), so a
    zero pivot before the last raises NotQuasiDefiniteError(k).  A matrix
    that is not square raises ValueError.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    m: List[List[QPoly]] = []
    scales: List[RatFuncQ] = []
    for row in matrix:
        lcm, nums = clear_denominators(row)
        m.append(nums)
        scales.append(RatFuncQ(lcm))
    for k in range(n - 1):
        if m[k][k].is_zero:
            raise NotQuasiDefiniteError(k)
        pivot = m[k][k]
        for i in range(k + 1, n):
            if m[i][k].is_zero:
                continue
            _, p_by_d, l_by_d = _gcd_full(pivot, m[i][k])
            # the row's tail; column k is not read again
            g, m[i][k + 1:] = _eliminate_row(p_by_d, l_by_d, m[i][k + 1:], m[k][k + 1:])
            scales[i] = scales[i] * RatFuncQ(p_by_d, g)
    return [RatFuncQ(m[k][k]) / scales[k] for k in range(n)]


def hankel_product(ds: Sequence[RatFuncQ]) -> RatFuncQ:
    """H_n = d_0 d_1 ... d_n from the quotients d_k = H_k / H_{k-1}: the one
    place where a determinant is expanded."""
    return reduce(mul, ds, Q_ONE)


def heilermann_quotients(jf: JFraction, n: int) -> List[RatFuncQ]:
    """d_0..d_n of the shift-0 Hankel determinants from recurrence data:
    Heilermann's H_k = mu0^{k+1} prod_{j<=k} b(j)^{k+1-j} gives
    d_k = mu0 b(1) ... b(k), under the module's rule for a zero d_k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [jf.mu0]
    for k in range(1, n + 1):
        if out[-1].is_zero:
            raise NotQuasiDefiniteError(k - 1)
        out.append(out[-1] * jf.b(k))
    return out


def favard_quotients(jf: JFraction, n: int) -> List[RatFuncQ]:
    """d_0..d_n of the shift-1 Hankel determinants H_k (-1)^{k+1} p_{k+1}(0):
    Heilermann's d_k times -r_k.  Divided by p_k(0), which grows like H_k, the
    recurrence at z = 0 gives r_k = p_{k+1}(0) / p_k(0) = a(k) - b(k) / r_{k-1},
    r_0 = a(0), the size of d_k.  A zero d_k, k < n, raises
    NotQuasiDefiniteError(k) before r_k, one of its factors, is divided by."""
    if n < 0:
        raise ValueError("n must be >= 0")
    d, r = jf.mu0, jf.a(0)  # Heilermann's d_k and r_k
    out = [-d * r]
    for k in range(1, n + 1):
        if out[-1].is_zero:
            raise NotQuasiDefiniteError(k - 1)
        b = jf.b(k)
        d, r = d * b, jf.a(k) - b / r
        out.append(-d * r)
    return out


def jfraction_expand(jf: JFraction, order: int) -> List[RatFuncQ]:
    """Power-series coefficients mu_0..mu_order of the J-fraction.

    Row m of the Jacobi-operator table holds z^m in the basis p_k, by
    z p_k = p_{k+1} - a(k) p_k + b(k) p_{k-1}; the functional kills every p_k
    but p_0, so mu_m = mu0 times the row's p_0 entry.  Row m keeps only the
    heights k <= order - m that can still return to 0, so the expansion
    reads a(0..(order-1)//2) and b(1..order//2) and nothing deeper.  A zero
    b(k) terminates the fraction, whose series is still well defined.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    row = [Q_ONE]  # z^0 = p_0
    out = [jf.mu0]
    for m in range(1, order + 1):
        top = len(row) - 1
        row = [
            (row[k - 1] if k else Q_ZERO)
            - (jf.a(k) * row[k] if k <= top else Q_ZERO)
            + (jf.b(k + 1) * row[k + 1] if k < top else Q_ZERO)
            for k in range(min(m, order - m) + 1)
        ]
        out.append(jf.mu0 * row[0])
    return out


def jfraction_from_moments(moments: Sequence[RatFuncQ]) -> JFraction:
    """Recover the J-fraction prefix from moments 0..len-1 (Chebyshev's algorithm).

    sigma_k(l) = L(p_k z^l) is tau_k(l) L(p_k^2) for tau_k(l) in row l, column k
    of the Jacobi-operator table of jfraction_expand (z^l = sum_j tau_j(l) p_j).
    The sigma grow like Hankel minors, so the table runs on the tau: divided by
    L(p_k^2) = b(k) L(p_{k-1}^2), sigma_{k+1}(l) = sigma_k(l+1) + a(k) sigma_k(l)
    - b(k) sigma_{k-1}(l) reads U(l) = tau_k(l+1) + a(k) tau_k(l) - tau_{k-1}(l)
    for U(l) = sigma_{k+1}(l) / L(p_k^2).  So b(k+1) = U(k+1), tau_{k+1} =
    U / b(k+1), and sigma_{k+1}(k) = 0 gives a(k) = tau_{k-1}(k) - tau_k(k+1),
    from tau_{-1} = 0, U = mu and b(0) = mu_0.  The 2d moments mu_0..mu_{2d-1},
    d = len // 2, give a(0..d-1) and b(1..d-1).  A zero b(k) means the Hankel
    determinant of order k vanishes and raises :class:`NotQuasiDefiniteError`
    with depth k.
    """
    if not moments:
        raise InsufficientMomentsError("need at least one moment")
    d = len(moments) // 2
    a_list: List[RatFuncQ] = []
    b_list: List[RatFuncQ] = []
    prev, u = [Q_ZERO] * (2 * d), moments[: 2 * d]  # tau_{-1}(l), U(l) at index l
    for k in range(d):
        b = u[k]
        if b.is_zero:
            raise NotQuasiDefiniteError(k)
        b_list.append(b)
        tau = [Q_ZERO] * k + [Q_ONE] + [v / b for v in u[k + 1:]]  # L(p_k z^l) = 0 for l < k
        a = prev[k] - tau[k + 1]
        a_list.append(a)
        prev, u = tau, [tau[l + 1] + a * tau[l] - prev[l] if l > k else Q_ZERO
                        for l in range(2 * d - k - 1)]
    return JFraction.from_lists(moments[0], a_list, b_list[1:])


def _poch_blocks(num: Sequence[int], den: Sequence[int], n: int) -> List[RatFuncQ]:
    """B_0..B_n with B_k = prod_a (q^a;q^2)_k / prod_b (-q^b;q^2)_k, for a in
    ``num`` and b in ``den``: each B_k is B_{k-1} times one factor per base."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [Q_ONE]
    for k in range(n):
        step = Q_ONE
        for a in num:
            step = step * (Q_ONE - qpow(a + 2 * k))
        for b in den:
            step = step / (Q_ONE + qpow(b + 2 * k))
        out.append(out[-1] * step)
    return out


def xi_det_quotients(ell: int, n: int) -> List[RatFuncQ]:
    """d_0..d_n of the closed form of det(xi_{ell, i+j})_{0..k}:
    d_k = (-1)^k q^{k^2 + 2(ell+1)k} B_k, with the Pochhammer block
    B_k = (q^2;q^2)_k (q^{2ell+2};q^2)_k /
    ((-q^{ell+1};q^2)_k (-q^{ell+2};q^2)_k^2 (-q^{ell+3};q^2)_k)."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    blocks = _poch_blocks((2, 2 * ell + 2), (ell + 1, ell + 2, ell + 2, ell + 3), n)
    return [const(parity_sign(k)) * qpow(k * k + 2 * (ell + 1) * k) * b for k, b in enumerate(blocks)]


def theta_det_quotients(ell: int, n: int) -> List[RatFuncQ]:
    """d_0..d_n of the closed form det(theta_ell(z^{i+j}))_{0..k} =
    (-1)^C(k+1,2) q^e (1-q)^{-k(k+1)} B_1 ... B_k, with
    e = 2 C(k+2,3) + (2 ell - 1) C(k+1,2) and B_k as in xi_det_quotients.

    The theta_ell family is the affine image of the xi_ell family under
    orthopoly's map with scale u (see coeffs_p), so each xi b(k) is u^2 times
    the theta one and each xi d_k is u^{2k} times theta's.
    """
    return [d / _AFFINE_U ** (2 * k) for k, d in enumerate(xi_det_quotients(ell, n))]


def theorem1_quotients(shift: int, n: int) -> List[RatFuncQ]:
    """d_0..d_n of the closed form of det(eps_{i+j+shift})_{0..n}, shift in
    {0, 1, 2}.

    Shifts 0 and 1 are theta determinants: eps_n = theta_0(z^n), and
    eps_{n+1} = eps_1 theta_1(z^n) with eps_1 = -q/(1+q^2).  Shift 2 is
    head(n) B_1 ... B_n with head(n) = (-1)^C(n+2,2) q^{C(2n+4,3)/4} (1+q)^n
    (1 - (-1)^n q^{(n+2)^2}) / ((1-q)^{n(n+1)} (1+q^2)^{2(n+1)} (1+q^3)^{n+1})
    and B_k = (q^4;q^2)_k^2 / ((-q^3;q^2)_k (-q^4;q^2)_k^2 (-q^5;q^2)_k), so
    d_k = B_k head(k) / head(k-1), where head(-1) = 1.

    The factor (1 - (-1)^n q^{(n+2)^2}) of head(n) is where p_{n+1}(0) of
    theta_1's family lives, as p_{n+1}(0) / p_n(0) = -d_n / d'_n for d' the
    shift-1 quotients; ``cross-route-families`` reads it there.
    """
    if shift == 0:
        return theta_det_quotients(0, n)
    if shift == 1:
        eps1 = -qpow(1) / (Q_ONE + qpow(2))
        return [eps1 * d for d in theta_det_quotients(1, n)]
    if shift != 2:
        raise ValueError("closed form exists for shift in {0, 1, 2} only")
    fixed = (Q_ONE + qpow(1)) / ((Q_ONE + qpow(2)) ** 2 * (Q_ONE + qpow(3)))
    return [const(parity_sign(k + 1)) * qpow((k + 1) ** 2) * fixed * b
            * (Q_ONE - const(parity_sign(k)) * qpow((k + 2) ** 2))
            / ((Q_ONE + const(parity_sign(k)) * qpow((k + 1) ** 2)) * (Q_ONE - qpow(1)) ** (2 * k))
            for k, b in enumerate(_poch_blocks((4, 4), (3, 4, 4, 5), n))]


def chapoton_zeng_quotients(n: int) -> List[RatFuncQ]:
    """d_0..d_n of det(beta_{i+j})_{0..n} = (-1)^C(n+1,2) q^C(n+1,3)
    prod_{k=1}^{n} [k]_q!^6 / ([2k]_q! [2k+1]_q!):
    d_k = (-1)^k q^C(k,2) [k]_q!^6 / ([2k]_q! [2k+1]_q!)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [const(parity_sign(k)) * qpow(comb(k, 2)) * q_factorial(k) ** 6
            / (q_factorial(2 * k) * q_factorial(2 * k + 1)) for k in range(n + 1)]


Route = Callable[[int, int], List[RatFuncQ]]  # (ell, n) -> d_0..d_n


def _row(seq: str, shift: int, closed: Route,
         recurrence: Optional[Route] = None) -> Tuple[Tuple[str, int], Dict[str, Route]]:
    routes = {
        "bruteforce": lambda ell, n: minor_quotients(hankel_matrix(moments_for(seq, ell), shift, n)),
        "closedform": closed,
    }
    if recurrence is not None:
        routes["heilermann"] = recurrence
    return (seq, shift), routes


# (sequence id, shift) -> its independent determinant routes, each returning
# d_0..d_n from its own data; hankel_product expands them.  Brute force reads
# the sequence's moments and the recurrence routes its J-fraction, both from
# functionals.SEQUENCES.  A new route is one entry here: ``det`` derives its
# choices from this table and ``verify`` runs every route of a row.  A new row
# also needs one _register_routes line in verification.py, which names its
# check.  Routes call the module-level functions by name at call time, so a
# wrapper put in their place on this module (a tracer, a test double) is used.
# Only theta and xi depend on ell; the other rows are called with ell = 0.
ROUTES: Dict[Tuple[str, int], Dict[str, Route]] = dict([
    _row("qeuler", 0, lambda ell, n: theorem1_quotients(0, n),
         lambda ell, n: heilermann_quotients(jfraction_for("qeuler", 0), n)),
    _row("qeuler", 1, lambda ell, n: theorem1_quotients(1, n),
         lambda ell, n: favard_quotients(jfraction_for("qeuler", 0), n)),
    _row("qeuler", 2, lambda ell, n: theorem1_quotients(2, n),
         lambda ell, n: favard_quotients(jfraction_for("qeuler", 1), n)),
    _row("qbernoulli", 0, lambda ell, n: chapoton_zeng_quotients(n)),
    _row("theta", 0, lambda ell, n: theta_det_quotients(ell, n),
         lambda ell, n: heilermann_quotients(jfraction_for("theta", ell), n)),
    _row("xi", 0, lambda ell, n: xi_det_quotients(ell, n),
         lambda ell, n: heilermann_quotients(jfraction_for("xi", ell), n)),
])
