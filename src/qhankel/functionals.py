"""Moment functionals on polynomials in z.

SEQUENCES is the one table of moment sequences: for each sequence id and
each ell it gives the moment map n -> mu_n and the data of the J-fraction
that pairs with it, which jfraction_for builds.  A functional is named by
its (sequence id, ell) and applied through its monomial moments: expand the
input, pair coefficient k with the k-th moment.  The q-binomial diagonal basis is used to *define* the phi and
theta moments.  The theta moments are served by a closed q-binomial sum
(theta_moment) and the xi moments by one ratio step each (xi_moment); the
basis routes (phi_via_basis, theta_moment_via_basis) are kept as independent
cross-checks.  theta_moment builds its sum in one pass on integers at
x = 256^w, as carlitz does, with w fixed by the bound 6^n on the numerator's
1-norm, and reads back only the result.  An orthogonality check takes only
the (sequence id, ell) and pairs its Favard family (favard_family) with the
moments in Z[q], one packed integer per L(p_m p_n), reducing only the
pairings that do not vanish (_pairing_failures).  Only the moments are
cleared of denominators there: a ZPoly already holds integer numerators over
one denominator, so the family is read as it is held.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .carlitz import q_bernoulli_recursive, q_euler_recursive
from .qkit import parity_sign, poch, q_factorial, q_int
from .ratcore import (
    Q_ONE,
    Q_ZERO,
    QPoly,
    RatFuncQ,
    _digits,
    _norm,
    _pack,
    _width,
    clear_denominators,
    const,
    qpow,
)
from .orthopoly import JFraction, ZPoly, coeffs_monic, coeffs_p, three_term_build


@lru_cache(maxsize=None)
def qbinom_basis(m: int, n: int) -> ZPoly:
    """[m, z choose n]_q = prod_{k=m-n+1}^{m} ([k]_q + q^k z) / [n]_q!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = ZPoly.one()
    for k in range(m - n + 1, m + 1):
        out = out * ZPoly([q_int(k), qpow(k)])
    return out.scale(Q_ONE / q_factorial(n))


def to_diagonal_basis(p: ZPoly) -> List[RatFuncQ]:
    """Coefficients c with p = sum_n c[n] * [n, z choose n]_q."""
    if p.is_zero:
        return []
    deg = p.degree
    coeffs = [Q_ZERO] * (deg + 1)
    residual = p
    for n in range(deg, -1, -1):
        basis = qbinom_basis(n, n)
        c = residual.coeff(n) / basis.coeffs[-1]
        coeffs[n] = c
        if not c.is_zero:
            residual = residual - basis.scale(c)
    return coeffs


def from_diagonal_basis(coeffs: List[RatFuncQ]) -> ZPoly:
    out = ZPoly.zero()
    for n, c in enumerate(coeffs):
        if not c.is_zero:
            out = out + qbinom_basis(n, n).scale(c)
    return out


def phi_closed_m_n(m: int, n: int) -> RatFuncQ:
    """phi([m, z choose n]_q) = (-1)^{n-m} q^{n-m} / (-q^2; q)_n for 0 <= m <= n."""
    if not 0 <= m <= n:
        raise ValueError("closed form needs 0 <= m <= n")
    return const(parity_sign(n - m)) * qpow(n - m) / poch(-qpow(2), n)


def phi_closed_n1_n(n: int) -> RatFuncQ:
    """phi([n+1, z choose n]_q) = (1+q)/q - 1/(q (-q^2; q)_n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (Q_ONE + qpow(1)) / qpow(1) - Q_ONE / (qpow(1) * poch(-qpow(2), n))


def phi(p: ZPoly) -> RatFuncQ:
    """phi through monomial moments phi(z^k) = epsilon_k."""
    return apply_functional("qeuler", 0, p)


def phi_via_basis(p: ZPoly) -> RatFuncQ:
    """Independent route: expand in the diagonal basis, apply phi there."""
    den, coords = clear_denominators(to_diagonal_basis(p))
    return _weighted_sum(coords, den, partial(theta_on_basis, 0), clear_denominators)


def verify_phi_relation(p: ZPoly) -> bool:
    """Check q*phi(P(1 + q z)) + phi(P(z)) == (1 + q) P(0)."""
    inner = ZPoly([Q_ONE, qpow(1)])
    lhs = qpow(1) * phi(p.compose(inner)) + phi(p)
    rhs = (Q_ONE + qpow(1)) * p(Q_ZERO)
    return lhs == rhs


@lru_cache(maxsize=None)
def theta_on_basis(ell: int, n: int) -> RatFuncQ:
    """theta_ell of the diagonal basis element."""
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    return poch(qpow(ell + 1), n) / (poch(qpow(1), n) * poch(-qpow(ell + 2), n))


@lru_cache(maxsize=None)
def _monomial_diag_coeffs(n: int) -> Tuple[QPoly, Tuple[QPoly, ...]]:
    """The diagonal basis coordinates of z^n cleared to one denominator."""
    den, coords = clear_denominators(to_diagonal_basis(ZPoly.monomial(n)))
    return den, tuple(coords)


def theta_moment_via_basis(ell: int, n: int) -> RatFuncQ:
    """theta_ell(z^n) through the diagonal basis expansion of z^n.

    This is the definition of theta_ell; the expansion costs O(n) ZPoly
    operations, so it serves only as the cross-check of theta_moment."""
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    den, coords = _monomial_diag_coeffs(n)
    return _weighted_sum(coords, den, partial(theta_on_basis, ell), clear_denominators)


@lru_cache(maxsize=None)
def theta_moment(ell: int, n: int) -> RatFuncQ:
    """theta_ell(z^n) by a closed q-binomial sum in one packed pass, reduced
    once.

    With u = 1 - (1-q) z the diagonal basis is [k, z choose k]_q =
    (qu; q)_k / (q; q)_k, so theta_ell((qu; q)_k) = (q^{ell+1}; q)_k /
    (-q^{ell+2}; q)_k.  Expand z^n = (1-u)^n / (1-q)^n by the binomial
    theorem and each power y^j of y = qu by the inverse q-binomial theorem
    (Gasper & Rahman, Basic Hypergeometric Series, 2nd ed., 2004, sec. 1.3)

        y^j = sum_{k<=j} (-1)^k [j, k]_q q^{-C(k,2) - k(j-k)} (y; q)_k.

    Exchanging the sums and putting everything over (-q^{ell+2}; q)_n gives

        theta_ell(z^n) = N / (q^T (1-q)^n (-q^{ell+2}; q)_n),
        N       = sum_{k=0}^{n} (-1)^k S_{n,k} (q^{ell+1}; q)_k (-q^{ell+k+2}; q)_{n-k},
        S_{n,k} = sum_{j=k}^{n} (-1)^j C(n,j) q^{T - j - C(k,2) - k(j-k)} [j, k]_q,
        T       = max_k (n + C(k,2) + k(n-k)),

    where T makes every exponent of S_{n,k} nonnegative.

    **The pass** holds every polynomial as its value at x = 256^w, as
    carlitz does: the Gaussian rows by q-Pascal, [j, k](x) = [j-1, k-1](x)
    + [j-1, k](x) x^k; each S_{n,k}(x) as their shifted multiples; one shift
    and add or subtract per binomial factor 1 -+ q^m of the products; two
    integer products per term of N.  Evaluation at x is a ring homomorphism,
    so intermediates may carry; only N and the denominator are read back
    (ratcore._digits), right when their coefficients are below x/2.

    **The width, w = _width(6^n).**  [j, k]_q has nonnegative coefficients,
    so |[j, k]_q|_1 = C(j, k), and

        sum_k |S_{n,k}|_1 <= sum_k sum_j C(n,j) C(j,k) = sum_j C(n,j) 2^j = 3^n.

    Each binomial factor has 1-norm 2, so
    |(q^{ell+1}; q)_k (-q^{ell+k+2}; q)_{n-k}|_1 <= 2^n.  Hence |N|_1 <= 6^n,
    and the denominator's 1-norm is at most 2^n 2^n = 4^n, below the same
    bound; a coefficient is at most the 1-norm.

    The one gcd is the RatFuncQ reduction at the end.
    theta_moment_via_basis is the independent check of this formula.
    """
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    top = n + max(comb(k, 2) + k * (n - k) for k in range(n + 1))
    width = _width(6 ** n)
    bits = 8 * width
    sums = [0] * (n + 1)  # S_{n,k}(x)
    row = [1]  # [j, k](x) for k = 0..j
    for j in range(n + 1):
        if j:
            row = [1] + [row[k - 1] + (row[k] << bits * k) for k in range(1, j)] + [1]
        c = parity_sign(j) * comb(n, j)
        for k in range(j + 1):
            sums[k] += c * row[k] << bits * (top - j - comb(k, 2) - k * (j - k))
    # tails[k] = (-q^{ell+k+2}; q)_{n-k}(x)
    tails = [1] * (n + 1)
    for k in range(n - 1, -1, -1):
        tails[k] = tails[k + 1] + (tails[k + 1] << bits * (ell + k + 2))
    num, rising = 0, 1  # rising = (q^{ell+1}; q)_k(x)
    for k in range(n + 1):
        if k:
            rising -= rising << bits * (ell + k)
        term = sums[k] * rising * tails[k]
        num = num - term if k & 1 else num + term
    den = tails[0]
    for _ in range(n):
        den -= den << bits
    return RatFuncQ(QPoly(_digits(num, width)), QPoly(_digits(den << bits * top, width)))


@lru_cache(maxsize=None)
def xi_moment(ell: int, n: int) -> RatFuncQ:
    """xi_{ell,n} = q^{(ell+1) n} (-q; q)_n / (-q^{ell+2}; q)_n.

    Served one ratio step at a time: xi_{ell,n} = xi_{ell,n-1} q^{ell+1}
    (1 + q^n) / (1 + q^{ell+n+1}), with xi_{ell,0} = 1.
    """
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    if n == 0:
        return Q_ONE
    # Ask for entries 1..n-1 in ascending order: each finds its predecessor
    # in the memo, so a cold call recurses one level deep.
    prev = Q_ONE
    for k in range(1, n):
        prev = xi_moment(ell, k)
    one = QPoly.const(1)
    step = RatFuncQ(QPoly.q_power(ell + 1) * (one + QPoly.q_power(n)),
                    one + QPoly.q_power(ell + n + 1))
    return prev * step


class MomentSequence(NamedTuple):
    """One entry of SEQUENCES: the moments, and the data of their J-fraction."""

    moment: Callable[[int, int], RatFuncQ]  # (ell, n) -> mu_n
    # (ell, n) -> (a(n), b(n)); None means no J-fraction is wired up
    coeffs: Optional[Callable[[int, int], Tuple[RatFuncQ, RatFuncQ]]] = None
    mu0: Callable[[int], RatFuncQ] = lambda ell: Q_ONE  # ell -> mu_0


def _eps_mu0(ell: int) -> RatFuncQ:
    """eps_ell, the mu0 of the eps J-fraction, which holds for ell in {0, 1}."""
    if ell not in (0, 1):
        raise ValueError("the eps J-fraction is stated for ell in {0, 1}")
    return q_euler_recursive(ell)


# Sequence id -> its moments and J-fraction data at each ell.  For qeuler and
# qbernoulli ell shifts the sequence (mu_n = eps_{n+ell}, beta_{n+ell}); for
# theta and xi it is the functional's parameter.  The J-fraction's a(n), b(n)
# generate the monic family orthogonal for the moments (Favard), which is the
# paper's big q-Jacobi specialization: coeffs_monic for xi, and its affine
# image coeffs_p for qeuler and theta.  The moment maps call the
# module-level functions by name at call time, so a wrapper put in their
# place (a tracer, a test double) is used.
SEQUENCES: Dict[str, MomentSequence] = {
    "qeuler": MomentSequence(lambda ell, n: q_euler_recursive(n + ell), coeffs_p, _eps_mu0),
    "qbernoulli": MomentSequence(lambda ell, n: q_bernoulli_recursive(n + ell)),
    "theta": MomentSequence(lambda ell, n: theta_moment(ell, n), coeffs_p),
    "xi": MomentSequence(lambda ell, n: xi_moment(ell, n), coeffs_monic),
}


def _sequence(seq: str, ell: int) -> MomentSequence:
    entry = SEQUENCES.get(seq)
    if entry is None:
        raise ValueError(f"unknown sequence id {seq!r}")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return entry


def moments_for(seq: str, ell: int) -> Callable[[int], RatFuncQ]:
    """The monomial moment map n -> L(z^n) of the functional (seq, ell)."""
    moment = _sequence(seq, ell).moment
    return lambda n: moment(ell, n)


def jfraction_for(seq: str, ell: int) -> JFraction:
    """The J-fraction of the moments of (seq, ell): the entry's mu0 at ell,
    and a(n), b(n) read from its coefficient table at (ell, n) when asked.
    ValueError if the table has none, or none at this ell."""
    entry = _sequence(seq, ell)
    coeffs = entry.coeffs
    if coeffs is None:
        raise ValueError(f"no J-fraction is known for {seq!r}")
    return JFraction(entry.mu0(ell), lambda n: coeffs(ell, n)[0], lambda n: coeffs(ell, n)[1])


@lru_cache(maxsize=None)
def _cleared_moments(values: Tuple[RatFuncQ, ...]) -> Tuple[QPoly, Tuple[QPoly, ...]]:
    """clear_denominators(values) for a list of moments, kept because the
    same moments come back (a verify pass clears eps_0..eps_8 two hundred
    times); the basis routes' values seldom repeat, so they are not kept.
    The key is the values themselves, so a moment map put in place of
    another (a tracer, a test double) never meets a stale entry."""
    E, nums = clear_denominators(values)
    return E, tuple(nums)


def _weighted_sum(nums: Sequence[QPoly], den: QPoly, values: Callable[[int], RatFuncQ],
                  clear: Callable[[Sequence[RatFuncQ]], tuple]) -> RatFuncQ:
    """sum_k nums[k] values(k) / den, reading values(k) only where nums[k]
    is nonzero.  With those values cleared to V_k / E by ``clear``
    (clear_denominators or _cleared_moments) the sum is
    sum_k nums[k] V_k / (den E): one sum in Z[q] and one reduction."""
    used = [k for k, t in enumerate(nums) if t.coeffs]
    E, cleared = clear(tuple(values(k) for k in used))
    total = QPoly()
    for k, v in zip(used, cleared):
        total = total + nums[k] * v
    return RatFuncQ(total, den * E)


def apply_functional(seq: str, ell: int, p: ZPoly) -> RatFuncQ:
    """L(p) = sum_k coeff_k * L(z^k) for the functional (seq, ell), summed
    over p's numerators with its one denominator (_weighted_sum)."""
    return _weighted_sum(p.nums, p.den, moments_for(seq, ell), _cleared_moments)


def favard_family(seq: str, ell: int, upto: int) -> List[ZPoly]:
    """p_0 .. p_upto of the monic family orthogonal for the functional
    (seq, ell): by Favard's theorem, the family its J-fraction's a(n), b(n)
    generate.  It never reads the moments, so an orthogonality check
    compares independent routes.
    """
    return three_term_build(jfraction_for(seq, ell), upto)


def _pairing_failures(moments: Sequence[RatFuncQ],
                      polys: Sequence[ZPoly]) -> List[Tuple[int, int, RatFuncQ]]:
    """(0, 0, 0) if L(p_0) = 0, then (m, n, L(p_m p_n)) for each m < n with
    L(p_m p_n) != 0, in the order n, then m; moments[k] = L(z^k) for every
    k up to twice the largest degree.

    The bilinear form runs in Z[q].  With the moments cleared to M_k / E
    (ratcore.clear_denominators) and p_n read as its ZPoly holds it,
    p_n = sum_i P_{n,i} z^i / d_n for P_n = p_n.nums and d_n = p_n.den, with
    no clearing,

        L(p_m p_n) d_m d_n E = N_{mn} = sum_{i,j} P_{m,i} P_{n,j} M_{i+j},

    and |N_{mn}|_inf <= N = (D+1)^2 max|P|_1^2 max|M|_inf for D the largest
    degree, since |a b c|_inf <= |a|_1 |b|_1 |c|_inf.  Every P and M is
    packed once at x = 256**w with x > 2N, and N_{mn}(x) is formed as
    sum_i P_{m,i}(x) W_n[i] with W_n[i] = sum_j P_{n,j}(x) M_{i+j}(x).

    Certificate (as for ratcore._exact_quotient and hankel._eliminate_row):
    a polynomial F with integer coefficients below x/2 in absolute value and
    F(x) = 0 is zero, for its lowest nonzero coefficient f_k would be a
    multiple of x.  So N_{mn}(x) = 0 exactly when L(p_m p_n) = 0, and a
    nonzero value's balanced base-x digits are the coefficients of N_{mn};
    only those pairs are expanded and reduced.
    """
    E, nums = clear_denominators(moments)
    norm_p = max([sum(map(abs, c.coeffs)) for p in polys for c in p.nums] + [1])
    norm_m = max([_norm(c.coeffs) for c in nums if c.coeffs] + [1])
    top = max(len(p.nums) for p in polys)
    width = _width(top * top * norm_p * norm_p * norm_m)
    mx = [_pack(c.coeffs, width) for c in nums]
    px = [[_pack(c.coeffs, width) for c in p.nums] for p in polys]
    failures: List[Tuple[int, int, RatFuncQ]] = []
    if not sum(a * b for a, b in zip(px[0], mx)):
        failures.append((0, 0, Q_ZERO))
    for n in range(1, len(px)):
        rows = max(len(P) for P in px[:n])
        w_n = [sum(a * mx[i + j] for j, a in enumerate(px[n])) for i in range(rows)]
        for m in range(n):
            packed = sum(a * b for a, b in zip(px[m], w_n))
            if packed:
                den = polys[m].den * polys[n].den * E
                failures.append((m, n, RatFuncQ(QPoly(_digits(packed, width)), den)))
    return failures


def verify_orthogonality(
    seq: str, ell: int, upto: int, polys: Optional[Sequence[ZPoly]] = None,
) -> List[Tuple[int, int, RatFuncQ]]:
    """The failures of the exhaustive orthogonality check L(p_m p_n) = 0 for
    m != n, L(p_0) != 0, on the Favard family p_0..p_upto of the functional
    (seq, ell) (favard_family), as _pairing_failures lists them; empty when
    the family is orthogonal.

    ``polys`` may pass p_0..p_k (k >= upto) of that family when the caller
    has built them already; fewer than upto + 1 raise ValueError.  Each
    pairing is tested exactly in Z[q]; see _pairing_failures.
    """
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if polys is None:
        polys = favard_family(seq, ell, upto)
    elif len(polys) <= upto:
        raise ValueError(f"polys holds {len(polys)} polynomials, fewer than the "
                         f"{upto + 1} that upto = {upto} needs")
    polys = polys[:upto + 1]
    moments = moments_for(seq, ell)
    top = max(p.degree for p in polys)
    return _pairing_failures([moments(k) for k in range(2 * top + 1)], polys)
