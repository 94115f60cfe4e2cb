"""Named identity checks behind the ``verify`` command.

Every check is a function of a single size parameter ``max_n`` and returns
its case count and failure list; run_checks makes the CheckResult.  The
bounds inside each check are scaled so that ``max_n = 5`` reproduces the
battery this library was built to pass; smaller values give a quick smoke
run, larger ones a deeper sweep.  All comparisons are structural
equalities of canonical RatFuncQ values, never numeric tolerance.  An
orthogonality check names only the functional, as a (sequence id, ell) key
of functionals.SEQUENCES; its family is the Favard family of that entry's
J-fraction (functionals.favard_family).  Its zero test is exact too, on the
cleared numerator of L(p_m p_n) in Z[q]: its value at one packing point is
zero only for the zero polynomial, as the packing bound certifies
(functionals._pairing_failures).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .carlitz import (
    q_bernoulli_explicit,
    q_bernoulli_recursive,
    q_euler_explicit,
    q_euler_recursive,
)
from .functionals import (
    apply_functional,
    favard_family,
    from_diagonal_basis,
    jfraction_for,
    moments_for,
    phi,
    phi_closed_m_n,
    phi_closed_n1_n,
    phi_via_basis,
    qbinom_basis,
    theta_moment,
    theta_moment_via_basis,
    to_diagonal_basis,
    verify_orthogonality,
    verify_phi_relation,
)
from .hankel import (
    ROUTES,
    hankel_product,
    jfraction_expand,
    jfraction_from_moments,
    verify_exponent_integrality,
)
from .orthopoly import (
    ZPoly,
    build_j_via_phi2,
    build_jtilde_via_phi2,
    build_p_via_phi2,
    coeffs_ab,
    affine_transform,
)
from .qkit import (
    parity_sign,
    poch,
    q_binom,
    q_int,
    verify_q_chu_vandermonde,
)
from .ratcore import (
    Q,
    Q_ONE,
    Q_ZERO,
    QPoly,
    RatFuncQ,
    const,
    deserialize,
    qpow,
    serialize,
)


class CheckResult(NamedTuple):
    """Outcome of one named check: pass/fail, case count, failure detail."""

    name: str
    passed: bool
    cases: int
    detail: str = ""


CHECKS: Dict[str, Callable[[int], Tuple[int, List[str]]]] = {}


def _register(name: str) -> Callable:
    def wrap(fn: Callable) -> Callable:
        CHECKS[name] = fn
        return fn

    return wrap


def _random_ratfunc(rng: random.Random, max_deg: int) -> RatFuncQ:
    num = QPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, max_deg + 1))])
    den = QPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, max_deg + 1))])
    while den.is_zero:
        den = QPoly([rng.randint(-6, 6) for _ in range(max_deg + 1)])
    return RatFuncQ(num, den)


@_register("ratcore-field-laws")
def _check_field_laws(max_n: int) -> Tuple[int, List[str]]:
    rng = random.Random(0x51C)
    failures: List[str] = []
    trials = 10 + 5 * max_n
    for t in range(trials):
        a = _random_ratfunc(rng, 4)
        b = _random_ratfunc(rng, 4)
        c = _random_ratfunc(rng, 4)
        if (a + b) + c != a + (b + c):
            failures.append(f"trial {t}: addition not associative")
        if (a * b) * c != a * (b * c):
            failures.append(f"trial {t}: multiplication not associative")
        if a * (b + c) != a * b + a * c:
            failures.append(f"trial {t}: not distributive")
        if a - a != Q_ZERO:
            failures.append(f"trial {t}: a - a != 0")
        if not a.is_zero and a / a != Q_ONE:
            failures.append(f"trial {t}: a / a != 1")
        renorm = RatFuncQ(a.num, a.den)
        if renorm.num.coeffs != a.num.coeffs or renorm.den.coeffs != a.den.coeffs:
            failures.append(f"trial {t}: canonical form not a fixed point")
    return trials, failures


@_register("serialize-roundtrip")
def _check_serialize(max_n: int) -> Tuple[int, List[str]]:
    rng = random.Random(0xD15C)
    failures: List[str] = []
    sample = [Q_ZERO, Q_ONE, Q, -Q, qpow(-3)]
    sample += [_random_ratfunc(rng, 5) for _ in range(10 + 5 * max_n)]
    for i, v in enumerate(sample):
        blob = serialize(v)
        back = deserialize(blob)
        if back != v:
            failures.append(f"case {i}: value round trip broke ({blob})")
        elif serialize(back) != blob:
            failures.append(f"case {i}: byte round trip broke ({blob})")
    return len(sample), failures


@_register("q-pascal")
def _check_q_pascal(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    cases = 0
    top = 2 * max_n + 2
    for m in range(1, top + 1):
        for n in range(m + 1):
            cases += 1
            lhs = q_binom(m, n)
            r1 = q_binom(m - 1, n - 1) + qpow(n) * q_binom(m - 1, n)
            r2 = qpow(m - n) * q_binom(m - 1, n - 1) + q_binom(m - 1, n)
            if lhs != r1 or lhs != r2:
                failures.append(f"q-Pascal broke at (m,n)=({m},{n})")
    for m in range(-2 * max_n, 2 * max_n + 1):
        cases += 1
        if q_int(m).eval_at(Fraction(1)) != m:
            failures.append(f"[{m}]_q at q=1 != {m}")
    a = -qpow(2)
    for length in range(max_n + 1):
        cases += 1
        if poch(a, length + 1) != poch(a, length) * (Q_ONE - a * qpow(length)):
            failures.append(f"Pochhammer one-step broke at length {length}")
    return cases, failures


@_register("chu-vandermonde")
def _check_chu_vandermonde(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    cases = 0
    a_choices = [Q, -Q, qpow(2), Q_ZERO]
    c_choices = [-qpow(2), -qpow(3), qpow(3)]
    for a in a_choices:
        for c in c_choices:
            for n in range(max_n + 1):
                cases += 1
                if not verify_q_chu_vandermonde(a, c, n):
                    failures.append(f"sum broke at a={a}, c={c}, n={n}")
    return cases, failures


@_register("q-binomial-theorem")
def _check_q_binomial_theorem(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    top = max_n + 3
    for n in range(top + 1):
        lhs = ZPoly.one()
        for k in range(n):
            lhs = lhs * ZPoly([Q_ONE, -qpow(k)])
        rhs = ZPoly(
            [
                const(parity_sign(k)) * qpow(k * (k - 1) // 2) * q_binom(n, k)
                for k in range(n + 1)
            ]
        )
        if lhs != rhs:
            failures.append(f"expansion of (z;q)_{n} broke")
    return top + 1, failures


@_register("carlitz-consistency")
def _check_carlitz(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    top = 4 * max_n
    for n in range(top + 1):
        if q_euler_explicit(n) != q_euler_recursive(n):
            failures.append(f"eps routes disagree at n={n}")
        if q_bernoulli_explicit(n) != q_bernoulli_recursive(n):
            failures.append(f"beta routes disagree at n={n}")
    return 2 * (top + 1), failures


# Classical values of the q -> 1 limit of eps_0..eps_9, frozen.
_EPS_AT_ONE = [
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


@_register("qeuler-q1-limit")
def _check_qeuler_q1(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    top = min(9, 2 * max_n)
    for n in range(top + 1):
        got = q_euler_recursive(n).eval_at(Fraction(1))
        if got != _EPS_AT_ONE[n]:
            failures.append(f"limit at n={n}: got {got}, want {_EPS_AT_ONE[n]}")
    return top + 1, failures


@_register("cross-route-families")
def _check_cross_route(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    cases = 0
    u = RatFuncQ(QPoly((0, -1, 1)))
    v = qpow(1)
    for ell in range(4):
        series = [build_p_via_phi2(ell, n) for n in range(max_n + 1)]
        recur = favard_family("theta", ell, max_n)
        jtilde = [build_jtilde_via_phi2(ell, n) for n in range(max_n + 1)]
        affine = affine_transform(jtilde, u, v)
        for n in range(max_n + 1):
            cases += 1
            if not (series[n] == recur[n] == affine[n]):
                failures.append(f"P routes disagree at ell={ell}, n={n}")
            if not series[n].is_monic or not jtilde[n].is_monic:
                failures.append(f"monicity broke at ell={ell}, n={n}")
        js = [build_j_via_phi2(ell, n) for n in range(max_n + 2)]
        for n in range(1, max_n + 1):
            cases += 1
            A, B = coeffs_ab(ell, n)
            lhs = js[n + 1].scale(A)
            rhs = js[n] * ZPoly([A + B - Q_ONE, Q_ONE]) - js[n - 1].scale(B)
            if lhs != rhs:
                failures.append(f"three-point contiguity broke at ell={ell}, n={n}")
    # p_{k+1}(0) / p_k(0) of theta_1's family is -d_k / d'_k for d of
    # Theorem 1's shift 2 and d' of its shift 1 (hankel.theorem1_quotients)
    at_zero = [Q_ONE]
    for d1, d2 in zip(ROUTES[("qeuler", 1)]["closedform"](0, max_n + 2),
                      ROUTES[("qeuler", 2)]["closedform"](0, max_n + 2)):
        at_zero.append(-at_zero[-1] * d2 / d1)
    for n, want in enumerate(at_zero):
        cases += 1
        if build_p_via_phi2(1, n)(Q_ZERO) != want:
            failures.append(f"value at zero broke at n={n}")
    return cases, failures


@_register("basis-roundtrip")
def _check_basis_roundtrip(max_n: int) -> Tuple[int, List[str]]:
    rng = random.Random(0xBA515)
    failures: List[str] = []
    trials = 8 + 2 * max_n
    for t in range(trials):
        p = ZPoly(
            [const(rng.randint(-7, 7)) for _ in range(rng.randint(1, max_n + 4))]
        )
        if from_diagonal_basis(to_diagonal_basis(p)) != p:
            failures.append(f"trial {t}: basis round trip broke")
    return trials, failures


@_register("phi-moments")
def _check_phi_moments(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    cases = 0
    for n in range(3 * max_n + 1):  # Phi = theta_0: closed sum vs the Carlitz recursion
        cases += 1
        if theta_moment(0, n) != q_euler_recursive(n):
            failures.append(f"Phi(z^{n}) != eps_{n}")
    rng = random.Random(0xE1)
    for t in range(8):
        cases += 1
        p = ZPoly([const(rng.randint(-9, 9)) for _ in range(max_n + 4)])
        if phi(p) != phi_via_basis(p):
            failures.append(f"trial {t}: moment and basis routes disagree")
    return cases, failures


@_register("theta-moments")
def _check_theta_moments(max_n: int) -> Tuple[int, List[str]]:
    # every moment theta-det reads: its Hankel matrices need z^0..z^{2 max_n}
    failures: List[str] = []
    cases = 0
    for ell in range(4):
        for n in range(2 * max_n + 1):
            cases += 1
            if theta_moment(ell, n) != theta_moment_via_basis(ell, n):
                failures.append(f"theta_{ell}(z^{n}): closed sum and basis route disagree")
    return cases, failures


@_register("phi-closed-forms")
def _check_phi_closed_forms(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    cases = 0
    top = max_n + 1
    for n in range(top + 1):
        for m in range(n + 1):
            cases += 1
            if phi_via_basis(qbinom_basis(m, n)) != phi_closed_m_n(m, n):
                failures.append(f"closed form broke at (m,n)=({m},{n})")
        cases += 1
        if phi_via_basis(qbinom_basis(n + 1, n)) != phi_closed_n1_n(n):
            failures.append(f"closed form broke at (n+1,n)=({n + 1},{n})")
    return cases, failures


@_register("phi-relation")
def _check_phi_relation(max_n: int) -> Tuple[int, List[str]]:
    rng = random.Random(0x4E1)
    failures: List[str] = []
    trials = max(10, 20 * max_n)
    for t in range(trials):
        p = ZPoly([const(rng.randint(-20, 20)) for _ in range(rng.randint(1, 9))])
        if not verify_phi_relation(p):
            failures.append(f"trial {t}: functional equation broke")
    return trials, failures


@_register("phi-orthogonality")
def _check_phi_orthogonality(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    cases = 0
    for ell in (0, 1):
        polys = favard_family("qeuler", ell, max_n + 3)
        cases += (max_n + 1) * (max_n + 2) // 2 + 1
        for m, n, value in verify_orthogonality("qeuler", ell, max_n + 1, polys):
            failures.append(f"ell={ell}: pairing ({m},{n}) gave {value}")
        for n in range(1, max_n + 4):
            cases += 1
            value = apply_functional("qeuler", ell, polys[n])
            if not value.is_zero:
                failures.append(f"ell={ell}: single n={n} gave {value}")
    return cases, failures


def _register_orthogonality(name: str, seq: str) -> None:
    """Register a check that, for each ell in 0..3, the Favard family of the
    functional (seq, ell) (functionals.favard_family, built from the paper's
    a(n), b(n)) is orthogonal for its moments up to degree max_n + 1."""

    @_register(name)
    def check(max_n: int) -> Tuple[int, List[str]]:
        failures: List[str] = []
        cases = 0
        for ell in range(4):
            cases += (max_n + 1) * (max_n + 2) // 2 + 1
            for m, n, value in verify_orthogonality(seq, ell, max_n + 1):
                failures.append(f"ell={ell}: pairing ({m},{n}) gave {value}")
        return cases, failures


_register_orthogonality("theta-orthogonality", "theta")
_register_orthogonality("xi-orthogonality", "xi")


@_register("intertwining")
def _check_intertwining(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    cases = 0
    for ell in (0, 1):
        eps_ell = q_euler_recursive(ell)
        for n in range(2 * max_n + 1):
            cases += 1
            if q_euler_recursive(n + ell) != eps_ell * theta_moment(ell, n):
                failures.append(f"moment mismatch at ell={ell}, n={n}")
    return cases, failures


def _register_routes(name: str, key: Tuple[str, int], ells: Sequence[int]) -> None:
    """Register a check that every route of ``ROUTES[key]`` gives the same
    H_n for n <= max_n, from one quotient list d_0..d_max_n per route."""

    @_register(name)
    def check(max_n: int) -> Tuple[int, List[str]]:
        routes = ROUTES[key]
        failures: List[str] = []
        for ell in ells:
            lists = [fn(ell, max_n) for fn in routes.values()]
            if len({tuple(ds) for ds in lists}) == 1:
                continue
            for n in range(max_n + 1):  # H_n = d_0 ... d_n, only when the lists differ
                if len({hankel_product(ds[: n + 1]) for ds in lists}) > 1:
                    where = f"n={n}" if len(ells) == 1 else f"ell={ell}, n={n}"
                    failures.append(f"routes disagree at {where}")
        return len(ells) * (max_n + 1), failures


_register_routes("theorem1-shift0", ("qeuler", 0), [0])
_register_routes("theorem1-shift1", ("qeuler", 1), [0])
_register_routes("theorem1-shift2", ("qeuler", 2), [0])
_register_routes("chapoton-zeng", ("qbernoulli", 0), [0])
_register_routes("theta-det", ("theta", 0), range(4))
_register_routes("xi-det", ("xi", 0), range(4))


@_register("theorem1-q1-limit")
def _check_theorem1_q1(max_n: int) -> Tuple[int, List[str]]:
    # H_n(1) is the product of d_k(1), each value finite: d_k(1) = (-1/4)^k k!^2
    failures: List[str] = []
    got = want = Fraction(1)
    for n, d in enumerate(ROUTES[("qeuler", 0)]["closedform"](0, max_n)):
        got *= d.eval_at(Fraction(1))
        want *= Fraction(-1, 4) ** n * Fraction(math.factorial(n)) ** 2
        if got != want:
            failures.append(f"limit at n={n}: got {got}, want {want}")
    return max_n + 1, failures


@_register("jfraction-eps")
def _check_jfraction_eps(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    cases = 0
    order = 2 * max_n + 2
    for ell in (0, 1):
        moments = moments_for("qeuler", ell)
        expansion = jfraction_expand(jfraction_for("qeuler", ell), order)
        for k in range(order + 1):
            cases += 1
            if expansion[k] != moments(k):
                failures.append(f"coefficient {k} broke at ell={ell}")
    return cases, failures


@_register("jfraction-roundtrip")
def _check_jfraction_roundtrip(max_n: int) -> Tuple[int, List[str]]:
    failures: List[str] = []
    cases = 0
    eps = [q_euler_recursive(k) for k in range(2 * max_n + 2)]
    runs = [("eps", eps, jfraction_for("qeuler", 0))]
    for ell in range(4):
        jf = jfraction_for("xi", ell)
        runs.append((f"xi(ell={ell})", jfraction_expand(jf, 2 * max_n + 1), jf))
    for label, moments, want in runs:
        back = jfraction_from_moments(moments)
        for i, a in enumerate(back.a_list):
            cases += 1
            if a != want.a(i):
                failures.append(f"{label} a[{i}] came back wrong")
        for i, b in enumerate(back.b_list, start=1):
            cases += 1
            if b != want.b(i):
                failures.append(f"{label} b[{i}] came back wrong")
    return cases, failures


@_register("exponent-integrality")
def _check_exponent_integrality(max_n: int) -> Tuple[int, List[str]]:
    top = max(50, 10 * max_n)
    ok = verify_exponent_integrality(top)
    return top + 1, [] if ok else ["a quarter of a binomial failed to be an integer"]


def available_checks() -> List[str]:
    return sorted(CHECKS)


def run_checks(max_n: int, only: Optional[str] = None) -> List[CheckResult]:
    """Run all registered checks (or those whose name starts with ``only``).

    Results come back sorted by name so reports do not depend on registration
    or execution order.  A check that raises is reported as failed with zero
    cases and the exception in its detail.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    results = []
    for name in CHECKS:
        if only is not None and not name.startswith(only):
            continue
        try:
            cases, failures = CHECKS[name](max_n)
        except Exception as exc:  # report the broken check; the others still run
            cases, failures = 0, [f"raised {type(exc).__name__}: {exc}"]
        detail = "; ".join(failures[:3])
        if len(failures) > 3:
            detail += f"; +{len(failures) - 3} more"
        results.append(CheckResult(name, not failures, cases, detail))
    return sorted(results, key=lambda r: r.name)
