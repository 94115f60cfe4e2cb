"""The named check registry behind the verify command."""

import pytest

from qhankel import hankel, orthopoly, verification
from qhankel.functionals import SEQUENCES
from qhankel.ratcore import Q
from qhankel.verification import CheckResult, available_checks, run_checks
from support import fresh_orthopoly_caches


def test_available_checks_sorted_and_nonempty():
    names = available_checks()
    assert names == sorted(names)
    assert "theorem1-shift0" in names
    assert "carlitz-consistency" in names
    assert len(names) >= 20


def test_prefix_filter():
    results = run_checks(2, only="theorem1")
    assert [r.name for r in results] == [
        "theorem1-q1-limit",
        "theorem1-shift0",
        "theorem1-shift1",
        "theorem1-shift2",
    ]
    assert all(r.passed for r in results)


def test_no_match_returns_empty():
    assert run_checks(2, only="zzz") == []


def test_small_run_all_pass():
    results = run_checks(1)
    assert len(results) == len(available_checks())
    assert all(r.passed for r in results)
    assert all(r.cases > 0 for r in results)


def test_result_json_shape():
    (r,) = run_checks(1, only="exponent")
    d = r._asdict()
    assert d["name"] == "exponent-integrality"
    assert d["passed"] is True
    assert d["cases"] == r.cases
    assert d["detail"] == ""


def test_failure_detail_formatting():
    r = CheckResult("probe", False, 3, "first bad thing")
    assert not r.passed
    assert r._asdict()["detail"] == "first bad thing"


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        run_checks(-1)


def test_raising_check_is_reported_and_others_still_run(monkeypatch):
    def broken(max_n):
        raise RuntimeError("probe failure")

    monkeypatch.setitem(verification.CHECKS, "exponent-broken", broken)
    results = {r.name: r for r in run_checks(1, only="exponent")}
    assert results["exponent-broken"] == CheckResult(
        "exponent-broken", False, 0, "raised RuntimeError: probe failure"
    )
    assert results["exponent-integrality"].passed


def test_one_exponent_off_in_the_monic_table_breaks_the_xi_and_theta_rows(monkeypatch):
    # b~ times q: q^{2n+2ell+1} becomes q^{2n+2ell+2}.  coeffs_p is the
    # affine image of coeffs_monic, so the theta and eps rows read the
    # double too; the Carlitz and beta rows read neither table.
    real = orthopoly.coeffs_monic

    def off_by_one(ell, n):
        a, b = real(ell, n)
        return a, b * Q

    monkeypatch.setattr(orthopoly, "coeffs_monic", off_by_one)
    monkeypatch.setitem(SEQUENCES, "xi", SEQUENCES["xi"]._replace(coeffs=off_by_one))
    with fresh_orthopoly_caches():
        results = {r.name: r for r in run_checks(3)}
    for name in ("xi-orthogonality", "theta-orthogonality", "theorem1-shift0",
                 "jfraction-roundtrip"):
        assert not results[name].passed, name
    for name in ("carlitz-consistency", "chapoton-zeng"):
        assert results[name].passed, name


def test_one_shift2_quotient_off_breaks_the_shift2_row_and_the_values_at_zero(monkeypatch):
    # d_3 of shift 2 times q: p_4(0) of theta_1's family, read from the
    # closed form, no longer matches the 3phi2 series
    real = hankel.theorem1_quotients

    def off_by_one(shift, n):
        ds = list(real(shift, n))
        if shift == 2 and n >= 3:
            ds[3] = ds[3] * Q
        return ds

    monkeypatch.setattr(hankel, "theorem1_quotients", off_by_one)
    results = {r.name: r for r in run_checks(3)}
    assert not results["theorem1-shift2"].passed
    assert not results["cross-route-families"].passed
    assert "value at zero broke at n=4" in results["cross-route-families"].detail
    for name in ("theorem1-shift0", "theorem1-shift1", "theorem1-q1-limit"):
        assert results[name].passed, name


def test_one_theta_0_moment_off_breaks_phi_moments(monkeypatch):
    # theta_0(z^12) times q: phi-moments compares the closed q-binomial sum
    # with the Carlitz recursion, and no other check reads theta_0(z^12)
    real = verification.theta_moment

    def off_at_12(ell, n):
        value = real(ell, n)
        return value * Q if (ell, n) == (0, 12) else value

    monkeypatch.setattr(verification, "theta_moment", off_at_12)
    results = {r.name: r for r in run_checks(5)}
    assert not results["phi-moments"].passed
    assert "Phi(z^12) != eps_12" in results["phi-moments"].detail
    assert [name for name, r in results.items() if not r.passed] == ["phi-moments"]
