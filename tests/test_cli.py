"""Command line interface: formats, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

from qhankel import hankel, verification
from qhankel.carlitz import q_euler_recursive
from qhankel.cli import _COMMANDS, _json_value, _render, cmd_det, cmd_jfrac, cmd_seq
from qhankel.functionals import SEQUENCES
from qhankel.hankel import ROUTES, hankel_matrix, hankel_product, minor_quotients
from qhankel.ratcore import Q_ONE, int_to_decimal, qpow
from qhankel.verification import run_checks
from support import invoke


class TestSeq:
    def test_text_default(self):
        result = invoke(["seq", "--id", "qeuler", "--max-n", "2"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "qeuler[0] = 1"
        assert lines[1] == "qeuler[1] = (-q)/(1 + q^2)"
        assert len(lines) == 3

    def test_max_n_zero(self):
        result = invoke(
            ["seq", "--id", "qbernoulli", "--max-n", "0", "-f", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["values"] == [{"num": ["1"], "den": ["1"]}]

    def test_json_shape(self):
        result = invoke(
            ["seq", "--id", "theta", "--ell", "2", "--max-n", "1", "-f", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["id"] == "theta_ell(2)"
        assert payload["max_n"] == 1
        assert len(payload["values"]) == 2

    def test_at_q_exact(self):
        result = invoke(
            ["seq", "--id", "qeuler", "--max-n", "9", "--at-q", "1", "-f", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["at_q"] == "1"
        assert payload["values"] == [
            "1", "-1/2", "0", "1/4", "0", "-1/2", "0", "17/8", "0", "-31/2",
        ]

    def test_at_q_fraction(self):
        result = invoke(
            ["seq", "--id", "qeuler", "--max-n", "1", "--at-q", "1/2", "-f", "json"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["values"][1] == "-2/5"

    def test_at_q_rejects_non_rational(self):
        result = invoke(
            ["seq", "--id", "qeuler", "--max-n", "1", "--at-q", "0.5x"]
        )
        assert result.exit_code == 2

    def test_ell_rejected_for_qeuler(self):
        result = invoke(
            ["seq", "--id", "qeuler", "--ell", "1", "--max-n", "1"]
        )
        assert result.exit_code == 2

    def test_pole_reported_as_error(self):
        # beta_1 = -1/(1+q), so q = -1 is a genuine pole
        result = invoke(
            ["seq", "--id", "qbernoulli", "--max-n", "1", "--at-q=-1"]
        )
        assert result.exit_code == 1
        assert "pole" in result.output

    def test_latex_output(self):
        result = invoke(
            ["seq", "--id", "xi", "--ell", "1", "--max-n", "1", "-f", "latex"]
        )
        assert result.exit_code == 0
        assert r"\Xi^{(1)}_{0} = 1" in result.output
        assert result.output.count("{") == result.output.count("}")


class TestPoly:
    def test_degree_one_text(self):
        result = invoke(["poly", "--family", "p", "--n", "1"])
        assert result.exit_code == 0
        assert result.output.strip() == "(q)/(1 + q^2) + z"

    def test_families_distinct(self):
        outs = set()
        for fam in ("p", "monic", "j"):
            result = invoke(
                ["poly", "--family", fam, "--n", "2", "-f", "json"]
            )
            assert result.exit_code == 0
            outs.add(result.output)
        assert len(outs) == 3

    def test_monic_leading_coeff(self):
        result = invoke(
            ["poly", "--family", "monic", "--ell", "1", "--n", "3", "-f", "json"]
        )
        payload = json.loads(result.output)
        assert payload["coeffs"][-1] == {"num": ["1"], "den": ["1"]}

    def test_at_q_latex(self):
        result = invoke(
            ["poly", "--family", "p", "--n", "1", "--at-q", "2", "-f", "latex"],
        )
        assert result.exit_code == 0
        assert result.output.strip() == r"\frac{2}{5} + z"


class TestDet:
    def test_all_methods_agree(self):
        result = invoke(
            ["det", "--id", "qeuler", "--n", "2", "-f", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["equal"] is True
        assert set(payload["results"]) == {"bruteforce", "closedform", "heilermann"}

    def test_depth_zero(self):
        result = invoke(
            ["det", "--id", "qeuler", "--n", "0", "--method", "closedform", "-f", "json"],
        )
        payload = json.loads(result.output)
        assert payload == {
            "seq": "qeuler",
            "shift": 0,
            "n": 0,
            "method": "closedform",
            "value": {"num": ["1"], "den": ["1"]},
        }

    def test_shifted(self):
        for shift in (1, 2):
            result = invoke(
                ["det", "--id", "qeuler", "--shift", str(shift), "--n", "2", "-f", "json"],
            )
            assert result.exit_code == 0
            assert json.loads(result.output)["equal"] is True

    def test_qbernoulli_no_heilermann(self):
        result = invoke(
            ["det", "--id", "qbernoulli", "--n", "1", "--method", "heilermann"]
        )
        assert result.exit_code == 2

    def test_qbernoulli_all_is_two_methods(self):
        result = invoke(
            ["det", "--id", "qbernoulli", "--n", "2", "-f", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload["results"]) == {"bruteforce", "closedform"}
        assert payload["equal"] is True

    def test_shift_only_for_qeuler(self):
        result = invoke(
            ["det", "--id", "theta", "--shift", "1", "--n", "1"]
        )
        assert result.exit_code == 2

    def test_shift_past_every_row_is_a_usage_error(self):
        result = invoke(["det", "--id", "qeuler", "--shift", "3", "--n", "1"])
        assert result.exit_code == 2
        assert "--shift 3 is not available for --id qeuler" in result.output

    def test_choices_come_from_routes(self):
        def choices(command, name):
            parser = next(p for p in _COMMANDS.values() if p.get_default("handler") is command)
            return list(next(a.choices for a in parser._actions if a.dest == name))

        ids = list(SEQUENCES)
        methods = list(dict.fromkeys(m for routes in ROUTES.values() for m in routes))
        assert ids == list(dict.fromkeys(seq for seq, _ in ROUTES))
        assert choices(cmd_seq, "seq_id") == ids
        assert choices(cmd_det, "seq_id") == ids
        assert choices(cmd_jfrac, "seq_id") == ["qeuler", "theta", "xi"]
        assert choices(cmd_det, "method") == methods + ["all"]
        assert set(methods) == {"bruteforce", "closedform", "heilermann"}

    def test_theta_with_ell(self):
        result = invoke(
            ["det", "--id", "theta", "--ell", "2", "--n", "1", "-f", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["seq"] == "theta(2)"
        assert payload["equal"] is True

    def test_at_q_text(self):
        result = invoke(
            ["det", "--id", "qeuler", "--n", "1", "--method", "bruteforce", "--at-q", "1"],
        )
        assert result.exit_code == 0
        assert result.output.strip().endswith("= -1/4")



class TestJfrac:
    def test_requires_depth_or_expand(self):
        result = invoke(["jfrac", "--id", "qeuler"])
        assert result.exit_code == 2

    def test_depth(self):
        result = invoke(
            ["jfrac", "--id", "qeuler", "--depth", "2", "-f", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["id"] == "qeuler(0)"
        assert payload["mu0"] == {"num": ["1"], "den": ["1"]}
        assert len(payload["a"]) == 2
        assert len(payload["b"]) == 1

    def test_expansion_matches_seq(self):
        jfrac = invoke(
            ["jfrac", "--id", "qeuler", "--expand", "6", "-f", "json"]
        )
        seq = invoke(
            ["seq", "--id", "qeuler", "--max-n", "6", "-f", "json"]
        )
        assert json.loads(jfrac.output)["expansion"] == json.loads(seq.output)["values"]

    def test_qeuler_ell_restricted(self):
        result = invoke(
            ["jfrac", "--id", "qeuler", "--ell", "2", "--depth", "1"]
        )
        assert result.exit_code == 2

    def test_xi_text(self):
        result = invoke(
            ["jfrac", "--id", "xi", "--ell", "1", "--depth", "1"]
        )
        assert result.exit_code == 0
        assert result.output.startswith("xi(1) mu0 = 1")


class TestVerify:
    def test_single_prefix(self):
        result = invoke(
            ["verify", "--only", "exponent", "--max-n", "3"]
        )
        assert result.exit_code == 0
        assert "PASS exponent-integrality" in result.output
        assert "1/1 checks passed (max_n=3)" in result.output

    def test_theorem_group(self):
        result = invoke(
            ["verify", "--only", "theorem1", "--max-n", "2", "-f", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["all_passed"] is True
        names = [c["name"] for c in payload["checks"]]
        assert names == sorted(names)
        assert "theorem1-shift0" in names

    def test_unknown_prefix(self):
        result = invoke(["verify", "--only", "nosuchcheck"])
        assert result.exit_code == 2

    def test_latex_rejected(self):
        result = invoke(["verify", "--only", "exponent", "-f", "latex"])
        assert result.exit_code == 2
        assert result.stdout == ""


def _perturb(monkeypatch, factors):
    """Replace hankel.heilermann_quotients by a double that multiplies d_k by
    factors[k] wherever the list reaches k."""
    real = hankel.heilermann_quotients

    def double(jf, n):
        ds = real(jf, n)
        return [d * factors[k] if k in factors else d for k, d in enumerate(ds)]

    monkeypatch.setattr(hankel, "heilermann_quotients", double)


class TestRouteDisagreement:
    """theorem1 shift 0 with a heilermann route off by 1 + q at d_3: the exit
    code 3 that verify and det --method all document."""

    OFF = Q_ONE + qpow(1)

    def _det(self, *args):
        return invoke(["det", "--id", "qeuler", "--method", "all", *args])

    def test_verify_fails_at_the_quotient_and_past_it(self, monkeypatch):
        _perturb(monkeypatch, {3: self.OFF})
        (r,) = run_checks(5, only="theorem1-shift0")
        assert not r.passed and r.cases == 6
        assert r.detail == "routes disagree at n=3; routes disagree at n=4; routes disagree at n=5"
        result = invoke(["verify", "--only", "theorem1-shift0", "--max-n", "5"])
        assert result.exit_code == 3
        assert "FAIL theorem1-shift0" in result.output

    def test_det_below_the_quotient_agrees(self, monkeypatch):
        _perturb(monkeypatch, {3: self.OFF})
        result = self._det("--n", "2", "-f", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["equal"] is True

    def test_det_prints_each_route_product(self, monkeypatch):
        _perturb(monkeypatch, {3: self.OFF})
        result = self._det("--n", "4", "-f", "json")
        assert result.exit_code == 3
        payload = json.loads(result.stdout)
        assert payload["equal"] is False
        true = hankel_product(minor_quotients(hankel_matrix(q_euler_recursive, 0, 4)))
        assert payload["results"]["bruteforce"] == payload["results"]["closedform"] == _json_value(true)
        assert payload["results"]["heilermann"] == _json_value(true * self.OFF)
        text = self._det("--n", "4")
        assert text.exit_code == 3
        assert text.stdout.splitlines()[-1] == "MISMATCH"

    def test_single_method_expands_its_own_list(self, monkeypatch):
        _perturb(monkeypatch, {3: self.OFF})
        values = {}
        for method in ("bruteforce", "heilermann"):
            result = invoke(["det", "--id", "qeuler", "--n", "4",
                                          "--method", method, "-f", "json"])
            assert result.exit_code == 0
            values[method] = json.loads(result.stdout)["value"]
        assert values["bruteforce"] != values["heilermann"]

    def test_compensated_quotients_flag_only_their_own_n(self, monkeypatch):
        # d_3 f and d_4 / f leave H_4 and H_5 unchanged, but not the lists
        _perturb(monkeypatch, {3: self.OFF, 4: Q_ONE / self.OFF})
        (r,) = run_checks(5, only="theorem1-shift0")
        assert r.detail == "routes disagree at n=3"
        result = self._det("--n", "5", "-f", "json")
        assert result.exit_code == 3
        payload = json.loads(result.stdout)
        assert payload["equal"] is False
        assert len({json.dumps(v) for v in payload["results"].values()}) == 1


class TestOutputPlumbing:
    def test_json_bytes_deterministic(self):
        args = ["det", "--id", "xi", "--ell", "1", "--n", "2", "-f", "json"]
        first = invoke(args)
        second = invoke(args)
        assert first.output == second.output
        # canonical separators, no spaces
        assert ": " not in first.output

    def test_abbreviated_flag_is_a_usage_error(self):
        result = invoke(["seq", "--id", "qeuler", "--max-n", "1", "--max", "2"])
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "dump.json"
        result = invoke(
            [
                "seq", "--id", "qeuler", "--max-n", "1",
                "-f", "json", "--out", str(target),
            ],
        )
        assert result.exit_code == 0
        assert result.output == ""
        payload = json.loads(target.read_text())
        assert payload["max_n"] == 1

    def test_out_that_cannot_be_written_is_a_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        result = invoke(
            ["seq", "--id", "qeuler", "--max-n", "1", "-f", "json", "--out", str(target)]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--out'" in result.output
        assert "Traceback" not in result.output
        assert not target.exists()

    def test_out_is_left_empty_by_a_usage_error(self, tmp_path):
        target = tmp_path / "x.txt"
        result = invoke(["det", "--id", "qeuler", "--shift", "3", "--n", "1",
                         "--out", str(target)])
        assert result.exit_code == 2
        assert target.read_text() == ""

    def test_out_keeps_the_report_of_a_failed_identity(self, monkeypatch, tmp_path):
        _perturb(monkeypatch, {3: Q_ONE + qpow(1)})
        target = tmp_path / "x.txt"
        result = invoke(["det", "--id", "qeuler", "--n", "4", "--out", str(target)])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert target.read_text().splitlines()[-1] == "MISMATCH"

    def test_huge_value_at_q(self):
        # past CPython's 4,300-digit limit on str(int)
        big = 3 ** 10000
        digits = int_to_decimal(big)
        assert _render(Fraction(-big, 7), False) == f"-{digits}/7"
        assert _render(Fraction(-big, 7), True) == rf"-\frac{{{digits}}}{{7}}"
        assert _json_value(Fraction(big)) == digits

    def test_latex_braces_balanced(self):
        for args in (
            ["seq", "--id", "qeuler", "--max-n", "3", "-f", "latex"],
            ["poly", "--family", "monic", "--n", "3", "-f", "latex"],
            ["det", "--id", "qeuler", "--shift", "2", "--n", "2", "-f", "latex"],
            ["jfrac", "--id", "theta", "--ell", "1", "--depth", "3", "-f", "latex"],
        ):
            result = invoke(args)
            assert result.exit_code == 0
            assert result.output.count("{") == result.output.count("}")


class TestOutOpenedFirst:
    """An --out that cannot be opened exits 2 before any route or check runs."""

    ARGVS = [["det", "--id", "qeuler", "--n", "14", "--method", "all", "-f", "json"], ["verify"]]

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every qeuler shift-0 route and every check, recording its calls."""
        calls = []

        def recording(name, fn):
            def double(*args):
                calls.append(name)
                return fn(*args)
            return double

        routes = ROUTES[("qeuler", 0)]
        for method, fn in list(routes.items()):
            monkeypatch.setitem(routes, method, recording(method, fn))
        for name, fn in list(verification.CHECKS.items()):
            monkeypatch.setitem(verification.CHECKS, name, recording(name, fn))
        return calls

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("missing", [True, False], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_runs_nothing(self, calls, tmp_path, argv, missing):
        target = tmp_path / "missing" / "x.json" if missing else tmp_path
        result = invoke([*argv, "--out", str(target)])
        assert result.exit_code == 2
        assert "Invalid value for '--out'" in result.stderr
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []
        assert calls == []

    def test_the_doubles_see_a_writable_run(self, calls, tmp_path):
        # the control: the same doubles do record the routes and the checks
        target = tmp_path / "x.json"
        assert invoke(["det", "--id", "qeuler", "--n", "1", "--out", str(target)]).exit_code == 0
        assert sorted(calls) == sorted(ROUTES[("qeuler", 0)])
        calls.clear()
        assert invoke(["verify", "--only", "exponent", "--out", str(target)]).exit_code == 0
        assert calls == ["exponent-integrality"]
