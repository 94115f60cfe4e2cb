"""The after-timing check passes real program output and flags a corrupted value."""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

ORACLES = (checks.Oracle(Fraction(2, 3)), checks.Oracle(Fraction(1)))


def _bump(value: dict, k: int = 0) -> None:
    value["num"][k] = hex(int(value["num"][k], 0) + 1)


def _result(op: dict):
    _, error, result = worker.run_op(op)
    assert error is None
    return result


def test_sequence_check_flags_one_corrupted_value():
    op = run._seq("eps_recursive", 8)
    result = _result(op)
    assert checks.check_op(op, result, ORACLES) == []
    bad = copy.deepcopy(result)
    _bump(bad[5])
    problems = checks.check_op(op, bad, ORACLES)
    assert problems and all("[5]" in p for p in problems)


def test_det_check_flags_one_corrupted_route():
    op = run._det("qeuler", 1, 3)
    text = _result(op)
    assert checks.check_op(op, text, ORACLES) == []
    out = json.loads(text)
    _bump(out["results"]["heilermann"], -1)
    problems = checks.check_op(op, json.dumps(out), ORACLES)
    assert any("differ structurally" in p for p in problems)
    assert any("heilermann at q=2/3" in p for p in problems)
    assert not any("closedform" in p for p in problems)


def test_det_check_requires_equal_true():
    op = run._det("qbernoulli", 0, 2)
    out = json.loads(_result(op))
    out["equal"] = False
    assert any('"equal"' in p for p in checks.check_op(op, json.dumps(out), ORACLES))


def test_recovery_check_flags_a_wrong_coefficient():
    op = {"kind": "jfrac_from_moments", "seq": "xi", "ell": 1, "top": 8}
    result = _result(op)
    assert checks.check_op(op, result, ORACLES) == []
    _bump(result["b"][2])
    assert checks.check_op(op, result, ORACLES)


def test_failed_verify_check_is_flagged():
    op = {"kind": "check", "name": "q-pascal", "max_n": 1}
    result = _result(op)
    assert checks.check_op(op, result, ORACLES) == []
    result[0]["passed"] = False
    assert checks.check_op(op, result, ORACLES)


def test_every_layer_metric_has_a_source():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    special = {"ratcore.result_max_degree", "ratcore.result_max_coeff_bits",
               "cli.output_bytes", "cli.self_s"}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in special or name.startswith("verification."):
            continue
        stem = name.rsplit("_", 1)[0]
        assert stem in spans.SPANS, name
