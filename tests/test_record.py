"""The package's value classes and what ``import qhankel`` loads."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qhankel.functionals import FunctionalId, OrthogonalityReport
from qhankel.hankel import HankelResult
from qhankel.orthopoly import JFraction
from qhankel.ratcore import Q, Q_ONE
from qhankel.verification import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    # The CLI is left out: click imports inspect itself.
    code = ("import sys, qhankel, qhankel.verification; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_fields_defaults_and_repr():
    assert CheckResult("c", True, 2).detail == ""
    assert FunctionalId("phi").ell == 0
    assert repr(FunctionalId("theta_ell", 2)) == "FunctionalId(kind='theta_ell', ell=2)"
    jf = JFraction(Q_ONE, a=len, b=len)
    assert jf.a_list is None and jf.b_list is None


def test_equality_is_by_type_and_fields():
    assert HankelResult("qeuler", 0, 1, "heilermann", Q) == HankelResult("qeuler", 0, 1, "heilermann", Q)
    assert HankelResult("qeuler", 0, 1, "heilermann", Q) != HankelResult("qeuler", 0, 1, "closedform", Q)
    assert FunctionalId("phi") != HankelResult("qeuler", 0, 1, "heilermann", Q)
    assert FunctionalId("phi") != ("phi", 0)


def test_frozen_records_hash_and_refuse_assignment():
    a, b = FunctionalId("theta_ell", 1), FunctionalId(kind="theta_ell", ell=1)
    assert len({a, b, FunctionalId("xi_ell", 1)}) == 2
    with pytest.raises(AttributeError):
        a.ell = 2
    with pytest.raises(TypeError):
        hash(OrthogonalityReport(a, 2, []))


def test_copy_and_pickle_keep_the_value():
    for value in (CheckResult("c", False, 3, "why"), FunctionalId("phi_ell", 1),
                  OrthogonalityReport(FunctionalId("phi"), 2, [])):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_validation_still_runs():
    with pytest.raises(ValueError):
        FunctionalId("phi_ell", 2)
    with pytest.raises(ValueError):
        FunctionalId("theta_ell", -1)
