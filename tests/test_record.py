"""The package's value classes and what ``import qhankel`` loads."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qhankel.orthopoly import JFraction
from qhankel.ratcore import Q, Q_ONE
from qhankel.verification import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_module_the_library_does_not_need():
    # Each of these adds set-up time to every process.  ratcore's codec uses
    # struct, not the array extension, and nothing needs numpy.  The CLI is
    # left out: click imports inspect itself.
    code = ("import sys, qhankel, qhankel.verification; "
            "print(sorted({'array', 'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_fields_defaults_and_repr():
    assert CheckResult("c", True, 2).detail == ""
    assert repr(CheckResult("c", True, 2)) == "CheckResult(name='c', passed=True, cases=2, detail='')"
    jf = JFraction(Q_ONE, a=len, b=len)
    assert jf.a_list is None and jf.b_list is None


def test_equality_is_by_fields():
    assert JFraction(Q, len, len) == JFraction(Q, len, len)
    assert JFraction(Q, len, len) != JFraction(Q_ONE, len, len)
    assert CheckResult("c", True, 2) == CheckResult("c", True, 2)
    assert CheckResult("c", True, 2) != CheckResult("c", False, 2)
    # NamedTuples: a value equals the plain tuple of its fields
    assert CheckResult("c", True, 2) == ("c", True, 2, "")


def test_frozen_records_hash_and_refuse_assignment():
    a, b = CheckResult("theta", True, 1), CheckResult(name="theta", passed=True, cases=1)
    assert len({a, b, CheckResult("xi", True, 1)}) == 2
    with pytest.raises(AttributeError):
        a.cases = 2
    jf = JFraction(Q, len, len)
    assert hash(jf) == hash(JFraction(Q, len, len))
    with pytest.raises(AttributeError):
        jf.mu0 = Q_ONE
    with pytest.raises(TypeError):  # the lists of a finite prefix do not hash
        hash(JFraction.from_lists(Q_ONE, [Q], [Q]))


def test_copy_and_pickle_keep_the_value():
    for value in (CheckResult("c", False, 3, "why"), JFraction(Q, len, len, [Q], [])):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
