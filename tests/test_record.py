"""The package's value classes and what ``import qhankel`` loads."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qhankel.orthopoly import JFraction
from qhankel.ratcore import Q, Q_ONE
from qhankel.record import FrozenRecord
from qhankel.verification import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"


class Ell(FrozenRecord):
    """A frozen record whose constructor validates, as a value class may."""

    __slots__ = ("kind", "ell")

    def __init__(self, kind: str, ell: int = 0) -> None:
        if ell < 0:
            raise ValueError("ell must be >= 0")
        self._init(kind, ell)


def test_import_loads_neither_dataclasses_nor_inspect():
    # The CLI is left out: click imports inspect itself.
    code = ("import sys, qhankel, qhankel.verification; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_fields_defaults_and_repr():
    assert CheckResult("c", True, 2).detail == ""
    assert Ell("qeuler").ell == 0
    assert repr(Ell("theta", 2)) == "Ell(kind='theta', ell=2)"
    jf = JFraction(Q_ONE, a=len, b=len)
    assert jf.a_list is None and jf.b_list is None


def test_equality_is_by_type_and_fields():
    assert JFraction(Q, len, len) == JFraction(Q, len, len)
    assert JFraction(Q, len, len) != JFraction(Q_ONE, len, len)
    assert CheckResult("c", True, 2) == CheckResult("c", True, 2)
    assert CheckResult("c", True, 2) != CheckResult("c", False, 2)
    assert Ell("c") != CheckResult("c", True, 0)
    assert Ell("qeuler") != ("qeuler", 0)


def test_frozen_records_hash_and_refuse_assignment():
    a, b = Ell("theta", 1), Ell(kind="theta", ell=1)
    assert len({a, b, Ell("xi", 1)}) == 2
    with pytest.raises(AttributeError):
        a.ell = 2
    with pytest.raises(TypeError):
        hash(JFraction(Q, len, len))


def test_copy_and_pickle_keep_the_value():
    for value in (CheckResult("c", False, 3, "why"), Ell("qeuler", 1),
                  JFraction(Q, len, len, [Q], [])):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_validation_still_runs():
    with pytest.raises(ValueError):
        Ell("theta", -1)
    with pytest.raises(ValueError):
        Ell(kind="theta", ell=-1)
