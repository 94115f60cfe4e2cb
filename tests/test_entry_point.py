"""The installed entry point, run as ``python -m qhankel.cli`` in a fresh
interpreter: exit codes, help, and what importing the CLI loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(*args, code=None):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, *(("-c", code) if code else ("-m", "qhankel.cli", *args))]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("args, exit_code", [
    (["det", "--id", "qeuler", "--n", "2"], 0),
    (["det", "--id", "qeuler", "--shift", "3", "--n", "1"], 2),
    (["verify", "-f", "latex"], 2),
    (["--help"], 0),
    (["det", "--help"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else f"exit{v}")
def test_exit_codes(args, exit_code):
    assert _run(*args).returncode == exit_code


def test_computation_error_is_exit_1_and_one_line_on_stderr():
    # beta_1 = -1/(1+q) has a pole at q = -1
    out = _run("seq", "--id", "qbernoulli", "--max-n", "1", "--at-q", "-1")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("Error: pole at q=-1: ")


def test_negative_fraction_is_the_value_of_at_q():
    # argparse alone would read -1/3 as an option and ask --at-q for a value
    out = _run("det", "--id", "qeuler", "--n", "1", "--method", "closedform", "--at-q", "-1/3")
    assert out.returncode == 0
    assert out.stdout.strip().endswith("= 243/1300")


def test_cli_import_loads_only_the_standard_library_and_qhankel():
    # The "before" set is taken first: site may already have loaded packages.
    code = ("import sys; before = set(sys.modules); import qhankel.cli; "
            "print('\\n'.join(sorted(set(sys.modules) - before)))")
    out = _run(code=code)
    assert out.returncode == 0, out.stderr
    new = out.stdout.split()
    assert "qhankel.cli" in new
    assert [m for m in new if m.split(".")[0] not in sys.stdlib_module_names
            and m.split(".")[0] != "qhankel"] == []
