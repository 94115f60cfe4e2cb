"""Byte-for-byte CLI output on a fixed set of commands.

``tests/golden/cli.json`` maps each command line to its exit code and
standard output.  After an intended change of output, rewrite it with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import json
from pathlib import Path

import pytest

from support import invoke

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
FORMATS = ("json", "text", "latex")
AT_Q = ([], ["--at-q", "1/3"])


def _cases():
    cases = []
    seqs = [["--id", "qeuler"], ["--id", "qbernoulli"],
            ["--id", "theta", "--ell", "1"], ["--id", "xi", "--ell", "2"]]
    for spec in seqs:
        for fmt in FORMATS:
            for at in AT_Q:
                cases.append(["seq", *spec, "--max-n", "4", "-f", fmt, *at])
    for family in ("p", "monic", "j"):
        for fmt in FORMATS:
            for at in AT_Q:
                cases.append(["poly", "--family", family, "--ell", "1", "--n", "3",
                              "-f", fmt, *at])
    dets = [["--id", "qeuler", "--shift", "0"], ["--id", "qeuler", "--shift", "1"],
            ["--id", "qeuler", "--shift", "2"], ["--id", "qbernoulli"],
            ["--id", "theta", "--ell", "1"], ["--id", "xi", "--ell", "1"]]
    for spec in dets:
        for n in range(4):
            cases.append(["det", *spec, "--n", str(n), "--method", "all", "-f", "json"])
        for fmt in ("text", "latex"):
            cases.append(["det", *spec, "--n", "3", "--method", "all", "-f", fmt])
        cases.append(["det", *spec, "--n", "2", "-f", "json", "--at-q", "1/3"])
    for at in AT_Q:
        cases.append(["det", "--id", "qeuler", "--shift", "1", "--n", "3",
                      "--method", "heilermann", "-f", "json", *at])
    cases.append(["det", "--id", "theta", "--ell", "2", "--n", "2",
                  "--method", "closedform", "-f", "text"])
    for seq_id in ("qeuler", "theta", "xi"):
        for fmt in FORMATS:
            cases.append(["jfrac", "--id", seq_id, "--ell", "1", "--depth", "3",
                          "--expand", "4", "-f", fmt])
    for seq_id, ell in (("qeuler", "0"), ("theta", "2"), ("xi", "0")):
        cases.append(["jfrac", "--id", seq_id, "--ell", ell, "--depth", "6",
                      "--expand", "13", "-f", "json"])
    closed = [["--id", "qeuler", "--shift", "0"], ["--id", "qeuler", "--shift", "1"]]
    closed += [["--id", "xi", "--ell", str(ell)] for ell in range(4)]
    for spec in closed:
        cases.append(["det", *spec, "--n", "6", "--method", "closedform", "-f", "json"])
    cases.append(["det", "--id", "qeuler", "--shift", "2", "--n", "5",
                  "--method", "heilermann", "-f", "json"])
    # The brute-force route at a size where the row updates run on packed values.
    for spec in (["--id", "qeuler", "--shift", "0"], ["--id", "qbernoulli"]):
        cases.append(["det", *spec, "--n", "7", "--method", "bruteforce", "-f", "json"])
    for fmt in ("json", "text"):
        cases.append(["verify", "--max-n", "2", "-f", fmt])
    # The full battery at its default size.
    cases.append(["verify", "--max-n", "5", "-f", "json"])
    cases.append(["det", "--id", "qbernoulli", "--n", "2", "--method", "heilermann"])
    cases.append(["det", "--id", "theta", "--shift", "1", "--n", "2"])
    # A shift past the rows of ROUTES is a usage error, not a range error.
    cases.append(["det", "--id", "qeuler", "--shift", "3", "--n", "1"])
    # Usage errors the sequence table must keep: no J-fraction for qbernoulli,
    # the eps J-fraction only at ell 0 and 1, and --ell only for theta and xi.
    cases.append(["jfrac", "--id", "qbernoulli", "--depth", "2"])
    cases.append(["jfrac", "--id", "qeuler", "--ell", "2", "--depth", "2"])
    cases.append(["seq", "--id", "qeuler", "--ell", "1", "--max-n", "2"])
    return cases


CASES = _cases()


def _run(argv):
    result = invoke(argv, env={"QHANKEL_FORMAT": None})
    return {"exit_code": result.exit_code, "stdout": result.stdout}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_unchanged(golden, argv):
    assert _run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    out = {" ".join(argv): _run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
