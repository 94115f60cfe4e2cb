"""Test support: a command line runner and an orthopoly cache reset."""

from __future__ import annotations

import contextlib
import io
import traceback
from typing import Iterator, List, NamedTuple, Sequence

from qhankel import orthopoly
from qhankel.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """Standard output, then standard error."""
        return self.stdout + self.stderr


def invoke(argv: Sequence[str]) -> Result:
    """Run ``main(argv)`` in this process with both streams captured.  An
    uncaught exception counts as exit 1 with its traceback on standard
    error, as in a process of its own."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    return Result(code, out.getvalue(), err.getvalue())


def orthopoly_caches() -> List:
    """Every cached function defined in orthopoly, found by introspection."""
    return [f for f in vars(orthopoly).values()
            if hasattr(f, "cache_clear") and getattr(f, "__module__", None) == orthopoly.__name__]


@contextlib.contextmanager
def fresh_orthopoly_caches() -> Iterator[List]:
    """Clear every orthopoly cache on entry and on exit, so a test double of
    ``coeffs_monic`` installed inside reaches every cached reader and leaves
    no stale entry behind."""
    caches = orthopoly_caches()
    for f in caches:
        f.cache_clear()
    try:
        yield caches
    finally:
        for f in caches:
            f.cache_clear()
