"""Test support: a command line runner and an orthopoly cache reset."""

from __future__ import annotations

import contextlib
import io
import os
import traceback
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

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


def invoke(argv: Sequence[str], env: Optional[Dict[str, Optional[str]]] = None) -> Result:
    """Run ``main(argv)`` in this process with both streams captured.

    ``env`` sets variables for the call (None unsets one); the environment
    is restored afterwards.  An uncaught exception counts as exit 1 with its
    traceback on standard error, as in a process of its own."""
    saved = {name: os.environ.get(name) for name in env or {}}
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        _set_env(env or {})
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    finally:
        _set_env(saved)
    return Result(code, out.getvalue(), err.getvalue())


def _set_env(values: Dict[str, Optional[str]]) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


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
