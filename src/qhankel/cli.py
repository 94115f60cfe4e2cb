"""Command line front end: sequences, polynomials, determinants, J-fractions,
and the named verification suite.

Output contract
---------------
* ``--format`` picks json, text, or latex (``verify`` has no latex form and
  rejects it); the QHANKEL_FORMAT environment variable overrides the default
  (text) when the flag is absent, and a value the command lacks means text.
* JSON output is byte-deterministic: sorted keys, fixed separators, canonical
  value encoding from :func:`qhankel.ratcore.json_object`, which
  :func:`qhankel.ratcore.serialize` writes.
* Exit codes: 0 success, 1 computation error, 2 invalid flags, 3 an identity
  that should hold failed to.

Parsing
-------
The front end is the standard library's ``argparse``: one parser with one
subparser per command, built once at import, with choices read from
``SEQUENCES``, ``ROUTES`` and the format tables.  Every nonzero exit raises
``SystemExit(code)``, and success returns.  :func:`main` keeps the
``standalone_mode`` keyword of the click front end it replaced, so callers
written against that signature (the benchmark worker calls
``main(argv, standalone_mode=False)``) keep working; it changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .functionals import SEQUENCES, jfraction_for, moments_for
from .hankel import ROUTES, hankel_product, jfraction_expand
from .orthopoly import build_j_via_phi2, build_jtilde_via_phi2, build_p_via_phi2
from .ratcore import PoleError, RatFuncQ, int_to_decimal, json_object, poly_text
from .verification import available_checks, run_checks

_FORMATS = ("json", "text", "latex")
_VERIFY_FORMATS = ("json", "text")
# The sequences whose ell is the functional's parameter take --ell; for the
# others ell shifts the sequence, which det spells --shift.
_ELL_IDS = ("theta", "xi")
# The choices come from functionals.SEQUENCES and hankel.ROUTES, so a new
# sequence, J-fraction or route needs no edit here.
_SEQ_IDS = list(SEQUENCES)
_JFRAC_IDS = [seq for seq, entry in SEQUENCES.items() if entry.coeffs is not None]
_DET_METHODS = list(dict.fromkeys(m for routes in ROUTES.values() for m in routes)) + ["all"]

_SEQ_SYMBOLS = {
    "qeuler": r"\varepsilon",
    "qbernoulli": r"\beta",
    "theta": r"\Theta",
    "xi": r"\Xi",
}


def _pick_format(fmt: Optional[str], allowed: Tuple[str, ...] = _FORMATS) -> str:
    if fmt is not None:
        return fmt
    env = os.environ.get("QHANKEL_FORMAT", "").strip().lower()
    return env if env in allowed else "text"


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _usage(f"Invalid value for '--out': cannot write {out!r}: {exc.strerror or exc}")


def _usage(message: str) -> argparse.ArgumentError:
    """A usage error found after parsing; :func:`main` reports it as exit 2."""
    return argparse.ArgumentError(None, message)


def _rational(raw: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"needs an exact rational, got {raw!r}")


def _at_least(low: int) -> Callable[[str], int]:
    """An int option no smaller than ``low``."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}.")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


Scalar = Union[RatFuncQ, Fraction]  # a Fraction is a value at a rational q


def _at(v: RatFuncQ, point: Optional[Fraction]) -> Scalar:
    return v if point is None else v.eval_at(point)


def _json_value(v: Scalar) -> object:
    return _render(v, False) if isinstance(v, Fraction) else json_object(v)


def _render(v: Scalar, latex: bool) -> str:
    if isinstance(v, Fraction):
        sign = "-" if v < 0 else ""
        num, den = int_to_decimal(abs(v.numerator)), int_to_decimal(v.denominator)
        if den == "1":
            return sign + num
        return rf"{sign}\frac{{{num}}}{{{den}}}" if latex else f"{sign}{num}/{den}"
    if not latex:
        return str(v)
    num = poly_text(v.num, latex=True)
    if v.den.coeffs == (1,):
        return num
    return rf"\frac{{{num}}}{{{poly_text(v.den, latex=True)}}}"


def _render_zpoly(coeffs: Sequence[Scalar], latex: bool) -> str:
    """sum_k coeffs[k] z^k, skipping zero terms."""
    pieces = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            pieces.append(_render(c, latex))
            continue
        z = "z" if k == 1 else (f"z^{{{k}}}" if latex else f"z^{k}")
        if c == 1:
            pieces.append(z)
        elif latex:
            pieces.append(rf"\left({_render(c, latex)}\right){z}")
        else:
            pieces.append(f"({_render(c, latex)})*{z}")
    return " + ".join(pieces) or "0"


def _check_ell(seq_id: str, ell: Optional[int]) -> int:
    """Validate --ell for ``seq_id``; the value the route table gets."""
    if ell is None:
        return 0
    if seq_id not in _ELL_IDS:
        raise _usage(f"--ell does not apply to --id {seq_id}")
    if ell < 0:
        raise _usage("--ell must be >= 0")
    return ell


@contextmanager
def _computing(point: Optional[Fraction] = None) -> Iterator[None]:
    """Report an error of the computation inside as exit 1, one line."""
    try:
        yield
    except (PoleError, ValueError, ArithmeticError, OverflowError) as exc:
        # a PoleError is raised only by evaluation at ``point``
        where = f"pole at q={point}: " if isinstance(exc, PoleError) else ""
        print(f"Error: {where}{exc}", file=sys.stderr)
        raise SystemExit(1)


def cmd_seq(seq_id, ell, max_n, fmt, point, out) -> None:
    """Print sequence values 0..MAX_N."""
    fmt = _pick_format(fmt)
    ell_value = _check_ell(seq_id, ell)
    moment = moments_for(seq_id, ell_value)
    label = f"{seq_id}_ell({ell_value})" if seq_id in _ELL_IDS else seq_id
    with _computing(point):
        values = [_at(moment(n), point) for n in range(max_n + 1)]

    if fmt == "json":
        payload: Dict[str, object] = {"id": label, "max_n": max_n}
        if point is not None:
            payload["at_q"] = str(point)
        payload["values"] = [_json_value(v) for v in values]
        _emit(_dumps(payload), out)
    elif fmt == "latex":
        sym = _SEQ_SYMBOLS[seq_id]
        sup = "" if ell is None else rf"^{{({ell})}}"
        _emit(
            ",\\quad ".join(
                rf"{sym}{sup}_{{{n}}} = {_render(v, True)}" for n, v in enumerate(values)
            ),
            out,
        )
    else:
        _emit("\n".join(f"{label}[{n}] = {_render(v, False)}" for n, v in enumerate(values)), out)


def cmd_poly(family, ell, n, fmt, point, out) -> None:
    """Print one orthogonal-family polynomial in z."""
    fmt = _pick_format(fmt)
    builders = {"p": build_p_via_phi2, "monic": build_jtilde_via_phi2, "j": build_j_via_phi2}
    with _computing(point):
        coeffs = [_at(c, point) for c in builders[family](ell, n).coeffs]

    if fmt == "json":
        payload: Dict[str, object] = {"family": family, "ell": ell, "n": n}
        if point is not None:
            payload["at_q"] = str(point)
        payload["coeffs"] = [_json_value(c) for c in coeffs]
        _emit(_dumps(payload), out)
    else:
        _emit(_render_zpoly(coeffs, fmt == "latex"), out)


def cmd_det(seq_id, ell, shift, n, method, fmt, point, out) -> None:
    """Hankel determinant of a moment sequence, by one or every method."""
    fmt = _pick_format(fmt)
    ell_value = _check_ell(seq_id, ell)
    routes = ROUTES.get((seq_id, shift))
    if routes is None:
        raise _usage(f"--shift {shift} is not available for --id {seq_id}")
    if method != "all" and method not in routes:
        raise _usage(f"no {method} route is wired up for --id {seq_id}")
    wanted = routes if method == "all" else {method: routes[method]}

    with _computing(point):
        lists = {m: tuple(fn(ell_value, n)) for m, fn in sorted(wanted.items())}
        products = {ds: _at(hankel_product(ds), point) for ds in set(lists.values())}
        shown = {m: products[ds] for m, ds in lists.items()}

    label = seq_id if ell is None else f"{seq_id}({ell})"
    agree = len(products) == 1
    if fmt == "json":
        payload: Dict[str, object] = {"seq": label, "shift": shift, "n": n}
        # one object per distinct value, shared by the routes that agree
        rendered = {ds: _json_value(v) for ds, v in products.items()}
        if method == "all":
            payload["results"] = {m: rendered[ds] for m, ds in lists.items()}
            payload["equal"] = agree
        else:
            payload["method"] = method
            payload["value"] = rendered[lists[method]]
        if point is not None:
            payload["at_q"] = str(point)
        _emit(_dumps(payload), out)
    elif fmt == "latex":
        body = _render(next(iter(shown.values())), True)
        _emit(rf"\det H^{{({shift})}}_{{{n}}} = {body}", out)
    else:
        lines = [
            f"{label} shift={shift} n={n} {m} = {_render(v, False)}" for m, v in shown.items()
        ]
        if method == "all":
            lines.append("agree" if agree else "MISMATCH")
        _emit("\n".join(lines), out)

    if method == "all" and not agree:
        print("determinant methods disagree", file=sys.stderr)
        sys.exit(3)


def cmd_jfrac(seq_id, ell, depth, order, fmt, out) -> None:
    """Continued-fraction data (mu0, a_n, b_n) and optional series expansion."""
    fmt = _pick_format(fmt)
    if depth is None and order is None:
        raise _usage("need --depth and/or --expand")
    try:  # the J-fraction reads a(n), b(n) only when asked, so this checks ell alone
        jf = jfraction_for(seq_id, ell)
    except ValueError as exc:
        raise _usage(f"--id {seq_id} --ell {ell}: {exc}")

    with _computing():
        a_vals = [] if depth is None else [jf.a(k) for k in range(depth)]
        b_vals = [] if depth is None else [jf.b(k) for k in range(1, depth)]
        expansion = None if order is None else jfraction_expand(jf, order)

    label = f"{seq_id}({ell})"
    if fmt == "json":
        payload: Dict[str, object] = {"id": label, "mu0": _json_value(jf.mu0)}
        if depth is not None:
            payload["a"] = [_json_value(v) for v in a_vals]
            payload["b"] = [_json_value(v) for v in b_vals]
        if expansion is not None:
            payload["expansion"] = [_json_value(v) for v in expansion]
        _emit(_dumps(payload), out)
    elif fmt == "latex":
        parts = [rf"\mu_0 = {_render(jf.mu0, True)}"]
        parts += [rf"a_{{{k}}} = {_render(v, True)}" for k, v in enumerate(a_vals)]
        parts += [rf"b_{{{k + 1}}} = {_render(v, True)}" for k, v in enumerate(b_vals)]
        if expansion is not None:
            parts += [rf"\mu_{{{k}}} = {_render(v, True)}" for k, v in enumerate(expansion)]
        _emit(",\\quad ".join(parts), out)
    else:
        lines = [f"{label} mu0 = {jf.mu0}"]
        lines += [f"a[{k}] = {v}" for k, v in enumerate(a_vals)]
        lines += [f"b[{k + 1}] = {v}" for k, v in enumerate(b_vals)]
        if expansion is not None:
            lines += [f"series[{k}] = {v}" for k, v in enumerate(expansion)]
        _emit("\n".join(lines), out)


def cmd_verify(max_n, only, fmt, out) -> None:
    """Run the named identity checks and report pass/fail per check."""
    fmt = _pick_format(fmt, _VERIFY_FORMATS)
    if only is not None and not any(n.startswith(only) for n in available_checks()):
        raise _usage(
            f"--only {only!r} matches no checks; known: {', '.join(available_checks())}"
        )
    results = run_checks(max_n, only)
    all_passed = all(r.passed for r in results)

    if fmt == "json":
        payload = {
            "max_n": max_n,
            "only": only,
            "all_passed": all_passed,
            "checks": [r._asdict() for r in results],
        }
        _emit(_dumps(payload), out)
    else:
        lines = []
        for r in results:
            if r.passed:
                lines.append(f"PASS {r.name} ({r.cases} cases)")
            else:
                lines.append(f"FAIL {r.name}: {r.detail}")
        passed = sum(1 for r in results if r.passed)
        lines.append(f"{passed}/{len(results)} checks passed (max_n={max_n})")
        _emit("\n".join(lines), out)

    if not all_passed:
        sys.exit(3)


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The parser and its subparser per command.  No abbreviations: click
    took ``--max-n`` only in full."""
    parser = argparse.ArgumentParser(
        prog="qhankel",
        description="Exact Hankel determinant toolkit for Carlitz q-sequences.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    subparsers: Dict[str, argparse.ArgumentParser] = {}

    def command(name: str, handler: Callable[..., None]) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=handler.__doc__, description=handler.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(handler=handler)
        subparsers[name] = sub
        return sub

    def output(sub: argparse.ArgumentParser, formats=_FORMATS, at_q: Optional[str] = None) -> None:
        sub.add_argument("--format", "-f", dest="fmt", choices=formats, default=None)
        if at_q is not None:
            sub.add_argument("--at-q", dest="point", type=_rational, default=None,
                             metavar="RATIONAL", help=at_q)
        sub.add_argument("--out", default=None, metavar="FILE")

    sub = command("seq", cmd_seq)
    sub.add_argument("--id", dest="seq_id", choices=_SEQ_IDS, required=True,
                     help="Which moment sequence to print.")
    sub.add_argument("--ell", type=int, default=None, help="Shift parameter for theta/xi.")
    sub.add_argument("--max-n", type=_at_least(0), required=True)
    output(sub, at_q="Evaluate at an exact rational q.")

    sub = command("poly", cmd_poly)
    sub.add_argument("--family", choices=["p", "monic", "j"], required=True,
                     help="p: affine-normalized family; monic: monic big q-Jacobi; j: series form.")
    sub.add_argument("--ell", type=_at_least(0), default=0)
    sub.add_argument("--n", type=_at_least(0), required=True)
    output(sub, at_q="Evaluate coefficients at q.")

    sub = command("det", cmd_det)
    sub.add_argument("--id", dest="seq_id", choices=_SEQ_IDS, required=True)
    sub.add_argument("--ell", type=int, default=None, help="Shift parameter for theta/xi.")
    sub.add_argument("--shift", type=_at_least(0), default=0)
    sub.add_argument("--n", type=_at_least(0), required=True)
    sub.add_argument("--method", choices=_DET_METHODS, default="all")
    output(sub, at_q="Evaluate the result at q.")

    sub = command("jfrac", cmd_jfrac)
    sub.add_argument("--id", dest="seq_id", choices=_JFRAC_IDS, required=True)
    sub.add_argument("--ell", type=_at_least(0), default=0)
    sub.add_argument("--depth", type=_at_least(1), default=None,
                     help="How many a/b coefficients to print.")
    sub.add_argument("--expand", dest="order", type=_at_least(0), default=None,
                     help="Also expand the series to this order.")
    output(sub)

    sub = command("verify", cmd_verify)
    sub.add_argument("--max-n", type=_at_least(0), default=5)
    sub.add_argument("--only", default=None,
                     help="Run only checks whose name starts with this prefix.")
    output(sub, formats=_VERIFY_FORMATS)
    return parser, subparsers


# Built once: a det call pays only for parse_args.
_PARSER, _COMMANDS = _build_parser()


def _glue_at_q(argv: Sequence[str]) -> List[str]:
    """``--at-q VALUE`` as ``--at-q=VALUE``.  argparse reads a next word such
    as ``-1/3`` as an option unless it looks like a plain negative number."""
    out: List[str] = []
    words = iter(argv)
    for word in words:
        if word == "--at-q":
            value = next(words, None)
            if value is not None:
                word = f"--at-q={value}"
        out.append(word)
    return out


def main(argv: Optional[Sequence[str]] = None, standalone_mode: bool = True) -> None:
    """Run one command line (``sys.argv[1:]`` by default).  Success returns;
    every nonzero exit raises ``SystemExit(code)``, whatever
    ``standalone_mode`` says (see the module docstring)."""
    args = vars(_PARSER.parse_args(_glue_at_q(sys.argv[1:] if argv is None else argv)))
    command, handler = args.pop("command"), args.pop("handler")
    try:
        handler(**args)
    except argparse.ArgumentError as exc:
        _COMMANDS[command].error(str(exc))


if __name__ == "__main__":
    main()
