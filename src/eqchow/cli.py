"""Command-line front end.

Subcommands::

    m01                               ring of the at-most-one-node stack
    quadrics   --n N --k K            reduced-quadric stack rings
    orthogonal --n N --k K            orthogonal-type classifying stack rings
    pushforward --n N --r R           localization pushforward of K^r
    verify-all                        run the whole verification suite

Each takes ``--format text|json|latex`` (default from EQCHOW_FORMAT, else
text), ``--max-degree`` to override the certification horizon (at least the
presentation's maximal generator degree), and ``--out`` to write to a file
instead of stdout.  Exit codes: 0 success, 1 usage error or an unwritable
``--out`` path (checked before computing), 2 a failed check or any other error
(its ``verification_failure`` report is still emitted, never a traceback).

Identical invocations produce byte-identical output, except for the timing
fields of verify-all reports.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import __version__
from .ideal import DegreeBoundTooLow
from .localization import closed_form_pushforward, veronese_pushforward
from .pipeline import VerificationFailure, m01, orthogonal, reduced_quadrics

FORMATS = ("text", "json", "latex")
ENV_FORMAT = "EQCHOW_FORMAT"

# Desk-scale limits; beyond them the quadric bundle grows combinatorially and
# runs stop being interactive, so they need an explicit --force.
MAX_RANK = 6
MAX_TWIST = 5


def run_verify_all() -> dict:
    """The verify-all report.  The claim table and the property suites are
    imported here, on the one command that runs them, so the other commands
    start without loading them."""
    from .verify import run_verify_all as run_claims

    return run_claims()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="eqchow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"eqchow {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None)
    common.add_argument("--max-degree", type=int, default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--force", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("m01", parents=[common])
    p = sub.add_parser("quadrics", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = sub.add_parser("orthogonal", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = sub.add_parser("pushforward", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    sub.add_parser("verify-all", parents=[common])
    return parser


def _validate(args) -> None:
    n = getattr(args, "n", None)
    k = getattr(args, "k", None)
    r = getattr(args, "r", None)
    if n is not None and n < 2:
        raise _UsageError("--n must be at least 2")
    if k is not None and k < 0:
        raise _UsageError("--k must be non-negative")
    if r is not None and not 0 <= r <= (n - 1):
        raise _UsageError("--r must satisfy 0 <= r <= n-1")
    if not args.force:
        if n is not None and n > MAX_RANK:
            raise _UsageError(
                f"--n {n} exceeds the desk-scale limit {MAX_RANK}; pass --force"
            )
        if k is not None and k > MAX_TWIST:
            raise _UsageError(
                f"--k {k} exceeds the desk-scale limit {MAX_TWIST}; pass --force"
            )


def _latex_document(body: str) -> str:
    return "\n".join(
        [
            "\\documentclass{article}",
            "\\usepackage{amsmath,amssymb}",
            "\\begin{document}",
            body,
            "\\end{document}",
            "",
        ]
    )


def _render_presentation(pres, command: str, params: dict, fmt: str) -> str:
    if fmt == "text":
        lines = [pres.to_text()]
        if pres.simplified is not None and tuple(pres.simplified) != tuple(
            pres.relations.generators
        ):
            simplified = ", ".join(g.to_text() for g in pres.simplified)
            lines.append(f"simplified generators: ({simplified})")
        lines.append(f"certified up to degree {pres.max_degree}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = {
            "command": command,
            "parameters": params,
            "presentation": pres.to_json_obj(),
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return _latex_document("\\[\n" + pres.to_latex() + "\n\\]")


def _render_polynomial(poly, command: str, params: dict, fmt: str) -> str:
    if fmt == "text":
        return poly.to_text() + "\n"
    if fmt == "json":
        obj = {
            "command": command,
            "parameters": params,
            "polynomial": poly.to_text(),
            "terms": poly.to_json_obj(),
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return _latex_document("\\[\n" + poly.to_latex() + "\n\\]")


def _render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "latex":
        items = [
            f"\\item \\texttt{{{c['name']}}}: {c['status']}"
            for c in report["checks"]
        ]
        body = "\n".join(
            ["\\begin{itemize}"] + items + ["\\end{itemize}"]
        )
        return _latex_document(body)
    lines = [
        f"verify-all: {'PASS' if report['all_passed'] else 'FAIL'}"
        f" ({len(report['checks'])} checks)"
    ]
    for c in report["checks"]:
        extras = []
        if c.get("degree_bound") is not None:
            extras.append(f"D={c['degree_bound']}")
        if c.get("cases") is not None:
            extras.append(f"cases={c['cases']}")
        extras.append(f"{c['seconds']:.2f}s")
        lines.append(f"{c['status'].upper():<5} {c['name']:<42} {' '.join(extras)}")
    return "\n".join(lines) + "\n"


def _render_failure(exc: VerificationFailure, fmt: str) -> str:
    if fmt == "json":
        return (
            json.dumps(
                {"verification_failure": exc.report}, indent=2, sort_keys=True
            )
            + "\n"
        )
    return f"verification failure: {exc}\n{json.dumps(exc.report, sort_keys=True)}\n"


def _usage_error(message: str) -> int:
    sys.stderr.write(f"eqchow: error: {message}\n")
    sys.stderr.write(
        "usage: eqchow {m01 | quadrics --n N --k K | orthogonal --n N --k K"
        " | pushforward --n N --r R | verify-all}"
        " [--format text|json|latex] [--max-degree D] [--out PATH] [--force]\n"
    )
    return 1


def _cannot_write(path: str, reason: str) -> int:
    sys.stderr.write(f"eqchow: error: cannot write {path}: {reason}\n")
    return 1


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot be written, found without creating it, or None.
    Checked before any computation, so a long run cannot end unwritten."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return None
    return os.strerror(code)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
    except _UsageError as exc:
        return _usage_error(str(exc))
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    fmt = args.format or os.environ.get(ENV_FORMAT, "text")
    if fmt not in FORMATS:
        sys.stderr.write(f"eqchow: error: unknown format {fmt!r} from {ENV_FORMAT}\n")
        return 1
    reason = args.out and _unwritable(args.out)
    if reason:
        return _cannot_write(args.out, reason)

    code = 0
    try:
        if args.command == "m01":
            pres = m01(max_degree=args.max_degree)
            text = _render_presentation(pres, "m01", {}, fmt)
        elif args.command == "quadrics":
            pres = reduced_quadrics(args.n, args.k, max_degree=args.max_degree)
            params = {"n": args.n, "k": args.k}
            text = _render_presentation(pres, "quadrics", params, fmt)
        elif args.command == "orthogonal":
            pres = orthogonal(args.n, args.k, max_degree=args.max_degree)
            params = {"n": args.n, "k": args.k}
            text = _render_presentation(pres, "orthogonal", params, fmt)
        elif args.command == "pushforward":
            poly = veronese_pushforward(args.n, args.r)
            if poly != closed_form_pushforward(args.n, args.r):
                raise VerificationFailure(
                    "localization and interpolation disagree",
                    {"n": args.n, "r": args.r},
                )
            params = {"n": args.n, "r": args.r}
            text = _render_polynomial(poly, "pushforward", params, fmt)
        else:  # verify-all
            report = run_verify_all()
            text = _render_report(report, fmt)
            code = 0 if report["all_passed"] else 2
    except DegreeBoundTooLow as exc:
        return _usage_error(f"--max-degree: {exc}")
    except VerificationFailure as exc:
        text, code = _render_failure(exc, fmt), 2
    except Exception as exc:  # a bug, not a usage error: reported as a failed check
        from traceback import format_exc  # only on failure, so start-up skips it

        error = f"{type(exc).__name__}: {exc}"
        report = {"name": "unexpected-error", "error": error, "traceback": format_exc()}
        text, code = _render_failure(VerificationFailure(error, report), fmt), 2
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _cannot_write(args.out, exc.strerror)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
