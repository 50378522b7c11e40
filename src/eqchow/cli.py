"""Command-line front end.

    eqchow m01                        ring of the at-most-one-node stack
    eqchow quadrics   --n N --k K     reduced-quadric stack rings
    eqchow orthogonal --n N --k K     orthogonal-type classifying stack rings
    eqchow pushforward --n N --r R    localization pushforward of K^r
    eqchow verify-all                 run the whole verification suite

Every command takes --format text|json|latex (default from EQCHOW_FORMAT, else
text), --max-degree D to override the certification horizon (at least the
presentation's maximal generator degree), --out PATH to write to a file, and
--force to pass the desk-scale limits n <= 6 and k <= 5.  Options are spelled
--name VALUE, --name=VALUE or by a unique prefix (--max 9, --o PATH); the last
repeat wins.  -h or --help anywhere prints this text, and --version first the
version.  Exit codes: 0 success, 1 usage error or an unwritable --out path
(checked before computing), 2 a failed check or any other error (its
verification_failure report is still emitted, never a traceback).  Identical
invocations give byte-identical output, except verify-all's timing fields.
"""

from __future__ import annotations

import errno
import json
import os
import re
import sys

from . import __version__
from .ideal import DegreeBoundTooLow
from .localization import closed_form_pushforward, veronese_pushforward
from .pipeline import RingPresentation, VerificationFailure
from .pipeline import m01, orthogonal, reduced_quadrics

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


def _pushforward(n: int, r: int):
    """K^r pushed forward by localization, checked against interpolation."""
    poly = veronese_pushforward(n, r)
    if poly != closed_form_pushforward(n, r):
        raise VerificationFailure(
            "localization and interpolation disagree", {"n": n, "r": r}
        )
    return poly


# The grammar.  Each command maps to the integer options it requires and to its
# call on their values and --max-degree, which looks the pipeline up at run time.
COMMANDS = {
    "m01": ((), lambda p, d: m01(max_degree=d)),
    "quadrics": (("n", "k"), lambda p, d: reduced_quadrics(**p, max_degree=d)),
    "orthogonal": (("n", "k"), lambda p, d: orthogonal(**p, max_degree=d)),
    "pushforward": (("n", "r"), lambda p, d: _pushforward(**p)),
    "verify-all": ((), lambda p, d: run_verify_all()),
}
# The options every command takes: the usage line's placeholder and the reader
# of the value (KeyError or ValueError on a bad one); the flag --force has none.
COMMON = {
    "format": ("|".join(FORMATS), {f: f for f in FORMATS}.__getitem__),
    "max-degree": ("D", int),
    "out": ("PATH", str),
    "force": (None, None),
}
# Each integer option's least value and the desk-scale limit above which it
# needs --force (None: none).  --r is also at most n - 1.
BOUNDS = {"n": (2, MAX_RANK), "k": (0, MAX_TWIST), "r": (0, None)}
LATEX_DOCUMENT = (
    "\\documentclass{article}\n\\usepackage{amsmath,amssymb}\n"
    "\\begin{document}\n%s\n\\end{document}\n"
)
USAGE = "usage: eqchow {%s} %s\n" % (
    " | ".join(
        " ".join([c, *(f"--{o} {o.upper()}" for o in ints)])
        for c, (ints, _) in COMMANDS.items()
    ),
    " ".join(f"[--{o} {m}]" if m else f"[--{o}]" for o, (m, _) in COMMON.items()),
)
# What argparse reads as a value after --name when it names no option: a token
# not led by "-", or "-", a negative number or a token with a space.
_VALUE = re.compile(r"(?!-)|-(\d+|\d*\.\d+)?\Z|.* ", re.DOTALL)


class _UsageError(Exception):
    """A command line that the grammar or a range check rejects: exit code 1."""


def _option(token: str, names) -> str | None:
    """The option a ``--name`` or ``--name=VALUE`` token names in full or by a
    unique prefix, or None; _UsageError if the prefix is ambiguous."""
    name = token[2:].partition("=")[0] if token.startswith("--") else None
    if name is None or name in names:
        return name
    matches = [o for o in names if o.startswith(name)]
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: --{name} could match {matches}")
    return matches[0] if matches else None


def _parse(argv: list[str]) -> dict:
    """The command ("--help" and "--version" included) and option values of
    argv, by name; _UsageError for what the grammar or a range check rejects."""
    if argv[:1] and len(argv[0]) > 2 and "--version".startswith(argv[0]):
        return {"command": "--version"}
    if any(t == "-h" or len(t) > 2 and "--help".startswith(t) for t in argv):
        return {"command": "--help"}
    if not argv or argv[0] not in COMMANDS:
        raise _UsageError(f"unknown command {argv[0]!r}" if argv else "no command")
    ints = COMMANDS[argv[0]][0]
    readers = {**dict.fromkeys(ints, int), **{o: r for o, (_, r) in COMMON.items()}}
    values = {**dict.fromkeys(readers), "command": argv[0], "force": False}
    tokens = iter(argv[1:])
    for token in tokens:
        name, (_, eq, text) = _option(token, readers), token.partition("=")
        if name is None or eq and not readers[name]:
            raise _UsageError(f"unrecognized arguments: {token}")
        if readers[name] and not eq:
            text = next(tokens, None)
            if text is None or _option(text, readers) or not _VALUE.match(text):
                raise _UsageError(f"--{name} expects a value")
        try:
            values[name] = readers[name](text) if readers[name] else True
        except (KeyError, ValueError):
            raise _UsageError(f"--{name}: invalid value {text!r}") from None
    for o in ints:
        (least, limit), value = BOUNDS[o], values[o]
        if value is None:
            raise _UsageError(f"--{o} is required")
        if value < least:
            raise _UsageError(f"--{o} must be at least {least}")
        if o == "r" and value >= values["n"]:
            raise _UsageError("--r must be at most n-1")
        if limit is not None and value > limit and not values["force"]:
            raise _UsageError(
                f"--{o} {value} exceeds the desk-scale limit {limit}; pass --force"
            )
    return values


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _render(result, command: str, params: dict, fmt: str) -> str:
    """The text, JSON envelope or LaTeX document of a ring presentation or,
    for pushforward, a polynomial."""
    if fmt == "latex":
        return LATEX_DOCUMENT % ("\\[\n" + result.to_latex() + "\n\\]")
    is_ring = isinstance(result, RingPresentation)
    if fmt == "json":
        fields = (
            {"presentation": result.to_json_obj()} if is_ring
            else {"polynomial": result.to_text(), "terms": result.to_json_obj()}
        )
        return _json({"command": command, "parameters": params, **fields})
    lines = [result.to_text()]
    if is_ring:
        if result.simplified not in (None, result.relations.generators):
            simplified = ", ".join(g.to_text() for g in result.simplified)
            lines.append(f"simplified generators: ({simplified})")
        lines.append(f"certified up to degree {result.max_degree}")
    return "\n".join(lines) + "\n"


def _render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(report)
    checks = report["checks"]
    if fmt == "latex":
        items = [f"\\item \\texttt{{{c['name']}}}: {c['status']}" for c in checks]
        body = "\n".join(["\\begin{itemize}", *items, "\\end{itemize}"])
        return LATEX_DOCUMENT % body
    verdict = "PASS" if report["all_passed"] else "FAIL"
    lines = [f"verify-all: {verdict} ({len(checks)} checks)"]
    for c in checks:
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
        return _json({"verification_failure": exc.report})
    return f"verification failure: {exc}\n{json.dumps(exc.report, sort_keys=True)}\n"


def _error(message: str, usage: str = USAGE) -> int:
    sys.stderr.write(f"eqchow: error: {message}\n{usage}")
    return 1


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot be written, found without creating it, or None.
    Checked before any computation, so a long run cannot end unwritten."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if not path or not os.path.exists(parent):
        return os.strerror(errno.ENOENT)
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def run(argv=None) -> int:
    try:
        values = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        return _error(str(exc))
    command = values["command"]
    if command in ("--help", "--version"):
        sys.stdout.write(__doc__ if command == "--help" else f"eqchow {__version__}\n")
        return 0

    fmt = values["format"] or os.environ.get(ENV_FORMAT, "text")
    if fmt not in FORMATS:
        return _error(f"unknown format {fmt!r} from {ENV_FORMAT}", "")
    out = values["out"]
    reason = out is not None and _unwritable(out)
    if reason:
        return _error(f"cannot write {out}: {reason}", "")

    ints, call = COMMANDS[command]
    params = {o: values[o] for o in ints}
    try:
        result = call(params, values["max-degree"])
        if command == "verify-all":
            text, code = _render_report(result, fmt), 0 if result["all_passed"] else 2
        else:
            text, code = _render(result, command, params, fmt), 0
    except DegreeBoundTooLow as exc:
        return _error(f"--max-degree: {exc}")
    except VerificationFailure as exc:
        text, code = _render_failure(exc, fmt), 2
    except Exception as exc:  # a bug, not a usage error: reported as a failed check
        from traceback import format_exc  # only on failure, so start-up skips it

        error = f"{type(exc).__name__}: {exc}"
        report = {"name": "unexpected-error", "error": error, "traceback": format_exc()}
        text, code = _render_failure(VerificationFailure(error, report), fmt), 2
    if out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _error(f"cannot write {out}: {exc.strerror}", "")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
