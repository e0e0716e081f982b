"""Command-line front end.

Every operation is reachable as a subcommand with JSON output; inputs come
from flags or, when the primary input flag is omitted, from a JSON object
on stdin.  Each stdin key takes one JSON type: ``point`` an ``"a:b"``
string or an array, ``weights`` a comma-separated string or an array,
``action`` an object or its JSON text, ``matrix`` an array of arrays or its
JSON text, ``place`` a string or an integer; any other type exits 2.
``paper-suite`` replays every docstring example of the package's modules
and exits 1 if one fails; the global options do not change its result.
Exit codes: 0 success, 1 domain error (unstable or nilpotent input), 2
parse or validation error, 3 convergence failure.  A reader that closes
stdout early (``githeight paper-suite | head -1``) ends the command quietly
with exit 0: the rest of the output is dropped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .conjugation import MatrixQ, is_minimal_arch, is_minimal_nonarch, matrix_record
from .errors import DomainError, InputError, NoConvergenceError
from .heights import ProjectivePointQ, naive_height
from .places import ARCHIMEDEAN, LogValue, Place
from .torus import TorusAction, destabilizing_1ps, point_record


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

# The JSON types each input takes, whether it comes from a flag or from the
# "stdin" object.  A string that starts with "[" or "{" is JSON text and is
# decoded first; any other string is the input's own text form ("a:b"
# coordinates, comma-separated weights, a place).
_JSON_TYPES = {
    "point": ((str, list), "an 'a:b' string or an array"),
    "weights": ((str, list), "a comma-separated string or an array"),
    "action": ((dict,), "an object or its JSON text"),
    "matrix": ((list,), "an array of rows or its JSON text"),
    "place": ((str, int), "a string or an integer"),
    "stdin": ((dict,), "a JSON object of the inputs"),
}
# a command takes its subject from stdin unless one of these flags is given
_SUBJECT = ("matrix", "weights", "action")


def _checked(key: str, value):
    """The value of input ``key``, decoded if it is JSON text; InputError
    unless it has one of the key's JSON types."""
    if isinstance(value, str) and value.lstrip()[:1] in ("[", "{"):
        try:
            value = json.loads(value)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise InputError(f"{key} is not valid JSON: {exc}") from None
    types, description = _JSON_TYPES[key]
    # a JSON true or false is no place, although bool is an int subclass
    if isinstance(value, bool) or not isinstance(value, types):
        raise InputError(f"{key} must be {description}, got {value!r:.80}")
    return value


def _inputs(args, primary) -> dict:
    """Every input the command takes, checked: each from its flag, else from
    the JSON object on stdin, which is read only when no flag of ``primary``
    is given.  An absent place is oo.  A stdin key the command does not
    take, or two subjects, a matrix beside torus inputs or weights beside
    an action, raise InputError."""
    keys = [k for k in _JSON_TYPES if hasattr(args, k)]
    flags = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    payload = {} if any(k in flags for k in primary) else _checked("stdin", sys.stdin.read())
    extra = sorted(payload.keys() - set(keys))
    if extra:
        raise InputError(f"this command takes no stdin key {extra[0]!r:.80}")
    found = {**{k: payload[k] for k in keys if k in payload}, **flags}
    torus = found.keys() & {"point", "weights", "action"}
    if "matrix" in found and torus:
        raise InputError(f"give a matrix or torus inputs, not both: got matrix and {', '.join(sorted(torus))}")
    if {"weights", "action"} <= torus:
        raise InputError("give weights or an action, not both")
    if "place" in keys:
        found.setdefault("place", "oo")
    return {k: _checked(k, v) for k, v in found.items()}


def _need(inputs: dict, key: str):
    if key not in inputs:
        raise InputError(f"need --{key} or stdin JSON with a '{key}' key")
    return inputs[key]


def _parse_point(inputs: dict) -> ProjectivePointQ:
    point = _need(inputs, "point")
    if isinstance(point, list):
        return ProjectivePointQ(tuple(point))
    return ProjectivePointQ.parse(point)


def _weight(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"weight {text!r:.80} is not an integer") from None


def _parse_torus(inputs: dict) -> tuple[TorusAction, ProjectivePointQ]:
    if "action" in inputs:
        action = TorusAction.from_json(inputs["action"])
    elif "weights" in inputs:
        weights = inputs["weights"]
        if isinstance(weights, str):
            weights = [_weight(w) for w in weights.split(",")]
        rows = [w if isinstance(w, list) else [w] for w in weights]
        if not rows:
            raise InputError("empty weight list")
        action = TorusAction(rank=len(rows[0]), weights=rows)
    else:
        raise InputError("need --weights, --action, or stdin JSON")
    return action, _parse_point(inputs)


def _parse_subject(inputs: dict, semistable: bool = False):
    """The record of the input's matrix, or of its point under its action;
    with ``semistable``, the record's DomainError if the input has no image."""
    if "matrix" in inputs:
        return matrix_record(MatrixQ.from_lists(inputs["matrix"]), semistable)
    return point_record(*_parse_torus(inputs), semistable)


def _parse_place(value) -> Place:
    """A place from 'oo', or a prime as text or as a JSON integer."""
    text = str(value).strip().lower()
    if text in ("oo", "inf", "infinity", "arch"):
        return ARCHIMEDEAN
    try:
        p = int(text)
    except ValueError:
        raise InputError(f"place must be 'oo' or a prime, got {text!r}") from None
    return Place.finite(p)


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _logvalue_json(value: LogValue, fmt: str):
    if value.neg_inf:
        return {"neg_inf": True, "total": "-inf"}
    if fmt == "exact":
        out = value.to_json_dict()
        out["total"] = value.to_float()
        return out
    finite = math.fsum(float(c) * math.log(p) for p, c in value.finite.items())
    return {
        "finite": finite,
        "arch": value.arch,
        "total": value.to_float(),
        "neg_inf": False,
    }


def _minimizer_json(minimizer, fmt: str):
    if minimizer is None:
        return None
    return [str(x) if fmt == "exact" and isinstance(x, Fraction) else float(x) for x in minimizer]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each command but paper-suite returns the JSON object it prints.

def _cmd_height(args) -> dict:
    inputs = _inputs(args, ("point", "matrix"))
    value = _parse_subject(inputs).naive() if "matrix" in inputs else naive_height(_parse_point(inputs))
    return _logvalue_json(value, args.format)


def _cmd_semistable(args) -> dict:
    return {"semistable": _parse_subject(_inputs(args, _SUBJECT)).semistable}


def _cmd_destabilize(args) -> dict:
    one_ps = destabilizing_1ps(*_parse_torus(_inputs(args, _SUBJECT)))
    return {"semistable": one_ps is None, "one_ps": None if one_ps is None else list(one_ps)}


def _cmd_instability(args) -> dict:
    inputs = _inputs(args, _SUBJECT)
    place = None if inputs["place"] == "all" else _parse_place(inputs["place"])
    record = _parse_subject(inputs)
    if place is None:
        terms = record.terms(args.arch_tol)
        return {"instability": {str(pl): _logvalue_json(v, args.format) for pl, v in terms.items()}}
    if "matrix" in inputs:  # only a torus report has a minimizer
        return {"place": str(place), "value": _logvalue_json(record.term(place), args.format)}
    report = record.report(place, args.arch_tol)
    return {
        "place": str(report.place),
        "value": _logvalue_json(report.value, args.format),
        "minimizer": _minimizer_json(report.minimizer, args.format),
        "residually_semistable": report.residually_semistable,
    }


def _cmd_quotient_height(args) -> dict:
    record = _parse_subject(_inputs(args, _SUBJECT), semistable=True)
    return _logvalue_json(record.height(args.arch_tol), args.format)


def _cmd_minimal(args) -> dict:
    inputs = _inputs(args, ("matrix",))
    phi = MatrixQ.from_lists(_need(inputs, "matrix"))
    place = _parse_place(inputs["place"])
    if place.is_archimedean:
        report = is_minimal_arch(phi)
    else:
        report = is_minimal_nonarch(phi, place.prime)
    return {
        "place": str(report.place),
        "minimal": report.minimal,
        "defect": report.defect,
        "witness": report.witness,
    }


def _cmd_lower(args) -> dict:
    record = _parse_subject(_inputs(args, _SUBJECT), semistable=True)
    return _logvalue_json(record.lower_bound(), args.format)


# ---------------------------------------------------------------------------
# the package's worked examples
# ---------------------------------------------------------------------------

def _cmd_suite(args) -> int:
    """Replay every docstring example of every module of the package: one
    PASS or FAIL line per docstring, with the failing examples' expected and
    actual output, then the count of examples passed.  The global options
    do not change the result."""
    import doctest
    import importlib
    import pkgutil

    package = importlib.import_module(__package__)
    finder = doctest.DocTestFinder()
    modules = [importlib.import_module(m.name)
               for m in pkgutil.walk_packages(package.__path__, package.__name__ + ".")]
    tests = [test for module in [package, *modules] for test in finder.find(module) if test.examples]
    # ELLIPSIS, as pytest's --doctest-modules runs the same examples
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    width = max((len(test.name) for test in tests), default=0)
    failed = attempted = 0
    for test in tests:
        report = []
        result = runner.run(test, out=report.append)
        failed, attempted = failed + result.failed, attempted + result.attempted
        status, plural = "FAIL" if result.failed else "PASS", "s" * (result.attempted != 1)
        print(f"{status}  {test.name:<{width}}  {result.attempted} example{plural}")
        print("".join(report), end="")
    print(f"{attempted - failed}/{attempted} examples passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

# The global options.
_OPTIONS = (
    ("--arch-tol", dict(type=float, default=1e-12, help="archimedean minimization tolerance")),
    ("--format", dict(choices=("float", "exact"), default="float",
                      help="finite parts as floats or exact rational strings")),
)
_MATRIX = ("--matrix", dict(help="JSON rows of a square matrix"))
_TORUS = (
    ("--weights", dict(help="comma-separated rank-1 weights or JSON rows")),
    ("--action", dict(help="JSON {rank, weights}")),
    ("--point", dict(help="colon-separated coordinates")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="githeight",
        description="Heights of points on GIT quotients over Q: naive and "
        "quotient heights, per-place instability measures, minimality "
        "tests, and lower bounds for quotient heights.",
    )
    # the same options are accepted after the subcommand; SUPPRESS keeps an
    # absent trailing flag from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _OPTIONS:
        parser.add_argument(flag, **kwargs)
        common.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})

    def command(subparsers, name, func, help, *arguments) -> argparse.ArgumentParser:
        """Add the subcommand ``name``, which runs ``func(args)``, with the
        global options and each (flag, keywords) pair of ``arguments``."""
        p = subparsers.add_parser(name, parents=[common], help=help)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    sub = parser.add_subparsers(dest="command", required=True)
    command(sub, "height", _cmd_height, "naive height of a point or matrix",
            ("point", dict(nargs="?", help="colon-separated coordinates, e.g. 2:2:1")), _MATRIX)
    command(sub, "semistable", _cmd_semistable, "semistability test", *_TORUS, _MATRIX)
    command(sub, "destabilize", _cmd_destabilize,
            "destabilizing one-parameter subgroup, if any", *_TORUS)
    command(sub, "instability", _cmd_instability, "instability measure at a place",
            *_TORUS, _MATRIX, ("--place", dict(help="'oo', a prime, or 'all'")))
    command(sub, "quotient-height", _cmd_quotient_height, "height on the quotient",
            *_TORUS, _MATRIX)
    command(sub, "minimal", _cmd_minimal, "norm minimality on the orbit at a place",
            _MATRIX, ("--place", dict(help="'oo' or a prime")))

    bounds = sub.add_parser("bounds", help="lower bounds for quotient heights")
    bsub = bounds.add_subparsers(dest="bounds_cmd", required=True)
    command(bsub, "lower", _cmd_lower, "a lower bound for the quotient height of a semistable input",
            *_TORUS, _MATRIX)

    command(sub, "paper-suite", _cmd_suite,
            "run the bundled regression suite of worked examples")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the comparisons are false for nan, so nan is rejected too
        if not 0 < args.arch_tol < math.inf:
            raise InputError("--arch-tol must be finite and positive")
        output = args.func(args)
        # paper-suite prints its own report and returns its exit code
        if not isinstance(output, int):
            print(json.dumps(output, indent=2, sort_keys=True))
            output = 0
        sys.stdout.flush()
        return output
    except BrokenPipeError:
        # the reader has gone: the flush at interpreter exit writes the rest to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # InputError, and the int(), float() and JSON parse errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
