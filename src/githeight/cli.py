"""Command-line front end.

Every operation is reachable as a subcommand with JSON output; inputs come
from flags or, when the primary input flag is omitted, from a JSON object
on stdin.  Exit codes: 0 success, 1 domain error (unstable or nilpotent
input), 2 parse or validation error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    convex_lemma_argmin,
    convex_lemma_min,
    ell,
    epsilon_map,
    epsilon_norm_check,
    explicit_lower_bound,
)
from .conjugation import (
    MatrixQ,
    instability_all_conj,
    instability_conj,
    is_minimal_arch,
    is_minimal_nonarch,
    is_semistable_conj,
    moment_map_conj,
    naive_matrix_height,
    orbit_sampling_bound,
    quotient_height_conj,
    skew_hermitian_basis,
)
from .errors import (
    DomainError,
    GitHeightError,
    InputError,
    NoConvergenceError,
)
from .heights import ProjectivePointQ, naive_height
from .places import ARCHIMEDEAN, LogValue, Place, as_fraction
from .torus import (
    TorusAction,
    destabilizing_1ps,
    instability_all,
    instability_arch,
    instability_nonarch,
    is_semistable,
    quotient_height,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


@dataclass(frozen=True)
class Config:
    """Resolved run configuration shared by every subcommand."""

    arch_tol: float = 1e-12
    compare_tol: float = 1e-9
    norm_choice: str = "frobenius"
    seed: int = 0
    samples: int = 100
    fmt: str = "float"

    def __post_init__(self):
        if self.arch_tol <= 0 or self.compare_tol <= 0:
            raise InputError("tolerances must be positive")


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _stdin_payload() -> dict:
    raw = sys.stdin.read()
    if not raw.strip():
        raise InputError("expected a JSON object on stdin")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"stdin is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InputError("stdin JSON must be an object")
    return payload


def _parse_place(text: str) -> Place:
    text = text.strip().lower()
    if text in ("oo", "inf", "infinity", "arch"):
        return ARCHIMEDEAN
    try:
        p = int(text)
    except ValueError:
        raise InputError(f"place must be 'oo' or a prime, got {text!r}") from None
    return Place.finite(p)


def _parse_action(args, payload: dict) -> TorusAction:
    weights = getattr(args, "weights", None) or payload.get("weights")
    action_json = getattr(args, "action", None) or payload.get("action")
    if action_json is not None:
        if isinstance(action_json, str):
            action_json = json.loads(action_json)
        return TorusAction.from_json(action_json)
    if weights is None:
        raise InputError("need --weights, --action, or stdin JSON")
    if isinstance(weights, str):
        if weights.lstrip().startswith("["):
            weights = json.loads(weights)
        else:
            weights = [[int(w)] for w in weights.split(",") if w.strip()]
    rows = [list(map(int, w if isinstance(w, (list, tuple)) else [w])) for w in weights]
    if not rows:
        raise InputError("empty weight list")
    return TorusAction(rank=len(rows[0]), weights=tuple(tuple(r) for r in rows))


def _parse_point(args, payload: dict) -> ProjectivePointQ:
    text = getattr(args, "point", None) or payload.get("point")
    if text is None:
        raise InputError("need --point or stdin JSON with a 'point' key")
    if isinstance(text, list):
        return ProjectivePointQ(tuple(as_fraction(c) for c in text))
    return ProjectivePointQ.parse(text)


def _parse_matrix(args, payload: dict) -> MatrixQ:
    raw = getattr(args, "matrix", None) or payload.get("matrix")
    if raw is None:
        raise InputError("need --matrix or stdin JSON with a 'matrix' key")
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"matrix is not valid JSON: {exc}") from None
    return MatrixQ.from_json(raw)


def _payload_if_needed(args, keys) -> dict:
    if any(getattr(args, k, None) is not None for k in keys):
        return {}
    return _stdin_payload()


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
    out = []
    for x in minimizer:
        if isinstance(x, Fraction):
            out.append(str(x) if fmt == "exact" else float(x))
        else:
            out.append(float(x))
    return out


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_height(args, config: Config) -> int:
    payload = _payload_if_needed(args, ("point", "matrix"))
    if getattr(args, "matrix", None) is not None or "matrix" in payload:
        value = naive_matrix_height(_parse_matrix(args, payload))
    else:
        value = naive_height(_parse_point(args, payload))
    _emit(_logvalue_json(value, config.fmt))
    return 0


def _cmd_semistable(args, config: Config) -> int:
    payload = _payload_if_needed(args, ("matrix", "weights", "action"))
    if getattr(args, "matrix", None) is not None or "matrix" in payload:
        ok = is_semistable_conj(_parse_matrix(args, payload))
    else:
        action = _parse_action(args, payload)
        ok = is_semistable(action, _parse_point(args, payload))
    _emit({"semistable": ok})
    return 0


def _cmd_destabilize(args, config: Config) -> int:
    payload = _payload_if_needed(args, ("weights", "action"))
    action = _parse_action(args, payload)
    one_ps = destabilizing_1ps(action, _parse_point(args, payload))
    if one_ps is None:
        _emit({"semistable": True, "one_ps": None})
    else:
        _emit({"semistable": False, "one_ps": list(one_ps)})
    return 0


def _cmd_instability(args, config: Config) -> int:
    payload = _payload_if_needed(args, ("matrix", "weights", "action"))
    place_text = args.place or payload.get("place") or "oo"
    place = None if place_text == "all" else _parse_place(place_text)

    if getattr(args, "matrix", None) is not None or "matrix" in payload:
        phi = _parse_matrix(args, payload)
        if place is not None:
            value = instability_conj(phi, place, norm=config.norm_choice, tol=config.compare_tol)
            _emit({"place": str(place), "value": _logvalue_json(value, config.fmt)})
            return 0
        values = instability_all_conj(phi, norm=config.norm_choice, tol=config.compare_tol)
    else:
        action = _parse_action(args, payload)
        point = _parse_point(args, payload)
        if place is not None:
            if place.is_archimedean:
                report = instability_arch(action, point, tol=config.arch_tol)
            else:
                report = instability_nonarch(action, point, place.prime)
            _emit({
                "place": str(report.place),
                "value": _logvalue_json(report.value, config.fmt),
                "minimizer": _minimizer_json(report.minimizer, config.fmt),
                "residually_semistable": report.residually_semistable,
            })
            return 0
        reports = instability_all(action, point, tol=config.arch_tol)
        values = {pl: r.value for pl, r in reports.items()}
    _emit({"instability": {str(pl): _logvalue_json(v, config.fmt) for pl, v in values.items()}})
    return 0


def _cmd_quotient_height(args, config: Config) -> int:
    payload = _payload_if_needed(args, ("matrix", "weights", "action"))
    if getattr(args, "matrix", None) is not None or "matrix" in payload:
        value = quotient_height_conj(_parse_matrix(args, payload),
                                     tol=config.compare_tol)
    else:
        action = _parse_action(args, payload)
        value = quotient_height(action, _parse_point(args, payload),
                                tol=config.arch_tol)
    _emit(_logvalue_json(value, config.fmt))
    return 0


def _cmd_minimal(args, config: Config) -> int:
    payload = _payload_if_needed(args, ("matrix",))
    phi = _parse_matrix(args, payload)
    place = _parse_place(args.place or payload.get("place") or "oo")
    if place.is_archimedean:
        report = is_minimal_arch(phi)
    else:
        report = is_minimal_nonarch(phi, place.prime)
    _emit({
        "place": str(report.place),
        "minimal": report.minimal,
        "defect": report.defect,
        "witness": report.witness,
    })
    return 0


def _cmd_bounds(args, config: Config) -> int:
    if args.bounds_cmd == "ell":
        _emit({"n": args.n, "ell": ell(args.n)})
        return 0
    if args.bounds_cmd == "epsilon":
        result = epsilon_norm_check(args.w)
        _emit({
            "size": result.size,
            "norm": result.norm,
            "bound": result.bound,
            "ok": result.ok,
            "iterations": result.iterations,
        })
        return 0
    if args.bounds_cmd == "lower":
        multipliers = [as_fraction(b) for b in args.b.split(",")]
        ranks = [int(r) for r in args.ranks.split(",")]
        if args.slopes_json is not None:
            slopes = [LogValue.from_json_dict(d) for d in json.loads(args.slopes_json)]
        else:
            slopes = [LogValue.from_arch(float(s)) for s in args.slopes.split(",")]
        value = explicit_lower_bound(multipliers, slopes, ranks)
        _emit(_logvalue_json(value, config.fmt))
        return 0
    if args.bounds_cmd == "convex-lemma":
        variant = _normalize_variant(args.variant)
        _emit({
            "variant": variant,
            "min": convex_lemma_min(variant, args.grid_tol),
            "argmin": convex_lemma_argmin(variant, args.grid_tol),
        })
        return 0
    raise InputError(f"unknown bounds subcommand {args.bounds_cmd!r}")


def _normalize_variant(text: str) -> str:
    key = text.strip().lower().replace("-", "_").replace(" ", "")
    if key in ("log3",):
        return "log3"
    if key in ("log_sqrt3", "logsqrt3", "sqrt3"):
        return "log_sqrt3"
    raise InputError(f"unknown convex profile {text!r}")


# ---------------------------------------------------------------------------
# bundled regression suite of worked examples
# ---------------------------------------------------------------------------

def _suite_checks(config: Config):
    """Named end-to-end checks with frozen expected values."""
    tol = config.compare_tol
    action = TorusAction(rank=1, weights=((-2,), (1,), (4,)))
    point = ProjectivePointQ.parse("2:2:1")
    unipotent = MatrixQ.from_lists([[1, 1], [0, 1]])
    diag23 = MatrixQ.from_lists([[2, 0], [0, 3]])

    def close(a, b, t=tol):
        return abs(a - b) <= t

    def c_height():
        v = naive_height(point).to_float()
        return f"{LN3:.9f}", f"{v:.9f}", close(v, LN3)

    def c_ss_true():
        got = is_semistable(action, point)
        return "True", str(got), got is True

    def c_ss_false():
        got = is_semistable(TorusAction(1, ((-1,), (1,))),
                            ProjectivePointQ.parse("1:0"))
        return "False", str(got), got is False

    def c_no_destab():
        got = destabilizing_1ps(action, point)
        return "None", str(got), got is None

    def c_inst2():
        r = instability_nonarch(action, point, 2)
        ok = (
            r.value.finite_coefficient(2) == Fraction(-2, 3)
            and set(r.value.finite) == {2}
            and r.value.arch == 0.0
            and r.minimizer == (Fraction(-1, 6),)
        )
        return "-2/3 log 2 at xi = -1/6", f"{r.value.to_float():.9f} at {r.minimizer}", ok

    def c_inst3():
        r = instability_nonarch(action, point, 3)
        ok = r.value.is_exact_zero and r.residually_semistable is True
        return "exact 0", f"{r.value.to_float():.9f}", ok

    def c_inst_arch():
        r = instability_arch(action, point, tol=config.arch_tol)
        ok = r.value.is_exact_zero and all(float(x) == 0.0 for x in r.minimizer)
        return "exact 0 at xi = 0", f"{r.value.to_float():.9f} at {r.minimizer}", ok

    def c_quot_torus():
        v = quotient_height(action, point, tol=config.arch_tol)
        expect = LN3 - Fraction(2, 3) * LN2
        ok = (
            v.finite_coefficient(2) == Fraction(-2, 3)
            and set(v.finite) == {2}
            and close(v.arch, LN3)
        )
        return f"{float(expect):.9f}", f"{v.to_float():.9f}", ok

    def c_conj_ss():
        got = is_semistable_conj(unipotent)
        return "True", str(got), got is True

    def c_conj_ss_diag():
        m = MatrixQ.from_lists([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        got = is_semistable_conj(m)
        return "True", str(got), got is True

    def c_quot_conj():
        v = quotient_height_conj(unipotent, tol=tol)
        ok = not v.finite and close(v.to_float(), 0.5 * LN2)
        return f"{0.5 * LN2:.9f}", f"{v.to_float():.9f}", ok

    def c_quot_diag():
        v = quotient_height_conj(diag23, tol=tol)
        expect = 0.5 * math.log(13.0)
        ok = not v.finite and close(v.to_float(), expect)
        return f"{expect:.9f}", f"{v.to_float():.9f}", ok

    def c_sup_inst():
        v = instability_conj(diag23, Place.finite(2), norm="sup", tol=tol)
        return "exact 0", f"{v.to_float():.9f}", v.is_exact_zero

    def c_diag_minimal():
        m = MatrixQ.from_lists([[1, 0], [0, 2]])
        arch = is_minimal_arch(m).minimal
        p2 = is_minimal_nonarch(m, 2).minimal
        return "minimal at oo and 2", f"oo={arch}, 2={p2}", arch and p2

    def c_moment_zero():
        m = MatrixQ.from_lists([[1, 2], [2, 1]])
        worst = max(
            abs(moment_map_conj(m, a)) for a in skew_hermitian_basis(2)
        )
        return "<= 1e-10", f"{worst:.3e}", worst <= 1e-10

    def c_orbit():
        v = orbit_sampling_bound(unipotent, samples=config.samples,
                                 seed=config.seed).to_float()
        lower = 0.5 * math.log(3.0)
        return f">= {lower:.9f}", f"{v:.9f}", v >= lower - 1e-9

    def c_ell_asym():
        diff = abs(ell(10000) - (math.log(10000.0) - 1.0))
        return "< 0.01", f"{diff:.5f}", diff < 0.01

    def c_lower_eq():
        v = explicit_lower_bound(
            [0, 0], [LogValue({2: Fraction(1)}), LogValue.from_arch(0.25)], [2, 3]
        )
        return "exact 0", f"{v.to_float():.9f}", v.is_exact_zero

    def c_eps2_inverse():
        import numpy as np

        eps = epsilon_map(2).toarray().astype(int)
        inv = np.zeros((4, 4), dtype=int)
        inv[1, 0], inv[0, 1], inv[3, 2], inv[2, 3] = 1, -1, 1, -1
        ok = (eps @ inv == np.eye(4, dtype=int)).all() and (
            inv @ eps == np.eye(4, dtype=int)
        ).all()
        return "identity both ways", "identity" if ok else "mismatch", bool(ok)

    def c_eps2_isometry():
        r = epsilon_norm_check(2)
        return "norm 1", f"{r.norm:.9f}", abs(r.norm - 1.0) <= 1e-8

    def c_eps_bounds():
        results = [epsilon_norm_check(w) for w in (2, 3, 4)]
        ok = all(r.ok for r in results)
        got = ", ".join(f"w={r.size}: {r.norm:.6f}<={r.bound:.6f}" for r in results)
        return "norm <= sqrt(w!) for w=2,3,4", got, ok

    def c_convex_log3():
        v = convex_lemma_min("log3")
        x = convex_lemma_argmin("log3")
        ok = abs(v - LN3) <= 1e-8 and abs(x) <= 1e-6
        return f"{LN3:.9f} at 0", f"{v:.9f} at {x:.2e}", ok

    def c_convex_sqrt3():
        v = convex_lemma_min("log_sqrt3")
        x = convex_lemma_argmin("log_sqrt3")
        ok = abs(v - 0.5 * LN3) <= 1e-8 and abs(x) <= 1e-6
        return f"{0.5 * LN3:.9f} at 0", f"{v:.9f} at {x:.2e}", ok

    return [
        ("height of 2:2:1 is log 3", c_height),
        ("weights (-2,1,4): 2:2:1 is semistable", c_ss_true),
        ("weights (-1,1): 1:0 is unstable", c_ss_false),
        ("no destabilizing subgroup at 2:2:1", c_no_destab),
        ("instability of 2:2:1 at p=2", c_inst2),
        ("instability of 2:2:1 at p=3", c_inst3),
        ("instability of 2:2:1 at oo", c_inst_arch),
        ("torus quotient height of 2:2:1", c_quot_torus),
        ("unipotent [[1,1],[0,1]] is semistable", c_conj_ss),
        ("diag(0,0,1) is semistable", c_conj_ss_diag),
        ("quotient height of [[1,1],[0,1]]", c_quot_conj),
        ("quotient height of diag(2,3)", c_quot_diag),
        ("sup-norm instability of diag(2,3) at p=2", c_sup_inst),
        ("diag(1,2) is minimal at oo and p=2", c_diag_minimal),
        ("moment map vanishes on a normal matrix", c_moment_zero),
        ("orbit sampling stays above log sqrt 3", c_orbit),
        ("ell(10000) near log(10000) - 1", c_ell_asym),
        ("lower bound is equality at zero twist", c_lower_eq),
        ("rank-2 antisymmetrization inverts", c_eps2_inverse),
        ("rank-2 antisymmetrization is an isometry", c_eps2_isometry),
        ("antisymmetrization norms within sqrt(w!)", c_eps_bounds),
        ("convex profile attains log 3 at 0", c_convex_log3),
        ("convex profile attains log sqrt 3 at 0", c_convex_sqrt3),
    ]


def _cmd_suite(args, config: Config) -> int:
    checks = _suite_checks(config)
    width = max(len(name) for name, _ in checks)
    failures = 0
    for name, fn in checks:
        try:
            expected, computed, ok = fn()
        except GitHeightError as exc:
            expected, computed, ok = "no error", f"{type(exc).__name__}: {exc}", False
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name:<{width}}  expected {expected}; got {computed}")
    total = len(checks)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="githeight",
        description="Heights of points on GIT quotients over Q: naive and "
        "quotient heights, per-place instability measures, minimality "
        "tests, and explicit slope bounds.",
    )
    # the same options are accepted after the subcommand; SUPPRESS keeps an
    # absent trailing flag from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in (
        ("--tol", dict(type=float, default=None,
                       help="comparison tolerance (default 1e-9; env GIT_HEIGHT_TOL)")),
        ("--arch-tol", dict(type=float, default=1e-12, help="archimedean minimization tolerance")),
        ("--seed", dict(type=int, default=0, help="RNG seed")),
        ("--samples", dict(type=int, default=100, help="orbit sample count")),
        ("--format", dict(choices=("float", "exact"), default="float",
                          help="finite parts as floats or exact rational strings")),
        ("--norm", dict(choices=("frobenius", "sup"), default="frobenius",
                        help="archimedean matrix norm")),
    ):
        parser.add_argument(flag, **kwargs)
        common.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("height", parents=[common],
                       help="naive height of a point or matrix")
    p.add_argument("point", nargs="?", help="colon-separated coordinates, e.g. 2:2:1")
    p.add_argument("--matrix", help="JSON rows of a square matrix")
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("semistable", parents=[common], help="semistability test")
    _add_torus_args(p)
    p.add_argument("--matrix", help="JSON rows of a square matrix")
    p.set_defaults(func=_cmd_semistable)

    p = sub.add_parser("destabilize", parents=[common],
                       help="destabilizing one-parameter subgroup, if any")
    _add_torus_args(p)
    p.set_defaults(func=_cmd_destabilize)

    p = sub.add_parser("instability", parents=[common],
                       help="instability measure at a place")
    _add_torus_args(p)
    p.add_argument("--matrix", help="JSON rows of a square matrix")
    p.add_argument("--place", help="'oo', a prime, or 'all'", default=None)
    p.set_defaults(func=_cmd_instability)

    p = sub.add_parser("quotient-height", parents=[common],
                       help="height on the quotient")
    _add_torus_args(p)
    p.add_argument("--matrix", help="JSON rows of a square matrix")
    p.set_defaults(func=_cmd_quotient_height)

    p = sub.add_parser("minimal", parents=[common],
                       help="norm minimality on the orbit at a place")
    p.add_argument("--matrix", help="JSON rows of a square matrix")
    p.add_argument("--place", help="'oo' or a prime", default=None)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("bounds", help="slope bounds and related constants")
    bsub = p.add_subparsers(dest="bounds_cmd", required=True)
    b = bsub.add_parser("ell", parents=[common], help="(log n!)/n")
    b.add_argument("n", type=int)
    b.set_defaults(func=_cmd_bounds)
    b = bsub.add_parser("epsilon", parents=[common],
                        help="antisymmetrization norm check")
    b.add_argument("w", type=int)
    b.set_defaults(func=_cmd_bounds)
    b = bsub.add_parser("lower", parents=[common],
                        help="explicit lower bound for twisted heights")
    b.add_argument("--b", required=True, help="comma-separated twisting exponents")
    b.add_argument("--slopes", help="comma-separated slopes (floats)")
    b.add_argument("--slopes-json", help="JSON list of exact slope values")
    b.add_argument("--ranks", required=True, help="comma-separated ranks")
    b.set_defaults(func=_cmd_bounds)
    b = bsub.add_parser("convex-lemma", parents=[common],
                        help="named one-variable convex minimum")
    b.add_argument("variant", help="log3 or log_sqrt3")
    b.add_argument("--grid-tol", type=float, default=1e-10)
    b.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("paper-suite", parents=[common],
                       help="run the bundled regression suite of worked examples")
    p.set_defaults(func=_cmd_suite)

    return parser


def _add_torus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weights", help="comma-separated rank-1 weights or JSON rows")
    p.add_argument("--action", help="JSON {rank, weights}")
    p.add_argument("--point", help="colon-separated coordinates")


def _resolve_config(args) -> Config:
    tol = args.tol
    if tol is None:
        env = os.environ.get("GIT_HEIGHT_TOL")
        tol = float(env) if env else 1e-9
    return Config(
        arch_tol=args.arch_tol,
        compare_tol=tol,
        norm_choice=args.norm,
        seed=args.seed,
        samples=args.samples,
        fmt=args.format,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return args.func(args, config)
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
