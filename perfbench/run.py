"""Seeded benchmark of githeight's place-by-place height pipeline.

    python3 perfbench/run.py --workload torus-ladder --seed 1 --seconds 20 --trace 0

One client, one process, no threads: a closed loop calls the package's
public API (or ``githeight.cli.main`` in-process) on seeded inputs, one
operation after another, for ``--seconds`` seconds.  Every operation runs
under a hard time limit.  A fixed reference computation, timed between
operations, gives the machine's speed; end-to-end times are scaled to a
machine on which it takes 1 ms.  After the timed phase, oracles that do
not use the package's code check every output (see oracles.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs blocks of
operations untraced and then again with spans around the package's layers
(see spans.py), and prints the per-layer metrics; the spans are written to
``.bench_out/`` at the root of the checkout.  The line before the last is
a report with all eight end-to-end metrics, the measured input shares and
every failed operation by input; the last line is the result object.  ``--workload all`` runs every workload, the
``defects`` one included, each in its own child process.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "githeight"

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_OPS = 100  # a run never stops before this many operations
TRACE_BLOCK = 10  # operations per untraced/traced pair of blocks
LIMIT_S = 10.0  # hard time limit per operation
# Gradient tolerance of the torus archimedean minimizer.  Float rounding of
# the objective stops the damped Newton line search once the gradient norm
# is below about 1e-7, so the package's default of 1e-12 (and even 1e-9)
# makes it stall on a small share of inputs.  At 1e-6 the value is still
# accurate to ~1e-11.  The defects workload keeps the default.
NEWTON_TOL = 1e-6
DEFECT_LIMIT_S = 2.0  # the defects workload expects to hit it

# On a shared host the CPU speed can change by 2x within seconds and
# minutes, far more than any bound a wall-clock figure could keep.  So the run measures
# the machine's speed with a fixed reference computation (``reference``),
# interleaved with the operations, and reports end-to-end times scaled to a
# machine on which the reference takes REF_MS.  Raw wall-clock figures are
# in the report line.
REF_MS = 1.0
REF_TERMS = 300  # terms of the reference sum: 0.8-1.4 ms in CPython 3.11 on a shared x86-64 core
PROBE_EVERY_S = 0.05  # timed-phase wall time between two reference runs
PROBES_PER_SETUP = 10  # reference runs before and after each set-up


def _lp_rows(args, kwargs):
    """Rows of the LP minimize_max_affine builds: one per slope, plus two
    per coordinate when a box is given."""
    slopes = args[0]
    box = kwargs.get("box", args[2] if len(args) > 2 else None)
    return len(slopes) + (2 * len(slopes[0]) if box is not None else 0)


# Functions wrapped in spans when tracing: (module, function, gauge).
TRACED = (
    ("exactlp", "minimize_max_affine", _lp_rows),
    ("exactlp", "feasible", lambda args, kwargs: len(args[0])),
    ("exactpoly", "charpoly", None),
    ("exactpoly", "newton_polygon", None),
    ("exactpoly", "complex_roots", None),
    ("places", "factorize", lambda args, kwargs: int(args[0]).bit_length()),
    ("places", "valuation", None),
    ("places", "support_primes", None),
    ("heights", "naive_height_coords", None),
    ("torus", "quotient_height", None),
    ("torus", "is_semistable", None),
    ("torus", "instability_nonarch", None),
    ("torus", "instability_arch", None),
    ("torus", "destabilizing_1ps", None),
    ("conjugation", "quotient_height_conj", None),
    ("conjugation", "instability_conj", None),
    ("conjugation", "fundamental_formula_residual_conj", None),
    ("cli", "main", None),
    ("cli", "build_parser", None),
)
LAYERS = ("exactlp", "exactpoly", "places", "heights", "torus", "conjugation", "cli")
CALLS_AND_SELF = (
    "exactlp.minimize_max_affine", "exactlp.feasible", "exactpoly.charpoly",
    "exactpoly.newton_polygon", "exactpoly.complex_roots", "places.factorize",
    "places.valuation", "places.support_primes", "heights.naive_height_coords",
    "torus.instability_nonarch", "torus.instability_arch",
    "conjugation.instability_conj", "cli.main",
)

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its limit; a
    BaseException, so no ``except Exception`` in the package swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation of the kind the
    package does (Fraction arithmetic on growing integers).  The cyclic
    garbage collector is off while it runs, so the package's live objects
    do not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, REF_TERMS):
            total += Fraction(i % 97 + 1, i % 89 + 2)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(probes) -> float:
    """Factor from wall-clock time to time on the reference machine."""
    return REF_MS / (1000.0 * statistics.fmean(probes))


def attempt(fn, limit: float):
    """Run fn() under a hard time limit: ("ok", value), ("error", exc) or
    ("timeout", None)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        try:
            return "ok", fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", None
    except Exception as exc:  # a failed operation must not stop the run
        return "error", exc


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _cli_call(cli, argv):
    """(exit code, parsed stdout) of one in-process command line call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return code, (json.loads(out.getvalue()) if code == 0 else None)


def _cli_argv(case, op, tol):
    if case.kind == "torus":
        args = ["--weights=" + ",".join(str(w[0]) for w in case.weights),
                "--point=" + ":".join(str(c) for c in case.coords)]
    else:
        args = ["--matrix=" + json.dumps([[str(x) for x in row] for row in case.rows])]
    if tol is not None:
        args.append(f"--arch-tol={tol}")
    if op == "cli-qh":
        return ["quotient-height"] + args
    fmt = ["--format", "exact"] if op == "cli-all-exact" else []
    return ["instability"] + args + ["--place", "all"] + fmt


def bind(g, cli, case, op, tol):
    """A zero-argument callable running one operation on one input, with
    the torus archimedean tolerance ``tol`` (None: the package default)."""
    kw = {} if tol is None else {"tol": tol}
    if op.startswith("cli-"):
        argv = _cli_argv(case, op, tol)
        return lambda: _cli_call(cli, argv)
    if case.kind == "torus":
        action = g.TorusAction(len(case.weights[0]), case.weights)
        x = g.ProjectivePointQ(case.coords)
        if op == "qh":
            return lambda: g.quotient_height(action, x, **kw)
        if op == "destab":
            return lambda: g.destabilizing_1ps(action, x)

        def sweep():
            finite = {p: g.instability_nonarch(action, x, p).value
                      for p in g.support_primes(x.coords)}
            return finite, g.instability_arch(action, x, **kw).value
        return sweep
    m = g.MatrixQ(case.rows)
    if op == "qhc":
        return lambda: g.quotient_height_conj(m)
    if op == "ffc":
        return lambda: g.fundamental_formula_residual_conj(m)

    def sweep_conj():
        primes = set(g.support_primes(m.entries))
        reduced, _ = g.charpoly_of(m).shift_out_zero_roots()
        if reduced.degree > 0:
            primes.update(g.support_primes(reduced.coeffs))
        finite = {p: g.instability_conj(m, g.Place.finite(p)) for p in sorted(primes)}
        return finite, g.instability_conj(m, g.ARCHIMEDEAN)
    return sweep_conj


# ---------------------------------------------------------------------------
# workloads and set-up
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    generate: object  # seed -> list[Case]
    limit: float = LIMIT_S
    newton_tol: float | None = NEWTON_TOL


def _workloads():
    import oracles
    import workloads as w

    def no_known_defect(rows):
        # Random matrices may hit two defects of the seed commit; the
        # defects workload runs such matrices instead.
        return oracles.simple_nonzero_roots(rows) and not oracles.hidden_places(rows)

    return {
        "torus-ladder": Workload(w.torus_ladder),
        "conj-ladder": Workload(lambda s: w.conj_ladder(s, keep=oracles.simple_nonzero_roots)),
        "big-primes": Workload(w.big_primes),
        "cli-sweep": Workload(lambda s: w.cli_sweep(s, 600, keep=no_known_defect)),
        "defects": Workload(lambda s: w.defects(s, keep=oracles.hidden_places), DEFECT_LIMIT_S, None),
    }


@dataclass
class Bench:
    cases: list
    ops: list  # (case index, op name)
    calls: list  # one callable per entry of ops


def setup(workload: Workload, seed: int) -> Bench:
    """Import the package afresh, generate the inputs, bind every operation
    and run one warm-up operation."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    g = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    cases = workload.generate(seed)
    ops = [(i, op) for i, case in enumerate(cases) for op in case.ops]
    calls = [bind(g, cli, cases[i], op, workload.newton_tol) for i, op in ops]
    attempt(calls[0], workload.limit)
    return Bench(cases, ops, calls)


def closed_loop(calls, limit, seconds=None, order=None, wrap=None, probes=None):
    """Run operations one after another: cycle through all of them for
    ``seconds`` (and at least MIN_OPS), or run exactly ``order``.  When
    ``probes`` is a list, run ``reference`` after an operation once
    PROBE_EVERY_S has passed since the last run, and append its times.
    Returns [(op index, kind, value)], per-operation seconds, wall time
    without the reference runs."""
    results, latencies = [], []
    start = time.perf_counter()
    deadline = start + (seconds or 0.0)
    next_probe = start + PROBE_EVERY_S
    probing = 0.0
    i = 0
    while True:
        if order is None:
            k = i % len(calls)
        elif i == len(order):
            break
        else:
            k = order[i]
        fn = calls[k] if wrap is None else wrap(i, calls[k])
        t0 = time.perf_counter()
        kind, value = attempt(fn, limit)
        latencies.append(time.perf_counter() - t0)
        results.append((k, kind, value))
        i += 1
        if probes is not None and time.perf_counter() >= next_probe:
            t0 = time.perf_counter()
            probes.append(reference())
            next_probe = time.perf_counter()
            probing += next_probe - t0
            next_probe += PROBE_EVERY_S
        if order is None and i >= MIN_OPS and time.perf_counter() >= deadline:
            break
    return results, latencies, time.perf_counter() - start - probing


def traced_loop(bench: Bench, limit: float, seconds: float):
    """Alternate untraced and traced runs of the same TRACE_BLOCK operations
    for ``seconds``.  Adjacent pairs see the same machine speed, so their
    time ratio gives the tracing overhead.  Returns the traced results and
    latencies, the untraced results, the overhead and the tracer."""
    import spans

    tracer = spans.Tracer()
    plain, plain_lat, traced, traced_lat = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_OPS or time.perf_counter() < deadline:
        block = [(len(traced) + j) % len(bench.calls) for j in range(TRACE_BLOCK)]
        r, lat, _ = closed_loop(bench.calls, limit, order=block)
        plain += r
        plain_lat += lat
        offset = len(traced)
        tracer.instrument(PACKAGE, TRACED)
        try:
            r, lat, _ = closed_loop(bench.calls, limit, order=block,
                                    wrap=lambda j, fn: lambda: tracer.run_op(offset + j, fn))
        finally:
            tracer.restore()
        traced += r
        traced_lat += lat
    return traced, traced_lat, plain, sum(traced_lat) / sum(plain_lat) - 1.0, tracer


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def _fingerprint(kind, value):
    """Equal for outcomes that must get the same verdict."""
    return kind, repr(value) if kind == "ok" else type(value).__name__


class Checker:
    """Classifies each outcome as correct, wrong, error or timeout.

    UnstableError / NilpotentError on an input the oracles find unstable /
    nilpotent is correct (the generators build such inputs on purpose);
    any other exception, a CLI exit code outside {0, 1, 2, 3} and a timeout
    fail the operation; an output that disagrees with the oracles is wrong.
    """

    def __init__(self, bench: Bench):
        import oracles

        self.o = oracles
        self.bench = bench
        self.truths: dict[int, object] = {}
        self.verdicts: dict[tuple, tuple[str, str] | None] = {}
        self.arch_err_max = 0.0

    def truth(self, i):
        if i not in self.truths:
            case = self.bench.cases[i]
            self.truths[i] = (self.o.torus_truth if case.kind == "torus" else self.o.matrix_truth)(case)
        return self.truths[i]

    def classify(self, k, kind, value):
        """None when the outcome is correct, else (category, reason)."""
        key = (k, _fingerprint(kind, value))
        if key not in self.verdicts:
            self.verdicts[key] = self._classify(k, kind, value)
        return self.verdicts[key]

    def _classify(self, k, kind, value):
        i, op = self.bench.ops[k]
        case = self.bench.cases[i]
        if kind == "timeout":
            return "timeout", "no result within the time limit"
        try:
            t = self.truth(i)
            expected_error = None
            if op == "qh" and not t.stable:
                expected_error = "UnstableError"
            elif op in ("qhc", "ffc") and t.nilpotent:
                expected_error = "NilpotentError"
            if kind == "error":
                name = type(value).__name__
                if name == expected_error:
                    return None
                return "error", f"{name}: {value}"[:200]
            if expected_error:
                return "wrong", f"returned a value where {expected_error} was expected"
            reason = self._check(case, op, value, t)
        except self.o.OracleError as exc:
            return "wrong", f"oracle could not decide: {exc}"
        return None if reason is None else ("wrong", reason)

    def _arch(self, got, want, what):
        err = abs(got - want)
        self.arch_err_max = max(self.arch_err_max, err)
        if err > self.o.ARCH_TOL:
            return f"{what}: archimedean term {got!r}, oracle {want!r}"
        return None

    @staticmethod
    def _finite(value):
        return {int(p): Fraction(q) for p, q in dict(value.finite).items()}

    def _check(self, case, op, value, t):
        if op.startswith("cli-"):
            return self._check_cli(case, op, value, t)
        if op == "destab":
            lam = value
            if lam is None or math.gcd(*lam) != 1 or any(
                    sum(a * b for a, b in zip(m, lam)) <= 0 for m in t.ms):
                return f"{lam} is not a primitive destabilizing 1-PS"
            return None
        if op == "ffc":
            return None if abs(value) <= self.o.ARCH_TOL else f"fundamental-formula residual {value!r}"
        if case.kind == "torus":
            if op == "qh":
                if self._finite(value) != t.qh_finite():
                    return f"finite part {self._finite(value)}, oracle {t.qh_finite()}"
                return self._arch(value.arch, t.naive_arch + t.arch, "quotient height")
            finite, arch = value
            if set(finite) != t.support:
                return f"swept primes {sorted(finite)}, support {sorted(t.support)}"
            for p, v in finite.items():
                m = t.measures[p]
                if (m is None) != v.neg_inf or (m is not None and self._finite(v) != ({p: m} if m else {})):
                    return f"instability at {p}: {v!r}, oracle {m}"
            if not t.stable:
                return None if arch.neg_inf else f"archimedean instability {arch!r} of an unstable point"
            return self._arch(arch.arch, t.arch, "archimedean instability")
        # matrices
        if op == "qhc":
            if self._finite(value) != t.qh_finite():
                return f"finite part {self._finite(value)}, oracle {t.qh_finite()}"
            return self._arch(value.arch, t.qh_arch, "quotient height")
        finite, arch = value
        missing = t.nonzero_primes() - set(finite)
        if missing:
            return f"sweep misses primes {sorted(missing)} with nonzero instability"
        for p, v in finite.items():
            c = t.coefficient(p)
            if self._finite(v) != ({p: c} if c else {}):
                return f"instability at {p}: {v!r}, oracle {c}"
        return self._arch(arch.arch, t.inst_arch, "archimedean instability")

    def _check_cli(self, case, op, value, t):
        code, out = value
        if code not in (0, 1, 2, 3):
            return f"exit code {code}"
        domain = (not t.stable) if case.kind == "torus" else t.nilpotent
        if op == "cli-qh":
            if domain:
                return None if code == 1 else f"exit code {code}, expected 1"
            if code != 0:
                return f"exit code {code}, expected 0"
            if case.kind == "torus":
                finite, arch = t.qh_finite(), t.naive_arch + t.arch
            else:
                finite, arch = t.qh_finite(), t.qh_arch
            want = math.fsum(float(q) * math.log(p) for p, q in finite.items())
            if abs(out["finite"] - want) > self.o.ARCH_TOL:
                return f"finite part {out['finite']!r}, oracle {want!r}"
            return self._arch(out["arch"], arch, "quotient height")
        if code != 0:
            return f"exit code {code}, expected 0"
        places = out["instability"]
        if domain:
            bad = [pl for pl, v in places.items() if not v.get("neg_inf")]
            return f"finite instability at {bad} of an unstable input" if bad else None
        if case.kind == "torus":
            coef = t.measures
            nonzero = {p for p, m in coef.items() if m}
            arch = t.arch
        else:
            nonzero = t.nonzero_primes()
            coef = {p: t.coefficient(p) for p in {int(k) for k in places if k != "oo"} | nonzero}
            arch = t.inst_arch
        missing = {str(p) for p in nonzero} - set(places)
        if missing:
            return f"--place all misses places {sorted(missing, key=int)} with nonzero instability"
        for pl, v in places.items():
            if pl == "oo":
                reason = self._arch(v["arch"], arch, "archimedean instability")
                if reason:
                    return reason
                continue
            p = int(pl)
            c = coef.get(p, Fraction(0))
            if op == "cli-all-exact":
                got = {int(q): Fraction(s) for q, s in v["finite"].items()}
                if got != ({p: c} if c else {}):
                    return f"instability at {p}: {v['finite']}, oracle {c}"
            elif abs(v["total"] - float(c) * math.log(p)) > self.o.ARCH_TOL:
                return f"instability at {p}: {v['total']!r}, oracle {float(c) * math.log(p)!r}"
        return None

    def identity(self, results):
        """naive height + sum of the swept instabilities = quotient height,
        dictionary-exactly on finite parts, from the program's own outputs.
        Returns the op indices of quotient heights that break it."""
        first: dict[tuple[int, str], object] = {}
        for k, kind, value in results:
            i, op = self.bench.ops[k]
            if kind == "ok" and op in ("qh", "sweep", "qhc", "sweepc"):
                first.setdefault((i, op), (k, value))
        broken = []
        for (i, op), (k, qh) in first.items():
            if op not in ("qh", "qhc") or (i, op.replace("qh", "sweep")) not in first:
                continue
            finite, arch = first[(i, op.replace("qh", "sweep"))][1]
            case = self.bench.cases[i]
            values = case.coords if case.kind == "torus" else [x for r in case.rows for x in r]
            total = dict(self.o.naive_finite(values))
            for v in finite.values():
                for p, q in self._finite(v).items():
                    total[p] = total.get(p, Fraction(0)) + q
            total = {p: q for p, q in total.items() if q}
            arch_total = self.o.naive_arch([x for x in values if x]) + arch.arch
            if total != self._finite(qh) or abs(arch_total - qh.arch) > self.o.ARCH_TOL:
                broken.append(k)
        return broken


def check(bench: Bench, results):
    """One verdict per result (None when correct, else (category,
    reason)) and the checker, which holds the largest archimedean error."""
    checker = Checker(bench)
    verdicts = [checker.classify(k, kind, value) for k, kind, value in results]
    broken = set(checker.identity(results))
    for j, (k, kind, _) in enumerate(results):
        if k in broken and verdicts[j] is None:
            verdicts[j] = ("wrong", "naive height + sum of instabilities != quotient height")
    return verdicts, checker


# ---------------------------------------------------------------------------
# metrics and report
# ---------------------------------------------------------------------------

def input_shares(cases) -> dict[str, float]:
    """Measured shares of the input properties the workloads vary."""
    import oracles

    n = len(cases)
    shares = {"unstable_or_nilpotent": sum(c.expect != "ok" for c in cases) / n}
    for size in sorted({c.size for c in cases}):
        shares[f"size.{size}"] = sum(c.size == size for c in cases) / n

    def values(c):
        return c.coords if c.kind == "torus" else [x for r in c.rows for x in r]

    shares["prime_gt_1000"] = sum(
        any(p > 1000 for p in oracles.support(values(c))) for c in cases) / n
    matrices = [c for c in cases if c.kind == "matrix"]
    if matrices:
        shares["matrix.charpoly_only_prime"] = sum(
            oracles.has_charpoly_only_prime(c.rows) for c in matrices) / len(matrices)
    return {k: round(v, 4) for k, v in shares.items()}


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(tracer, n_ops, overhead, arch_err):
    s = tracer.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0.0)

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    m["exactlp.minimize_max_affine.calls_per_input"] = (get("exactlp.minimize_max_affine", "calls") / n_ops, "calls/op")
    m["exactlp.rows_max"] = (max(tracer.maxima["exactlp.minimize_max_affine"], tracer.maxima["exactlp.feasible"]), "rows")
    m["exactpoly.charpoly.calls_per_input"] = (get("exactpoly.charpoly", "calls") / n_ops, "calls/op")
    m["places.factorize.max_bits"] = (tracer.maxima["places.factorize"], "bits")
    m["torus.quotient_height.total_s"] = (get("torus.quotient_height", "total_s"), "s")
    m["torus.is_semistable.calls"] = (get("torus.is_semistable", "calls"), "count")
    m["torus.destabilizing_1ps.self_s"] = (get("torus.destabilizing_1ps", "self_s"), "s")
    m["conjugation.quotient_height_conj.total_s"] = (get("conjugation.quotient_height_conj", "total_s"), "s")
    m["conjugation.fundamental_formula_residual_conj.total_s"] = (
        get("conjugation.fundamental_formula_residual_conj", "total_s"), "s")
    m["cli.build_parser.self_s"] = (get("cli.build_parser", "self_s"), "s")
    total = get("op", "total_s") or 1.0
    for layer in LAYERS:
        self_s = sum(row["self_s"] for name, row in s.items() if name.startswith(layer + "."))
        m[f"share.{layer}"] = (self_s / total, "ratio")
    m["share.unattributed"] = (get("op", "self_s") / total, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.unattributed_s"] = (get("op", "self_s"), "s")
    m["check.arch_abs_err_max"] = (arch_err, "nat")
    return m


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One benchmark run; prints the report line and the result line."""
    workload = _workloads()[name]
    setup_times, setup_scaled = [], []
    for _ in range(SETUPS):
        gc.collect()  # free the previous set-up outside the timed one
        probes = [reference() for _ in range(PROBES_PER_SETUP)]
        t0 = time.perf_counter()
        bench = setup(workload, seed)
        setup_times.append(time.perf_counter() - t0)
        probes += [reference() for _ in range(PROBES_PER_SETUP)]
        setup_scaled.append(setup_times[-1] * scale(probes))
    gc.collect()

    tracer = None
    probes = []
    if name == "defects":
        results, latencies, wall = closed_loop(
            bench.calls, workload.limit, order=range(len(bench.calls)))
        checked = results
    elif trace:
        results, latencies, plain, overhead, tracer = traced_loop(bench, workload.limit, seconds)
        wall = sum(latencies)
        checked = plain + results
    else:
        results, latencies, wall = closed_loop(bench.calls, workload.limit, seconds, probes=probes)
        checked = results
    # the defects and traced runs take no probes: their operation times
    # stay wall-clock
    factor = scale(probes) if probes else 1.0

    verdicts, checker = check(bench, checked)
    failed = [v for v in verdicts if v is not None]
    lat_ms = [x * 1000.0 for x in latencies]
    ok = sum(kind == "ok" for _, kind, _ in results)
    wall_clock = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_per_s": ok / wall,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": _p90(lat_ms) if len(lat_ms) > 1 else lat_ms[0],
    }
    e2e = {
        "setup_s": statistics.median(setup_scaled),
        "throughput_ops_per_s": wall_clock["throughput_ops_per_s"] / factor,
        "latency_p50_ms": wall_clock["latency_p50_ms"] * factor,
        "latency_p90_ms": wall_clock["latency_p90_ms"] * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    listed = collections.Counter(
        (bench.cases[bench.ops[k][0]].label, bench.ops[k][1]) + v
        for (k, _, _), v in zip(checked, verdicts) if v is not None)
    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "end_to_end": {
            **{k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
            "ops_failed_frac": {"value": len(failed) / len(checked), "unit": "ratio"},
            "timeouts": {"value": sum(v[0] == "timeout" for v in failed), "unit": "count"},
            "wrong_results": {"value": sum(v[0] == "wrong" for v in failed), "unit": "count"},
        },
        "wall_clock": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in wall_clock.items()},
        "reference_ms": {"mean": REF_MS / factor if probes else None, "runs": len(probes)},
        "samples": {"setup": len(setup_times), "operations": len(results), "checked": len(checked)},
        "inputs": input_shares(bench.cases),
        "failures": [
            {"input": label, "op": op, "kind": cat, "detail": reason, "times": n}
            for (label, op, cat, reason), n in listed.items()
        ],
    }
    print(json.dumps(report))
    if tracer is not None:
        metrics = per_layer(tracer, len(results), overhead, checker.arch_err_max)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{name}-seed{seed}.json").write_text(json.dumps(tracer.to_json()))
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="torus-ladder, conj-ladder, big-primes, cli-sweep, defects or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {SRC / PACKAGE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    names = list(_workloads())
    if args.workload == "all":
        for name in names:
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)], check=False)
        return 0
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    signal.signal(signal.SIGALRM, _on_alarm)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
