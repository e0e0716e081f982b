"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Case  # noqa: E402

GENERATORS = ("torus-ladder", "conj-ladder", "big-primes", "cli-sweep", "defects")


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", GENERATORS)
def test_same_seed_gives_identical_inputs(name):
    generate = run._workloads()[name].generate
    first, again, other = generate(7), generate(7), generate(8)
    assert first == again
    assert first != other


def test_readme_torus_values():
    case = Case("2:2:1", "torus", "r1w3", ("qh",), weights=((-2,), (1,), (4,)),
                coords=tuple(Fraction(c) for c in (2, 2, 1)))
    truth = oracles.torus_truth(case)
    assert truth.stable
    assert truth.measures == {2: Fraction(-2, 3)}  # -(2/3) log 2 at p = 2
    assert truth.qh_finite() == {2: Fraction(-2, 3)}
    assert abs(truth.naive_arch + truth.arch - math.log(3)) < oracles.ARCH_TOL


@pytest.mark.parametrize("eigenvalues", [None, (1, 1)])
def test_readme_conjugation_value(eigenvalues):
    case = Case("[[1,1],[0,1]]", "matrix", "n2", ("qhc",),
                rows=((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))),
                eigenvalues=eigenvalues)
    truth = oracles.matrix_truth(case)
    assert not truth.nilpotent
    assert truth.qh_finite() == {}
    assert abs(truth.qh_arch - 0.5 * math.log(2)) < 1e-12  # log sqrt 2


def test_exact_charpoly_matches_known_eigenvalues():
    for case in workloads.conj_ladder(3)[:12]:
        if case.eigenvalues is not None:
            assert oracles.charpoly(case.rows) == oracles.from_roots(case.eigenvalues)


def test_oracles_flag_the_place_all_gap():
    bench = run.setup(run._workloads()["defects"], 1)
    k = next(k for k, (i, op) in enumerate(bench.ops)
             if bench.cases[i].label == "matrix [[1,1],[1,1]]" and op == "cli-all")
    outcome = run.attempt(bench.calls[k], run.LIMIT_S)
    verdicts, _ = run.check(bench, [(k,) + outcome])
    assert verdicts[0][0] == "wrong" and "['2']" in verdicts[0][1]


@pytest.mark.parametrize("name", ["torus-ladder", "conj-ladder", "cli-sweep"])
def test_traced_spans_nest_and_share_op_ids(name):
    bench = run.setup(run._workloads()[name], 1)
    originals = {(m, f): getattr(sys.modules[f"githeight.{m}"], f) for m, f, _ in run.TRACED}
    tracer = spans.Tracer()
    tracer.instrument(run.PACKAGE, run.TRACED)
    try:
        results, _, _ = run.closed_loop(bench.calls, run.LIMIT_S, order=range(6),
                                        wrap=lambda j, fn: lambda: tracer.run_op(j, fn))
    finally:
        tracer.restore()
    assert all(kind == "ok" for _, kind, _ in results)
    for (m, f), fn in originals.items():
        assert getattr(sys.modules[f"githeight.{m}"], f) is fn
    assert tracer.names.count(spans.ROOT) == 6
    assert len(tracer.names) > 6
    for i, parent in enumerate(tracer.parents):
        if parent < 0:
            assert tracer.names[i] == spans.ROOT
            continue
        assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent]
        assert tracer.op_ids[i] == tracer.op_ids[parent]
    for row in tracer.summary().values():
        assert 0 <= row["self_s"] <= row["total_s"]
    metrics = run.per_layer(tracer, 6, 0.0, 0.0)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    assert [m["unit"] for m in declared["per_layer"]] == [u for _, u in metrics.values()]


def test_declared_end_to_end_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(GENERATORS[:-1])
