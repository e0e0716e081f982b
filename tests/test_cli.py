import doctest
import functools
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from githeight import cli
from githeight.errors import NoConvergenceError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_height_point(capsys):
    code, data = run_json(capsys, "height", "2:2:1")
    assert code == 0
    assert abs(data["total"] - math.log(3)) < 1e-9
    assert data["finite"] == 0.0


def test_height_matrix_exact_format(capsys):
    code, data = run_json(
        capsys, "--format", "exact", "height", "--matrix", '[["1/2", 0], [0, 1]]'
    )
    assert code == 0
    assert data["finite"] == {"2": "1"}


def test_height_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"point": "1:1"}'))
    code, data = run_json(capsys, "height")
    assert code == 0
    assert abs(data["total"] - 0.5 * math.log(2)) < 1e-12


def test_instability_exact_output(capsys):
    code, data = run_json(
        capsys, "--format", "exact", "instability",
        "--weights=-2,1,4", "--point", "2:2:1", "--place", "2",
    )
    assert code == 0
    assert data["value"]["finite"] == {"2": "-2/3"}
    assert data["minimizer"] == ["-1/6"]
    assert data["residually_semistable"] is False


def test_instability_all_places(capsys):
    code, data = run_json(
        capsys, "instability",
        "--weights=-2,1,4", "--point", "2:2:1", "--place", "all",
    )
    assert code == 0
    table = data["instability"]
    assert set(table) == {"2", "oo"}
    assert abs(table["2"]["total"] + (2 / 3) * math.log(2)) < 1e-12
    assert table["oo"]["total"] == 0.0


def test_semistable_and_destabilize(capsys):
    code, data = run_json(capsys, "semistable", "--weights", "1,1", "--point", "1:1")
    assert code == 0 and data["semistable"] is False
    code, data = run_json(capsys, "destabilize", "--weights", "1,1", "--point", "1:1")
    assert code == 0 and data["one_ps"] == [1]
    code, data = run_json(
        capsys, "destabilize", "--weights=-2,1,4", "--point", "2:2:1"
    )
    assert code == 0 and data["semistable"] is True


@pytest.mark.parametrize("matrix, want", [("[[0,1],[0,0]]", False), ("[[1,1],[0,1]]", True)])
@pytest.mark.parametrize("from_stdin", [False, True])
def test_semistable_matrix(capsys, monkeypatch, matrix, want, from_stdin):
    # a matrix is semistable under conjugation iff it is not nilpotent
    if from_stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"matrix": json.loads(matrix)})))
        code, data = run_json(capsys, "semistable")
    else:
        code, data = run_json(capsys, "semistable", "--matrix", matrix)
    assert code == 0 and data == {"semistable": want}


@pytest.mark.parametrize("command", ["semistable", "destabilize"])
@pytest.mark.parametrize("weights", ["[[0.5],[0.7]]", "[[Infinity],[1]]", "[[true],[1]]"])
def test_non_integer_weights_exit_two(capsys, command, weights):
    code, out = run(capsys, command, "--weights", weights, "--point", "1:1")
    assert code == 2 and out == ""


@pytest.mark.parametrize("rank", ["Infinity", "1.9", "true"])
def test_non_integer_rank_exits_two(capsys, rank):
    action = '{"rank": %s, "weights": [[1], [2]]}' % rank
    code, out = run(capsys, "semistable", "--action", action, "--point", "1:1")
    assert code == 2 and out == ""


def test_quotient_height_torus(capsys):
    code, data = run_json(
        capsys, "quotient-height", "--weights=-2,1,4", "--point", "2:2:1"
    )
    assert code == 0
    assert abs(data["total"] - (math.log(3) - (2 / 3) * math.log(2))) < 1e-9


def test_quotient_height_matrix(capsys):
    code, data = run_json(capsys, "quotient-height", "--matrix", "[[1,1],[0,1]]")
    assert code == 0
    assert abs(data["total"] - 0.5 * math.log(2)) < 1e-9


def test_unstable_input_exits_one(capsys):
    code, _ = run(capsys, "quotient-height", "--weights", "1,1", "--point", "1:1")
    assert code == 1
    code, _ = run(capsys, "quotient-height", "--matrix", "[[0,1],[0,0]]")
    assert code == 1


def test_parse_errors_exit_two(capsys):
    code, _ = run(capsys, "height", "0:0")
    assert code == 2
    code, _ = run(capsys, "quotient-height", "--matrix", "[[1,2],[3)")
    assert code == 2
    code, _ = run(capsys, "instability", "--weights", "1,1",
                  "--point", "1:1", "--place", "6")
    assert code == 2
    code, _ = run(capsys, "semistable", "--weights", "0.5,1", "--point", "1:1")
    assert code == 2
    for value in ("nan", "inf"):
        code, _ = run(capsys, "--arch-tol", value, "quotient-height", "--weights=-1,1", "--point", "1:2")
        assert code == 2


def test_convergence_failure_exits_three(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NoConvergenceError("stalled")

    monkeypatch.setattr(cli, "quotient_height", boom)
    code, _ = run(capsys, "quotient-height", "--weights", "0", "--point", "1")
    assert code == 3


def test_minimal_command(capsys):
    code, data = run_json(capsys, "minimal", "--matrix", "[[1,1],[0,1]]",
                          "--place", "2")
    assert code == 0 and data["minimal"] is True
    code, data = run_json(capsys, "minimal", "--matrix", "[[1,1],[0,1]]",
                          "--place", "oo")
    assert code == 0 and data["minimal"] is False


def test_bounds_commands(capsys):
    code, data = run_json(capsys, "bounds", "ell", "2")
    assert code == 0 and data["ell"] == 0.5 * math.log(2)
    code, data = run_json(capsys, "bounds", "epsilon", "3")
    assert code == 0 and data["ok"] is True
    code, data = run_json(
        capsys, "bounds", "lower", "--b", "0,0", "--slopes", "0.5,-1.0",
        "--ranks", "2,3",
    )
    assert code == 0 and data["total"] == 0.0
    code, data = run_json(capsys, "bounds", "convex-lemma", "log3")
    assert code == 0 and abs(data["min"] - math.log(3)) < 1e-8


@pytest.mark.parametrize("argv, key", [
    (("bounds", "ell", "1000000000"), "ell"),
    (("bounds", "lower", "--b", "2", "--ranks", "1000000000", "--slopes", "0"), "total"),
])
def test_bounds_of_a_billion_ranks_return(capsys, time_limit, argv, key):
    with time_limit(2):
        code, data = run_json(capsys, *argv)
    assert code == 0 and math.isfinite(data[key])


_LOWER = ("bounds", "lower", "--b", "0,0", "--ranks", "2,3")


@pytest.mark.parametrize("slopes", [
    (),
    ("--slopes-json", "5"),
    ("--slopes-json", "[5]"),
    ("--slopes-json", '{"arch": 1}'),
    ("--slopes", "1,2", "--slopes-json", "[]"),
])
def test_bounds_lower_needs_one_slope_list(capsys, slopes):
    try:
        code = cli.main([*_LOWER, *slopes])
    except SystemExit as exc:  # argparse: the flags are one required choice
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err


def test_bounds_lower_exact_slopes(capsys):
    code, data = run_json(capsys, *_LOWER, "--slopes-json", '[{"arch": 0.5}, {"arch": -1.0}]')
    assert code == 0 and data["total"] == 0.0


@pytest.mark.parametrize("argv, payload", [
    (("height",), {"point": [True, 2]}),
    (("quotient-height",), {"matrix": [[True]]}),
])
def test_json_booleans_are_no_numbers(capsys, monkeypatch, argv, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_charpoly_beyond_double_range_exits_three(capsys):
    # 1e310 is finite as a rational; its charpoly's leading coefficient is
    # subnormal once the coefficients are scaled to at most 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["instability", "--matrix", '[["1e310","0"],["0","3"]]'])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "error: coefficient range exceeds double precision\n"


def test_action_json_input(capsys):
    action = json.dumps({"rank": 2, "weights": [[1, 0], [-1, 0], [0, 1], [0, -1]]})
    code, data = run_json(
        capsys, "semistable", "--action", action, "--point", "1:1:1:1"
    )
    assert code == 0 and data["semistable"] is True


# The docstrings that hold the 23 checks paper-suite once kept by hand.
_WORKED_EXAMPLES = {
    "githeight.heights.naive_height", "githeight.torus.is_semistable", "githeight.torus.destabilizing_1ps",
    "githeight.torus.instability_nonarch", "githeight.torus.instability_arch",
    "githeight.torus.quotient_height", "githeight.conjugation.is_semistable_conj",
    "githeight.conjugation.quotient_height_conj", "githeight.conjugation.instability_conj",
    "githeight.conjugation.is_minimal_arch", "githeight.conjugation.is_minimal_nonarch",
    "githeight.conjugation.moment_map_conj", "githeight.conjugation.orbit_sampling_bound",
    "githeight.bounds.ell", "githeight.bounds.explicit_lower_bound", "githeight.bounds.epsilon_map",
    "githeight.bounds.epsilon_norm_check", "githeight.bounds.convex_lemma_min",
    "githeight.bounds.convex_lemma_argmin",
}


def _docstring_examples() -> int:
    """The number of docstring examples in the package's source files."""
    names = ["githeight"] + [f"githeight.{path.stem}" for path in Path(cli.__file__).parent.glob("*.py")
                             if path.stem != "__init__"]
    finder = doctest.DocTestFinder()
    return sum(len(test.examples) for name in names for test in finder.find(importlib.import_module(name)))


def test_regression_suite_passes(capsys):
    code, out = run(capsys, "paper-suite")
    assert code == 0
    *lines, summary = out.splitlines()
    assert all(line.startswith("PASS  ") for line in lines)
    n = _docstring_examples()
    assert n >= 98 and summary == f"{n}/{n} examples passed"
    assert _WORKED_EXAMPLES <= {line.split()[1] for line in lines}


def test_regression_suite_reports_a_failing_example(capsys, monkeypatch):
    from githeight import torus
    from githeight.places import LogValue

    original = torus.quotient_height

    @functools.wraps(original)  # its docstring stays the one the suite replays
    def off_by_log3(*args, **kwargs):
        return original(*args, **kwargs) + LogValue({3: 1})

    monkeypatch.setattr(torus, "quotient_height", off_by_log3)
    code, out = run(capsys, "paper-suite")
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1 and re.fullmatch(r"FAIL  githeight\.torus\.quotient_height +3 examples", failed[0])
    assert "Expected:\n    ({2: Fraction(-2, 3)}, True)\nGot:\n    ({2: Fraction(-2, 3), 3: Fraction(1, 1)}, True)\n" in out
    passed, total = map(int, re.fullmatch(r"(\d+)/(\d+) examples passed", lines[-1]).groups())
    assert passed == total - 1


def test_instability_all_lists_charpoly_primes(capsys):
    # the entries are units everywhere; the prime 2 divides only the charpoly T^2 - 2T
    code, data = run_json(
        capsys, "instability", "--matrix", "[[1,1],[1,1]]", "--place", "all",
        "--format", "exact",
    )
    assert code == 0
    table = data["instability"]
    assert set(table) == {"2", "oo"}
    assert table["2"]["finite"] == {"2": "-1"}


@pytest.mark.parametrize("argv", [
    ("--matrix", "[[1,1],[1,1]]"),
    ("--matrix", '[["3/4", 6], [10, "1/5"]]'),
    ("--matrix", "[[0,1],[0,0]]"),
    ("--weights=-2,1,4", "--point", "2:2:1"),
    ("--weights=-3,3,-1", "--point", "12:5:7"),
    ("--weights", "1,1", "--point", "6:1"),
])
def test_instability_all_matches_single_places(capsys, argv):
    code, data = run_json(capsys, "--format", "exact", "instability", *argv, "--place", "all")
    assert code == 0
    for place, value in data["instability"].items():
        code, single = run_json(capsys, "--format", "exact", "instability", *argv, "--place", place)
        assert code == 0
        assert single["value"] == value


@pytest.mark.parametrize("argv", [("1e200:1",), ("--matrix", '[["1e200","0"],["0","1"]]')])
def test_height_of_huge_coordinates(capsys, argv):
    code, data = run_json(capsys, "height", *argv)
    assert code == 0
    assert abs(data["arch"] - 200 * math.log(10)) < 1e-9


# The torus point of tests/test_torus.py on which the archimedean Newton iteration stalls
STALL_ARGV = ("--weights=[[0,-2,-1],[-3,3,-2],[3,0,-3],[0,1,1],[-1,-2,0],[3,-3,-2]]",
              "--point=1267510573636933989563929/11:1/11712089809763281:11712089809763281"
              ":-1/108222409:7/108222409:7")


@pytest.mark.parametrize("argv, code", [
    (("quotient-height", "--weights=-1,1", "--point", "1:0"), 1),
    (("height", "1e100000000:1"), 2),
    (("height", "--matrix", '[["1e100000000","1"],["0","1"]]'), 2),
    (("quotient-height", *STALL_ARGV), 3),
    # a multiplier, slope or bound that is no finite double, never a traceback or bare NaN
    (("bounds", "lower", "--b", "1e400", "--ranks", "2", "--slopes", "0"), 2),
    (("bounds", "lower", "--b", "1e400", "--ranks", "3", "--slopes", "0"), 2),
    (("bounds", "lower", "--b", "1", "--ranks", "2", "--slopes", "nan"), 2),
    (("bounds", "lower", "--b", "1", "--ranks", "3", "--slopes", "1e400"), 2),
    # unstable, and refused before its (2^61 - 1)(2^89 - 1) is factored
    (("quotient-height", "--weights=-1,1", "--point", "1427247692705959880439315947500961989719490561:0"), 1),
])
def test_exit_codes_as_a_process(argv, code):
    # Fraction("1e100000000") alone was still parsing after 110 s
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "githeight.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=20)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


def run_stdin(capsys, monkeypatch, payload, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    return run(capsys, *argv)


UNIPOTENT = {"matrix": [[1, 1], [0, 1]]}
W214_POINT = {"weights": [[-2], [1], [4]], "point": "2:2:1"}


@pytest.mark.parametrize("command, payload, flags", [
    ("instability", UNIPOTENT, ("--matrix", "[[1,1],[0,1]]")),
    ("instability", W214_POINT, ("--weights=-2,1,4", "--point", "2:2:1")),
    ("minimal", UNIPOTENT, ("--matrix", "[[1,1],[0,1]]")),
])
def test_stdin_place_as_json_integer(capsys, monkeypatch, command, payload, flags):
    code, out = run_stdin(capsys, monkeypatch, {**payload, "place": 2}, command)
    assert code == 0
    assert (code, out) == run(capsys, command, *flags, "--place", "2")


@pytest.mark.parametrize("place", [0, False, True, None, 2.0, [2], {"p": 2}])
@pytest.mark.parametrize("command, payload", [
    ("instability", UNIPOTENT), ("instability", W214_POINT), ("minimal", UNIPOTENT),
])
def test_stdin_place_of_other_json_types_exits_two(capsys, monkeypatch, command, payload, place):
    code, out = run_stdin(capsys, monkeypatch, {**payload, "place": place}, command)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv, payload", [
    (("quotient-height",), {"weights": 5, "point": "1:1"}),
    (("quotient-height",), {"weights": True, "point": "1:1"}),
    (("height",), {"point": 5}),
    (("quotient-height",), {"weights": [[1], [-1]], "point": {"a": 1}}),
    (("quotient-height",), {"matrix": [1, 2]}),
    (("quotient-height", "--matrix", "[1,2]"), {}),
    (("quotient-height", "--matrix", "[" * 100_000), {}),
])
def test_wrong_json_types_exit_two(capsys, monkeypatch, argv, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _readme_examples():
    """(argv, printed JSON) of every `$ githeight` example in README.md whose
    output is a JSON object."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        # a command runs on over lines that end in a backslash
        for command, output in re.findall(r"^\$ githeight ((?:.*\\\n)*.*)\n((?:[^$].*\n)*)", block, re.M):
            if output.startswith("{"):
                examples.append((shlex.split(command.replace("\\\n", " ")), json.loads(output)))
    return examples


def _same_json(got, want):
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same_json(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same_json, got, want))
    return got == want


def test_readme_has_eight_json_examples():
    assert len(_readme_examples()) == 8


@pytest.mark.parametrize("argv, printed", _readme_examples())
def test_readme_examples(capsys, argv, printed):
    code, data = run_json(capsys, *argv)
    assert code == 0 and _same_json(data, printed)


_EVERY_SUBCOMMAND = [
    ("height", "2:2:1"),
    ("semistable", "--weights=-2,1,4", "--point", "2:2:1"),
    ("destabilize", "--weights", "1,1", "--point", "1:1"),
    ("instability", "--matrix", "[[2,0],[0,3]]", "--place", "all"),
    ("instability", "--weights=-1,1", "--point", "1:3", "--place", "oo"),
    ("quotient-height", "--matrix", "[[1,1],[0,1]]"),
    ("minimal", "--matrix", "[[1,1],[0,1]]"),
    ("bounds", "ell", "2"),
    ("bounds", "epsilon", "2"),
    ("bounds", "lower", "--b", "1,0", "--ranks", "2,3", "--slopes", "0.5,-1"),
    ("bounds", "convex-lemma", "log3"),
    ("paper-suite",),
]


# an option given explicitly at its default value is accepted in both places too
@pytest.mark.parametrize("option", [("--format", "float"), ("--arch-tol", "1e-4"),
                                    ("--format", "exact"), ("--norm", "sup")])
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND)
def test_global_options_before_and_after_the_subcommand(capsys, argv, option):
    before = run(capsys, *option, *argv)
    assert before[0] == 0
    assert run(capsys, *argv, *option) == before


@pytest.mark.parametrize("argv", [
    ("quotient-height", "--weights=-1,1", "--point", "1e200:1"),
    ("instability", "--weights=-1,1", "--point", "1e200:1", "--place", "oo"),
    ("instability", "--matrix", '[["1e200","1"],["0","1"]]', "--place", "oo"),
    ("instability", "--matrix", '[["1e200","1"],["0","1"]]', "--place", "oo", "--norm", "sup"),
])
def test_archimedean_terms_of_huge_entries(capsys, argv):
    code, out = run(capsys, *argv)
    assert code in (0, 3)
    if code == 0:
        assert "Infinity" not in out and "NaN" not in out


def test_sup_norm_of_entries_beyond_the_double_range(capsys):
    # charpoly T^2 - 1, so all of the measure is -log of the spectral norm 10^400
    code, data = run_json(capsys, "instability", "--matrix", '[["0","1e400"],["1e-400","0"]]',
                          "--norm", "sup")
    assert code == 0
    assert abs(data["value"]["arch"] + 400 * math.log(10)) < 1e-9


def test_torus_terms_of_huge_coordinate(capsys):
    # log x_i^2 are 921 apart, so the face Hessian at xi = 0 underflows to 0.0;
    # the least-squares start of the minimizer balances them at once
    code, data = run_json(capsys, "quotient-height", "--weights=-1,1", "--point", "1e200:1")
    assert code == 0
    assert abs(data["finite"] + 100 * math.log(10)) < 1e-9
    assert abs(data["total"] - 0.5 * math.log(2)) < 1e-9
    code, data = run_json(capsys, "instability", "--weights=-1,1", "--point", "1e200:1",
                          "--place", "oo")
    assert code == 0
    assert abs(data["value"]["total"] - (0.5 * math.log(2) - 100 * math.log(10))) < 1e-9


_UNFACTORABLE = str(10**200 + 1)


@pytest.mark.parametrize("argv", [
    ("quotient-height", "--matrix", json.dumps([[_UNFACTORABLE, "0"], ["0", _UNFACTORABLE]])),
    ("instability", "--matrix", json.dumps([[_UNFACTORABLE, "0"], ["0", _UNFACTORABLE]]),
     "--place", "all"),
])
def test_unfactorable_charpoly_exits_three(capsys, time_limit, argv):
    # (10^200 + 1) * I has charpoly (x - N)^2 with N = 10^200 + 1, so the gcd
    # of its coefficients is N, whose 616-bit cofactor Pollard-Brent does not
    # split within its step budget
    with time_limit(10):
        code, out = run(capsys, *argv)
    assert code == 3 and out == ""


def test_charpoly_with_a_large_cofactor_has_zero_finite_terms(capsys, time_limit):
    # the charpoly coefficient 10^200 + 1 leaves a 616-bit cofactor, but no
    # coefficient is factored: the finite places come from the entry
    # denominators and the gcd of the numerators, here 1 and 1
    matrix = ("--matrix", '[["1e200","0"],["0","1"]]')
    with time_limit(10):
        code, data = run_json(capsys, "quotient-height", *matrix)
    assert code == 0
    assert abs(data["total"] - 200 * math.log(10)) < 1e-9 and data["finite"] == 0.0
    with time_limit(10):
        code, data = run_json(capsys, "--format", "exact", "instability", *matrix, "--place", "all")
    assert code == 0
    finite = {place: term for place, term in data["instability"].items() if place != "oo"}
    assert finite and all(term["finite"] == {} and term["arch"] == 0.0 for term in finite.values())


def test_minimal_of_huge_entries(capsys):
    code, data = run_json(capsys, "minimal", "--matrix", '[["1e200","1"],["0","1"]]')
    assert code == 0 and data["minimal"] is False


_big = st.builds(lambda s, k: f"{s}1e{k}", st.sampled_from(["", "-"]), st.integers(0, 300))
# a value of a wrong JSON type for weights, point, action, matrix or one matrix row
_wrong_json = st.one_of(
    st.integers(-3, 3), st.booleans(), st.none(), st.dictionaries(st.just("a"), st.integers(0, 3)),
    st.sampled_from(["x", "1,x", "", "[1", "{}"]), st.lists(st.integers(-2, 2), max_size=3),
)
_place_values = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 10), st.integers(10**20, 10**30),
    st.floats(allow_nan=False), st.sampled_from(["oo", "2", "3", "x", ""]),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.just("p"), st.integers(0, 3)),
)


@st.composite
def _cli_calls(draw):
    """(argv, stdin payload) of a command that must exit with 0, 1, 2 or 3."""
    if draw(st.booleans()):  # a torus point
        rank, k = draw(st.integers(1, 2)), draw(st.integers(1, 4))
        entry = st.one_of(st.integers(-2, 2), st.sampled_from([0.5, 1.0, True, math.inf]))
        weights = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank),
                                min_size=k, max_size=k))
        payload = {"weights": weights, "point": ":".join(draw(st.lists(_big, min_size=k, max_size=k)))}
        command = draw(st.sampled_from(
            ["height", "instability", "quotient-height", "semistable", "destabilize"]))
        places = ["oo", "2", "all"]
    else:  # a matrix: quotient height and --place all factor the charpoly's gcd too
        n = draw(st.integers(1, 3))
        rows = st.lists(st.lists(_big, min_size=n, max_size=n), min_size=n, max_size=n)
        payload = {"matrix": draw(rows)}
        command = draw(st.sampled_from(["height", "instability", "minimal", "quotient-height"]))
        places = ["oo", "2", "all"]
    if draw(st.integers(0, 3)) == 3:  # one input, or one matrix row, of a wrong JSON type
        key = draw(st.sampled_from(["weights", "point", "action"] if "point" in payload else ["matrix", "row"]))
        if key == "row":
            payload["matrix"][draw(st.integers(0, len(payload["matrix"]) - 1))] = draw(_wrong_json)
        else:
            payload[key] = draw(_wrong_json)
    if command in ("height", "quotient-height", "semistable", "destabilize"):
        return [command], payload
    if draw(st.booleans()):
        return [command], {**payload, "place": draw(st.one_of(_place_values, st.sampled_from(places)))}
    return [command, "--place", draw(st.sampled_from(places))], payload


@settings(deadline=None, max_examples=60, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_cli_calls())
def test_cli_exit_codes_on_huge_and_odd_inputs(capsys, monkeypatch, time_limit, call):
    argv, payload = call
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    # a number Pollard-Brent cannot split exits 3 within its budget
    with time_limit(10):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("paper-suite",),
    ("instability", "--matrix", "[[1,1],[0,1]]", "--place", "2"),
])
def test_closed_stdout_exits_quietly(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "githeight.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
