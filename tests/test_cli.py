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

from githeight import cli, conjugation, torus
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


def test_a_strong_pseudoprime_to_the_bases_up_to_41_is_no_place(capsys):
    code, out = run(capsys, "instability", "--matrix", "[[1,1],[0,1]]",
                    "--place", "3317044064679887385961981")
    assert code == 2 and out == ""


def test_small_eigenvalues_stay_apart(capsys):
    # diag(1e-7, 3e-7) is normal, so its term at oo is 0, as for diag(1, 3)
    code, data = run_json(capsys, "instability", "--matrix", '[["1e-7","0"],["0","3e-7"]]',
                          "--place", "oo")
    assert code == 0 and abs(data["value"]["arch"]) < 1e-15
    # the eigenvalues +-1e-9 are two roots, not a double root at 0
    code, data = run_json(capsys, "quotient-height", "--matrix", '[["1e-9","0"],["0","-1e-9"]]')
    assert code == 0 and abs(data["total"] - 0.5 * math.log(2)) < 1e-12


@pytest.mark.parametrize("target, argv", [
    ("githeight.torus._newton_minimize", ("quotient-height", "--weights=-1,1", "--point", "1:2")),
    ("githeight.torus._newton_minimize", ("instability", "--weights=-1,1", "--point", "1:2", "--place", "all")),
    ("githeight.conjugation.complex_roots", ("quotient-height", "--matrix", "[[1,1],[0,1]]")),
    ("githeight.conjugation.complex_roots", ("instability", "--matrix", "[[1,1],[0,1]]", "--place", "oo")),
])
def test_convergence_failure_exits_three(capsys, monkeypatch, target, argv):
    # the commands read the input's record, whose minimizer or root solver fails here
    def boom(*args, **kwargs):
        raise NoConvergenceError("stalled")

    torus._POINTS.cache_clear()
    conjugation._MATRICES.cache_clear()
    monkeypatch.setattr(target, boom)
    code = cli.main(list(argv))
    assert (code, *capsys.readouterr()) == (3, "", "error: stalled\n")


def test_minimal_command(capsys):
    code, data = run_json(capsys, "minimal", "--matrix", "[[1,1],[0,1]]",
                          "--place", "2")
    assert code == 0 and data["minimal"] is True
    code, data = run_json(capsys, "minimal", "--matrix", "[[1,1],[0,1]]",
                          "--place", "oo")
    assert code == 0 and data["minimal"] is False


def test_bounds_commands(capsys):
    code, data = run_json(capsys, "bounds", "lower", "--weights=-1,1", "--point", "1:1")
    assert code == 0 and data["total"] == 0.5 * math.log(2)
    code, data = run_json(capsys, "bounds", "lower", "--matrix", "[[0,-1],[1,0]]", "--format", "exact")
    assert code == 0 and data == {"arch": 0.5 * math.log(2), "finite": {}, "neg_inf": False,
                                  "total": 0.5 * math.log(2)}


@pytest.mark.parametrize("argv", [
    (),
    ("--weights=-1,1",),
    ("--point", "1:1"),
    ("--weights=-1,x", "--point", "1:1"),
    ("--weights=-1,1", "--point", "0:0"),
    ("--matrix", "[[1,2,3],[4,5,6]]"),
    ("--matrix", "[[0,0],[0,0]]"),
])
def test_bounds_lower_refuses_a_malformed_subject(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    try:
        code = cli.main(["bounds", "lower", *argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error:") and "Traceback" not in err


# the bounds read no prime: (2^61 - 1)(2^89 - 1) is never factored
@pytest.mark.parametrize("argv", [
    ("--weights=-1,1", "--point", "1427247692705959880439315947500961989719490561:1"),
    ("--matrix", "[[1427247692705959880439315947500961989719490561,0],[0,1]]"),
])
def test_bounds_of_an_unfactored_entry_return(capsys, time_limit, argv):
    with time_limit(2):
        code, data = run_json(capsys, "bounds", "lower", *argv)
    assert code == 0 and data["total"] == 0.5 * math.log(2)


def test_bounds_lower_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"weights": [-2, 1, 4], "point": "2:2:1"})))
    code, data = run_json(capsys, "bounds", "lower")
    assert code == 0 and data["total"] == pytest.approx(math.log(3) - 8 / 9 * math.log(2), rel=1e-15)


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


# The docstrings that hold 21 of the 23 checks paper-suite once kept by hand.
_WORKED_EXAMPLES = {
    "githeight.heights.naive_height", "githeight.torus.is_semistable", "githeight.torus.destabilizing_1ps",
    "githeight.torus.instability_nonarch", "githeight.torus.instability_arch",
    "githeight.torus.quotient_height", "githeight.conjugation.is_semistable_conj",
    "githeight.conjugation.quotient_height_conj", "githeight.conjugation.instability_conj",
    "githeight.conjugation.is_minimal_arch", "githeight.conjugation.is_minimal_nonarch",
    "githeight.torus.lower_bound", "githeight.conjugation.lower_bound_conj",
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
    assert n >= 80 and summary == f"{n}/{n} examples passed"
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
    # an unstable point and a nilpotent matrix have no bound; a malformed matrix is no input
    (("bounds", "lower", "--weights=-1,1", "--point", "1:0"), 1),
    (("bounds", "lower", "--matrix", "[[0,1],[0,0]]"), 1),
    (("bounds", "lower", "--matrix", "[[0,1],[0]]"), 2),
    (("bounds", "lower", "--weights=-1,1", "--point", "1:2:3"), 2),
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


# each of these once exited 0: an empty field was dropped, so 1::2 was the point 1:2
# and -1,,1 the weights -1, 1
@pytest.mark.parametrize("argv", [
    ("--weights=-1,1", "--point=1::2"), ("--weights=-1,1", "--point=1:2:"), ("--weights=-1,1", "--point=:1:2"),
    ("--weights=-1,,1", "--point=1:2"), ("--weights=-1,1,", "--point=1:2"),
])
def test_an_empty_coordinate_or_weight_exits_two(capsys, argv):
    assert cli.main(["quotient-height", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


_ACTION = {"rank": 1, "weights": [[-2], [1]]}


# each of these once exited 0 on one subject and ignored the other
@pytest.mark.parametrize("command, inputs", [
    ("quotient-height", {"matrix": [[2]], "weights": "-1,1", "point": "1:2"}),
    ("quotient-height", {"matrix": [[2]], "action": _ACTION}),
    ("quotient-height", {"weights": "-1,1", "action": _ACTION, "point": "1:2"}),
    ("height", {"matrix": [[1]], "point": "1:2"}),
])
@pytest.mark.parametrize("from_stdin", [False, True])
def test_two_subjects_exit_two(capsys, monkeypatch, command, inputs, from_stdin):
    if from_stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(inputs)))
        argv = []
    else:
        argv = [f"--{k}={v if isinstance(v, str) else json.dumps(v)}" for k, v in inputs.items()]
        if command == "height":  # its point is positional
            argv = [inputs["point"], *(a for a in argv if not a.startswith("--point="))]
    assert cli.main([command, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


# each of these once exited 0 and ignored the key that the command does not take
@pytest.mark.parametrize("command, payload, key", [
    ("destabilize", {"matrix": [[2]], "weights": "-1,1", "point": "1:1"}, "matrix"),
    ("minimal", {"matrix": [[2]], "point": "1:2"}, "point"),
    ("height", {"weights": "-1,1", "point": "1:2"}, "weights"),
    ("semistable", {"weights": "-1,1", "point": "1:2", "place": "oo"}, "place"),
    ("quotient-height", {"matrix": [[2]], "arch_tol": 1e-9}, "arch_tol"),
])
def test_a_stdin_key_the_command_does_not_take_exits_two(capsys, monkeypatch, command, payload, key):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert cli.main([command]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("weights, named", [("1.5,1", "1.5"), ("-1,x", "x"), ("-1,,1", "")])
def test_a_weight_that_is_no_integer_is_named(capsys, weights, named):
    assert cli.main(["quotient-height", f"--weights={weights}", "--point", "1:1"]) == 2
    assert capsys.readouterr() == ("", f"error: weight {named!r} is not an integer\n")


def _run_python(script):
    """Run `python -c script` with the package's source directory on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)


def _run_cli_without_scipy(*argv):
    """Run the CLI in a process in which `import scipy` fails."""
    return _run_python("import runpy, sys; sys.modules['scipy'] = None; import githeight; "
                       f"sys.argv = ['githeight', *{list(argv)!r}]; "
                       "runpy.run_module('githeight.cli', run_name='__main__')")


@pytest.mark.parametrize("argv", [("--weights=-2,1,4", "--point", "1:1:1"), ("--weights=-1,1", "--point", "1:1"),
                                  ("--matrix", "[[0,-1],[1,0]]")])
def test_bounds_lower_runs_without_scipy(capsys, argv):
    # scipy is a test dependency only: a process that cannot import it still runs the bounds,
    # and prints what the package prints in-process
    proc = _run_cli_without_scipy("bounds", "lower", *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == run_json(capsys, "bounds", "lower", *argv)[1]


def test_paper_suite_runs_without_scipy():
    proc = _run_cli_without_scipy("paper-suite")
    assert proc.returncode == 0, proc.stderr
    n = _docstring_examples()
    assert proc.stdout.splitlines()[-1] == f"{n}/{n} examples passed"


def test_importing_the_cli_loads_no_scipy():
    # not blocked here: nothing the package imports may pull scipy in
    proc = _run_python("import sys, githeight, githeight.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^## Library use\n\n```python\n(.*?)```", text, re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})


_EVERY_SUBCOMMAND = [
    ("height", "2:2:1"),
    ("semistable", "--weights=-2,1,4", "--point", "2:2:1"),
    ("destabilize", "--weights", "1,1", "--point", "1:1"),
    ("instability", "--matrix", "[[2,0],[0,3]]", "--place", "all"),
    ("instability", "--weights=-1,1", "--point", "1:3", "--place", "oo"),
    ("quotient-height", "--matrix", "[[1,1],[0,1]]"),
    ("minimal", "--matrix", "[[1,1],[0,1]]"),
    ("bounds", "lower", "--weights=-2,1,4", "--point", "1:1:1"),
    ("bounds", "lower", "--matrix", "[[1,1],[0,1]]"),
    ("bounds", "lower", "--weights=-1,1", "--point", "1:1"),
    ("bounds", "lower", "--matrix", "[[0,-1],[1,0]]"),
    ("paper-suite",),
]


# an option given explicitly at its default value is accepted in both places too
@pytest.mark.parametrize("option", [("--format", "float"), ("--arch-tol", "1e-4"),
                                    ("--format", "exact")])
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND)
def test_global_options_before_and_after_the_subcommand(capsys, argv, option):
    before = run(capsys, *option, *argv)
    assert before[0] == 0
    assert run(capsys, *argv, *option) == before


def test_the_archimedean_matrix_norm_is_no_option(capsys):
    # Frobenius at oo is the naive height's norm, so the identity holds; no other norm is offered
    with pytest.raises(SystemExit) as exc:
        cli.main(["instability", "--matrix", "[[1,1],[0,1]]", "--norm", "sup"])
    assert exc.value.code == 2 and "--norm" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("quotient-height", "--weights=-1,1", "--point", "1e200:1"),
    ("instability", "--weights=-1,1", "--point", "1e200:1", "--place", "oo"),
    ("instability", "--matrix", '[["1e200","1"],["0","1"]]', "--place", "oo"),
])
def test_archimedean_terms_of_huge_entries(capsys, argv):
    code, out = run(capsys, *argv)
    assert code in (0, 3)
    if code == 0:
        assert "Infinity" not in out and "NaN" not in out


def test_frobenius_term_of_entries_beyond_the_double_range(capsys):
    # eigenvalues +-1 and Frobenius norm 10^400 up to 10^-800: 1/2 log 2 - 400 log 10
    code, data = run_json(capsys, "instability", "--matrix", '[["0","1e400"],["1e-400","0"]]',
                          "--place", "oo")
    assert code == 0
    assert abs(data["value"]["arch"] - (0.5 * math.log(2) - 400 * math.log(10))) < 1e-9


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
            if key == "action":  # in place of the weights: an action beside them is a second subject
                del payload["weights"]
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
