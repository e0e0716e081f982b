import io
import json
import math

import pytest

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
    code, _ = run(capsys, "--tol", "-1", "height", "1:1")
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


def test_env_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("GIT_HEIGHT_TOL", "-2")
    code, _ = run(capsys, "height", "1:1")
    assert code == 2  # invalid tolerance from the environment is rejected
    monkeypatch.setenv("GIT_HEIGHT_TOL", "0.01")
    code, _ = run(capsys, "height", "1:1")
    assert code == 0


def test_action_json_input(capsys):
    action = json.dumps({"rank": 2, "weights": [[1, 0], [-1, 0], [0, 1], [0, -1]]})
    code, data = run_json(
        capsys, "semistable", "--action", action, "--point", "1:1:1:1"
    )
    assert code == 0 and data["semistable"] is True


def test_regression_suite_passes(capsys):
    code, out = run(capsys, "paper-suite")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 23
    assert all(l.startswith("PASS") for l in lines)
    assert "23/23 checks passed" in out


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
