"""End-to-end tests for the command line interface."""

import copy
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gpolyvlp import cli, cone, vlp
from gpolyvlp.cli import main
from gpolyvlp.polyhedron import InternalInvariantError
from gpolyvlp.exact import format_rational, parse_rational

TRIANGLE = {
    "version": "1",
    "M": [["1", "0"], ["0", "1"]],
    "D": {
        "dim": 2,
        "ineq": [[["-1", "-1"], ["1", "0"], ["0", "1"]], ["-1", "1", "1"]],
    },
    "K": {"dim": 2, "normals": [["-1", "0"], ["0", "-1"]]},
}

SQUARE_CONSTANT = {
    "version": "1",
    "M": [["1", "0"], ["0", "0"]],
    "D": {
        "dim": 2,
        "ineq": [
            [["-1", "0"], ["0", "-1"], ["1", "0"], ["0", "1"]],
            ["0", "0", "1", "1"],
        ],
    },
    "K": {"dim": 2, "normals": [["-1", "0"], ["0", "-1"]]},
}


# The interpreter's limit on the digits int() converts: absent before Python
# 3.10.7, and switched off when it reads 0.
needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() has no digit limit",
)


def orthant_cube_doc(n):
    """The unit n-cube with identity objective, ordered by the orthant."""
    unit = [[str(int(i == j)) for j in range(n)] for i in range(n)]
    neg = [[str(-int(i == j)) for j in range(n)] for i in range(n)]
    return {
        "version": "1",
        "M": unit,
        "D": {"dim": n, "ineq": [neg + unit, ["0"] * n + ["1"] * n]},
        "K": {"dim": n, "normals": neg},
    }


def tangent_cut_doc(k):
    """D cut out of R^3 by the tangent planes of x y z = 1 at
    (a, b, 1 / (a b)), a, b = 1..k, b x + a y + a^2 b^2 z >= 3 a b, with
    identity objective ordered by the orthant: W's DD holds more rays
    than D has rows."""
    pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
    doc = orthant_cube_doc(3)
    doc["D"] = {
        "dim": 3,
        "ineq": [
            [[str(-b), str(-a), str(-a * a * b * b)] for a, b in pairs],
            [str(-3 * a * b) for a, b in pairs],
        ],
    }
    return doc


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_CONSTANT))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_triangle_efficient_face(self, triangle_file, capsys):
        code, out, err = run(capsys, "solve", "--problem", triangle_file)
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["kind"] == "efficient"
        assert not obj["subspace_cone"] and not obj["empty_interior"]
        (face,) = obj["faces"]
        assert face["active_ineq"] == [0]
        assert face["vrep"]["points"] == [["0", "1"], ["1", "0"]]

    def test_weak_kind_covers_square(self, square_file, capsys):
        code, out, _ = run(capsys, "solve", "--problem", square_file, "--kind", "weak")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "weak"
        (face,) = obj["faces"]
        assert face["active_ineq"] == []
        assert len(face["vrep"]["points"]) == 4

    def test_out_flag_writes_file(self, triangle_file, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "solve", "--problem", triangle_file, "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["kind"] == "efficient"

    def test_infeasible_problem_yields_empty_faces(self, tmp_path, capsys):
        obj = dict(TRIANGLE)
        obj["D"] = {"dim": 1, "ineq": [[["1"], ["-1"]], ["-1", "0"]]}
        obj["M"] = [["1"]]
        obj["K"] = {"dim": 1, "normals": [["-1"]]}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "solve", "--problem", str(path))
        assert code == 0
        assert json.loads(out)["faces"] == []

    def test_rational_strings_round_trip(self, triangle_file, capsys):
        code, out, _ = run(capsys, "solve", "--problem", triangle_file)
        assert code == 0
        obj = json.loads(out)
        for face in obj["faces"]:
            for group in ("points", "rays", "lineality"):
                for row in face["vrep"][group]:
                    assert [format_rational(parse_rational(s)) for s in row] == row

    def test_face_cap_aborts_with_exit_4(self, triangle_file, capsys, monkeypatch):
        monkeypatch.setenv("GPOLY_MAX_FACES", "1")
        code, out, err = run(capsys, "solve", "--problem", triangle_file)
        assert code == 4 and out == ""
        assert "face" in err

    @pytest.mark.parametrize("n", [8, 10])
    @pytest.mark.parametrize("kind", ["efficient", "weak"])
    def test_large_orthant_cubes_answer_at_the_default_cap(
        self, n, kind, tmp_path, capsys, monkeypatch
    ):
        # 3^n faces, more than the default cap of 4096, but W's DD holds at
        # most n + 2 rays: the strict set is the origin vertex, the weak set
        # the n facets through it
        monkeypatch.delenv("GPOLY_MAX_FACES", raising=False)
        path = tmp_path / "cube.json"
        path.write_text(json.dumps(orthant_cube_doc(n)))
        code, out, _ = run(capsys, "solve", "--problem", str(path), "--kind", kind)
        assert code == 0
        tags = [f["active_ineq"] for f in json.loads(out)["faces"]]
        assert tags == ([list(range(n))] if kind == "efficient" else [[i] for i in range(n)])

    @pytest.mark.parametrize("kind", ["efficient", "weak"])
    def test_weight_polyhedron_blow_up_exits_4(self, kind, tmp_path, capsys, monkeypatch):
        # 16 rows: W's DD holds up to 46 rays (strict) and 24 (weak), past
        # a cap of 16; the default cap answers with the 16 facets
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(tangent_cut_doc(4)))
        monkeypatch.setenv("GPOLY_MAX_FACES", "16")
        code, out, err = run(capsys, "solve", "--problem", str(path), "--kind", kind)
        assert code == 4 and out == ""
        assert "face" in err
        monkeypatch.delenv("GPOLY_MAX_FACES")
        code, out, _ = run(capsys, "solve", "--problem", str(path), "--kind", kind)
        assert code == 0
        assert [f["active_ineq"] for f in json.loads(out)["faces"]] == [[i] for i in range(16)]

    @pytest.mark.parametrize("kind", ["efficient", "weak"])
    def test_argmin_face_missing_from_the_lattice_exits_3(
        self, kind, triangle_file, capsys, monkeypatch
    ):
        # both sets of the triangle are its edge with tag (0,), the points
        # (0, 1) and (1, 0), bits 0 and 1 of D's incidence.  With row 0 no
        # longer tight on (0, 1), no row's mask contains the edge's mask, so
        # the tight mask of its weight is no face of D
        real = vlp._generators

        def corrupted(d, eqs, ineqs):
            gens = real(d, eqs, ineqs)
            gens.tight = (gens.tight[0] & ~1,) + gens.tight[1:]
            return gens

        monkeypatch.setattr(vlp, "_generators", corrupted)
        code, out, err = run(capsys, "solve", "--problem", triangle_file, "--kind", kind)
        assert code == 3 and out == ""
        assert err == "error: a weight's argmin face is missing from the face lattice\n"

    @pytest.mark.parametrize("kind", ["efficient", "weak"])
    def test_set_weight_rejected_by_the_cone_exits_3(
        self, kind, triangle_file, capsys, monkeypatch
    ):
        # every set weight is re-checked in ints by cone._dual_weight: a
        # strict one for ri(K*), a weak one for sum lambda_j (-n_j) != 0
        checked = []

        def rejecting(K, split, w, weak):
            checked.append(weak)
            return None

        monkeypatch.setattr(vlp, "_dual_weight", rejecting)
        code, out, err = run(capsys, "solve", "--problem", triangle_file, "--kind", kind)
        assert code == 3 and out == ""
        assert err == "error: a set weight left the admissible dual weights\n"
        assert checked == [kind == "weak"]

    def test_bad_face_cap_is_a_usage_error(self, triangle_file, capsys, monkeypatch):
        # int() accepts all of these but "many", and "0" is not positive
        for cap in ["many", " 12 ", "1_0", "+3", "12\n", "\u0661\u0662", "\uff11\uff12", "0"]:
            monkeypatch.setenv("GPOLY_MAX_FACES", cap)
            code, _, err = run(capsys, "solve", "--problem", triangle_file)
            assert code == 2, cap
            assert "GPOLY_MAX_FACES" in err

    @needs_digit_limit
    def test_face_cap_past_the_digit_limit_is_a_usage_error(
        self, triangle_file, capsys, monkeypatch
    ):
        # ASCII digits pass the digit check, and int() refuses them
        monkeypatch.setenv("GPOLY_MAX_FACES", "9" * (sys.get_int_max_str_digits() + 1))
        code, _, err = run(capsys, "solve", "--problem", triangle_file)
        assert code == 2
        assert "GPOLY_MAX_FACES" in err


class TestProblemParsing:
    def test_malformed_rational_is_located(self, tmp_path, capsys):
        obj = json.loads(json.dumps(TRIANGLE))
        obj["M"][0][1] = "1/0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2 and out == ""
        assert "$.M[0][1]" in err

    def test_bad_polyhedron_entry_is_located_to_section(self, tmp_path, capsys):
        obj = json.loads(json.dumps(TRIANGLE))
        obj["D"]["ineq"][0][0][0] = "0.5"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2
        assert "$.D" in err

    def test_missing_version_is_rejected(self, tmp_path, capsys):
        obj = json.loads(json.dumps(TRIANGLE))
        del obj["version"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2 and "$.version" in err

    def test_unsupported_version_is_rejected(self, tmp_path, capsys):
        obj = json.loads(json.dumps(TRIANGLE))
        obj["version"] = "99"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2 and "version" in err

    def test_dimension_mismatch_is_rejected(self, tmp_path, capsys):
        obj = json.loads(json.dumps(TRIANGLE))
        obj["K"]["dim"] = 3
        obj["K"]["normals"] = [["-1", "0", "0"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2

    def test_unreadable_file_is_reported(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--problem", str(tmp_path / "nope.json"))
        assert code == 2 and "cannot read" in err

    def test_invalid_json_is_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2 and "invalid JSON" in err

    @pytest.mark.parametrize(
        "content",
        [
            # json.load cannot convert an integer literal past Python's
            # digit limit and raises a plain ValueError
            pytest.param(
                lambda: b'{"version": "1", "M": [['
                + b"9" * (sys.get_int_max_str_digits() + 1)
                + b"]]}",
                marks=needs_digit_limit,
                id="oversized-integer",
            ),
            # bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError
            pytest.param(lambda: b'{"version": "\xff"}', id="not-utf8"),
        ],
    )
    def test_unloadable_file_is_an_input_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content())
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "invalid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section", ["D", "K"])
    def test_boolean_dim_is_rejected(self, tmp_path, capsys, section):
        # bool is an int in Python, so true would otherwise pass as dim 1
        obj = {
            "version": "1",
            "M": [["1"]],
            "D": {"dim": 1, "ineq": [[["-1"], ["1"]], ["0", "1"]]},
            "K": {"dim": 1, "normals": [["-1"]]},
        }
        obj[section]["dim"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2 and out == ""
        assert f"$.{section}: dim must be a positive integer" in err


class TestTest:
    def test_efficient_point_reports_witness(self, triangle_file, capsys):
        code, out, _ = run(
            capsys, "test", "--problem", triangle_file, "--point", "0,1"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["efficient"] is True
        assert obj["witness"] == ["3", "2"]

    def test_dominated_point_reports_false(self, triangle_file, capsys):
        code, out, _ = run(
            capsys, "test", "--problem", triangle_file, "--point", "(1,1)"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["efficient"] is False and "witness" not in obj

    def test_efficient_point_runs_no_slack_program(self, triangle_file, capsys, monkeypatch):
        # the witness certifies efficiency by itself; only a dominated point
        # runs the slack program, to confirm that no witness exists
        calls = []
        real = vlp._max_slack

        def counting(P, at, weak):
            calls.append(at)
            return real(P, at, weak)

        monkeypatch.setattr(vlp, "_max_slack", counting)
        code, out, _ = run(capsys, "test", "--problem", triangle_file, "--point", "0,1")
        assert code == 0 and json.loads(out)["witness"] == ["3", "2"]
        assert calls == []
        code, out, _ = run(capsys, "test", "--problem", triangle_file, "--point", "1,1")
        assert code == 0 and json.loads(out) == {"efficient": False}
        assert len(calls) == 1

    def test_weak_kind(self, square_file, capsys):
        code, out, _ = run(
            capsys, "test", "--problem", square_file, "--point", "1,1", "--kind", "weak"
        )
        assert code == 0 and json.loads(out) == {"weak": True}

    def test_cone_without_normals(self, tmp_path, capsys):
        # K is the whole space: every point is efficient with the zero
        # witness, and none is weakly efficient
        obj = copy.deepcopy(TRIANGLE)
        del obj["K"]["normals"]
        path = tmp_path / "whole.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "test", "--problem", str(path), "--point", "0,1")
        assert code == 0
        assert json.loads(out) == {"efficient": True, "witness": ["0", "0"]}
        code, out, _ = run(
            capsys, "test", "--problem", str(path), "--point", "0,1", "--kind", "weak"
        )
        assert code == 0 and json.loads(out) == {"weak": False}

    def test_weak_kind_without_normals_at_a_point_with_no_tight_row(self, tmp_path, capsys):
        # K is the whole space and D = {x1 <= 1}: (0, 0) is tight on no row
        # of D, and the answer is the one (1, 0) gets
        obj = {
            "version": "1",
            "M": [["1", "0"], ["0", "1"]],
            "D": {"dim": 2, "eq": [[], []], "ineq": [[["1", "0"]], ["1"]]},
            "K": {"dim": 2, "normals": []},
        }
        path = tmp_path / "halfplane.json"
        path.write_text(json.dumps(obj))
        for point in ("0,0", "1,0"):
            code, out, err = run(
                capsys, "test", "--problem", str(path), "--point", point, "--kind", "weak"
            )
            assert code == 0 and err == ""
            assert json.loads(out) == {"weak": False}

    def test_point_outside_feasible_set(self, triangle_file, capsys):
        code, out, err = run(
            capsys, "test", "--problem", triangle_file, "--point", "2,2"
        )
        assert code == 2 and out == ""
        assert "infeasible point" in err

    def test_point_with_wrong_arity(self, triangle_file, capsys):
        code, _, err = run(
            capsys, "test", "--problem", triangle_file, "--point", "1,0,0"
        )
        assert code == 2 and "expected 2 coordinates" in err

    def test_point_with_bad_rational(self, triangle_file, capsys):
        code, _, err = run(
            capsys, "test", "--problem", triangle_file, "--point", "1/0,1"
        )
        assert code == 2

    def test_invariant_failure_exits_3(self, triangle_file, capsys, monkeypatch):
        def broken(P, u):
            raise InternalInvariantError("forced invariant failure")

        monkeypatch.setattr(cli, "scalarize_witness", broken)
        code, out, err = run(
            capsys, "test", "--problem", triangle_file, "--point", "0,1"
        )
        assert code == 3 and out == ""
        assert err == "error: forced invariant failure\n"

    def test_witness_outside_ri_of_the_dual_exits_3(self, triangle_file, capsys, monkeypatch):
        # (1, 0) is in K* of the first quadrant but not in its relative
        # interior, and the int check on the cone's split rejects it
        monkeypatch.setattr(vlp, "_point_weight", lambda P, at, weak: (1, 0, 1))
        code, out, err = run(
            capsys, "test", "--problem", triangle_file, "--point", "0,1"
        )
        assert code == 3 and out == ""
        assert err == "error: witness left the relative interior of the dual\n"

    @pytest.mark.parametrize("fault", ["edge", "reduced cost"])
    def test_corrupted_argmin_recheck_exits_3(
        self, fault, triangle_file, capsys, corrupt_argmin_recheck
    ):
        # the witness's argmin re-check runs on the cone core, which checks
        # its own answer; a wrong answer there is an invariant failure and
        # prints no verdict
        message = corrupt_argmin_recheck(fault)
        code, out, err = run(capsys, "test", "--problem", triangle_file, "--point", "0,1")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.endswith(message + "\n")

    def test_lineality_kept_in_the_pointed_part_exits_3(self, capsys, monkeypatch):
        # K of subspace_cone.json is the line y1 = 0; with the line's vector
        # dropped from the kernel of the normals, the split of K fails its
        # own check before any verdict is printed
        real = cone._kernel_int
        monkeypatch.setattr(cone, "_kernel_int", lambda rows, dim: real(rows, dim)[:-1])
        problem = str(Path(__file__).resolve().parent.parent / "problems" / "subspace_cone.json")
        code, out, err = run(capsys, "test", "--problem", problem, "--point", "0,0")
        assert code == 3 and out == ""
        assert err == "error: the pointed part of the cone kept a lineality direction\n"

    def test_kernel_value_error_exits_3(self, triangle_file, capsys, monkeypatch):
        # a ValueError raised by a kernel after parsing is an internal
        # failure, not bad input
        def broken(P, u):
            raise ValueError("dependent vectors passed as a basis")

        monkeypatch.setattr(cli, "scalarize_witness", broken)
        code, out, err = run(
            capsys, "test", "--problem", triangle_file, "--point", "0,1"
        )
        assert code == 3 and out == ""
        assert err == "error: dependent vectors passed as a basis\n"


class TestConnect:
    def test_triangle_certificate(self, triangle_file, capsys):
        code, out, _ = run(
            capsys,
            "connect",
            "--problem",
            triangle_file,
            "--from",
            "0,1",
            "--to",
            "1,0",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["points"] == [["0", "1"], ["1", "0"]]
        assert obj["weights"] == [["5/2", "5/2"]]
        assert obj["breakpoints"] == ["0", "1/2", "1"]

    def test_single_point_path(self, triangle_file, capsys):
        code, out, _ = run(
            capsys,
            "connect",
            "--problem",
            triangle_file,
            "--from",
            "0,1",
            "--to",
            "0,1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["points"] == [["0", "1"]] and obj["weights"] == []

    def test_non_efficient_endpoint(self, triangle_file, capsys):
        code, _, err = run(
            capsys,
            "connect",
            "--problem",
            triangle_file,
            "--from",
            "0,1",
            "--to",
            "1,1",
        )
        assert code == 2 and "endpoint not efficient" in err

    def test_weak_flag(self, square_file, capsys):
        code, out, _ = run(
            capsys,
            "connect",
            "--problem",
            square_file,
            "--from",
            "0,0",
            "--to",
            "1,1",
            "--weak",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["points"][0] == ["0", "0"] and obj["points"][-1] == ["1", "1"]

    def test_zero_weak_witness_exits_3(self, triangle_file, capsys, monkeypatch):
        # test --kind weak prints a bare verdict, so the weak witness runs
        # behind connect --weak; lambda = 0 combines to the zero weight
        monkeypatch.setattr(vlp, "_point_weight", lambda P, at, weak: (0, 0, 1))
        code, out, err = run(
            capsys,
            "connect",
            "--problem",
            triangle_file,
            "--from",
            "0,1",
            "--to",
            "1,0",
            "--weak",
        )
        assert code == 3 and out == ""
        assert err == "error: weak witness degenerated to zero\n"

    @staticmethod
    def name_corner_for_interval(monkeypatch, k):
        # the breakpoint analysis names the dominated corner (1, 1) as the
        # argmin point of interval k; the triangle path has intervals
        # [0, 1/2] and [1/2, 1]
        real = vlp._breakpoints

        def wrong(c0, c1, gens):
            grid, firsts = real(c0, c1, gens)
            firsts[k] = gens.points.index((1, 1, 1))
            return grid, firsts

        monkeypatch.setattr(vlp, "_breakpoints", wrong)

    def test_missing_midpoint_argmin_exits_3(self, triangle_file, capsys, monkeypatch):
        # the cone program at the interior breakpoint 1/2 finds that the
        # point named for the interval starting there is no argmin
        self.name_corner_for_interval(monkeypatch, 1)
        code, out, err = run(
            capsys,
            "connect",
            "--problem",
            triangle_file,
            "--from",
            "0,1",
            "--to",
            "1,0",
        )
        assert code == 3 and out == ""
        assert err == "error: path weight does not scalarize its point to an argmin of D\n"

    def test_segment_off_its_argmin_exits_3(self, triangle_file, capsys, monkeypatch):
        # the first segment starts at u, which its witness certifies at
        # t = 0; the corner named for [0, 1/2] has another objective value
        self.name_corner_for_interval(monkeypatch, 0)
        code, out, err = run(
            capsys,
            "connect",
            "--problem",
            triangle_file,
            "--from",
            "0,1",
            "--to",
            "1,0",
        )
        assert code == 3 and out == ""
        assert err == "error: path segment left its argmin face\n"


# TRIANGLE moved by (-2, 0): vertices (-2, 1), (-1, 0) and (-1, 1)
SHIFTED_TRIANGLE = dict(
    TRIANGLE,
    D={"dim": 2, "ineq": [[["-1", "-1"], ["1", "0"], ["0", "1"]], ["1", "-1", "1"]]},
)

# (separate form, attached form, output) of a point with a negative first
# coordinate; the problem file goes after the command words
NEGATIVE_POINTS = {
    "test": (
        ["test", "--point", "-2,1"],
        ["test", "--point=-2,1"],
        {"efficient": True, "witness": ["3", "2"]},
    ),
    "connect": (
        ["connect", "--from", "-1,0", "--to", "-2,1"],
        ["connect", "--from=-1,0", "--to=-2,1"],
        {
            "points": [["-1", "0"], ["-2", "1"]],
            "weights": [["5/2", "5/2"]],
            "breakpoints": ["0", "1/2", "1"],
        },
    ),
    "cone ri-test": (
        ["cone", "ri-test", "--point", "-1,2"],
        ["cone", "ri-test", "--point=-1,2"],
        {"contains": False},
    ),
}


class TestNegativeCoordinates:
    @staticmethod
    def with_problem(argv, path):
        words = 2 if argv[0] == "cone" else 1
        return argv[:words] + ["--problem", path] + argv[words:]

    @pytest.mark.parametrize("case", sorted(NEGATIVE_POINTS))
    def test_separate_and_attached_values_parse_alike(self, case, tmp_path, capsys):
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(SHIFTED_TRIANGLE))
        separate, attached, want = NEGATIVE_POINTS[case]
        for argv in (separate, attached):
            code, out, err = run(capsys, *self.with_problem(argv, str(path)))
            assert (code, err) == (0, "")
            assert json.loads(out) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--point"],
            ["test", "--point", "--kind", "weak"],
            ["connect", "--from", "-1,0", "--to"],
            ["connect", "--from", "--to", "-2,1"],
            ["cone", "ri-test", "--point"],
        ],
    )
    def test_missing_value_is_a_usage_error(self, argv, triangle_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.with_problem(argv, triangle_file))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "expected one argument" in captured.err


class TestCone:
    def test_dual_generators(self, triangle_file, capsys):
        code, out, _ = run(capsys, "cone", "dual", "--problem", triangle_file)
        assert code == 0
        assert json.loads(out) == {"generators": [["1", "0"], ["0", "1"]]}

    def test_lineality_basis(self, tmp_path, capsys):
        obj = json.loads(json.dumps(TRIANGLE))
        obj["M"] = [["1", "0"], ["0", "1"], ["1", "1"]]
        obj["K"] = {"dim": 3, "normals": [["-1", "0", "0"], ["0", "-1", "0"]]}
        path = tmp_path / "q3.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "cone", "lineality", "--problem", str(path))
        assert code == 0
        assert json.loads(out) == {"basis": [["0", "0", "1"]]}

    def test_ri_membership_query(self, triangle_file, capsys):
        code, out, _ = run(
            capsys, "cone", "ri-test", "--problem", triangle_file, "--point", "1,0"
        )
        assert code == 0 and json.loads(out) == {"contains": False}
        code, out, _ = run(
            capsys, "cone", "ri-test", "--problem", triangle_file, "--point", "1,3"
        )
        assert json.loads(out) == {"contains": True}

    def test_ri_test_requires_point(self, triangle_file, capsys):
        code, _, err = run(capsys, "cone", "ri-test", "--problem", triangle_file)
        assert code == 2 and "--point" in err

    def test_decompose_structure(self, triangle_file, capsys):
        code, out, _ = run(capsys, "cone", "decompose", "--problem", triangle_file)
        obj = json.loads(out)
        assert obj["subspace"] is False
        assert obj["y0_basis"] == []
        assert obj["k1_rays"] == [["0", "1"], ["1", "0"]]


def test_module_entry_point(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    proc = subprocess.run(
        [sys.executable, "-m", "gpolyvlp", "test", "--problem", str(path), "--point", "1,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["efficient"] is True


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_a_usage_error(tmp_path, target):
    # a path under a missing directory, and a directory itself
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "gpolyvlp",
            "test",
            "--problem",
            str(path),
            "--point",
            "0,1",
            "--out",
            str(tmp_path / target),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: cannot write ")
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# malformed problem files map to the documented exit codes

PROBLEM_DOCS = [
    json.loads(path.read_text())
    for path in sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))
]
ODD_VALUES = [
    "0", "1", "-1", "1/2", "-7/3", "2", "1/0", "0.5", "x", "", "\uff11",
    "123456789012345678901234567890/7", 0, 1, 3, -1, True, None, [], {},
    ["1"], [["1"]], [["1", "0"]], {"dim": 1},
]
COMMANDS = [
    ["solve"],
    ["solve", "--kind", "weak"],
    ["test", "--point", "0,0"],
    ["test", "--point", "1,0", "--kind", "weak"],
    ["connect", "--from", "0,1", "--to", "1,0"],
    ["cone", "decompose"],
]


def _paths(node, prefix=()):
    """Every path of keys and indices below node."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_problems(draw):
    """A problems/*.json document with one to three entries replaced by an
    odd value, deleted or duplicated."""
    doc = copy.deepcopy(draw(st.sampled_from(PROBLEM_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, key = draw(st.sampled_from(paths))
        parent = doc
        for k in head:
            parent = parent[k]
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [copy.deepcopy(parent[key])]
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=mutated_problems(), command=st.sampled_from(COMMANDS))
def test_mutated_problem_files_exit_by_error_type(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        argv = command[:1] + ["--problem", str(path)] + command[1:]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
