"""Tests for efficiency tests, witnesses, efficient sets, and connectivity."""

import hashlib
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpolyvlp import lp, polyhedron, vlp
from gpolyvlp.cli import load_problem
from gpolyvlp.cone import ConeH
from gpolyvlp.crosscheck import (
    dominated_via_generators,
    efficient_via_quotient,
    efficient_via_witness_system,
    minimal_face,
    solution_set_via_all_faces,
)
from gpolyvlp.exact import Matrix, Vector, format_rational, rank, rat, vec
from gpolyvlp.instances import (
    InstanceConfig,
    first_quadrant,
    random_cone,
    random_cut_box,
    random_problem,
    random_vector,
    square_constant_row_problem,
    triangle_problem,
)
from gpolyvlp.lp import LPStatus, UnsolvableSegmentError, argmin_face, solve_lp
from gpolyvlp.polyhedron import (
    FaceLimitError,
    HRep,
    VRep,
    contains,
    faces,
    h_to_v,
    v_to_h,
    vrep_contains,
)
from gpolyvlp.vlp import (
    InfeasiblePointError,
    InternalInvariantError,
    NotEfficientError,
    SetKind,
    VLPProblem,
    connect,
    efficient_set,
    is_efficient,
    is_weakly_efficient,
    scalarize_witness,
    weak_witness,
    weakly_efficient_set,
)


def V(*coords):
    return vec([rat(c) if isinstance(c, str) else c for c in coords])


@pytest.fixture
def triangle():
    return triangle_problem()


@pytest.fixture
def square_constant():
    return square_constant_row_problem()


@pytest.fixture
def subspace_problem():
    square = HRep.of(2, ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
    K = ConeH.of(2, [(1, 0), (-1, 0)])
    return VLPProblem(Matrix.identity(2), square, K)


@pytest.fixture
def halfplane_problem():
    D = HRep.of(2, ineqs=[((-1, 0), 0)])
    return VLPProblem(Matrix.identity(2), D, first_quadrant())


class TestMembership:
    def test_triangle_edge_is_efficient(self, triangle):
        assert is_efficient(triangle, V(0, 1))
        assert is_efficient(triangle, V(1, 0))
        assert is_efficient(triangle, V("1/2", "1/2"))

    def test_triangle_top_corner_is_dominated(self, triangle):
        assert not is_efficient(triangle, V(1, 1))
        assert not is_weakly_efficient(triangle, V(1, 1))

    def test_infeasible_point_is_rejected(self, triangle):
        with pytest.raises(InfeasiblePointError, match="infeasible point"):
            is_efficient(triangle, V(0, 0))
        with pytest.raises(InfeasiblePointError):
            is_weakly_efficient(triangle, V(2, 2))
        with pytest.raises(InfeasiblePointError):
            is_efficient(triangle, V(1, 1, 1))

    def test_constant_row_opens_weak_strict_gap(self, square_constant):
        corner = V(1, 1)
        assert not is_efficient(square_constant, corner)
        assert is_weakly_efficient(square_constant, corner)
        assert is_efficient(square_constant, V(0, 1))

    def test_subspace_cone_makes_everything_efficient(self, subspace_problem):
        for u in [V(0, 0), V(1, 1), V("1/2", "1/3")]:
            assert is_efficient(subspace_problem, u)
            assert is_weakly_efficient(subspace_problem, u)

    def test_cone_without_normals_is_the_whole_space(self):
        # K = R^2 is a subspace with nonempty interior: every point is
        # efficient with the zero witness, and none is weakly efficient
        square = HRep.of(2, ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
        P = VLPProblem(Matrix.identity(2), square, ConeH.of(2, []))
        u, v = V(1, 0), V(0, 1)
        assert is_efficient(P, u)
        assert not is_weakly_efficient(P, u)
        assert scalarize_witness(P, u) == Vector.zero(2)
        with pytest.raises(NotEfficientError, match="not weakly efficient"):
            weak_witness(P, u)
        cert = connect(P, u, v)
        assert cert.points == (u, V(0, 0), v)
        assert cert.weights == (Vector.zero(2), Vector.zero(2))
        assert cert.breakpoints == (rat(0), rat(1))
        with pytest.raises(NotEfficientError, match="endpoint not efficient"):
            connect(P, u, v, weak=True)
        with pytest.raises(InfeasiblePointError):
            is_efficient(P, V(2, 0))

    def test_pointed_cone_with_empty_interior(self):
        # K = {y : y1 = 0, y2 <= 0} has empty interior and is no subspace:
        # every point is weakly efficient with the zero weight, and the
        # strict verdicts are the top edge's, tagged by the row y <= 1
        square = HRep.of(2, ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
        P = VLPProblem(Matrix.identity(2), square, ConeH.of(2, [(1, 0), (-1, 0), (0, 1)]))
        assert P.cone_interior_empty and not P.decomposition.is_subspace
        verdicts = []
        for u in P.feasible_vrep.points:
            assert is_weakly_efficient(P, u)
            assert weak_witness(P, u) == Vector.zero(2)
            verdicts.append(is_efficient(P, u))
            assert verdicts[-1] == (not dominated_via_generators(P, u))
        assert verdicts == [False, True, False, True]
        weak = weakly_efficient_set(P)
        assert weak == solution_set_via_all_faces(P, weak=True)
        assert [(f.active_ineq, f.geometry) for f in weak.faces] == [((), P.feasible_vrep)]
        strict = efficient_set(P)
        assert strict == solution_set_via_all_faces(P, weak=False)
        assert [f.active_ineq for f in strict.faces] == [(3,)]
        assert strict.faces[0].geometry.points == (V(0, 1), V(1, 1))
        cert = connect(P, V(0, 0), V(1, 1), weak=True)
        assert cert.points == (V(0, 0), V(1, 1))
        assert cert.weights == (Vector.zero(2),)
        assert cert.breakpoints == (rat(0), rat(1))

    @pytest.mark.parametrize(
        "D, points",
        [
            # u = (0, 0) is tight on no row, so the tangent cone has no row
            (HRep.of(2, ineqs=[((1, 0), 1)]), [V(0, 0), V(1, 0)]),
            # D is cut out by an equality alone, so no point has a tight row
            (HRep.of(2, eqs=[((1, 1), 1)]), [V(0, 1), V("1/2", "1/2")]),
            # a single point: the frame of D's equalities has no free column
            (HRep.of(2, eqs=[((1, 0), 0), ((0, 1), 2)]), [V(0, 2)]),
        ],
    )
    def test_no_point_is_weakly_efficient_for_a_cone_without_normals(self, D, points):
        # int K = R^2 contains zero, so every point dominates itself; the
        # weak test answers as weak_witness does, with no slack program
        P = VLPProblem(Matrix.identity(2), D, ConeH.of(2, []))
        for u in points:
            assert not is_weakly_efficient(P, u)
            assert is_efficient(P, u)
            with pytest.raises(NotEfficientError, match="not weakly efficient"):
                weak_witness(P, u)
        assert weakly_efficient_set(P).faces == ()

    def test_halfspace_cone_orders_by_sum(self):
        square = HRep.of(2, ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
        P = VLPProblem(Matrix.identity(2), square, ConeH.of(2, [(-1, -1)]))
        assert is_efficient(P, V(0, 0))
        assert not is_efficient(P, V(1, 0))
        assert not is_weakly_efficient(P, V(1, 0))

    def test_lineality_in_feasible_set(self, halfplane_problem):
        assert not is_efficient(halfplane_problem, V(0, 0))
        assert is_weakly_efficient(halfplane_problem, V(0, 7))
        assert not is_weakly_efficient(halfplane_problem, V(1, 0))


class TestWitness:
    def test_triangle_endpoint_witnesses(self, triangle):
        assert scalarize_witness(triangle, V(0, 1)) == V(3, 2)
        assert scalarize_witness(triangle, V(1, 0)) == V(2, 3)

    def test_witness_lands_in_relative_interior_of_dual(self, triangle):
        w = scalarize_witness(triangle, V("1/2", "1/2"))
        assert triangle.decomposition.ri_dual_contains(w)

    def test_witness_scalarizes_point_to_argmin(self, triangle):
        u = V("1/4", "3/4")
        w = scalarize_witness(triangle, u)
        c = triangle.objective.tmatvec(w)
        out = solve_lp(triangle.feasible_set, c)
        assert out.status is LPStatus.OPTIMAL and c.dot(u) == out.value

    def test_witness_requires_efficiency(self, triangle):
        with pytest.raises(NotEfficientError, match="not efficient"):
            scalarize_witness(triangle, V(1, 1))

    def test_positive_scaling_preserves_the_argmin(self, triangle):
        w = scalarize_witness(triangle, V(0, 1))
        c1 = triangle.objective.tmatvec(w)
        c2 = triangle.objective.tmatvec(w.scale(rat(7, 2)))
        assert h_to_v(argmin_face(triangle.feasible_set, c1)) == h_to_v(
            argmin_face(triangle.feasible_set, c2)
        )

    def test_subspace_cone_yields_zero_witness(self, subspace_problem):
        assert scalarize_witness(subspace_problem, V(1, 1)) == V(0, 0)

    def test_cone_lineality_is_projected_out(self):
        D = HRep.of(2, ineqs=[((-1, -1), -1), ((1, 0), 1), ((0, 1), 1)])
        M = Matrix.of([(1, 0), (0, 1), (1, 1)])
        K = ConeH.of(3, [(-1, 0, 0), (0, -1, 0)])
        P = VLPProblem(M, D, K)
        assert P.project_to_y1(V(1, 2, 7)) == V(1, 2, 0)
        w = scalarize_witness(P, V(0, 1))
        assert w == V(3, 2, 0)

    def test_weak_witness_on_constant_row(self, square_constant):
        w = weak_witness(square_constant, V(1, 1))
        assert not w.is_zero()
        c = square_constant.objective.tmatvec(w)
        out = solve_lp(square_constant.feasible_set, c)
        assert c.dot(V(1, 1)) == out.value

    def test_weak_witness_requires_weak_efficiency(self, triangle):
        with pytest.raises(NotEfficientError):
            weak_witness(triangle, V(1, 1))

    def test_witnesses_leave_the_image_set_uncomputed(self, triangle):
        scalarize_witness(triangle, V(0, 1))
        weak_witness(triangle, V(0, 1))
        assert "image_set" not in vars(triangle)


PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"

# Strict and weak witness of every vertex of each problems/*.json file;
# None marks a vertex that has no witness of that kind.
WITNESS_PINS = {
    "triangle": {
        "0,1": ("3,2", "3/4,1/4"),
        "1,0": ("2,3", "1/4,3/4"),
        "1,1": (None, None),
    },
    "square_constant_row": {
        "0,0": ("2,2", "1/2,1/2"),
        "0,1": ("2,2", "1/2,1/2"),
        "1,0": (None, "0,1"),
        "1,1": (None, "0,1"),
    },
    "subspace_cone": {v: ("0,0", "0,0") for v in ("0,0", "0,1", "1,0", "1,1")},
    "halfplane_lineality": {"0,0": (None, "1,0")},
}


def _text(v: Vector) -> str:
    return ",".join(format_rational(c) for c in v)


def _witness_text(witness, P, u):
    try:
        return _text(witness(P, u))
    except NotEfficientError:
        return None


@pytest.mark.parametrize("name", sorted(WITNESS_PINS))
def test_problem_file_witnesses_are_pinned(name):
    P = load_problem(str(PROBLEMS_DIR / f"{name}.json"))
    got = {
        _text(u): (
            _witness_text(scalarize_witness, P, u),
            _witness_text(weak_witness, P, u),
        )
        for u in P.feasible_vrep.points
    }
    assert got == WITNESS_PINS[name]


def test_witnesses_run_no_slack_program_for_efficient_points(monkeypatch):
    # a verified witness certifies efficiency by itself; only is_efficient
    # and the dominated points' fallback run the primal slack program
    calls = []
    real = vlp._max_slack

    def counting(P, at, weak):
        calls.append(at)
        return real(P, at, weak)

    monkeypatch.setattr(vlp, "_max_slack", counting)
    P = load_problem(str(PROBLEMS_DIR / "triangle.json"))
    assert is_efficient(P, V(0, 1))
    assert scalarize_witness(P, V(0, 1)) == V(3, 2)
    assert len(calls) == 1
    calls.clear()
    cert = connect(P, V(0, 1), V(1, 0))
    assert cert.weights == (V("5/2", "5/2"),)
    assert calls == []
    with pytest.raises(NotEfficientError, match="not efficient"):
        scalarize_witness(P, V(1, 1))
    assert calls == [vlp._require_feasible(P, V(1, 1))]


@pytest.mark.parametrize("witness", [scalarize_witness, weak_witness])
def test_empty_weight_region_with_zero_slack_is_an_invariant_failure(witness, monkeypatch):
    # (1, 1) has no weight of either kind; a slack program that calls it
    # efficient contradicts the dual route
    P = load_problem(str(PROBLEMS_DIR / "triangle.json"))
    monkeypatch.setattr(vlp, "_max_slack", lambda P, at, weak: rat(0))
    with pytest.raises(InternalInvariantError, match="no dual weight"):
        witness(P, V(1, 1))


# (witness, region point (*g, h) forced on it, invariant error it must raise)
WITNESS_FAULTS = {
    # (1, 0) lies in K* of the first quadrant but not in its relative
    # interior: the k1 ray (0, 1) of the int split is orthogonal to it
    "strict": (scalarize_witness, (1, 0, 1), "witness left the relative interior of the dual"),
    # lambda = 0 combines the dual generators to the zero weight
    "weak": (weak_witness, (0, 0, 1), "weak witness degenerated to zero"),
}


@pytest.mark.parametrize("case", sorted(WITNESS_FAULTS))
def test_witness_that_the_int_cone_check_rejects_is_an_invariant_failure(case, monkeypatch):
    witness, point, message = WITNESS_FAULTS[case]
    P = load_problem(str(PROBLEMS_DIR / "triangle.json"))
    monkeypatch.setattr(vlp, "_point_weight", lambda P, at, weak: point)
    with pytest.raises(InternalInvariantError, match=message):
        witness(P, V(0, 1))


def unbounded_quadrant():
    """min_K -x over the quadrant x >= 0, K the first quadrant: every weight
    in ri(K*) is unbounded below on D."""
    D = HRep.of(2, ineqs=[([-1, 0], 0), ([0, -1], 0)])
    return VLPProblem(Matrix.of([[-1, 0], [0, -1]]), D, first_quadrant())


# (problem, u, weight in ri(K*) that does not put u in the argmin over D)
ARGMIN_MISSES = {
    "argmin-elsewhere": (triangle_problem, V(0, 1), V(1, 3)),
    "unbounded-below": (unbounded_quadrant, V(0, 0), V(1, 1)),
    "edge-point": (triangle_problem, V("1/2", "1/2"), V(1, 3)),
    "interior-point": (triangle_problem, V("2/3", "2/3"), V(1, 1)),
}


@pytest.mark.parametrize("case", sorted(ARGMIN_MISSES))
def test_argmin_recheck_rejects_a_weight_that_misses_u(case, monkeypatch):
    make, u, ystar = ARGMIN_MISSES[case]
    P = make()
    with pytest.raises(InternalInvariantError, match="label does not scalarize"):
        w, at = polyhedron._int_vector(ystar), vlp._require_feasible(P, u)
        vlp._verify_argmin(P, w, at, "label")
    # _point_weight gives its weight in ints; ystar is in ri(K*), so the int
    # admissibility check passes it on to the argmin re-check
    ystar_ints = polyhedron._int_vector(ystar)
    monkeypatch.setattr(vlp, "_point_weight", lambda P, at, weak: ystar_ints)
    with pytest.raises(InternalInvariantError, match="witness does not scalarize"):
        scalarize_witness(P, u)


def test_argmin_recheck_accepts_a_weight_that_scalarizes_u():
    P = triangle_problem()
    ints = polyhedron._int_vector

    def at(u):
        return vlp._require_feasible(P, u)

    for u in (V(0, 1), V("1/2", "1/2"), V(1, 0)):
        vlp._verify_argmin(P, ints(V(1, 1)), at(u), "witness")
    vlp._verify_argmin(P, ints(V(1, 3)), at(V(1, 0)), "witness")
    vlp._verify_argmin(P, ints(V(0, 0)), at(V("2/3", "2/3")), "witness")


def test_constant_recheck_rejects_a_weight_whose_cost_varies_on_d():
    # the zero weight's argmin re-check is an int test that its cost is
    # constant on D; on the segment x1 + x2 = 1 of the first quadrant the
    # weight (1, 1) passes it too, and (1, 3) fails it on that segment and
    # on the triangle
    ints = polyhedron._int_vector
    D = HRep.of(2, [([1, 1], 1)], [([-1, 0], 0), ([0, -1], 0)])
    segment = VLPProblem(Matrix.identity(2), D, first_quadrant())
    for P in (triangle_problem(), segment):
        vlp._verify_constant(P, ints(V(0, 0)), "zero witness")
        with pytest.raises(InternalInvariantError, match="label is not constant on D"):
            vlp._verify_constant(P, ints(V(1, 3)), "label")
    vlp._verify_constant(segment, ints(V(1, 1)), "witness")


def dd_caller():
    """The function that asked for the running polyhedron._dd: the first
    frame above it outside polyhedron.py."""
    frame = sys._getframe(2)
    while frame.f_code.co_filename == polyhedron.__file__:
        frame = frame.f_back
    return frame.f_code.co_name


def test_connect_converts_the_feasible_set_once(monkeypatch):
    # every DD runs polyhedron._dd, counted here by the function that asked
    # for it: D's one DD (_d_generators), for the breakpoints, on D's int
    # rows, which the endpoint checks have cached by then, and per endpoint
    # one DD of its tangent cone (_point_region) and one of its witness
    # region (_point_weight)
    calls = Counter()
    real = polyhedron._dd

    def counting(*args, **kwargs):
        calls[dd_caller()] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(polyhedron, "_dd", counting)
    P = triangle_problem()
    connect(P, V(0, 1), V(1, 0))
    assert "_d_rows" in vars(P)
    assert calls == {"_split": 1, "_d_generators": 1, "_point_region": 2, "_point_weight": 2}


def test_point_queries_build_no_dd_of_d(monkeypatch):
    # the verdicts, the witnesses and their re-checks read only the rows of
    # D tight at the point, so on fresh problems none of them builds D's
    # generators; on the orthant 12-cube (4,096 vertices) each witness runs
    # two small DDs, of its point's tangent cone and of its weight region
    dds = []
    real = polyhedron._dd

    def recording(dim, eq_rows, ineq_rows, cap=None):
        dds.append((dd_caller(), len(ineq_rows)))
        return real(dim, eq_rows, ineq_rows, cap)

    monkeypatch.setattr(polyhedron, "_dd", recording)
    cube = orthant_cube(12)
    corner = Vector.zero(12)
    assert is_efficient(cube, corner) and is_weakly_efficient(cube, corner)
    assert scalarize_witness(cube, corner) == Vector.of([2] * 12)
    assert weak_witness(cube, corner) == Vector.of([rat(1, 12)] * 12)
    with pytest.raises(NotEfficientError):
        scalarize_witness(cube, Vector.of([1] + [0] * 11))
    assert "_d_generators" not in vars(cube)
    # K's split, then per witness query the tangent cone's 12 rows and the
    # region's 12 admissibility rows, 12 tangent rows and homogenizing row
    assert dds == [("_split", 12)] + [("_point_region", 12), ("_point_weight", 25)] * 3
    queried = 0
    for source in SET_CORPUS + [load_problem(str(p)) for p in sorted(PROBLEMS_DIR.glob("*.json"))]:
        P = VLPProblem(source.objective, source.feasible_set, source.cone)
        for u in source.feasible_vrep.points:
            is_efficient(P, u)
            is_weakly_efficient(P, u)
            for witness in (scalarize_witness, weak_witness):
                try:
                    witness(P, u)
                except NotEfficientError:
                    pass
            queried += 1
        assert "_d_generators" not in vars(P)
    assert queried == 440


def test_connect_runs_one_cone_program_per_interior_breakpoint(monkeypatch):
    # the witnesses certify the ends of the path at t = 0 and t = 1, and
    # each interior breakpoint gets one argmin check on the tangent cone of
    # its named point: connect runs the cone core with cone programs (no
    # right-hand side, every column free), one per witness and one per
    # interior breakpoint, none per segment, and never reaches the general
    # simplex; a weak path through an empty-interior K is the straight
    # segment
    programs = []
    real_core = vlp._cone_descent

    def core(free, rows, cost):
        assert free == len(cost) and all(len(a) == free for a in rows)
        programs.append(free)
        return real_core(free, rows, cost)

    def general(*args, **kwargs):
        raise AssertionError("connect reached the general simplex")

    rng = random.Random(2017)
    segments, interior = Counter(), 0
    for _ in range(30):
        P = random_cut_box(rng)
        for weak, test in ((False, is_efficient), (True, is_weakly_efficient)):
            if weak and P.cone_interior_empty:
                continue
            ends = [u for u in P.feasible_vrep.points if test(P, u)]
            if len(ends) < 2:
                continue
            programs.clear()
            with monkeypatch.context() as m:
                m.setattr(vlp, "_cone_descent", core)
                m.setattr(lp, "_optimize_rows", general)
                cert = connect(P, ends[0], ends[-1], weak=weak)
            # the two witnesses' re-checks and one per interior breakpoint
            breakpoints = len(cert.breakpoints) - 2
            assert len(programs) == 2 + breakpoints
            interior += breakpoints
            segments[len(cert.weights)] += 1
    assert segments == {1: 28, 2: 14, 3: 3}
    assert interior == 48


@pytest.mark.parametrize("fault", ["edge", "reduced cost"])
def test_argmin_recheck_rejects_a_corrupted_core_answer(fault, corrupt_argmin_recheck):
    # the argmin re-checks trust no pivot of the cone core: a bogus edge
    # fails the re-check, and reduced costs that do not match the
    # multipliers fail the core's own dual check, in the witnesses of
    # both kinds and in connect
    message = corrupt_argmin_recheck(fault)
    P = triangle_problem()
    for run in (
        lambda: scalarize_witness(P, V(0, 1)),
        lambda: weak_witness(P, V(1, 0)),
        lambda: connect(P, V(0, 1), V(1, 0)),
    ):
        with pytest.raises(InternalInvariantError, match=message):
            run()


def _kept_witness(P, u, weak):
    """_witness's int weight of u, or None where u has none."""
    try:
        return vlp._witness(P, u, weak)[1]
    except NotEfficientError:
        return None


def _face_point(F: VRep) -> Vector:
    """The mean of a face's points plus the sum of its rays: a relative
    interior point, tight on exactly the face's rows."""
    u = F.points[0]
    for p in F.points[1:]:
        u = u + p
    u = u.scale(rat(1, len(F.points)))
    for r in F.rays:
        u = u + r
    return u


def test_repeated_faces_are_certified_once_with_the_same_weight(monkeypatch):
    # a witness reads only the rows of D tight at its point, so one problem
    # keeps one verified weight per (kind, tight set): on a shared problem,
    # queried vertex, face point, vertex again in both kinds, every weight
    # equals the one a fresh problem works out, and a query whose tight set
    # has been answered with a weight before runs no DD and no cone program
    work = Counter()
    real_dd, real_core = polyhedron._dd, vlp._cone_descent

    def dd(*args, **kwargs):
        work["dd"] += 1
        return real_dd(*args, **kwargs)

    def core(*args):
        work["core"] += 1
        return real_core(*args)

    outcomes = Counter()
    for source in SET_CORPUS + [load_problem(str(p)) for p in sorted(PROBLEMS_DIR.glob("*.json"))]:
        data = (source.objective, source.feasible_set, source.cone)
        P = VLPProblem(*data)
        vertices = list(source.feasible_vrep.points)
        inner = [_face_point(F.geometry) for F in faces(source.feasible_set)]
        answered = set()
        for u in vertices + inner + vertices:
            for weak in (False, True):
                want = _kept_witness(VLPProblem(*data), u, weak)
                key = (weak, vlp._require_feasible(P, u)[1])
                work.clear()
                with monkeypatch.context() as m:
                    m.setattr(polyhedron, "_dd", dd)
                    m.setattr(vlp, "_cone_descent", core)
                    got = _kept_witness(P, u, weak)
                assert got == want
                if key in answered:
                    assert not work
                    outcomes["repeat"] += 1
                elif want is None:
                    outcomes["no weight"] += 1
                elif vlp._trivial(P, weak) is not None:
                    outcomes["zero weight"] += 1
                else:
                    # a first weight runs its DDs and its argmin re-check
                    assert work["dd"] >= 2 and work["core"] >= 1
                    outcomes["first"] += 1
                if want is not None:
                    answered.add(key)
    assert outcomes == {"first": 390, "repeat": 1092, "zero weight": 683, "no weight": 1971}


@pytest.mark.parametrize("fault", ["edge", "reduced cost"])
def test_failed_witnesses_are_not_kept(fault, corrupt_argmin_recheck, monkeypatch):
    # a witness that raises is not kept: under the planted fault every call
    # raises again, and once the fault is gone the weight is worked out,
    # re-checked once and then returned as kept
    P = triangle_problem()
    real_verify = vlp._verify_argmin
    message = corrupt_argmin_recheck(fault)
    for _ in range(3):
        with pytest.raises(InternalInvariantError, match=message):
            scalarize_witness(P, V(0, 1))
    labels = []

    def counting(P, w, at, label):
        labels.append(label)
        return real_verify(P, w, at, label)

    monkeypatch.setattr(vlp, "_verify_argmin", counting)
    assert scalarize_witness(P, V(0, 1)) == V(3, 2)
    assert scalarize_witness(P, V(0, 1)) == V(3, 2)
    assert labels == ["witness"]


@pytest.mark.parametrize("fault", ["edge", "reduced cost"])
def test_connect_rechecks_its_interior_breakpoints_after_its_ends_are_kept(
    fault, corrupt_argmin_recheck, monkeypatch
):
    # the triangle's path from (0, 1) to (1, 0) has an interior breakpoint
    # at t = 1/2; with both endpoint weights kept, the planted fault still
    # fails the re-check of the point named there
    P = triangle_problem()
    assert scalarize_witness(P, V(0, 1)) == V(3, 2)
    assert scalarize_witness(P, V(1, 0)) == V(2, 3)
    message = corrupt_argmin_recheck(fault)
    planted = vlp._verify_argmin
    labels = []

    def recording(P, w, at, label):
        labels.append(label)
        return planted(P, w, at, label)

    monkeypatch.setattr(vlp, "_verify_argmin", recording)
    with pytest.raises(InternalInvariantError, match=message):
        connect(P, V(0, 1), V(1, 0))
    assert labels == ["path weight"]


def test_verdicts_run_their_slack_program_after_the_weight_is_kept(monkeypatch):
    # the efficiency tests never read the kept weights: the slack program
    # stays an independent primal route
    calls = []
    real = vlp._max_slack

    def counting(P, at, weak):
        calls.append(weak)
        return real(P, at, weak)

    monkeypatch.setattr(vlp, "_max_slack", counting)
    P = triangle_problem()
    assert scalarize_witness(P, V(0, 1)) == V(3, 2)
    assert weak_witness(P, V(0, 1)) == V("3/4", "1/4")
    assert calls == []
    assert is_efficient(P, V(0, 1)) and is_weakly_efficient(P, V(0, 1))
    assert is_efficient(P, V(0, 1))
    assert calls == [False, True, False]


class TestEfficientSets:
    def test_triangle_efficient_set_is_one_edge(self, triangle):
        E = efficient_set(triangle)
        assert E.kind is SetKind.EFFICIENT
        assert not E.subspace_cone and not E.empty_interior
        assert len(E.faces) == 1
        (face,) = E.faces
        assert face.active_ineq == (0,)
        assert face.geometry.points == (V(0, 1), V(1, 0))
        assert face.geometry.rays == () and face.geometry.lineality == ()

    def test_constant_row_gap_between_sets(self, square_constant):
        E = efficient_set(square_constant)
        W = weakly_efficient_set(square_constant)
        (edge,) = E.faces
        assert edge.geometry.points == (V(0, 0), V(0, 1))
        (whole,) = W.faces
        assert whole.active_ineq == ()
        assert len(whole.geometry.points) == 4

    def test_every_efficient_face_sits_inside_a_weak_face(self, square_constant):
        E = efficient_set(square_constant)
        W = weakly_efficient_set(square_constant)
        for f in E.faces:
            assert any(set(g.active_ineq) <= set(f.active_ineq) for g in W.faces)

    def test_subspace_cone_returns_whole_set(self, subspace_problem):
        E = efficient_set(subspace_problem)
        assert E.subspace_cone
        (face,) = E.faces
        assert face.active_ineq == ()
        W = weakly_efficient_set(subspace_problem)
        assert W.empty_interior
        (wface,) = W.faces
        assert wface.active_ineq == ()

    def test_halfplane_has_no_efficient_points(self, halfplane_problem):
        E = efficient_set(halfplane_problem)
        assert E.faces == ()
        W = weakly_efficient_set(halfplane_problem)
        (face,) = W.faces
        assert face.geometry.points == (V(0, 0),)
        assert face.geometry.lineality == (V(0, 1),)

    def test_infeasible_problem_has_empty_sets(self):
        empty = HRep.of(1, ineqs=[((1,), -1), ((-1,), 0)])
        P = VLPProblem(Matrix.identity(1), empty, ConeH.of(1, [(-1,)]))
        assert efficient_set(P).faces == ()
        assert weakly_efficient_set(P).faces == ()

    def test_faces_listed_are_maximal(self, triangle):
        E = efficient_set(triangle)
        for f in E.faces:
            for g in E.faces:
                if f is not g:
                    assert not set(g.active_ineq) < set(f.active_ineq)


class TestConnect:
    def test_triangle_certificate_is_exact(self, triangle):
        cert = connect(triangle, V(0, 1), V(1, 0))
        assert cert.points == (V(0, 1), V(1, 0))
        assert cert.weights == (V("5/2", "5/2"),)
        assert cert.breakpoints == (rat(0), rat(1, 2), rat(1))

    def test_identical_endpoints_collapse(self, triangle):
        cert = connect(triangle, V(0, 1), V(0, 1))
        assert cert.points == (V(0, 1),)
        assert cert.weights == ()

    def test_endpoints_must_be_efficient(self, triangle):
        with pytest.raises(NotEfficientError, match="endpoint not efficient"):
            connect(triangle, V(0, 1), V(1, 1))

    def test_weak_path_across_constant_square(self, square_constant):
        cert = connect(square_constant, V(0, 0), V(0, 1), weak=True)
        assert cert.points == (V(0, 0), V(0, 1))
        assert len(cert.weights) == 1 and not cert.weights[0].is_zero()

    def test_weak_path_with_empty_interior(self, subspace_problem):
        cert = connect(subspace_problem, V(0, 0), V(1, 1), weak=True)
        assert cert.points == (V(0, 0), V(1, 1))
        assert cert.weights == (V(0, 0),)
        assert cert.breakpoints == (rat(0), rat(1))

    def test_segment_weights_scalarize_their_segments(self, triangle):
        cert = connect(triangle, V(0, 1), V(1, 0))
        for i, w in enumerate(cert.weights):
            c = triangle.objective.tmatvec(w)
            out = solve_lp(triangle.feasible_set, c)
            assert c.dot(cert.points[i]) == out.value
            assert c.dot(cert.points[i + 1]) == out.value


small_config = InstanceConfig(
    max_dim=3, max_ineqs=5, max_eqs=1, max_outputs=2, max_normals=3, coeff_bound=2
)


@st.composite
def problems(draw, allow_subspace=True):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_problem(random.Random(seed), small_config, allow_subspace)


@given(problems())
@settings(max_examples=40)
def test_efficiency_routes_agree_on_vertices(P):
    for u in P.feasible_vrep.points[:4]:
        direct = is_efficient(P, u)
        assert direct == (not dominated_via_generators(P, u))
        assert direct == efficient_via_witness_system(P, u)
        assert direct == efficient_via_quotient(P, u)
        if direct:
            assert is_weakly_efficient(P, u)


@given(problems())
@settings(max_examples=25)
def test_efficient_set_matches_pointwise_verdicts(P):
    E = efficient_set(P)
    W = weakly_efficient_set(P)
    for u in P.feasible_vrep.points:
        assert is_efficient(P, u) == any(
            vrep_contains(f.geometry, u) for f in E.faces
        )
        assert is_weakly_efficient(P, u) == any(
            vrep_contains(f.geometry, u) for f in W.faces
        )
    for f in E.faces:
        assert any(set(g.active_ineq) <= set(f.active_ineq) for g in W.faces)


@given(problems())
@settings(max_examples=25)
def test_witness_certifies_each_efficient_vertex(P):
    hits = 0
    for u in P.feasible_vrep.points:
        if not is_efficient(P, u):
            continue
        w = scalarize_witness(P, u)
        assert P.decomposition.ri_dual_contains(w)
        c = P.objective.tmatvec(w)
        out = solve_lp(P.feasible_set, c)
        assert out.status is LPStatus.OPTIMAL and c.dot(u) == out.value
        hits += 1
        if hits == 2:
            break


@given(problems())
@settings(max_examples=20)
def test_connect_certificates_are_sound(P):
    efficient_vertices = [u for u in P.feasible_vrep.points if is_efficient(P, u)]
    if len(efficient_vertices) < 2:
        return
    u, v = efficient_vertices[0], efficient_vertices[-1]
    cert = connect(P, u, v)
    assert cert.points[0] == u and cert.points[-1] == v
    assert len(cert.weights) == len(cert.points) - 1
    for p in cert.points:
        assert is_efficient(P, p)
    for i, w in enumerate(cert.weights):
        a, b = cert.points[i], cert.points[i + 1]
        mid = (a + b).scale(rat(1, 2))
        assert is_efficient(P, mid)
        c = P.objective.tmatvec(w)
        out = solve_lp(P.feasible_set, c)
        assert c.dot(a) == out.value and c.dot(b) == out.value
    assert len(cert.points) - 1 <= len(faces(P.feasible_set))


# ---------------------------------------------------------------------------
# pruned face search against the all-faces oracle


def orthant_cube(n):
    """The unit n-cube with identity objective, ordered by the orthant."""
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    neg = [tuple(-v for v in e) for e in unit]
    D = HRep.of(n, ineqs=[(e, 0) for e in neg] + [(e, 1) for e in unit])
    return VLPProblem(Matrix.identity(n), D, ConeH.of(n, neg))


def set_corpus(seed, count, config):
    """Seeded problems; every fifth with q >= 2 gets an empty-interior cone
    by adding the negative of its first normal."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        P = random_problem(rng, config, allow_subspace=True)
        normals = P.cone.normals
        if i % 5 == 4 and P.cone.dim >= 2:
            K = ConeH(P.cone.dim, (normals[0], -normals[0]) + normals[1:])
            P = VLPProblem(P.objective, P.feasible_set, K)
        out.append(P)
    return out


SET_CORPUS = (
    set_corpus(2718, 200, small_config)
    + set_corpus(2718, 60, InstanceConfig())
    + [orthant_cube(n) for n in (2, 3)]
)


def set_json(E):
    return {
        "kind": E.kind.value,
        "subspace_cone": E.subspace_cone,
        "empty_interior": E.empty_interior,
        "faces": [
            {"active_ineq": list(f.active_ineq), "vrep": f.geometry.to_json_obj()}
            for f in E.faces
        ],
    }


def test_solution_set_golden_digest():
    doc = [[set_json(efficient_set(P)), set_json(weakly_efficient_set(P))] for P in SET_CORPUS]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert sum(len(E["faces"]) for pair in doc for E in pair) == 413
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "34f9c9b9abc7724ff09c1b23fd03951801f8c7532c093c18f9a3f7f83b5b1a2b"


def test_image_sets_and_feasible_conversions_digest():
    # the projected image (map_polyhedron -> assemble_vrep -> canonical_vrep)
    # and the halfspace form of D's generators, which no set digest reads
    problems = [VLPProblem(P.objective, P.feasible_set, P.cone) for P in SET_CORPUS]
    doc = [[P.image_set.to_json_obj(), v_to_h(P.feasible_vrep).to_json_obj()] for P in problems]
    assert (len(doc), sum(bool(image["lineality"]) for image, _ in doc)) == (262, 60)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "007c640d922cbc014c42b311167044706bfb7c2244f8bc781c5332d69f2f2f49"


def _capped(routine, *args, **kwargs):
    try:
        return routine(*args, **kwargs)
    except FaceLimitError:
        return "cap"


def test_pruned_sets_match_all_faces_oracle():
    assert sum(P.decomposition.is_subspace for P in SET_CORPUS) == 68
    assert sum(P.cone_interior_empty for P in SET_CORPUS) == 95
    assert sum(bool(P.feasible_vrep.lineality) for P in SET_CORPUS) == 43
    assert sum(P.feasible_set.eq_lhs.rows > 0 for P in SET_CORPUS) == 128
    # a cap of 3 bounds the rays of W's DD, not D's faces: a capped call
    # either trips or answers as the all-faces oracle does uncapped
    capped = 0
    for P in SET_CORPUS:
        for routine, weak in ((efficient_set, False), (weakly_efficient_set, True)):
            want = solution_set_via_all_faces(P, weak)
            assert routine(P) == want
            got = _capped(routine, P, max_faces=3)
            assert got in ("cap", want)
            capped += got == "cap"
    assert capped == 91


def test_combinatorial_adjacency_matches_the_rank_test_on_d_and_w(adjacency_verdicts):
    # the DDs of D and of the lifted weight polyhedron W on SET_CORPUS get
    # the same adjacency verdict for every pos/neg pair as the rank gives
    for P in SET_CORPUS:
        P = VLPProblem(P.objective, P.feasible_set, P.cone)
        P.feasible_vrep
        efficient_set(P)
        weakly_efficient_set(P)
    assert all(got == want for got, want in adjacency_verdicts)
    assert Counter(got for got, _ in adjacency_verdicts) == {True: 767, False: 141}


def count_set_work(monkeypatch):
    """Count, per name, the DDs of D (polyhedron._generators, which h_to_v
    runs too), the face-lattice walks (polyhedron._face_lattice, which
    faces() runs), the DDs of the weight polyhedron W (vlp._homogenized_dd)
    and the LPs that the set routines run.  LPs are counted at
    lp._optimize_rows, which every LP runs, the phase-one test of
    ConeH.has_nonempty_interior included."""
    counts = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(polyhedron, "_generators", counting("D", polyhedron._generators))
    monkeypatch.setattr(vlp, "_generators", counting("D", vlp._generators))
    monkeypatch.setattr(
        polyhedron, "_face_lattice", counting("lattice", polyhedron._face_lattice)
    )
    monkeypatch.setattr(vlp, "_homogenized_dd", counting("W", vlp._homogenized_dd))
    monkeypatch.setattr(lp, "_optimize_rows", counting("LP", lp._optimize_rows))
    return counts


def test_set_routines_run_one_dd_of_d_and_at_most_one_of_w(monkeypatch):
    # a call that gets past the early returns (empty D, subspace K,
    # empty-interior K for weak sets, no normals) reads its answer off one
    # DD of W, capped or not, and walks no face lattice.  No set call runs
    # an LP, the interior test included.
    counts = count_set_work(monkeypatch)
    reached = 0
    for P in SET_CORPUS[:50] + [orthant_cube(4)]:
        for routine in (efficient_set, weakly_efficient_set):
            for cap in (None, 4096):
                counts.clear()
                routine(VLPProblem(P.objective, P.feasible_set, P.cone), max_faces=cap)
                assert counts["D"] == 1 and counts["LP"] == 0
                assert counts["W"] <= 1
                assert counts["lattice"] == 0
                reached += counts["W"]
    assert reached == 2 * 67


@pytest.mark.parametrize(
    "routine, tags",
    [
        (efficient_set, [(0, 1, 2, 3)]),
        (weakly_efficient_set, [(0,), (1,), (2,), (3,)]),
    ],
)
def test_orthant_cube_sets_read_one_dd_of_w(routine, tags, monkeypatch):
    # 81 faces, and no LP or lattice walk for any of them; the capped call
    # does the same work, and a cap of 6 = n + 2 rays is enough for W
    counts = count_set_work(monkeypatch)
    E = routine(orthant_cube(4))
    assert counts == {"D": 1, "W": 1}
    assert [f.active_ineq for f in E.faces] == tags
    counts.clear()
    assert routine(orthant_cube(4), max_faces=6) == E
    assert counts == {"D": 1, "W": 1}


@pytest.mark.parametrize("n", [6, 7])
def test_large_orthant_cubes_are_pinned(n):
    # 729 and 2,187 faces: the strict set is the origin vertex, the weak set
    # the n facets through it
    P = orthant_cube(n)
    (origin,) = efficient_set(P).faces
    assert origin.active_ineq == tuple(range(n))
    assert origin.geometry.points == (Vector.zero(n),) and not origin.geometry.rays
    assert [f.active_ineq for f in weakly_efficient_set(P).faces] == [(i,) for i in range(n)]


def test_cut_box_sets_match_all_faces_oracle():
    # at least a quarter of these calls must return more than one face, so
    # the comparison cannot drift back to one-face answers
    rng = random.Random(2017)
    calls = multi = 0
    for _ in range(30):
        P = random_cut_box(rng)
        assert not P.feasible_vrep.is_empty and not P.decomposition.is_subspace
        for routine, weak in ((efficient_set, False), (weakly_efficient_set, True)):
            E = routine(P)
            assert E == solution_set_via_all_faces(P, weak)
            calls += 1
            multi += len(E.faces) > 1
    assert 4 * multi >= calls


def smallest_cap(routine, P):
    """(end, cap): the number of rays W's DD ends with, and the smallest
    max_faces with which routine(P) does not trip, counted up from end, the
    rays it holds last; None when the call reads no DD of W."""
    real, held = vlp._homogenized_dd, []

    def recording(*args):
        out = real(*args)
        held.append(len(out[1]))
        return out

    vlp._homogenized_dd = recording
    try:
        routine(P)
    finally:
        vlp._homogenized_dd = real
    if not held:
        return None
    cap = held[0]
    while _capped(routine, P, max_faces=cap) == "cap":
        cap += 1
    return held[0], cap


def test_capped_sets_equal_uncapped_sets():
    # the cap bounds the rays that W's DD holds: the smallest cap that does
    # not trip returns the uncapped answer, and one less trips, on every call
    # that gets past the early returns.  On 88 of them the DD holds more
    # rays on its way than it ends with
    reached = total = grew = 0
    for P in SET_CORPUS + [orthant_cube(n) for n in range(2, 7)]:
        for routine in (efficient_set, weakly_efficient_set):
            found = smallest_cap(routine, P)
            if found is None:
                assert routine(P, max_faces=1) == routine(P)
                continue
            end, cap = found
            assert routine(P, max_faces=cap) == routine(P)
            assert _capped(routine, P, max_faces=cap - 1) == "cap"
            reached += 1
            total += cap
            grew += cap > end
    assert (reached, total, grew) == (371, 1118, 88)


def test_capped_sets_read_the_cap_off_the_int_generators(monkeypatch):
    # the cap is read off the int rays of W's DD, so a capped call that
    # reaches W walks no lattice and builds no rational generator form of
    # D; the early returns of the whole set do
    counts = count_set_work(monkeypatch)
    reached = 0
    for P in SET_CORPUS + [orthant_cube(4)]:
        for routine in (efficient_set, weakly_efficient_set):
            counts.clear()
            Q = VLPProblem(P.objective, P.feasible_set, P.cone)
            routine(Q, max_faces=4096)
            assert counts["lattice"] == 0
            if counts["W"]:
                assert "feasible_vrep" not in vars(Q)
                reached += 1
    assert reached == 363


def tangent_cut(k):
    """D cut out of R^3 by the k^2 tangent planes of x y z = 1 at
    (a, b, 1 / (a b)), a, b = 1..k, each b x + a y + a^2 b^2 z >= 3 a b,
    with identity objective ordered by the orthant.  Every row is a facet
    with a positive inward normal, so every facet is efficient, and W's DD
    holds more rays than D has rows."""
    rows = [
        ((-b, -a, -a * a * b * b), -3 * a * b) for a in range(1, k + 1) for b in range(1, k + 1)
    ]
    neg = [tuple(-int(i == j) for j in range(3)) for i in range(3)]
    return VLPProblem(Matrix.identity(3), HRep.of(3, ineqs=rows), ConeH.of(3, neg))


@pytest.mark.parametrize(
    "routine, weak, peak", [(efficient_set, False, 46), (weakly_efficient_set, True, 24)]
)
def test_weight_polyhedron_blow_up_trips_the_cap(routine, weak, peak):
    # 16 rows and 68 faces of D; W's DD holds up to 46 rays (strict) and 24
    # (weak), against n + 2 on the orthant n-cube.  A cap of 16 trips both,
    # and the default cap answers as testing every face does
    P = tangent_cut(4)
    with pytest.raises(FaceLimitError, match="face"):
        routine(P, max_faces=16)
    assert smallest_cap(routine, P)[1] == peak
    E = routine(P, max_faces=4096)
    assert [f.active_ineq for f in E.faces] == [(i,) for i in range(16)]
    assert E == solution_set_via_all_faces(P, weak)


def interior_empty_by_lp(P):
    return not P.cone.has_nonempty_interior()


def cone_problem(K):
    return VLPProblem(Matrix.identity(K.dim), HRep.universe(K.dim), K)


def test_interior_rank_test_matches_the_lp_test():
    rng = random.Random(4711)
    corpus = SET_CORPUS + [random_problem(rng) for _ in range(60)]
    corpus += [random_cut_box(rng) for _ in range(30)]
    for P in corpus:
        assert P.cone_interior_empty == interior_empty_by_lp(P)
    assert sum(P.cone_interior_empty for P in SET_CORPUS) == 95


@pytest.mark.parametrize(
    "q, normals, empty",
    [
        (3, [], False),  # no normals: all of R^3
        (2, [(1, 0), (-1, 0), (0, 1), (0, -1)], True),  # K = {0}
        (2, [(1, -1), (-1, 1)], True),  # the line y = x
        (3, [(1, 2, -1)], False),  # a half-space
        (3, [(-1, 0, 0), (0, -1, 0)], False),  # the orthant of R^2 times a line
        (3, [(-1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], True),  # a 2-d wedge
        (3, [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 0)], True),  # the ray of e_3
    ],
)
def test_interior_rank_test_on_hand_cones(q, normals, empty):
    P = cone_problem(ConeH.of(q, normals))
    assert P.cone_interior_empty is empty
    assert interior_empty_by_lp(P) is empty


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda q: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=q, max_size=q).filter(any),
            max_size=4,
        ).map(lambda normals: ConeH.of(q, normals))
    )
)
@settings(max_examples=60, deadline=None)
def test_interior_rank_test_matches_the_lp_test_on_small_cones(K):
    P = cone_problem(K)
    assert P.cone_interior_empty == interior_empty_by_lp(P)


# ---------------------------------------------------------------------------
# the integer rows of the pipeline LPs against their rational formulas


def reference_weight_region(P, F, weak):
    """The weight region of the face F as rational (row, rhs) pairs, written
    the way the rational formula reads: (dim, eqs, ineqs)."""
    dec = P.decomposition
    geom = P.feasible_vrep

    def image(v):
        z = P.objective.matvec(v)
        return Vector.of([g.dot(z) for g in dec.dual_generators]) if weak else z

    if weak:
        dim = len(dec.dual_generators)
        eqs = [(Vector((rat(1),) * dim), rat(1))]
        ineqs = [(-Vector.unit(dim, i), rat(0)) for i in range(dim)]
    else:
        dim = P.cone.dim
        eqs = [(w, rat(0)) for w in dec.y0_basis]
        ineqs = [(-r, rat(-1)) for r in dec.k1_rays]
    base = image(F.points[0])
    eqs += [(image(g) - base, rat(0)) for g in F.points[1:]]
    eqs += [(image(v), rat(0)) for v in F.rays + F.lineality]
    ineqs += [(-image(r), rat(0)) for r in geom.rays]
    ineqs += [(base - image(v), rat(0)) for v in geom.points]
    return dim, eqs, ineqs


def assert_rows_scale(got, want):
    # each int row is its scale times the rational row, and the scale is
    # positive, so every row keeps its sign, ratios and solution set
    dim, eqs, ineqs = got
    assert dim == want[0]
    for rows, ref in ((eqs, want[1]), (ineqs, want[2])):
        assert len(rows) == len(ref)
        for (ints, scale), (a, b) in zip(rows, ref):
            assert scale > 0
            assert ints == [scale * x for x in a.coords + (b,)]


def face_generators(P, G):
    """The int generators of P._d_generators whose bits are in the mask G,
    and all of its lineality, with no incidence."""
    gens = P._d_generators
    n_pts = len(gens.points)
    points = tuple(p for k, p in enumerate(gens.points) if G >> k & 1)
    rays = tuple(r for k, r in enumerate(gens.rays, n_pts) if G >> k & 1)
    return polyhedron._Generators(points, rays, gens.lineality, ())


def lattice_faces(P):
    """(generator mask, geometry) of every face of D, from the face lattice
    walk on P's int generators; the geometry takes the points and rays of
    feasible_vrep whose bits are in the mask, and all of its lineality."""
    geom = P.feasible_vrep
    n_pts = len(geom.points)
    out = []
    for _, G in polyhedron._face_lattice(P._d_generators, None):
        points = tuple(p for k, p in enumerate(geom.points) if G >> k & 1)
        rays = tuple(r for k, r in enumerate(geom.rays, n_pts) if G >> k & 1)
        out.append((G, VRep(geom.dim, points, rays, geom.lineality)))
    return out


def test_int_weight_regions_scale_the_rational_rows():
    checked = 0
    for P in SET_CORPUS:
        geom = P.feasible_vrep
        if geom.is_empty:
            continue
        n_pts, n_gens = len(geom.points), len(geom.points) + len(geom.rays)
        lattice = lattice_faces(P)
        lineality = tuple([polyhedron._int_vector(l) for l in geom.lineality])
        for weak in (False, True):
            W = vlp._int_weight_space(P, weak, lineality)
            for G, F in lattice:
                want = reference_weight_region(P, F, weak)
                assert_rows_scale(vlp._face_region(P, F, weak), want)
                # the same region with generators keyed by lattice mask bit
                points = [i for i in range(n_pts) if G >> i & 1]
                dirs = [i for i in range(n_pts, len(W.images)) if i >= n_gens or G >> i & 1]
                got = vlp._weight_region(W, points, dirs)
                assert_rows_scale(got, want)
                checked += 1
    assert checked == 2322


def slack_program_value(P, u, weak, tangent, bounds=True):
    """The slack program of the efficiency tests as a rational HRep in
    (d, s), d = x - u: d in D - u, or in the tangent cone T_D(u) when
    tangent (D's equalities and the inequalities tight at u, right-hand
    sides 0), with <n_j, -M d> <= -s_j, s_j >= 0 and, when bounds,
    s_j <= 1.  Returns the optimum, or None when it is unbounded, which
    only the cone program without bounds can be."""
    n = P.feasible_set.dim
    k = 1 if weak else len(P.cone.normals)
    M = P.objective

    def row(x, s):
        return Vector(x.coords + s.coords)

    zero_x, zero_s = Vector.zero(n), Vector.zero(k)
    eqs = [(row(a, zero_s), rat(0)) for a, b in P.feasible_set.eq_rows()]
    ineqs = [
        (row(a, zero_s), b - a.dot(u))
        for a, b in P.feasible_set.ineq_rows()
        if not tangent or a.dot(u) == b
    ]
    for j, nrm in enumerate(P.cone.normals):
        ineqs.append((row(-M.tmatvec(nrm), Vector.unit(k, 0 if weak else j)), rat(0)))
    for j in range(k):
        ineqs.append((row(zero_x, -Vector.unit(k, j)), rat(0)))
        if bounds:
            ineqs.append((row(zero_x, Vector.unit(k, j)), rat(1)))
    out = solve_lp(HRep.of(n + k, eqs, ineqs), row(zero_x, Vector.of([-1] * k)))
    if out.status is LPStatus.UNBOUNDED and not bounds:
        return None
    assert out.status is LPStatus.OPTIMAL
    return out.value


def slack_verdicts(cases):
    """Run both slack programs at every point of (problem, points) cases
    against the rational programs, and count the int verdicts."""
    verdicts = Counter()
    for P, points in cases:
        for u in points:
            for weak in (False, True):
                got = vlp._max_slack(P, vlp._require_feasible(P, u), weak)
                assert got in (0, None)
                assert got == slack_program_value(P, u, weak, tangent=True, bounds=False)
                tangent = slack_program_value(P, u, weak, tangent=True)
                over_d = slack_program_value(P, u, weak, tangent=False)
                assert (got == 0) == (tangent == 0) == (over_d == 0)
                verdicts["bounded" if got == 0 else "unbounded"] += 1
    return verdicts


def test_int_slack_program_matches_the_hrep_program():
    # the int program is the tangent-cone program without the s_j <= 1
    # rows, a cone program: its optimum is the rational cone program's, 0
    # or unbounded (None).  A bounded cone program means a zero optimum for
    # the bounded tangent program and for the program over all of D, the
    # oracle for the verdict, which reads only whether the value is zero
    verdicts = slack_verdicts((P, P.feasible_vrep.points) for P in SET_CORPUS)
    assert verdicts == {"bounded": 527, "unbounded": 329}
    # the same on D's with equalities, dependent and duplicate ones, and
    # single points, whose frames have fewer free columns than D's dimension
    verdicts = slack_verdicts((P, points) for P, _, points in FRAME_CORPUS)
    assert verdicts == {"bounded": 188, "unbounded": 54}


def test_tangent_slack_program_agrees_with_d_off_the_vertices():
    # a relative interior point of every face of D; 733 of the 1161 faces
    # are more than a vertex, so their point is no vertex of D
    checked = interior = 0
    for P in SET_CORPUS:
        geom = P.feasible_vrep
        if geom.is_empty:
            continue
        for G, F in lattice_faces(P):
            u = polyhedron._view(vlp._relative_interior_point(face_generators(P, G)))
            interior += u not in geom.points
            for weak in (False, True):
                got = vlp._max_slack(P, vlp._require_feasible(P, u), weak)
                assert (got == 0) == (slack_program_value(P, u, weak, tangent=False) == 0)
                checked += 1
    assert (checked, interior) == (2322, 733)


def frame_corpus(count=75, seed=1818):
    """(problem, shape, points) with equalities in D, all through one anchor
    point: one or two drawn at random, a dependent row (a combination of
    the others) or a duplicate row (a rational multiple of one) added, or n
    independent rows that cut D down to the anchor, a frame with no free
    column.  points are D's VRep points and the anchor, which need not be
    a vertex."""
    rng = random.Random(seed)
    shapes = ("one", "two", "dependent", "duplicate", "point")
    out = []
    for i in range(count):
        shape = shapes[i % len(shapes)]
        n = rng.randint(2 if shape in ("two", "dependent") else 1, 3)
        anchor = random_vector(rng, n, 2)

        def draw():
            while True:
                a = random_vector(rng, n, 2)
                if not a.is_zero():
                    return a

        rows = [draw() for _ in range(1 if shape in ("one", "duplicate") else 2)]
        if shape == "dependent":
            rows.append(rows[0] + rows[1].scale(rat(2)))
        elif shape == "duplicate":
            rows.append(rows[0].scale(rat(rng.choice((1, -3)), 2)))
        elif shape == "point":
            rows = []
            while len(rows) < n or rank(Matrix.from_rows(rows, cols=n)) < n:
                rows.append(draw())
        eqs = [(a, a.dot(anchor)) for a in rows]
        ineqs = []
        for _ in range(rng.randint(1, 4)):
            a = draw()
            ineqs.append((a, a.dot(anchor) + rng.randint(0, 2)))
        q = rng.randint(1, 2)
        M = Matrix.of([[rng.randint(-2, 2) for _ in range(n)] for _ in range(q)], cols=n)
        P = VLPProblem(M, HRep.of(n, eqs, ineqs), random_cone(rng, q, 3, 2))
        points = list(P.feasible_vrep.points)
        out.append((P, shape, points + [anchor] * (anchor not in points)))
    return out


FRAME_CORPUS = frame_corpus()


def in_returned_face(E, P, u):
    """Whether u lies in one of the faces of the set E: every row of some
    face's tag is tight at u."""
    rows = P.feasible_set.ineq_rows()
    tight = {i for i, (a, b) in enumerate(rows) if a.dot(u) == b}
    return any(set(f.active_ineq) <= tight for f in E.faces)


def test_equality_frames_agree_with_the_oracles():
    # the per-point programs run in the frame d = B z of D's equalities;
    # each verdict of both kinds agrees with the all-faces set, and the
    # strict one with the three crosscheck routes; every witness passes its
    # re-check inside the witness call and an LP over all of D outside it
    shapes, verdicts = Counter(), Counter()
    for P, shape, points in FRAME_CORPUS:
        width = P._tangent_frame[0]
        n = P.feasible_set.dim
        eq_rank = rank(Matrix.from_rows([a for a, _ in P.feasible_set.eq_rows()], cols=n))
        assert width == n - eq_rank
        shapes[shape] += 1
        shapes["no free column"] += width == 0
        sets = {weak: solution_set_via_all_faces(P, weak) for weak in (False, True)}
        for u in points:
            strict = is_efficient(P, u)
            assert strict == (vlp._max_slack(P, vlp._require_feasible(P, u), False) == 0)
            assert strict == (not dominated_via_generators(P, u))
            assert strict == efficient_via_quotient(P, u)
            assert strict == efficient_via_witness_system(P, u)
            weak = is_weakly_efficient(P, u)
            routes = ((False, strict, scalarize_witness), (True, weak, weak_witness))
            for kind, verdict, witness in routes:
                assert verdict == in_returned_face(sets[kind], P, u)
                try:
                    w = witness(P, u)
                except NotEfficientError:
                    assert not verdict
                    continue
                assert verdict
                c = P.objective.tmatvec(w)
                assert solve_lp(P.feasible_set, c).value == c.dot(u)
                verdicts["weak witness" if kind else "witness"] += 1
            verdicts["points"] += 1
    assert shapes == {
        "one": 15,
        "two": 15,
        "dependent": 15,
        "duplicate": 15,
        "point": 15,
        "no free column": 36,
    }
    assert verdicts == {"points": 121, "witness": 94, "weak witness": 94}


def cut_box_with_equality(rng):
    """random_cut_box with one random equality through the center of the
    cube, which stays feasible."""
    P = random_cut_box(rng)
    a = Vector.zero(3)
    while a.is_zero():
        a = random_vector(rng, 3, 2)
    center = Vector.of([rat(1, 2)] * 3)
    D = HRep.of(3, [(a, a.dot(center))], P.feasible_set.ineq_rows())
    return VLPProblem(P.objective, D, P.cone)


def per_point_corpus():
    """Fresh copies of the set corpus, the problem files and 30 cut boxes
    with an equality: 296 problems, 158 of them with equalities in D."""
    rng = random.Random(1717)
    problems = [VLPProblem(P.objective, P.feasible_set, P.cone) for P in SET_CORPUS]
    problems += [load_problem(str(path)) for path in sorted(PROBLEMS_DIR.glob("*.json"))]
    return problems + [cut_box_with_equality(rng) for _ in range(30)]


def test_per_point_programs_have_no_equality_row_and_no_artificial(monkeypatch):
    # every slack program and argmin re-check is written in the frame of
    # D's equalities, over the tangent cone, and runs on the cone core: int
    # rows with no right-hand side, so no equality row, no artificial and
    # no phase one, the z columns free and leading, and in an argmin
    # re-check every column free.  No per-point program reaches the
    # general simplex, and the zero weight's re-check runs no program
    caller, seen = [], Counter()
    real_core, real_optimize = vlp._cone_descent, lp._optimize_rows

    def within(name, real):
        def wrapper(*args, **kwargs):
            caller.append(name)
            if name == "_verify_constant":
                seen[name] += 1
            try:
                return real(*args, **kwargs)
            finally:
                caller.pop()

        return wrapper

    def core(free, rows, cost):
        # an argmin re-check has only free columns, a slack program its
        # sign-constrained slacks after them
        assert all(len(a) == len(cost) for a in rows)
        assert (free == len(cost)) == (caller[-1] == "_verify_argmin")
        seen[caller[-1], "_cone_descent"] += 1
        return real_core(free, rows, cost)

    def optimize(*a, **kwargs):
        if caller:
            seen[caller[-1], "_optimize_rows"] += 1
        return real_optimize(*a, **kwargs)

    for name in ("_max_slack", "_verify_argmin", "_verify_constant"):
        monkeypatch.setattr(vlp, name, within(name, getattr(vlp, name)))
    monkeypatch.setattr(vlp, "_cone_descent", core)
    monkeypatch.setattr(lp, "_optimize_rows", optimize)
    problems = per_point_corpus()
    with_eqs = 0
    for P in problems:
        with_eqs += bool(P.feasible_set.eq_rows())
        for u in P.feasible_vrep.points:
            is_efficient(P, u)
            is_weakly_efficient(P, u)
            for witness in (scalarize_witness, weak_witness):
                try:
                    witness(P, u)
                except NotEfficientError:
                    pass
    assert (len(problems), with_eqs) == (296, 158)
    # no slack program on a subspace K (strict) or an empty-interior K
    # (weak), whose verdicts K decides; the zero weight of either is
    # verified in ints
    assert seen == {
        ("_max_slack", "_cone_descent"): 1282,
        ("_verify_argmin", "_cone_descent"): 426,
        "_verify_constant": 270,
    }


def test_slack_programs_on_the_cone_core_match_the_general_simplex(cone_program_oracle):
    # every slack program of both kinds at every vertex of the corpus, on
    # the cone core and on the general simplex, with the core's unbounded
    # edges checked in ints
    statuses = Counter()
    for P in per_point_corpus():
        for u in P.feasible_vrep.points:
            at = vlp._require_feasible(P, u)
            for weak in (False, True):
                if vlp._trivial(P, weak) is None:
                    program = vlp._slack_program(P, at, weak)
                    statuses[weak, cone_program_oracle(*program)] += 1
    assert statuses == {
        (False, LPStatus.OPTIMAL): 216,
        (False, LPStatus.UNBOUNDED): 236,
        (True, LPStatus.OPTIMAL): 210,
        (True, LPStatus.UNBOUNDED): 192,
    }


def test_connect_paths_pass_the_lp_oracle_over_d():
    # connect checks its paths on tangent cones and by int value
    # comparisons; an LP over all of D (solve_lp on the HRep) is the
    # oracle: every path point lies in D, every segment weight puts both
    # ends of its segment in the argmin, and the weight at every
    # breakpoint, interpolated from the two witnesses, is solvable, on the
    # set corpus, the problem files, cut boxes with and without an equality
    # and the equality frames, strict and weak
    rng = random.Random(1919)
    corpus = [("sets", P, P.feasible_vrep.points) for P in SET_CORPUS]
    corpus += [
        ("files", P, P.feasible_vrep.points)
        for P in (load_problem(str(path)) for path in sorted(PROBLEMS_DIR.glob("*.json")))
    ]
    boxes = [random_cut_box(rng) for _ in range(30)] + [cut_box_with_equality(rng) for _ in range(30)]
    corpus += [("boxes", P, P.feasible_vrep.points) for P in boxes]
    corpus += [("frames", P, points) for P, _, points in FRAME_CORPUS]
    tally = {}
    for name, P, points in corpus:
        P = VLPProblem(P.objective, P.feasible_set, P.cone)
        D = P.feasible_set
        for weak, witness in ((False, scalarize_witness), (True, weak_witness)):
            ends = []
            for u in points:
                try:
                    ends.append((u, witness(P, u)))
                except NotEfficientError:
                    pass
            if len(ends) < 2:
                continue
            (u, xi0), (v, xi1) = ends[0], ends[-1]
            cert = connect(P, u, v, weak=weak)
            assert cert.points[0] == u and cert.points[-1] == v
            assert all(contains(D, x) for x in cert.points)
            for i, w in enumerate(cert.weights):
                c = P.objective.tmatvec(w)
                out = solve_lp(D, c)
                assert out.status is LPStatus.OPTIMAL
                assert c.dot(cert.points[i]) == out.value == c.dot(cert.points[i + 1])
            for t in cert.breakpoints:
                c = P.objective.tmatvec(xi0 + (xi1 - xi0).scale(t))
                assert solve_lp(D, c).status is LPStatus.OPTIMAL
            key = name, "weak" if weak else "strict"
            paths, segments, interior = tally.get(key, (0, 0, 0))
            tally[key] = paths + 1, segments + len(cert.weights), interior + len(cert.breakpoints) - 2
    # (paths, segments, interior breakpoints) per corpus and kind
    assert tally == {
        ("sets", "strict"): (35, 36, 10),
        ("sets", "weak"): (42, 42, 4),
        ("files", "strict"): (3, 3, 1),
        ("files", "weak"): (3, 3, 1),
        ("boxes", "strict"): (42, 51, 47),
        ("boxes", "weak"): (51, 66, 39),
        ("frames", "strict"): (20, 20, 4),
        ("frames", "weak"): (20, 20, 4),
    }


def reference_relative_interior_point(V):
    """The witness point as the rational formula reads: the mean of the
    points plus the sum of the rays of a generator form."""
    s = Vector.zero(V.dim)
    for p in V.points:
        s = s + p
    s = s.scale(rat(1, len(V.points)))
    for r in V.rays:
        s = s + r
    return s


def test_int_relative_interior_point_matches_the_rational_formula():
    # on every face of D and every nonempty witness region of SET_CORPUS,
    # the int point is the rational mean of the points plus the sum of the
    # rays, exactly
    checked = Counter()
    for P in SET_CORPUS:
        geom = P.feasible_vrep
        for G, F in lattice_faces(P):
            got = vlp._relative_interior_point(face_generators(P, G))
            assert polyhedron._view(got) == reference_relative_interior_point(F)
            checked["face"] += 1
        for u in geom.points:
            for weak in (False, True):
                rows = vlp._point_region(P, vlp._require_feasible(P, u), weak)
                region = polyhedron._generators(*rows)
                if region.points:
                    got = vlp._relative_interior_point(region)
                    want = reference_relative_interior_point(polyhedron._vrep(rows[0], region))
                    assert polyhedron._view(got) == want
                    checked["region"] += 1
    assert checked == {"face": 1161, "region": 527}


def test_pipeline_builds_no_rational_cone_decomposition():
    # every weight and witness is checked on the int split of K, so neither
    # set, nor any vertex's strict or weak witness, nor a connect between
    # the first and last vertex with a witness leaves the rational
    # decomposition in P's cache
    problems = [VLPProblem(P.objective, P.feasible_set, P.cone) for P in SET_CORPUS]
    problems += [load_problem(str(path)) for path in sorted(PROBLEMS_DIR.glob("*.json"))]
    for P in problems:
        efficient_set(P)
        weakly_efficient_set(P)
        for witness, weak in ((scalarize_witness, False), (weak_witness, True)):
            ends = []
            for u in P.feasible_vrep.points:
                try:
                    witness(P, u)
                except NotEfficientError:
                    continue
                ends.append(u)
            if len(ends) >= 2:
                connect(P, ends[0], ends[-1], weak=weak)
        assert "_cone_split" in vars(P)
        assert "decomposition" not in vars(P)
    assert len(problems) == 262 + 4


def test_int_dd_entry_matches_h_to_v_on_witness_regions():
    # the witness regions go to the double description as int rows; the
    # rational route through HRep.of gives the same generator form, and so
    # does D itself
    regions, shapes = 0, Counter()
    for P in SET_CORPUS:
        geom = P.feasible_vrep
        D = P.feasible_set
        assert polyhedron._h_to_v_rows(D.dim, *P._d_rows) == geom
        shapes["D with lineality"] += bool(geom.lineality)
        for u in geom.points:
            F = VRep(D.dim, (u,), (), geom.lineality)
            for weak in (False, True):
                region = vlp._face_region(P, F, weak)
                dim, eqs, ineqs = region
                want = h_to_v(
                    HRep.of(
                        dim,
                        [(a[:-1], a[-1]) for a, _ in eqs],
                        [(a[:-1], a[-1]) for a, _ in ineqs],
                    )
                )
                assert polyhedron._h_to_v_rows(*region) == want
                shapes["region with lineality"] += bool(want.lineality)
                shapes["empty region"] += want.is_empty
                regions += 1
    assert regions == 856
    assert shapes == {"D with lineality": 43, "region with lineality": 38, "empty region": 329}


# ---------------------------------------------------------------------------
# the int set-up of a problem against the rational routes it replaced


def int_setup_corpus():
    """SET_CORPUS, problems of the certify and solve benchmark envelopes,
    and cut boxes, all with cold caches."""
    rng = random.Random(1515)
    certify = InstanceConfig(4, 6, 1, 3, 3, 3)
    solve = InstanceConfig(3, 5, 1, 2, 3, 2)
    out = SET_CORPUS + [random_problem(rng, certify, allow_subspace=False) for _ in range(60)]
    out += [random_problem(rng, solve) for _ in range(60)]
    out += [random_cut_box(rng) for _ in range(30)]
    return [VLPProblem(P.objective, P.feasible_set, P.cone) for P in out]


INT_SETUP_CORPUS = int_setup_corpus()


def d_wide_point_region(P, at, weak):
    """The weight region of the point u with feasible form at, written over
    all of D's generators as the flat u + lin(D): _weight_region of u's int
    form with D's int lineality basis.  The oracle of vlp._point_region,
    which writes the same set over the tangent cone T_D(u)."""
    W = vlp._int_weight_space(P, weak, (at[0],) + P._d_generators.lineality)
    first = W.n_points + W.n_rays
    return vlp._weight_region(W, [first], range(first + 1, len(W.images)))


def region_generators(region):
    """The int generator form of a weight region (dim, eqs, ineqs): its
    points, rays and lineality, without the incidence with its rows."""
    gens = polyhedron._generators(*region)
    return gens.points, gens.rays, gens.lineality


def test_tangent_region_has_the_generators_of_the_d_wide_region():
    # at every vertex of the set corpus, and at a relative interior point
    # of each face of D, the weight region over the tangent cone has the
    # generators of the region over D's generators, in both kinds:
    # polyhedron._generators is canonical on sets, so the witnesses are
    # the same bit for bit
    shapes = Counter()
    for P in SET_CORPUS:
        gens = P._d_generators
        points = [(p, "vertex") for p in gens.points]
        points += [
            (vlp._relative_interior_point(face_generators(P, G)), "face")
            for G, _ in lattice_faces(P)
        ]
        width, ineqs, _, _ = P._tangent_frame
        for ui, where in points:
            at = vlp._feasible_form(P, ui)
            lineality, _ = polyhedron._cone_ints(width, [], [ineqs[i][0] for i in at[1]])
            shapes[where, "tangent cone with lineality"] += bool(lineality)
            for weak in (False, True):
                got = region_generators(vlp._point_region(P, at, weak))
                assert got == region_generators(d_wide_point_region(P, at, weak))
                region = "witness" if got[0] else "empty"
                shapes[where, "weak" if weak else "strict", region] += 1
    # (where, kind, region) and the tangent cones with a lineality space,
    # whose basis the region writes as equalities
    assert shapes == {
        ("vertex", "strict", "witness"): 252,
        ("vertex", "strict", "empty"): 176,
        ("vertex", "weak", "witness"): 275,
        ("vertex", "weak", "empty"): 153,
        ("vertex", "tangent cone with lineality"): 47,
        ("face", "strict", "witness"): 471,
        ("face", "strict", "empty"): 690,
        ("face", "weak", "witness"): 565,
        ("face", "weak", "empty"): 596,
        ("face", "tangent cone with lineality"): 780,
    }


def test_int_generators_stand_for_the_feasible_vrep():
    # every int generator (*g, h) is h times its feasible_vrep vector, with
    # g and h coprime, so h is the lcm of the vector's denominators, and a
    # ray's h is its leading entry; the incidence read off the DD's zero
    # sets is the one the rational rows of D and the rational VRep give by
    # dot products, and a vertex's weight region, written over its tangent
    # cone, has the generators of the one written over D's generators
    shapes = Counter()
    for P in INT_SETUP_CORPUS:
        gens, geom = P._d_generators, P.feasible_vrep
        for ints, vectors in (
            (gens.points, geom.points),
            (gens.rays, geom.rays),
            (gens.lineality, geom.lineality),
        ):
            assert len(ints) == len(vectors)
            for v, x in zip(ints, vectors):
                assert v[-1] > 0 and math.gcd(*v) == 1
                assert [v[-1] * c for c in x.coords] == list(v[:-1])
        for v in gens.rays:
            assert v[-1] == abs(next(c for c in v if c))
        n_pts = len(geom.points)
        assert gens.tight == tuple(
            sum(
                1 << k
                for k, g in enumerate(geom.points + geom.rays)
                if a.dot(g) == (b if k < n_pts else 0)
            )
            for a, b in P.feasible_set.ineq_rows()
        )
        for u in geom.points:
            at = vlp._require_feasible(P, u)
            for weak in (False, True):
                assert region_generators(vlp._point_region(P, at, weak)) == region_generators(
                    d_wide_point_region(P, at, weak)
                )
        shapes["rays"] += bool(geom.rays)
        shapes["lineality"] += bool(geom.lineality)
        shapes["h > 1"] += any(v[-1] > 1 for v in gens.points + gens.rays + gens.lineality)
    assert len(INT_SETUP_CORPUS) == 412
    assert shapes == {"rays": 215, "lineality": 65, "h > 1": 244}


def test_weak_image_rows_are_the_int_rows_of_the_rational_products():
    # the int product of the normals with S M gives the rows and the scale
    # that _int_rows makes of the rational rows -M^T n_j; the corpus has
    # integer M and normals, so each problem runs again with its rows of M
    # and its normals scaled by rationals, where the products have common
    # factors to cancel
    rng = random.Random(77)
    factors = [rat(1), rat(3, 2), rat(1, 6), rat(10, 7), rat(4), rat(2, 9)]
    scaled = 0
    for P in INT_SETUP_CORPUS:
        rows = zip(P.objective.entries, rng.choices(factors, k=P.cone.dim))
        M = Matrix.of([[f * x for x in row] for row, f in rows])
        K = ConeH(P.cone.dim, tuple(n.scale(rng.choice(factors)) for n in P.cone.normals))
        for Q in (P, VLPProblem(M, P.feasible_set, K)):
            want = vlp._int_rows([(-Q.objective.tmatvec(n)).coords for n in Q.cone.normals])
            assert Q._weak_image_rows == want
        scaled += Q._weak_image_rows[1] != P._weak_image_rows[1]
    assert scaled == 357


def rational_breakpoints(c0, c1, D):
    """parametric_breakpoints on rationals, as the library computed it
    before its int route: the value lines of the points of h_to_v(D),
    their crossings and the zero crossings of the ray and lineality
    products as rational candidates, each open interval classified at its
    rational midpoint, and an LP at every breakpoint."""
    geom = h_to_v(D)
    if geom.is_empty:
        raise UnsolvableSegmentError("unsolvable on segment")
    delta = c1 - c0
    lines = [(c0.dot(p), delta.dot(p)) for p in geom.points]
    candidates = {rat(0), rat(1)}
    for i, (a0, a1) in enumerate(lines):
        for b0, b1 in lines[i + 1 :]:
            if a1 != b1 and 0 < (b0 - a0) / (a1 - b1) < 1:
                candidates.add((b0 - a0) / (a1 - b1))
    for g in geom.rays + geom.lineality:
        a0, a1 = c0.dot(g), delta.dot(g)
        if a1 != 0 and 0 < -a0 / a1 < 1:
            candidates.add(-a0 / a1)
    grid = sorted(candidates)

    def signature(t):
        ct = c0 + delta.scale(t)
        if any(ct.dot(g) != 0 for g in geom.lineality):
            return None
        products = [ct.dot(g) for g in geom.rays]
        if any(v < 0 for v in products):
            return None
        values = [v0 + t * v1 for v0, v1 in lines]
        best = min(values)
        return (
            tuple(i for i, v in enumerate(values) if v == best),
            tuple(i for i, v in enumerate(products) if v == 0),
        )

    sigs = [signature((a + b) / 2) for a, b in zip(grid, grid[1:])]
    if None in sigs:
        raise UnsolvableSegmentError("unsolvable on segment")
    out = [grid[0]] + [grid[k] for k in range(1, len(grid) - 1) if sigs[k - 1] != sigs[k]]
    out.append(grid[-1])
    for t in out:
        if solve_lp(D, c0 + delta.scale(t)).status is not LPStatus.OPTIMAL:
            raise UnsolvableSegmentError("unsolvable on segment")
    return out


def rational_firsts(P, c0, c1, bps):
    """For each interval between the breakpoints bps, the index of the
    first point of feasible_vrep that attains the LP minimum at the
    interval's midpoint, as connect found its chain by LP before the
    breakpoint analysis named these points."""
    out = []
    for a, b in zip(bps, bps[1:]):
        c = c0 + (c1 - c0).scale((a + b) / 2)
        res = solve_lp(P.feasible_set, c)
        assert res.status is LPStatus.OPTIMAL
        out.append(next(k for k, p in enumerate(P.feasible_vrep.points) if c.dot(p) == res.value))
    return out


def test_int_breakpoints_match_the_rational_route():
    # random segments: each end a random integer cost or M^T w for a weight
    # w = sum r_j g_j with r_j > 0 over the dual generators, as connect
    # interpolates; both routes agree, failures included, through
    # parametric_breakpoints and through connect's entry, the int analysis
    # on P's int generators with int costs and no LP, which gives the
    # breakpoints as int pairs and names each interval's first argmin point
    rng = random.Random(2020)
    outcomes = Counter()
    ints = polyhedron._int_vector

    def cost(P):
        if rng.random() < 0.5 or not P.cone.normals:
            return Vector.of([rng.randint(-3, 3) for _ in range(P.feasible_set.dim)])
        w = Vector.zero(P.cone.dim)
        for n in P.cone.normals:
            w = w - n.scale(rng.randint(1, 4))
        return P.objective.tmatvec(w)

    def attempt(route, *args):
        try:
            return route(*args)
        except UnsolvableSegmentError:
            return None

    for P in INT_SETUP_CORPUS:
        D = P.feasible_set
        for _ in range(3):
            c0, c1 = cost(P), cost(P)
            want = attempt(rational_breakpoints, c0, c1, D)
            assert attempt(lp.parametric_breakpoints, c0, c1, D) == want
            got = attempt(lp._breakpoints, ints(c0), ints(c1), P._d_generators)
            if got is not None:
                got = [rat(*t) for t in got[0]], got[1]
            assert got == (None if want is None else (want, rational_firsts(P, c0, c1, want)))
            outcomes["unsolvable" if want is None else "interior %d" % min(len(want) - 2, 2)] += 1
    assert outcomes == {"unsolvable": 559, "interior 0": 533, "interior 1": 119, "interior 2": 25}
