"""Simplex and parametric-objective tests.

Randomized cases are checked against an independent oracle built on the
double description conversion: infeasibility, unboundedness and the optimal
value all read off the generator form directly.  A seeded golden corpus pins
every LPOutcome bit for bit, so any change to the pivot path fails here.
"""

import hashlib
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gpolyvlp.exact import Vector, rat, vec
from gpolyvlp import lp
from gpolyvlp.lp import (
    LPOutcome,
    LPStatus,
    NoArgminError,
    UnsolvableSegmentError,
    argmin_face,
    feasible,
    parametric_breakpoints,
    solve_lp,
)
from gpolyvlp.polyhedron import HRep, InternalInvariantError, _int_vector, contains, h_to_v


def unit_square():
    return HRep.of(
        2,
        ineqs=[([-1, 0], 0), ([0, -1], 0), ([1, 0], 1), ([0, 1], 1)],
    )


def northeast_region():
    # x >= 0 and x1 + x2 >= 1: two vertices, two extreme rays
    return HRep.of(
        2,
        ineqs=[([-1, 0], 0), ([0, -1], 0), ([-1, -1], -1)],
    )


class TestSolve:
    def test_square_corners(self):
        out = solve_lp(unit_square(), vec([1, 1]))
        assert out.status == LPStatus.OPTIMAL
        assert out.value == 0 and out.point == vec([0, 0])
        out = solve_lp(unit_square(), vec([-1, -1]))
        assert out.value == -2 and out.point == vec([1, 1])

    def test_lex_smallest_point_on_tied_faces(self):
        # min 0.x: everything optimal, the origin corner is the canonical pick
        out = solve_lp(unit_square(), vec([0, 0]))
        assert out.value == 0 and out.point == vec([0, 0])
        # bottom edge optimal: (0,0) is its lex-min
        assert solve_lp(unit_square(), vec([0, 1])).point == vec([0, 0])
        # top edge optimal: (0,1)
        assert solve_lp(unit_square(), vec([0, -1])).point == vec([0, 1])
        # right edge optimal: (1,0)
        assert solve_lp(unit_square(), vec([-1, 0])).point == vec([1, 0])

    def test_fractional_data(self):
        P = HRep.of(1, ineqs=[([-1], rat(-1, 7))])
        out = solve_lp(P, vec([rat(1, 3)]))
        assert out.value == rat(1, 21) and out.point == vec([rat(1, 7)])

    def test_equality_rows(self):
        P = HRep.of(
            2,
            eqs=[([1, 1], 5)],
            ineqs=[([-1, 0], 0), ([1, 0], 2)],
        )
        out = solve_lp(P, vec([0, 1]))
        assert out.status == LPStatus.OPTIMAL
        assert out.value == 3 and out.point == vec([2, 3])

    def test_infeasible(self):
        P = HRep.of(1, ineqs=[([1], -1), ([-1], 0)])
        assert solve_lp(P, vec([1])).status == LPStatus.INFEASIBLE

    def test_unbounded_with_certificate(self):
        P = HRep.of(2, ineqs=[([0, -1], 0)])
        out = solve_lp(P, vec([0, -1]))
        assert out.status == LPStatus.UNBOUNDED
        assert out.descent_ray == vec([0, 1])

    def test_universe(self):
        assert solve_lp(HRep.universe(2), vec([0, 0])).value == 0
        out = solve_lp(HRep.universe(2), vec([3, -4]))
        assert out.status == LPStatus.UNBOUNDED
        assert out.descent_ray == vec([-1, rat(4, 3)])

    def test_beale_degenerate_instance(self):
        # a classic cycling example for naive pivoting; Bland's rule gets
        # through and the optimal value is -1/20
        P = HRep.of(
            4,
            ineqs=[
                ([rat(1, 4), -60, rat(-1, 25), 9], 0),
                ([rat(1, 2), -90, rat(-1, 50), 3], 0),
                ([0, 0, 1, 0], 1),
                ([-1, 0, 0, 0], 0),
                ([0, -1, 0, 0], 0),
                ([0, 0, -1, 0], 0),
                ([0, 0, 0, -1], 0),
            ],
        )
        c = vec([rat(-3, 4), 150, rat(-1, 50), 6])
        out = solve_lp(P, c)
        assert out.status == LPStatus.OPTIMAL
        assert out.value == rat(-1, 20)
        assert contains(P, out.point) and c.dot(out.point) == out.value

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp(unit_square(), vec([1]))


class TestFeasible:
    def test_cases(self):
        assert feasible(unit_square())
        assert feasible(HRep.universe(3))
        assert not feasible(HRep.infeasible(2))


class TestArgminFace:
    def test_square_bottom_edge(self):
        F = argmin_face(unit_square(), vec([0, 1]))
        V = h_to_v(F)
        assert [tuple(p) for p in V.points] == [(rat(0), rat(0)), (rat(1), rat(0))]

    def test_vertex_face(self):
        F = argmin_face(unit_square(), vec([1, 1]))
        V = h_to_v(F)
        assert [tuple(p) for p in V.points] == [(rat(0), rat(0))]

    def test_no_argmin(self):
        with pytest.raises(NoArgminError):
            argmin_face(HRep.infeasible(2), vec([1, 1]))
        with pytest.raises(NoArgminError):
            argmin_face(HRep.of(2, ineqs=[([0, -1], 0)]), vec([0, -1]))


class TestParametric:
    def test_single_crossing(self):
        bps = parametric_breakpoints(vec([2, 1]), vec([1, 2]), northeast_region())
        assert bps == [rat(0), rat(1, 2), rat(1)]

    def test_constant_argmin(self):
        bps = parametric_breakpoints(vec([2, 1]), vec([3, 1]), northeast_region())
        assert bps == [rat(0), rat(1)]

    def test_same_objective_twice(self):
        bps = parametric_breakpoints(vec([1, 1]), vec([1, 1]), unit_square())
        assert bps == [rat(0), rat(1)]

    def test_square_sweep(self):
        # from pulling left-down to pulling right-down: vertical edge flips
        bps = parametric_breakpoints(vec([1, 1]), vec([-1, 1]), unit_square())
        assert bps == [rat(0), rat(1, 2), rat(1)]

    def test_unsolvable_interior(self):
        orthant = HRep.of(2, ineqs=[([-1, 0], 0), ([0, -1], 0)])
        with pytest.raises(UnsolvableSegmentError):
            parametric_breakpoints(vec([1, 1]), vec([-1, -1]), orthant)

    def test_unsolvable_by_lineality(self):
        halfplane = HRep.of(2, ineqs=[([-1, 0], 0)])
        with pytest.raises(UnsolvableSegmentError):
            parametric_breakpoints(vec([1, 0]), vec([1, 1]), halfplane)

    def test_empty_feasible_set(self):
        with pytest.raises(UnsolvableSegmentError):
            parametric_breakpoints(vec([1]), vec([1]), HRep.infeasible(1))


# ---------------------------------------------------------------------------
# randomized cross-checks against the generator-form oracle


@st.composite
def small_hreps(draw):
    dim = draw(st.integers(1, 3))
    n_eq = draw(st.integers(0, 1))
    n_ineq = draw(st.integers(0, 4))
    entry = st.integers(-2, 2)

    def rows(n):
        return [([draw(entry) for _ in range(dim)], draw(entry)) for _ in range(n)]

    return HRep.of(dim, rows(n_eq), rows(n_ineq))


def oracle_status(P, c):
    V = h_to_v(P)
    if V.is_empty:
        return LPStatus.INFEASIBLE, None
    for g in V.lineality:
        if c.dot(g) != 0:
            return LPStatus.UNBOUNDED, None
    for g in V.rays:
        if c.dot(g) < 0:
            return LPStatus.UNBOUNDED, None
    return LPStatus.OPTIMAL, min(c.dot(p) for p in V.points)


def in_recession_cone(P, g):
    return all(r.dot(g) == 0 for r, _ in P.eq_rows()) and all(
        r.dot(g) <= 0 for r, _ in P.ineq_rows()
    )


@given(small_hreps(), st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_simplex_matches_generator_oracle(P, raw_c):
    c = Vector.of((raw_c * 3)[: P.dim])
    want_status, want_value = oracle_status(P, c)
    out = solve_lp(P, c)
    assert out.status == want_status
    if want_status == LPStatus.OPTIMAL:
        assert out.value == want_value
        assert contains(P, out.point)
        assert c.dot(out.point) == out.value
        # lexicographic canonicality, asserted when a lex-min exists at all:
        # no lineality and every extreme ray lex-positive guarantees that
        V = h_to_v(P)
        lex_min_exists = not V.lineality and all(
            g.coords[g.first_nonzero()] > 0 for g in V.rays
        )
        if lex_min_exists:
            for p in V.points:
                if c.dot(p) == want_value:
                    assert out.point.coords <= p.coords
        # determinism
        again = solve_lp(P, c)
        assert again.value == out.value and again.point == out.point
    elif want_status == LPStatus.UNBOUNDED:
        assert out.descent_ray is not None
        assert c.dot(out.descent_ray) < 0
        assert in_recession_cone(P, out.descent_ray)


@given(small_hreps(), st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_argmin_face_collects_optimal_vertices(P, raw_c):
    c = Vector.of((raw_c * 3)[: P.dim])
    if oracle_status(P, c)[0] != LPStatus.OPTIMAL:
        return
    value = solve_lp(P, c).value
    F = h_to_v(argmin_face(P, c))
    optimal = set(p.coords for p in h_to_v(P).points if c.dot(p) == value)
    assert set(p.coords for p in F.points) == optimal
    for p in F.points:
        assert contains(P, p) and c.dot(p) == value


@given(
    small_hreps(),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3),
)
def test_breakpoints_partition_the_segment(P, raw_c0, raw_c1):
    c0 = Vector.of((raw_c0 * 3)[: P.dim])
    c1 = Vector.of((raw_c1 * 3)[: P.dim])
    if (
        solve_lp(P, c0).status != LPStatus.OPTIMAL
        or solve_lp(P, c1).status != LPStatus.OPTIMAL
    ):
        return
    # solvable at both ends means solvable throughout, so no exception
    bps = parametric_breakpoints(c0, c1, P)
    assert bps[0] == 0 and bps[-1] == 1
    assert bps == sorted(set(bps))

    def face_at(t):
        c = c0 + (c1 - c0).scale(t)
        return h_to_v(argmin_face(P, c))

    for a, b in zip(bps, bps[1:]):
        third = (b - a) / 3
        inner_a = face_at(a + third)
        inner_b = face_at(b - third)
        assert inner_a == inner_b  # constant argmin face inside the interval
    for k in range(1, len(bps) - 1):
        left = face_at(bps[k] - (bps[k] - bps[k - 1]) / 3)
        right = face_at(bps[k] + (bps[k + 1] - bps[k]) / 3)
        assert left != right  # every listed interior breakpoint is genuine


# ---------------------------------------------------------------------------
# golden outcomes and targeted kernel cases


def golden_corpus(count=600, seed=314159):
    """Seeded LPs: dims 1-4, integer and p/q entries, some scaled-copy
    equalities, about a fifth zero objectives."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.25:
            return rat(rng.randint(-6, 6), rng.randint(2, 7))
        return rat(rng.randint(-3, 3))

    cases = []
    for _ in range(count):
        dim = rng.randint(1, 4)

        def row():
            return [entry() for _ in range(dim)], entry()

        eqs = [row() for _ in range(rng.choice((0, 0, 0, 1, 1, 2)))]
        ineqs = [row() for _ in range(rng.randint(0, dim + 3))]
        if eqs and rng.random() < 0.3:
            a, b = rng.choice(eqs)
            f = rat(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 3)))
            eqs.append(([f * v for v in a], f * b))
        c = [rat(0)] * dim if rng.random() < 0.2 else [entry() for _ in range(dim)]
        cases.append((HRep.of(dim, eqs, ineqs), Vector(tuple(c))))
    return cases


GOLDEN = golden_corpus()
GOLDEN_BLOCK = 100


def encode_outcome(out):
    def coords(v):
        return None if v is None else ",".join(str(x) for x in v)

    value = None if out.value is None else str(out.value)
    return f"{out.status.value}|{value}|{coords(out.point)}|{coords(out.descent_ray)}"


def sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# The outcomes that the slack-basis start of phase one moved: 32 descent
# rays of unbounded LPs (another certified ray, read off another final
# basis) and the point of LP 134, a zero objective on a halfspace whose
# optimal face has no lexicographically smallest point.
MOVED = [
    20, 53, 58, 105, 115, 125, 134, 137, 157, 170, 207, 211, 228, 255, 277, 304, 331,
    341, 343, 377, 382, 422, 433, 445, 446, 452, 477, 494, 500, 521, 553, 559, 574,
]


@pytest.fixture(scope="module")
def golden_outcomes():
    return [solve_lp(P, c) for P, c in GOLDEN]


def test_golden_outcomes(golden_outcomes):
    outs = golden_outcomes
    assert Counter(o.status for o in outs) == {
        LPStatus.UNBOUNDED: 240,
        LPStatus.OPTIMAL: 197,
        LPStatus.INFEASIBLE: 163,
    }
    digest = sha256_lines(encode_outcome(o) for o in outs)
    assert digest == "aab4b9a618611447999c9b18b445492127c728a9f0889f38f136188128949672"


def test_golden_status_and_value(golden_outcomes):
    digest = sha256_lines(f"{o.status.value}|{o.value}" for o in golden_outcomes)
    assert digest == "782f231c39e1824537a5334dd8e7c09518053f3552575795068f78973002294a"


def test_golden_unmoved_outcomes(golden_outcomes):
    # every outcome outside MOVED is bit for bit the one the all-artificial
    # start of phase one gave
    moved = set(MOVED)
    digest = sha256_lines(
        encode_outcome(o) for i, o in enumerate(golden_outcomes) if i not in moved
    )
    assert digest == "7ca9c40ca91f4df22424c02355864e5e25aebbbbe6ba691f3892619bcad030d1"


def test_value_only_core_matches_solve_lp():
    # feasible and argmin_face read the status and the value off the
    # value-only entry, over the HRep's scaled rows with every variable
    # free; both are solve_lp's, whose split tableau reads the point
    for P, c in GOLDEN:
        core, full = lp._solve_rows(P.dim, *lp._scaled_rows(P), _int_vector(c)), solve_lp(P, c)
        assert core.point is None and core.descent_ray is None
        assert (core.status, core.value) == (full.status, full.value)
        assert feasible(P) == (full.status is not LPStatus.INFEASIBLE)
        if full.status is LPStatus.OPTIMAL:
            assert argmin_face(P, c) == P.with_extra_eqs([(c, full.value)])
        else:
            with pytest.raises(NoArgminError):
                argmin_face(P, c)


@pytest.mark.parametrize("start", range(0, len(GOLDEN), GOLDEN_BLOCK))
def test_golden_corpus_matches_oracle(start):
    for P, c in GOLDEN[start : start + GOLDEN_BLOCK]:
        want_status, want_value = oracle_status(P, c)
        out = solve_lp(P, c)
        assert out.status == want_status
        if want_status == LPStatus.OPTIMAL:
            assert out.value == want_value
            assert contains(P, out.point) and c.dot(out.point) == out.value
        elif want_status == LPStatus.UNBOUNDED:
            assert c.dot(out.descent_ray) < 0
            assert in_recession_cone(P, out.descent_ray)


def record_pivot_elements(monkeypatch):
    seen = []
    pivot = lp._Tableau.pivot

    def recording(T, row, col):
        seen.append(T.rows[row][col])
        pivot(T, row, col)

    monkeypatch.setattr(lp._Tableau, "pivot", recording)
    return seen


class TestKernelCases:
    def test_artificial_driven_out_on_negative_entry(self, monkeypatch):
        # 3x <= -6 is negated for phase one, so its slack has a negative
        # entry; phase one ends with that row's artificial basic at level
        # zero, and the drive-out pivots on the slack's negative entry
        P = HRep.of(1, eqs=[([3], -6)], ineqs=[([3], -6), ([-1], 3), ([-1], 2)])
        c = vec([4])
        pivots = record_pivot_elements(monkeypatch)
        out = solve_lp(P, c)
        assert any(p < 0 for p in pivots)
        assert out == LPOutcome(LPStatus.OPTIMAL, rat(-8), vec([-2]))
        assert oracle_status(P, c) == (LPStatus.OPTIMAL, rat(-8))

    def test_witness_sized_denominators(self):
        # an argmin re-check objective as _verify_argmin builds from a witness
        P = HRep.of(
            3,
            ineqs=[
                ([1, -3, -2], -6),
                ([0, -3, 2], -3),
                ([-3, -2, -3], -8),
                ([2, 1, 0], 4),
                ([3, -3, 1], -2),
            ],
        )
        c = vec(
            [
                rat(-291609191990, 17569867637),
                rat(-246347952373, 105419205822),
                rat(22425154291, 5019962182),
            ]
        )
        value = rat(-1013740562873, 52709602911)
        out = solve_lp(P, c)
        assert out == LPOutcome(
            LPStatus.OPTIMAL, value, vec([rat(18, 19), rat(40, 19), rat(6, 19)])
        )
        assert oracle_status(P, c) == (LPStatus.OPTIMAL, value)

    def test_redundant_equality_dropped(self):
        # the second equality is -3/2 times the first; phase one drops a row
        P = HRep.of(
            2,
            eqs=[([1, 1], 2), ([rat(-3, 2), rat(-3, 2)], -3)],
            ineqs=[([-1, 0], 0), ([0, -1], 0)],
        )
        c = vec([1, 2])
        rows, scales, nvars = lp._write_rows(2 * P.dim, *lp._split_rows(P))
        assert len(lp._phase_one(rows, scales, nvars).rows) == len(rows) - 1
        out = solve_lp(P, c)
        assert out == LPOutcome(LPStatus.OPTIMAL, rat(2), vec([2, 0]))
        assert oracle_status(P, c) == (LPStatus.OPTIMAL, rat(2))

    def test_slack_start_makes_no_phase_one_pivot(self, monkeypatch):
        # every inequality has b >= 0 and there is no equality: the slacks
        # are a feasible basis, so phase one pivots nowhere
        P = HRep.of(2, ineqs=[([1, 2], 4), ([rat(-1, 3), -1], 0), ([-1, 0], rat(5, 2))])
        rows, scales, nvars = lp._write_rows(2 * P.dim, *lp._split_rows(P))
        pivots = record_pivot_elements(monkeypatch)
        T = lp._phase_one(rows, scales, nvars)
        assert pivots == []
        assert T.basis == [4, 5, 6] and T.det == 1
        c = vec([1, 1])
        want = LPOutcome(LPStatus.OPTIMAL, rat(-5, 3), vec([rat(-5, 2), rat(5, 6)]))
        assert solve_lp(P, c) == want
        assert oracle_status(P, c) == (LPStatus.OPTIMAL, want.value)

    def test_efficiency_test_runs_phase_two_only(self, monkeypatch):
        # the slack program is a homogeneous cone program posed at the point
        # it tests, so it runs once on the cone core, phase two from the
        # slack basis, and the general simplex does not run at all
        from gpolyvlp import vlp
        from gpolyvlp.instances import triangle_problem

        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(vlp, "_cone_descent", counting("core", lp._cone_descent))
        for name in ("_simplex", "_phase_one"):
            monkeypatch.setattr(lp, name, counting(name, getattr(lp, name)))
        assert vlp.is_efficient(triangle_problem(), vec([0, 1]))
        assert calls == ["core"]


# ---------------------------------------------------------------------------
# free and sign-constrained columns


def reference_write_rows(dim, eqs, ineqs):
    """The split row writer: x+, x-, then one slack per inequality, the rows
    with b < 0 negated."""
    n_ineq = len(ineqs)
    rows, scales = [], []
    for i, (ints, scale) in enumerate(list(eqs) + list(ineqs)):
        a, b, unit = ints[:dim], ints[dim], 1
        if b < 0:
            a, b, unit = [-v for v in a], -b, -1
        row = a + [-v for v in a] + [0] * n_ineq + [b]
        if i >= len(eqs):
            row[2 * dim + i - len(eqs)] = unit
        rows.append(row)
        scales.append(scale)
    return rows, scales, 2 * dim + n_ineq


def test_write_rows_without_sign_constraints_keeps_the_free_layout():
    # the HRep entry writes its split as data, so its standard form is the
    # split tableau column for column; int rows get one column per variable
    for P, _ in GOLDEN:
        rows = lp._scaled_rows(P)
        assert lp._write_rows(2 * P.dim, *lp._split_rows(P)) == reference_write_rows(P.dim, *rows)
        got, scales, nvars = lp._write_rows(P.dim, *rows)
        eqs, ineqs = rows
        assert nvars == P.dim + len(ineqs) and scales == [s for _, s in eqs + ineqs]
        for i, (row, (ints, _)) in enumerate(zip(got, eqs + ineqs)):
            sign = -1 if ints[-1] < 0 else 1
            slack = [0] * len(ineqs)
            if i >= len(eqs):
                slack[i - len(eqs)] = sign
            assert row == [sign * v for v in ints[:-1]] + slack + [sign * ints[-1]]


def sign_constrained_corpus(count=400, seed=5150):
    """Seeded int-row programs: n free variables then k >= 1
    sign-constrained ones, rows (ints [a | b], scale)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n, k = rng.randint(0, 3), rng.randint(1, 3)
        dim = n + k

        def row():
            return [rng.randint(-3, 3) for _ in range(dim + 1)], rng.choice((1, 2, 3))

        eqs = [row() for _ in range(rng.choice((0, 0, 1, 2)))]
        ineqs = [row() for _ in range(rng.randint(1, dim + 2))]
        c = Vector.of([rng.randint(-3, 3) for _ in range(dim)])
        cases.append((n, k, eqs, ineqs, c))
    return cases


def sign_rows(n, k):
    """-x_j <= 0 for the k variables after the first n, as int rows."""
    return [([0] * (n + j) + [-1] + [0] * (k - j - 1) + [0], 1) for j in range(k)]


def test_sign_constrained_columns_match_explicit_sign_rows():
    statuses = Counter()
    for n, k, eqs, ineqs, c in sign_constrained_corpus():
        dim = n + k
        signs = sign_rows(n, k)
        got, T, enter = lp._optimize_rows(dim, eqs, ineqs, _int_vector(c), k)
        want = lp._solve_rows(dim, eqs, ineqs + signs, _int_vector(c))
        assert (got.status, got.value) == (want.status, want.value)
        assert got.point is None and got.descent_ray is None
        if got.status is LPStatus.UNBOUNDED:
            # the direction of the entering column, read off the narrower
            # tableau, descends and is a recession direction of the program
            # with the sign rows written out
            ray = T.direction(enter)[:dim]
            assert sum(a * x for a, x in zip(c.coords, ray)) < 0
            for rows, holds in ((eqs, lambda v: v == 0), (ineqs + signs, lambda v: v <= 0)):
                for ints, _ in rows:
                    assert holds(sum(a * x for a, x in zip(ints[:dim], ray)))
        statuses[got.status] += 1
    assert statuses == {
        LPStatus.UNBOUNDED: 158,
        LPStatus.INFEASIBLE: 147,
        LPStatus.OPTIMAL: 95,
    }


def int_rows_as_hrep(dim, eqs, ineqs):
    """The program of int rows (ints [a | b], scale) as a rational HRep."""
    return HRep.of(
        dim,
        [(ints[:dim], ints[dim]) for ints, _ in eqs],
        [(ints[:dim], ints[dim]) for ints, _ in ineqs],
    )


def test_free_columns_match_the_split_hrep_entry():
    # the int-row core pivots free columns in; the HRep entry splits every
    # variable as x+ - x-.  Status and value agree on every program.
    for P, c in GOLDEN:
        got = lp._solve_rows(P.dim, *lp._scaled_rows(P), _int_vector(c))
        want = solve_lp(P, c)
        assert (got.status, got.value) == (want.status, want.value)
    statuses = Counter()
    for n, k, eqs, ineqs, c in sign_constrained_corpus():
        dim = n + k
        got = lp._optimize_rows(dim, eqs, ineqs, _int_vector(c), k)[0]
        want = solve_lp(int_rows_as_hrep(dim, eqs, ineqs + sign_rows(n, k)), c)
        assert (got.status, got.value) == (want.status, want.value)
        statuses[got.status] += 1
    assert statuses == {
        LPStatus.UNBOUNDED: 158,
        LPStatus.INFEASIBLE: 147,
        LPStatus.OPTIMAL: 95,
    }


@st.composite
def degenerate_programs(draw):
    """Small int-row programs with mostly zero right-hand sides, so that
    many pivots are degenerate: n free and k sign-constrained variables."""
    n, k = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    dim = max(n + k, 1)
    k = dim - n
    entry = st.integers(-2, 2)
    rhs = st.sampled_from((0, 0, 0, 1, -1))

    def rows(count):
        return [([draw(entry) for _ in range(dim)] + [draw(rhs)], 1) for _ in range(count)]

    eqs = rows(draw(st.integers(0, 1)))
    ineqs = rows(draw(st.integers(1, 5)))
    c = Vector.of([draw(entry) for _ in range(dim)])
    return n, k, eqs, ineqs, c


@settings(max_examples=80)
@given(degenerate_programs())
def test_free_column_simplex_terminates_and_agrees_on_degenerate_programs(program):
    n, k, eqs, ineqs, c = program
    dim = n + k
    pivots = []
    real = lp._Tableau.pivot

    def counting(T, row, col):
        pivots.append(T.basis[row] >= T.free)
        real(T, row, col)

    with mock.patch.object(lp._Tableau, "pivot", counting):
        got = lp._optimize_rows(dim, eqs, ineqs, _int_vector(c), k)[0]
    # a free column never leaves the basis once it has entered
    assert all(pivots)
    # Bland's rule visits no basis twice in a phase: phase one, the
    # drive-out of the artificials and phase two stay under this count
    m = len(eqs) + len(ineqs)
    assert len(pivots) <= 2 * math.comb(dim + len(ineqs) + m, m) + m
    want = solve_lp(int_rows_as_hrep(dim, eqs, ineqs + sign_rows(n, k)), c)
    assert (got.status, got.value) == (want.status, want.value)


# ---------------------------------------------------------------------------
# the cone core: homogeneous programs from the slack basis


def homogeneous_corpus(count=400, seed=2424):
    """Seeded homogeneous cone programs (free, rows, cost): 0 to 3 free
    columns, then 1 to 3 sign-constrained ones.  Entries are small, so
    ties and zero entries abound, and some rows repeat, as the row itself
    or a positive multiple of it."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        free, k = rng.randint(0, 3), rng.randint(1, 3)
        n = free + k
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n + 2))]
        for _ in range(rng.choice((0, 0, 1, 2))):
            rows.append([rng.choice((1, 2)) * v for v in rng.choice(rows)])
        rng.shuffle(rows)
        cases.append((free, rows, [rng.randint(-2, 2) for _ in range(n)]))
    return cases


def test_cone_core_matches_the_general_simplex(cone_program_oracle):
    statuses = Counter(cone_program_oracle(*case) for case in homogeneous_corpus())
    assert statuses == {LPStatus.UNBOUNDED: 237, LPStatus.OPTIMAL: 163}


def test_cone_core_checks_both_of_its_answers(monkeypatch):
    # min -x0 over x0 <= x1, x >= 0 is unbounded along (1, 1); min x over
    # -x <= 0, x free, is bounded, with the dual weight 1 on its row.  A dot
    # product that reads 0 fails the descent check of the first and the
    # dual certificate of the second.
    unbounded, bounded = (0, [[1, -1]], [-1, 0]), (1, [[-1]], [1])
    assert lp._cone_descent(*unbounded) == [1, 1]
    assert lp._cone_descent(*bounded) is None
    monkeypatch.setattr(lp, "_dot", lambda a, b: 0)
    with pytest.raises(InternalInvariantError, match="does not descend"):
        lp._cone_descent(*unbounded)
    with pytest.raises(InternalInvariantError, match="zero-optimum certificate"):
        lp._cone_descent(*bounded)
