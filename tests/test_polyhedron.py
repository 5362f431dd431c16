"""Conversion and face-lattice tests with hand-checked geometry.

A seeded golden corpus pins h_to_v, v_to_h and faces bit for bit, and every
face is checked against its own double description and, for few rows,
against a brute force over all row subsets.
"""

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gpolyvlp import polyhedron
from gpolyvlp.exact import Matrix, Vector, kernel_basis, rat, vec
from gpolyvlp.polyhedron import (
    EmptyPolyhedronError,
    FaceLimitError,
    HRep,
    VRep,
    active_set,
    assemble_vrep,
    canonical_vrep,
    contains,
    faces,
    h_to_v,
    map_polyhedron,
    relative_interior_contains,
    v_to_h,
    vrep_contains,
)


def unit_square():
    return HRep.of(
        2,
        ineqs=[
            ([-1, 0], 0),
            ([0, -1], 0),
            ([1, 0], 1),
            ([0, 1], 1),
        ],
    )


def coords(vs):
    return [tuple(v.coords) for v in vs]


class TestHToV:
    def test_unit_square_vertices(self):
        V = h_to_v(unit_square())
        assert coords(V.points) == [
            (rat(0), rat(0)),
            (rat(0), rat(1)),
            (rat(1), rat(0)),
            (rat(1), rat(1)),
        ]
        assert V.rays == ()
        assert V.lineality == ()

    def test_redundant_rows_do_not_add_generators(self):
        P = HRep.of(
            2,
            ineqs=[
                ([-1, 0], 0),
                ([0, -1], 0),
                ([1, 0], 1),
                ([0, 1], 1),
                ([1, 0], 5),
                ([1, 1], 7),
            ],
        )
        assert h_to_v(P) == h_to_v(unit_square())

    def test_halfplane_splits_into_point_ray_lineality(self):
        P = HRep.of(2, ineqs=[([-1, 0], 0)])
        V = h_to_v(P)
        assert coords(V.points) == [(rat(0), rat(0))]
        assert coords(V.rays) == [(rat(1), rat(0))]
        assert coords(V.lineality) == [(rat(0), rat(1))]

    def test_universe_is_pure_lineality(self):
        V = h_to_v(HRep.universe(3))
        assert coords(V.points) == [(rat(0), rat(0), rat(0))]
        assert V.rays == ()
        assert len(V.lineality) == 3

    def test_contradiction_is_empty(self):
        P = HRep.of(1, ineqs=[([1], -1), ([-1], 0)])
        assert h_to_v(P).is_empty

    def test_infeasible_row_is_empty(self):
        assert h_to_v(HRep.infeasible(3)).is_empty

    def test_affine_plane(self):
        P = HRep.of(3, eqs=[([1, 1, 1], 1)])
        V = h_to_v(P)
        assert len(V.points) == 1
        assert V.rays == ()
        assert len(V.lineality) == 2
        p = V.points[0]
        assert p[0] + p[1] + p[2] == 1

    def test_orthant_rays(self):
        P = HRep.of(2, ineqs=[([-1, 0], 0), ([0, -1], 0)])
        V = h_to_v(P)
        assert coords(V.points) == [(rat(0), rat(0))]
        assert coords(V.rays) == [(rat(0), rat(1)), (rat(1), rat(0))]
        assert V.lineality == ()


class TestVToH:
    def test_single_point_becomes_equalities(self):
        V = VRep(2, (vec([1, 1]),), (), ())
        H = v_to_h(V)
        assert [(tuple(r), b) for r, b in H.eq_rows()] == [
            ((rat(1), rat(0)), rat(1)),
            ((rat(0), rat(1)), rat(1)),
        ]
        assert H.ineq_lhs.rows == 0

    def test_segment_implicit_equality_surfaces(self):
        V = VRep(2, (vec([0, 0]), vec([1, 0])), (), ())
        H = v_to_h(V)
        assert [(tuple(r), b) for r, b in H.eq_rows()] == [
            ((rat(0), rat(1)), rat(0)),
        ]
        assert sorted((tuple(r), b) for r, b in H.ineq_rows()) == [
            ((rat(-1), rat(0)), rat(0)),
            ((rat(1), rat(0)), rat(1)),
        ]

    def test_empty_vrep_gives_canonical_infeasible(self):
        H = v_to_h(VRep.empty(2))
        assert H.eq_lhs.rows == 0
        assert [(tuple(r), b) for r, b in H.ineq_rows()] == [
            ((rat(0), rat(0)), rat(-1)),
        ]

    def test_square_roundtrip_rows(self):
        H = v_to_h(h_to_v(unit_square()))
        assert H.eq_lhs.rows == 0
        assert sorted((tuple(r), b) for r, b in H.ineq_rows()) == [
            ((rat(-1), rat(0)), rat(0)),
            ((rat(0), rat(-1)), rat(0)),
            ((rat(0), rat(1)), rat(1)),
            ((rat(1), rat(0)), rat(1)),
        ]

    def test_halfline_keeps_only_vertex_facet(self):
        V = VRep(2, (vec([1, 2]),), (vec([1, 0]),), ())
        H = v_to_h(V)
        assert [(tuple(r), b) for r, b in H.eq_rows()] == [
            ((rat(0), rat(1)), rat(2)),
        ]
        assert [(tuple(r), b) for r, b in H.ineq_rows()] == [
            ((rat(-1), rat(0)), rat(-1)),
        ]


class TestMembership:
    def test_contains_square(self):
        P = unit_square()
        assert contains(P, vec([rat(1, 2), rat(1, 2)]))
        assert contains(P, vec([0, 1]))
        assert not contains(P, vec([2, 0]))
        assert not contains(P, vec([rat(-1, 7), 0]))

    def test_vrep_contains_mixed_generators(self):
        V = VRep(2, (vec([0, 0]),), (vec([1, 0]),), (vec([0, 1]),))
        assert vrep_contains(V, vec([3, -5]))
        assert not vrep_contains(V, vec([-1, 0]))
        assert not vrep_contains(VRep.empty(2), vec([0, 0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contains(unit_square(), vec([1]))


class TestRelativeInterior:
    def test_square(self):
        V = h_to_v(unit_square())
        assert relative_interior_contains(V, vec([rat(1, 2), rat(1, 2)]))
        assert not relative_interior_contains(V, vec([0, rat(1, 2)]))
        assert not relative_interior_contains(V, vec([2, 0]))

    def test_segment_uses_affine_hull(self):
        V = VRep(2, (vec([0, 0]), vec([1, 0])), (), ())
        assert relative_interior_contains(V, vec([rat(1, 2), 0]))
        assert not relative_interior_contains(V, vec([0, 0]))
        assert not relative_interior_contains(V, vec([rat(1, 2), rat(1, 100)]))

    def test_single_point_is_its_own_interior(self):
        V = VRep(2, (vec([1, 1]),), (), ())
        assert relative_interior_contains(V, vec([1, 1]))
        assert not relative_interior_contains(V, vec([1, 0]))

    def test_empty_contains_nothing(self):
        assert not relative_interior_contains(VRep.empty(2), vec([0, 0]))


class TestCanonicalization:
    def test_interior_generators_are_dropped(self):
        V = VRep(
            2,
            (vec([0, 0]), vec([1, 0]), vec([0, 1]), vec([1, 1]), vec([rat(1, 2), rat(1, 2)])),
            (),
            (),
        )
        assert canonical_vrep(V) == h_to_v(unit_square())

    def test_idempotent(self):
        V = VRep(2, (vec([0, 0]), vec([2, 1]),), (vec([1, 0]), vec([1, 1])), ())
        once = canonical_vrep(V)
        assert canonical_vrep(once) == once

    def test_dependent_rays_collapse_to_lineality(self):
        V = VRep(1, (vec([0]),), (vec([1]), vec([-1])), ())
        C = canonical_vrep(V)
        assert C.rays == ()
        assert coords(C.lineality) == [(rat(1),)]

    def test_assemble_projects_and_sorts(self):
        V = assemble_vrep(2, [vec([3, 7])], [vec([0, 2]), vec([2, 5])], [vec([0, 1])])
        assert coords(V.points) == [(rat(3), rat(0))]
        assert coords(V.rays) == [(rat(1), rat(0))]
        assert coords(V.lineality) == [(rat(0), rat(1))]


class TestMap:
    def test_project_square_to_axis(self):
        V = map_polyhedron(Matrix.of([[1, 0]]), h_to_v(unit_square()))
        assert V.dim == 1
        assert coords(V.points) == [(rat(0),), (rat(1),)]
        assert V.rays == () and V.lineality == ()

    def test_collapse_to_point(self):
        V = map_polyhedron(Matrix.of([[0, 0], [0, 0]]), h_to_v(unit_square()))
        assert coords(V.points) == [(rat(0), rat(0))]

    def test_rotate_orthant(self):
        orthant = h_to_v(HRep.of(2, ineqs=[([-1, 0], 0), ([0, -1], 0)]))
        V = map_polyhedron(Matrix.of([[1, 1], [-1, 1]]), orthant)
        assert coords(V.points) == [(rat(0), rat(0))]
        assert coords(V.rays) == [(rat(1), rat(-1)), (rat(1), rat(1))]

    def test_empty_maps_to_empty(self):
        assert map_polyhedron(Matrix.of([[1, 0]]), VRep.empty(2)).is_empty


class TestFaces:
    def test_square_has_nine_faces(self):
        fs = faces(unit_square())
        assert len(fs) == 9
        assert [f.active_ineq for f in fs] == [
            (),
            (0,),
            (0, 1),
            (0, 3),
            (1,),
            (1, 2),
            (2,),
            (2, 3),
            (3,),
        ]
        vertex = dict((f.active_ineq, f) for f in fs)[(0, 1)]
        assert coords(vertex.geometry.points) == [(rat(0), rat(0))]

    def test_halfplane_has_two_faces(self):
        fs = faces(HRep.of(2, ineqs=[([-1, 0], 0)]))
        assert [f.active_ineq for f in fs] == [(), (0,)]
        edge = fs[1].geometry
        assert coords(edge.points) == [(rat(0), rat(0))]
        assert coords(edge.lineality) == [(rat(0), rat(1))]

    def test_universe_has_one_face(self):
        fs = faces(HRep.universe(2))
        assert len(fs) == 1 and fs[0].active_ineq == ()

    def test_duplicate_rows_share_geometry(self):
        fs = faces(HRep.of(1, ineqs=[([-1], 0), ([-1], 0)]))
        assert [f.active_ineq for f in fs] == [(), (0, 1)]

    def test_empty_polyhedron_rejected(self):
        with pytest.raises(EmptyPolyhedronError):
            faces(HRep.infeasible(2))

    def test_face_cap(self):
        with pytest.raises(FaceLimitError):
            faces(unit_square(), max_faces=3)

    def test_face_cap_counts_the_improper_face(self):
        # a single point has one face, itself: a cap of 0 trips, 1 does not
        point = HRep.of(2, eqs=[([1, 0], 1), ([0, 1], 2)], ineqs=[([1, 1], 3)])
        with pytest.raises(FaceLimitError):
            faces(point, max_faces=0)
        assert [f.active_ineq for f in faces(point, max_faces=1)] == [(0,)]
        assert len(faces(unit_square(), max_faces=9)) == 9
        with pytest.raises(FaceLimitError):
            faces(unit_square(), max_faces=8)


class TestJson:
    def test_hrep_roundtrip(self):
        P = HRep.of(2, eqs=[([1, rat(1, 2)], 3)], ineqs=[([-1, 0], rat(-2, 3))])
        assert HRep.from_json_obj(P.to_json_obj()) == P

    def test_vrep_roundtrip(self):
        V = h_to_v(HRep.of(2, ineqs=[([-1, 0], 0)]))
        assert VRep.from_json_obj(V.to_json_obj()) == V

    def test_bad_payloads_rejected(self):
        with pytest.raises(ValueError):
            HRep.from_json_obj({"dim": 0, "eq": [[], []], "ineq": [[], []]})
        with pytest.raises(ValueError):
            HRep.from_json_obj({"dim": 2, "eq": [[["1", "2"]], []], "ineq": [[], []]})
        with pytest.raises(ValueError):
            HRep.from_json_obj({"dim": 2, "eq": [[["1"]], ["0"]], "ineq": [[], []]})
        with pytest.raises(ValueError):
            VRep.from_json_obj({"dim": 2, "points": [["1", "1/0"]]})
        with pytest.raises(ValueError):
            HRep.from_json_obj({"dim": True, "eq": [[], []], "ineq": [[], []]})
        with pytest.raises(ValueError):
            VRep.from_json_obj({"dim": True, "points": [["0"]]})


class TestVRepValidation:
    def test_zero_ray_rejected(self):
        with pytest.raises(ValueError):
            VRep(2, (vec([0, 0]),), (vec([0, 0]),), ())

    def test_rays_without_points_rejected(self):
        with pytest.raises(ValueError):
            VRep(2, (), (vec([1, 0]),), ())

    def test_dependent_lineality_rejected(self):
        with pytest.raises(ValueError):
            VRep(2, (vec([0, 0]),), (), (vec([1, 0]), vec([2, 0])))


def grid_points(dim, lo=-2, hi=2):
    return [vec(list(c)) for c in itertools.product(range(lo, hi + 1), repeat=dim)]


@st.composite
def small_hreps(draw):
    dim = draw(st.integers(1, 3))
    n_eq = draw(st.integers(0, 1))
    n_ineq = draw(st.integers(0, 4))
    entry = st.integers(-2, 2)

    def rows(n):
        return [
            ([draw(entry) for _ in range(dim)], draw(entry)) for _ in range(n)
        ]

    return HRep.of(dim, rows(n_eq), rows(n_ineq))


@given(small_hreps())
def test_roundtrip_membership_agreement(P):
    Q = v_to_h(h_to_v(P))
    for x in grid_points(P.dim):
        assert contains(P, x) == contains(Q, x)


@given(small_hreps())
def test_generators_satisfy_original_rows(P):
    V = h_to_v(P)
    for p in V.points:
        assert contains(P, p)
    for p in V.points:
        for g in list(V.rays) + list(V.lineality):
            assert contains(P, p + g.scale(rat(7, 3)))
    for l in V.lineality:
        for p in V.points:
            assert contains(P, p - l.scale(rat(11, 2)))


@given(small_hreps())
def test_centroid_plus_ray_sum_is_relative_interior(P):
    # mean of the extreme points plus the sum of the extreme rays lands in
    # the relative interior; the witness construction elsewhere relies on it
    V = h_to_v(P)
    if V.is_empty:
        return
    centroid = Vector.zero(P.dim)
    for p in V.points:
        centroid = centroid + p
    centroid = centroid.scale(rat(1, len(V.points)))
    bump = centroid
    for g in V.rays:
        bump = bump + g
    assert contains(P, bump)
    assert relative_interior_contains(V, bump)


# ---------------------------------------------------------------------------
# golden conversions and the face-lattice oracle


def dd_corpus(count=320, seed=271828):
    """Seeded HReps: dims 1-5, integer and p/q entries, equalities, some rows
    free of the last coordinate (lineality), boxes, duplicate and scaled
    rows, and 0.x <= 0 / 0.x <= 1 / 0.x <= -1 rows."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.2:
            return rat(rng.randint(-5, 5), rng.randint(2, 5))
        return rat(rng.randint(-3, 3))

    cases = []
    for _ in range(count):
        dim = rng.randint(1, 5)
        free = dim > 1 and rng.random() < 0.2

        def row():
            a = [entry() for _ in range(dim)]
            if free:
                a[-1] = rat(0)
            return a, entry()

        eqs = [row() for _ in range(rng.choice((0, 0, 0, 1, 1, 2)))]
        ineqs = [row() for _ in range(rng.randint(0, min(dim + 2, 6)))]
        if dim <= 3 and rng.random() < 0.3:
            for j in range(dim):
                e = [rat(0)] * dim
                e[j] = rat(1)
                ineqs.append((e, rat(2)))
                ineqs.append(([-v for v in e], rat(1)))
        if ineqs and rng.random() < 0.2:
            a, b = rng.choice(ineqs)
            f = rat(rng.choice((1, 1, 2, 3)), rng.choice((1, 2)))
            ineqs.append(([f * v for v in a], f * b))
        for rhs, p in ((0, 0.15), (1, 0.1), (-1, 0.04)):
            if rng.random() < p:
                ineqs.insert(rng.randint(0, len(ineqs)), ([rat(0)] * dim, rat(rhs)))
        cases.append(HRep.of(dim, eqs, ineqs))
    return cases


DD_GOLDEN = dd_corpus()
DD_BLOCK = 80


def encode_conversions(P):
    V = h_to_v(P)
    rec = {"h_to_v": V.to_json_obj()}
    if not V.is_empty:
        rec["v_to_h"] = v_to_h(V).to_json_obj()
        rec["faces"] = [[list(f.active_ineq), f.geometry.to_json_obj()] for f in faces(P)]
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def test_dd_golden_digest():
    recs = [encode_conversions(P) for P in DD_GOLDEN]
    shapes = [json.loads(r) for r in recs]
    assert sum("faces" not in r for r in shapes) == 83
    assert sum(bool(r["h_to_v"]["lineality"]) for r in shapes) == 127
    assert sum(bool(r["h_to_v"]["rays"]) for r in shapes) == 151
    assert sum(len(r.get("faces", ())) for r in shapes) == 1680
    assert sum(r.is_zero() for P in DD_GOLDEN for r, _ in P.ineq_rows()) == 108
    digest = hashlib.sha256("\n".join(recs).encode()).hexdigest()
    assert digest == "32665e0e2f39a3dc0a662efa44ed1f33095a27b1c46dc313b0e8e25a91778fae"


def test_combinatorial_adjacency_matches_the_rank_test(adjacency_verdicts):
    # every pos/neg pair the conversions of the golden corpus meet gets the
    # same adjacency verdict from the zero sets as from the rank
    for P in DD_GOLDEN:
        encode_conversions(P)
    assert all(got == want for got, want in adjacency_verdicts)
    assert Counter(got for got, _ in adjacency_verdicts) == {True: 858, False: 358}


@pytest.mark.parametrize("start", range(0, len(DD_GOLDEN), DD_BLOCK))
def test_faces_match_their_own_double_description(start, monkeypatch):
    # each face equals the DD of P with its active rows as equalities; with
    # at most 6 rows every row subset is tried, so no face is missing either;
    # faces() itself runs one double description of P
    calls = []
    real = polyhedron._generators
    monkeypatch.setattr(polyhedron, "_generators", lambda *rows: calls.append(rows) or real(*rows))
    for P in DD_GOLDEN[start : start + DD_BLOCK]:
        if h_to_v(P).is_empty:
            continue
        calls.clear()
        by_tag = {f.active_ineq: f.geometry for f in faces(P)}
        assert len(calls) == 1
        for tag, geometry in by_tag.items():
            assert active_set(P, geometry) == tag
        ineqs = P.ineq_rows()
        if len(ineqs) <= 6:
            subsets = itertools.chain.from_iterable(
                itertools.combinations(range(len(ineqs)), k) for k in range(len(ineqs) + 1)
            )
        else:
            subsets = list(by_tag)
        seen = set()
        for T in subsets:
            g = h_to_v(P.with_extra_eqs([ineqs[i] for i in T]))
            if g.is_empty:
                continue
            tag = active_set(P, g)
            assert tag in by_tag and by_tag[tag] == g
            seen.add(tag)
        assert seen == set(by_tag)


def test_large_row_scalings_keep_conversions():
    # DD_GOLDEN's entries stay small; scale every row of one block by a big,
    # tiny or odd factor (either sign for equalities) so the integer scaling
    # and gcd reduction of the double description see large numbers
    factors = [rat(10**12, 7), rat(1, 10**9), rat(3, 2), rat(2**61 - 1), rat(7, 10**15)]
    rng = random.Random(4242)

    def scaled(rows, signs):
        out = []
        for a, b in rows:
            f = rng.choice(factors) * rng.choice(signs)
            out.append(([f * v for v in a], f * b))
        return out

    for P in DD_GOLDEN[:DD_BLOCK]:
        Q = HRep.of(P.dim, scaled(P.eq_rows(), (1, -1)), scaled(P.ineq_rows(), (1,)))
        assert encode_conversions(Q) == encode_conversions(P)


def test_dd_cap_bounds_the_rays_held_at_any_step():
    # the square's cone holds its 4 vertices before x + y <= 1 cuts (1, 1)
    # off and leaves 3: a cap of 4, the peak, changes nothing, 3 trips
    rows = [([-1, 0, 0], 1), ([0, -1, 0], 1), ([1, 0, 1], 1), ([0, 1, 1], 1), ([1, 1, 1], 1)]
    lin, rays = polyhedron._homogenized_dd(2, [], rows)
    assert not lin and len(rays) == 3
    assert polyhedron._homogenized_dd(2, [], rows, 4) == (lin, rays)
    with pytest.raises(FaceLimitError, match="face"):
        polyhedron._homogenized_dd(2, [], rows, 3)


def test_one_projection_per_double_description(monkeypatch):
    # rays are reduced modulo an integer echelon basis of the lineality space
    # during the method and projected orthogonally to it once, on output, in
    # ints (polyhedron.py imports no rational projector: see test_source.py)
    events = []
    real_project, real_dd = polyhedron._project, polyhedron._dd

    def project(vectors, lin):
        events.append(("project", bool(lin)))
        return real_project(vectors, lin)

    def dd(dim, eq_rows, ineq_rows, cap=None):
        lin, rays = real_dd(dim, eq_rows, ineq_rows, cap)
        events.append(("dd", bool(lin)))
        return lin, rays

    monkeypatch.setattr(polyhedron, "_project", project)
    monkeypatch.setattr(polyhedron, "_dd", dd)
    with_lineality = []
    for P in DD_GOLDEN:
        events.clear()
        V = h_to_v(P)
        if not V.is_empty:
            v_to_h(V)
        starts = [k for k, (name, _) in enumerate(events) if name == "dd"] + [len(events)]
        assert starts[0] == 0
        for k, end in zip(starts, starts[1:]):
            lin = events[k][1]
            assert events[k + 1 : end] in ([], [("project", lin)])
            with_lineality.append(lin)
    assert sum(with_lineality) > 100 and not all(with_lineality)


@st.composite
def int_systems(draw):
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), max_size=4))
    return dim, rows


@given(int_systems())
def test_kernel_int_is_the_start_basis_of_the_double_description(system):
    # _dd takes the kernel of its equalities as _kernel_int gives it: each
    # primitive vector positive at its own free column, where every other
    # one is zero, and the canonical kernel_basis vector times that entry.
    # Without rows it is the identity, what echeloning it again would give
    dim, rows = system
    basis = polyhedron._kernel_int(rows, dim)
    want = kernel_basis(Matrix.of(rows, cols=dim))
    assert len(basis) == len(want)
    for (f, v), w in zip(basis, want):
        assert v[f] > 0 and math.gcd(*v) == 1
        assert all(u[f] == 0 for g, u in basis if g != f)
        assert [v[f] * x for x in w.coords] == list(v)
    if not rows:
        assert basis == [(i, tuple(int(i == j) for j in range(dim))) for i in range(dim)]
        assert basis == polyhedron._echelon_int([v for _, v in basis])
