"""Ordering-cone decomposition and dual-membership tests."""

import math

import pytest
from hypothesis import given, strategies as st

from gpolyvlp import cone, vlp
from gpolyvlp.cone import ConeDecomposition, ConeH, decompose, ri_generated_cone_contains
from gpolyvlp.exact import Matrix, Vector, kernel_basis, rat, vec
from gpolyvlp.polyhedron import HRep, InternalInvariantError, dd_cone


def orthant2():
    return ConeH.of(2, [[-1, 0], [0, -1]])


def halfspace2():
    # y1 + y2 >= 0, lineality along (1,-1)
    return ConeH.of(2, [[-1, -1]])


def axis_subspace():
    # y1 = 0
    return ConeH.of(2, [[1, 0], [-1, 0]])


class TestConeBasics:
    def test_membership(self):
        K = orthant2()
        assert K.contains(vec([1, 2]))
        assert K.contains(vec([0, 0]))
        assert not K.contains(vec([-1, 2]))
        assert K.interior_contains(vec([1, 2]))
        assert not K.interior_contains(vec([0, 2]))

    def test_strict_part(self):
        K = orthant2()
        assert K.strict_part_contains(vec([0, 1]))
        assert not K.strict_part_contains(vec([0, 0]))
        S = axis_subspace()
        assert not S.strict_part_contains(vec([0, 5]))
        assert not S.strict_part_contains(vec([1, 0]))

    def test_interior_detection(self):
        assert orthant2().has_nonempty_interior()
        assert halfspace2().has_nonempty_interior()
        assert not axis_subspace().has_nonempty_interior()
        assert ConeH.of(2, []).has_nonempty_interior()

    def test_validation(self):
        with pytest.raises(ValueError):
            ConeH.of(2, [[0, 0]])
        with pytest.raises(ValueError):
            ConeH.of(0, [])
        with pytest.raises(ValueError):
            orthant2().contains(vec([1]))

    def test_json_roundtrip(self):
        K = ConeH.of(2, [[-1, rat(1, 2)]])
        assert ConeH.from_json_obj(K.to_json_obj()) == K
        with pytest.raises(ValueError):
            ConeH.from_json_obj({"dim": 2, "normals": [["1"]]})
        with pytest.raises(ValueError):
            ConeH.from_json_obj({"dim": True, "normals": [["-1"]]})


class TestDecompose:
    def test_orthant(self):
        dec = decompose(orthant2())
        assert dec.y0_basis == ()
        assert len(dec.y1_basis) == 2
        assert [tuple(r) for r in dec.k1_rays] == [(rat(0), rat(1)), (rat(1), rat(0))]
        assert not dec.is_subspace
        assert [tuple(g) for g in dec.dual_generators] == [(rat(1), rat(0)), (rat(0), rat(1))]

    def test_halfspace(self):
        dec = decompose(halfspace2())
        assert [tuple(w) for w in dec.y0_basis] == [(rat(-1), rat(1))]
        assert [tuple(w) for w in dec.y1_basis] == [(rat(1), rat(1))]
        assert [tuple(r) for r in dec.k1_rays] == [(rat(1), rat(1))]

    def test_subspace(self):
        dec = decompose(axis_subspace())
        assert [tuple(w) for w in dec.y0_basis] == [(rat(0), rat(1))]
        assert dec.k1_rays == ()
        assert dec.is_subspace

    def test_whole_space(self):
        dec = decompose(ConeH.of(2, []))
        assert len(dec.y0_basis) == 2
        assert dec.y1_basis == () and dec.k1_rays == ()
        assert dec.is_subspace

    def test_rays_live_in_the_cone_orthogonal_to_y0(self):
        dec = decompose(ConeH.of(3, [[-1, 0, 0], [1, -1, 0]]))
        for r in dec.k1_rays:
            assert dec.cone.contains(r)
            for w in dec.y0_basis:
                assert w.dot(r) == 0


class TestRiDual:
    def test_orthant(self):
        dec = decompose(orthant2())
        assert dec.ri_dual_contains(vec([1, 1]))
        assert dec.ri_dual_contains(vec([rat(1, 3), 5]))
        assert not dec.ri_dual_contains(vec([1, 0]))
        assert not dec.ri_dual_contains(vec([0, 0]))

    def test_halfspace_dual_is_a_ray(self):
        dec = decompose(halfspace2())
        assert dec.ri_dual_contains(vec([2, 2]))
        assert not dec.ri_dual_contains(vec([1, 0]))
        assert not dec.ri_dual_contains(vec([0, 0]))

    def test_subspace_dual_is_its_complement(self):
        dec = decompose(axis_subspace())
        assert dec.ri_dual_contains(vec([3, 0]))
        assert dec.ri_dual_contains(vec([0, 0]))
        assert not dec.ri_dual_contains(vec([0, 1]))

    def test_whole_space_dual_is_origin(self):
        dec = decompose(ConeH.of(2, []))
        assert dec.ri_dual_contains(vec([0, 0]))
        assert not dec.ri_dual_contains(vec([1, 0]))


class TestRiGeneratedCone:
    def test_plane_quadrant(self):
        gens = [vec([1, 0]), vec([0, 1])]
        assert ri_generated_cone_contains(gens, vec([2, 3]))
        assert not ri_generated_cone_contains(gens, vec([1, 0]))
        assert not ri_generated_cone_contains(gens, vec([-1, 1]))
        assert not ri_generated_cone_contains(gens, vec([0, 0]))

    def test_redundant_generator(self):
        gens = [vec([1, 0]), vec([0, 1]), vec([1, 1])]
        assert ri_generated_cone_contains(gens, vec([1, 1]))
        # boundary stays boundary no matter how it is generated
        assert not ri_generated_cone_contains(gens, vec([1, 0]))

    def test_ray_and_line(self):
        gens = [vec([1, 1])]
        assert ri_generated_cone_contains(gens, vec([3, 3]))
        assert not ri_generated_cone_contains(gens, vec([0, 0]))
        gens = [vec([1, 1]), vec([-1, -1])]
        assert ri_generated_cone_contains(gens, vec([0, 0]))
        assert ri_generated_cone_contains(gens, vec([-2, -2]))

    def test_no_generators(self):
        assert ri_generated_cone_contains([], vec([0, 0]))
        assert not ri_generated_cone_contains([], vec([1, 0]))


# ---------------------------------------------------------------------------
# duality cross-check: ri of the dual computed two independent ways


@st.composite
def small_cones(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    normals = []
    for _ in range(n):
        row = [draw(st.integers(-2, 2)) for _ in range(dim)]
        if any(v != 0 for v in row):
            normals.append(row)
    return ConeH.of(dim, normals)


@given(small_cones(), st.lists(st.integers(-2, 2), min_size=1, max_size=3))
def test_ri_dual_agrees_with_generator_route(K, raw):
    dec = decompose(K)
    y_star = Vector.of((raw * 3)[: K.dim])
    direct = dec.ri_dual_contains(y_star)
    via_generators = ri_generated_cone_contains(list(dec.dual_generators), y_star)
    assert direct == via_generators


@given(small_cones())
def test_decomposition_structure(K):
    dec = decompose(K)
    assert len(dec.y0_basis) + len(dec.y1_basis) == K.dim
    for w in dec.y0_basis:
        assert K.lineality_contains(w)
    for r in dec.k1_rays:
        assert K.strict_part_contains(r)
        assert all(w.dot(r) == 0 for w in dec.y0_basis)


# ---------------------------------------------------------------------------
# the int split against the rational route it replaced


def reference_decomposition(K):
    """decompose on rationals, as the library computed it before its int
    split: kernel_basis of the normals, kernel_basis of that, and dd_cone
    of the normals with Y0 as equalities."""
    y0 = kernel_basis(Matrix.from_rows(list(K.normals), cols=K.dim))
    y1 = kernel_basis(Matrix.from_rows(y0, cols=K.dim))
    lin, rays = dd_cone(K.dim, y0, list(K.normals))
    assert not lin
    return ConeDecomposition(K, tuple(y0), tuple(y1), tuple(rays), tuple(-n for n in K.normals))


def check_int_split(K):
    """decompose(K) is the reference; each int vector (*g, h) of the split
    is h times its rational vector, g and h coprime; the problem's interior
    test reads the same off the ints as the LP test."""
    dec = decompose(K)
    assert dec == reference_decomposition(K)
    y0, k1 = cone._split(K)
    for ints, vectors in ((y0, dec.y0_basis), (k1, dec.k1_rays)):
        assert len(ints) == len(vectors)
        for v, x in zip(ints, vectors):
            assert v[-1] > 0 and math.gcd(*v) == 1
            assert [v[-1] * c for c in x.coords] == list(v[:-1])
    P = vlp.VLPProblem(Matrix.identity(K.dim), HRep.universe(K.dim), K)
    assert P.decomposition == dec
    assert P.cone_interior_empty == (not K.has_nonempty_interior())


@pytest.mark.parametrize(
    "K",
    [
        ConeH.of(2, []),  # no normals: Y0 = R^2
        ConeH.of(2, [[0, 1], [0, -1]]),  # a line
        ConeH.of(3, [[1, -2, 0]]),  # a half-space
        ConeH.of(2, [[1, 0], [-1, 0], [0, 1], [0, -1]]),  # K = {0}
        ConeH.of(3, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]),  # the orthant
    ],
    ids=["no-normals", "line", "half-space", "origin", "orthant"],
)
def test_int_split_of_hand_cones(K):
    check_int_split(K)


@pytest.mark.parametrize("K", [halfspace2(), axis_subspace()], ids=["half-plane", "line"])
def test_split_rejects_a_pointed_part_with_a_lineality_direction(K, monkeypatch):
    # the integer kernel that _split takes Y0 from loses its last vector,
    # which K1's DD then keeps as a lineality direction
    real = cone._kernel_int
    monkeypatch.setattr(cone, "_kernel_int", lambda rows, dim: real(rows, dim)[:-1])
    with pytest.raises(
        InternalInvariantError, match="the pointed part of the cone kept a lineality direction"
    ):
        cone._split(K)


@st.composite
def split_cones(draw):
    dim = draw(st.integers(1, 4))
    normals = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any),
            max_size=4,
        )
    )
    return ConeH.of(dim, normals)


@given(split_cones())
def test_int_split_matches_the_rational_route(K):
    check_int_split(K)


# ---------------------------------------------------------------------------
# the int admissibility check of the pipeline against the rational view


@st.composite
def rational_cones(draw):
    """A cone of split_cones whose normals are scaled by drawn rationals, so
    that they have denominators of their own."""
    K = draw(split_cones())
    scales = [rat(draw(st.integers(1, 4)), draw(st.integers(1, 5))) for _ in K.normals]
    return ConeH(K.dim, tuple(n.scale(f) for n, f in zip(K.normals, scales)))


@given(
    rational_cones(),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.integers(1, 6),
)
def test_int_dual_weight_matches_the_rational_view(K, raw, d):
    # the weight raw / d: as a strict weight in y-space, the int check
    # agrees with ri_dual_contains; as a weak weight in lambda-space, the
    # int combination is sum lambda_j g_j over the dual generators
    dec = decompose(K)
    split = cone._split(K)
    w = raw[: K.dim]
    y = Vector.of([rat(x, d) for x in w])
    got = cone._dual_weight(K, split, w, weak=False)
    assert (got is not None) == dec.ri_dual_contains(y)
    assert got is None or got == (tuple(w), 1)
    if not K.normals:
        return
    lam = (raw * 2)[: len(K.normals)]
    want = Vector.zero(K.dim)
    for x, g in zip(lam, dec.dual_generators):
        want = want + g.scale(rat(x, d))
    got = cone._dual_weight(K, split, lam, weak=True)
    assert (got is None) == want.is_zero()
    if got is not None:
        Y, s = got
        assert Vector.of([rat(x, s * d) for x in Y]) == want
