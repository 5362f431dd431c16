"""Exact arithmetic and linear-algebra kernel tests."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpolyvlp.exact import (
    Matrix,
    Rational,
    Vector,
    complement_projector,
    format_rational,
    kernel_basis,
    mat,
    parse_rational,
    rank,
    rat,
    rref,
    solve_linear,
    vec,
)


def test_rational_normalization():
    assert rat(2, 4) == rat(1, 2)
    assert str(rat(-2, 4)) == "-1/2"
    assert str(rat(6, 2)) == "3"
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)


def test_rat_returns_rationals_unchanged():
    x = Rational(3, 4)
    assert rat(x) is x
    assert rat(x, 3) == Rational(1, 4)
    for value, want in [(7, Rational(7)), (-2, Rational(-2)), ("3/4", x), ("-5", Rational(-5))]:
        got = rat(value)
        assert got == want and type(got) is Rational
    assert rat(6, 8) == x and type(rat(6, 8)) is Rational
    assert rat() == 0
    with pytest.raises(ValueError):
        rat("0.75")


def test_parse_rational_wire_format():
    assert parse_rational("3/4") == rat(3, 4)
    assert parse_rational("-3/4") == rat(-3, 4)
    assert parse_rational("7") == rat(7)
    assert format_rational(parse_rational("-10/4")) == "-5/2"
    for bad in ["1/0", "1/-2", "a", "1.5", "", "1/2/3", "1\n", "3/4\n", "١٢", "１/２"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_vector_basics():
    v = vec([1, "1/2", -3])
    assert v.dim == 3
    assert v + v == vec([2, 1, -6])
    assert v.dot(vec([2, 2, 0])) == rat(3)
    assert vec([0, "2/3", 4]).normalized_direction() == vec([0, 1, 6])
    assert vec([0, "-2/3", 4]).normalized_direction() == vec([0, -1, 6])
    with pytest.raises(ValueError):
        v.dot(vec([1]))


def test_matrix_basics():
    A = mat([[1, 2], [3, 4]])
    assert A.matvec(vec([1, 0])) == vec([1, 3])
    assert A.tmatvec(vec([1, 0])) == vec([1, 2])
    assert A.transpose().entries == ((rat(1), rat(3)), (rat(2), rat(4)))
    assert A.matmul(Matrix.identity(2)) == A
    empty = mat([], cols=3)
    assert empty.shape == (0, 3)
    with pytest.raises(ValueError):
        mat([[1, 2], [1]])


def test_kernel_basis_frozen_examples():
    # Hand elimination oracles, asserted exactly.
    assert kernel_basis(mat([[1, 0], [0, 1]])) == []
    assert kernel_basis(mat([[1, 1]])) == [vec([-1, 1])]
    assert kernel_basis(mat([[1, 2, 3], [2, 4, 6]])) == [
        vec([-2, 1, 0]),
        vec([-3, 0, 1]),
    ]
    # a matrix with no rows annihilates nothing
    assert kernel_basis(mat([], cols=2)) == [vec([1, 0]), vec([0, 1])]


def test_solve_linear_frozen_examples():
    assert solve_linear(mat([[1, 1]]), vec([2])) == vec([2, 0])
    assert solve_linear(mat([[1, 1], [1, 1]]), vec([1, 2])) is None
    assert solve_linear(mat([[2]]), vec([1])) == vec(["1/2"])
    assert solve_linear(mat([[1, 0], [0, 1]]), vec([5, -7])) == vec([5, -7])


def test_rank_examples():
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(Matrix.identity(3)) == 3
    assert rank(mat([], cols=4)) == 0
    assert rank(mat([[0, 0], [0, 0]])) == 0


def test_rref_is_canonical():
    A = mat([[2, 4, 0], [1, 2, 1]])
    R = rref(A)
    assert R == mat([[1, 2, 0], [0, 0, 1]])


small_rat = st.integers(-4, 4).flatmap(
    lambda p: st.integers(1, 3).map(lambda q: rat(p, q))
)


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(small_rat, min_size=c, max_size=c), min_size=0, max_size=max_rows
        ).map(lambda rows: mat(rows, cols=c))
    )


@given(matrices())
def test_rank_nullity(A):
    ker = kernel_basis(A)
    assert rank(A) + len(ker) == A.cols
    for k in ker:
        assert A.matvec(k).is_zero()
    # canonical form: unit entries on the free columns, identity pattern across
    pivots = {r.first_nonzero() for r in rref(A).row_vectors()}
    frees = [j for j in range(A.cols) if j not in pivots]
    assert len(frees) == len(ker)
    for j, k in zip(frees, ker):
        assert k[j] == 1
        assert all(k[other] == 0 for other in frees if other != j)


@given(matrices(), st.data())
def test_solve_linear_consistency(A, data):
    x = Vector(tuple(data.draw(small_rat) for _ in range(A.cols)))
    b = A.matvec(x)
    got = solve_linear(A, b)
    assert got is not None
    assert A.matvec(got) == b
    # determinism
    assert solve_linear(A, b) == got


@given(matrices(max_rows=3, max_cols=3))
def test_kernel_deterministic(A):
    assert kernel_basis(A) == kernel_basis(A)


def test_complement_projector():
    P = complement_projector([vec([0, 0, 1])], 3)
    assert P.matvec(vec([1, 2, 3])) == vec([1, 2, 0])
    # oblique basis still projects orthogonally onto the complement
    P2 = complement_projector([vec([1, 1])], 2)
    img = P2.matvec(vec([1, 0]))
    assert img == vec(["1/2", "-1/2"])
    assert img.dot(vec([1, 1])) == 0
    assert complement_projector([], 2) == Matrix.identity(2)
    # projector is idempotent
    assert P2.matmul(P2) == P2


def _termwise(xs, ys):
    total = Rational(0)
    for x, y in zip(xs, ys):
        total += x * y
    return total


def _draw(rng):
    """A rational with a small, a huge prime, or a large-numerator value;
    zeros are frequent."""
    kind = rng.randrange(5)
    if kind == 0:
        return Rational(0)
    if kind == 1:
        return Rational(rng.randint(-10**20, 10**20), 2**61 - 1)
    if kind == 2:
        return Rational(10**12, 7) * rng.choice((-1, 1))
    return Rational(rng.randint(-9, 9), rng.randint(1, 12))


def test_common_denominator_kernels_match_termwise_sums():
    rng = random.Random(4231)
    for _ in range(400):
        rows, cols = rng.randint(0, 4), rng.randint(1, 5)
        A = Matrix(tuple(tuple(_draw(rng) for _ in range(cols)) for _ in range(rows)), cols)
        x = Vector(tuple(_draw(rng) for _ in range(cols)))
        y = Vector(tuple(_draw(rng) for _ in range(rows)))
        got = [x.dot(r) for r in A.row_vectors()] + list(A.matvec(x)) + list(A.tmatvec(y))
        want = (
            [_termwise(x, r) for r in A.entries] * 2
            + [_termwise(y, [r[j] for r in A.entries]) for j in range(cols)]
        )
        assert got == want
        assert all(type(v) is Rational for v in got)
    empty = Matrix((), 3)
    assert empty.matvec(vec([1, "1/2", 0])) == Vector(())
    assert empty.tmatvec(Vector(())) == vec([0, 0, 0])


def test_value_types_are_slotted():
    # no per-instance dict: nothing can be cached on an input object
    from gpolyvlp.cone import ConeH
    from gpolyvlp.polyhedron import Face, HRep, h_to_v

    H = HRep.of(1, ineqs=[([1], 1), ([-1], 0)])
    V = h_to_v(H)
    for obj in (vec([1]), mat([[1]]), H, V, Face((), V), ConeH.of(1, [[-1]])):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
