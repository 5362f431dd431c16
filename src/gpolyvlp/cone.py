"""Polyhedral ordering cones given by outer normals.

A cone is stored as K = {y : n.y <= 0 for every normal n}, so K may have a
nontrivial lineality space Y0 = K cap -K or even be a whole subspace.  The
decomposition splits K = Y0 + K1 with K1 = K cap Y0-perp pointed, which is
what the efficiency machinery consumes: dual membership reduces to signs
against Y0 and the extreme rays of K1.

The split is worked out in ints (_split): Y0 is the integer kernel of the
normals, and K1 comes from one integer double description with Y0 as
equalities.  decompose returns its rational view; VLPProblem keeps the ints
and reads its weight-space rows and the interior test off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .exact import Matrix, Vector, _integers, format_rational, kernel_basis, parse_rational
from .lp import LPStatus, feasible, solve_lp
from .polyhedron import (
    HRep,
    InternalInvariantError,
    _cone_ints,
    _dot,
    _json_dim,
    _kernel_int,
    _view,
)

__all__ = [
    "ConeH",
    "ConeDecomposition",
    "decompose",
    "ri_generated_cone_contains",
]


@dataclass(frozen=True, slots=True)
class ConeH:
    """K = {y in Q^dim : n.y <= 0 for every row n of normals}."""

    dim: int
    normals: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        for n in self.normals:
            if n.dim != self.dim:
                raise ValueError("normal dimension differs from ambient dimension")
            if n.is_zero():
                raise ValueError("zero normal rows are not allowed")

    @staticmethod
    def of(dim: int, normals: Iterable) -> "ConeH":
        return ConeH(dim, tuple(Vector.of(n) for n in normals))

    def contains(self, y: Vector) -> bool:
        self._check(y)
        return all(n.dot(y) <= 0 for n in self.normals)

    def interior_contains(self, y: Vector) -> bool:
        self._check(y)
        return all(n.dot(y) < 0 for n in self.normals)

    def lineality_contains(self, y: Vector) -> bool:
        self._check(y)
        return all(n.dot(y) == 0 for n in self.normals)

    def strict_part_contains(self, y: Vector) -> bool:
        """Membership in K minus its lineality space."""
        self._check(y)
        return self.contains(y) and not self.lineality_contains(y)

    def has_nonempty_interior(self) -> bool:
        """True when K is full dimensional, tested exactly by an LP."""
        if not self.normals:
            return True
        shifted = HRep.of(self.dim, ineqs=[(n, -1) for n in self.normals])
        return feasible(shifted)

    def lineality_basis(self) -> list:
        return kernel_basis(Matrix.from_rows(list(self.normals), cols=self.dim))

    def _check(self, y: Vector) -> None:
        if y.dim != self.dim:
            raise ValueError("vector dimension differs from ambient dimension")

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "normals": [[format_rational(v) for v in n] for n in self.normals],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "ConeH":
        if not isinstance(obj, dict):
            raise ValueError("cone must be a JSON object")
        dim = _json_dim(obj)
        normals_raw = obj.get("normals", [])
        if not isinstance(normals_raw, list):
            raise ValueError("normals must be a JSON array")
        normals = []
        for row in normals_raw:
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError("normal row width differs from dim")
            normals.append(Vector.of([parse_rational(v) for v in row]))
        return ConeH(dim, tuple(normals))


@dataclass(frozen=True, slots=True)
class ConeDecomposition:
    """K split as Y0 + K1 with Y0 the lineality space and K1 pointed.

    y0_basis spans Y0, y1_basis its orthogonal complement Y1, k1_rays are the
    extreme rays of K1 = K cap Y1, and dual_generators generate the dual cone
    {y* : y*.y >= 0 on K} (they are the negated normals).
    """

    cone: ConeH
    y0_basis: tuple
    y1_basis: tuple
    k1_rays: tuple
    dual_generators: tuple

    @property
    def is_subspace(self) -> bool:
        return not self.k1_rays

    def ri_dual_contains(self, y_star: Vector) -> bool:
        """Membership of y_star in the relative interior of the dual cone.

        The dual lives in Y0-perp and its facets are cut out by the extreme
        rays of K1, so the test is exact annihilation of Y0 plus a strictly
        positive product with every k1 ray.
        """
        if y_star.dim != self.cone.dim:
            raise ValueError("vector dimension differs from ambient dimension")
        if any(w.dot(y_star) != 0 for w in self.y0_basis):
            return False
        return all(r.dot(y_star) > 0 for r in self.k1_rays)


def decompose(K: ConeH) -> ConeDecomposition:
    """K = Y0 + K1: the rational view of _split(K)."""
    return _decomposition(K, _split(K))


def _split(K: ConeH) -> tuple:
    """The split K = Y0 + K1 in ints: (y0, k1), tuples of int generators
    (*g, h) standing for g / h (see polyhedron._Generators).

    y0 is the integer kernel of the normals, each vector g with h its entry
    on its free column, so g / h is the canonical kernel_basis vector of
    ConeH.lineality_basis.  k1 holds the extreme rays of K1 = K cap Y1, the
    dd_cone rays of the normals with the y0 vectors as equalities, each a
    primitive g with h the absolute value of its leading entry.  K1 is
    pointed, so that DD must leave no lineality."""
    normals = [_integers(n.coords)[0] for n in K.normals]
    y0 = tuple([g + (g[f],) for f, g in _kernel_int(normals, K.dim)])
    lin, k1 = _cone_ints(K.dim, [g[:-1] for g in y0], normals)
    if lin:
        raise InternalInvariantError(
            "the pointed part of the cone kept a lineality direction"
        )
    return y0, k1


def _dual_weight(K: ConeH, split: tuple, w: Sequence, weak: bool) -> Optional[tuple]:
    """The dual weight y* that the int weight-space vector w stands for, as
    (Y, s) with y* = Y / (s d) when w / d is the weight for some d > 0, or
    None when y* is not admissible; split is K's int split (see _split).

    A strict weight lives in y-space, so Y = w and s = 1.  It is admissible
    when it lies in ri(K*): w.g == 0 for every y0 vector and w.g > 0 for
    every k1 ray, the test of ConeDecomposition.ri_dual_contains, since the
    positive h of g / h and d change no sign.  A weak weight lives in
    lambda-space, y* = sum lambda_j (-n_j) over the normals n_j = N_j / s,
    s the common denominator of all of them, so Y = -sum w_j N_j.  It is
    admissible when it is nonzero; lambda >= 0 is a row of the weight
    space."""
    if not weak:
        y0, k1 = split
        if any(_dot(g, w) for g in y0) or any(_dot(g, w) <= 0 for g in k1):
            return None
        return tuple(w), 1
    flat, s = _integers([x for n in K.normals for x in n.coords])
    N = [flat[j * K.dim : (j + 1) * K.dim] for j in range(len(K.normals))]
    Y = tuple([-_dot(w, col) for col in zip(*N)])
    return (Y, s) if any(Y) else None


def _decomposition(K: ConeH, split: tuple) -> ConeDecomposition:
    """The ConeDecomposition of K given as its int split (see _split).
    y1_basis is the canonical kernel of the y0 vectors, from one more
    integer kernel."""
    y0, k1 = split
    y1 = [g + (g[f],) for f, g in _kernel_int([v[:-1] for v in y0], K.dim)]
    return ConeDecomposition(
        cone=K,
        y0_basis=tuple([_view(v) for v in y0]),
        y1_basis=tuple([_view(v) for v in y1]),
        k1_rays=tuple([_view(r) for r in k1]),
        dual_generators=tuple(-n for n in K.normals),
    )


def ri_generated_cone_contains(generators: Sequence[Vector], y: Vector) -> bool:
    """Membership of y in the relative interior of cone(generators).

    The relative interior is exactly the set of strictly positive conic
    combinations, so y belongs iff the system y = sum(lambda_i g_i),
    lambda >= 0 is feasible and each lambda_i can be made positive (a
    simultaneous positive choice exists by averaging the per-index optima).
    """
    gens = list(generators)
    if not gens:
        return y.is_zero()
    dim = y.dim
    for g in gens:
        if g.dim != dim:
            raise ValueError("generator dimension differs from vector dimension")
    m = len(gens)
    eqs = [
        (Vector.of([g[k] for g in gens]), y[k])
        for k in range(dim)
    ]
    ineqs = [(-Vector.unit(m, i), 0) for i in range(m)]
    P = HRep.of(m, eqs, ineqs)
    for i in range(m):
        out = solve_lp(P, -Vector.unit(m, i))  # maximize lambda_i
        if out.status == LPStatus.INFEASIBLE:
            return False
        if out.status == LPStatus.OPTIMAL and out.value == 0:
            return False
    return True

