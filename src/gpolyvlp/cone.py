"""Polyhedral ordering cones given by outer normals.

A cone is stored as K = {y : n.y <= 0 for every normal n}, so K may have a
nontrivial lineality space Y0 = K cap -K or even be a whole subspace.  The
decomposition splits K = Y0 + K1 with K1 = K cap Y0-perp pointed, which is
what the efficiency machinery consumes: dual membership reduces to signs
against Y0 and the extreme rays of K1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exact import Matrix, Vector, kernel_basis, parse_rational, format_rational
from .lp import LPStatus, feasible, solve_lp
from .polyhedron import HRep, InternalInvariantError, _json_dim, dd_cone

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


@dataclass(frozen=True)
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
    y0 = K.lineality_basis()
    y1 = kernel_basis(Matrix.from_rows(y0, cols=K.dim))
    lin, rays = dd_cone(K.dim, y0, list(K.normals))
    if lin:
        raise InternalInvariantError(
            "the pointed part of the cone kept a lineality direction"
        )
    return ConeDecomposition(
        cone=K,
        y0_basis=tuple(y0),
        y1_basis=tuple(y1),
        k1_rays=tuple(rays),
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

