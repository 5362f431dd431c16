"""Named example problems and seeded random instance generators.

The random generators always produce nonempty feasible sets (each inequality
is slackened around a shared anchor point) and cones with nonzero normal
rows, so downstream code never has to special-case accidental emptiness.
All randomness flows through an explicit random.Random so suites stay
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cone import ConeH, decompose
from .exact import Matrix, Vector, rat
from .polyhedron import HRep
from .vlp import VLPProblem

__all__ = [
    "InstanceConfig",
    "triangle_problem",
    "square_constant_row_problem",
    "first_quadrant",
    "random_vector",
    "random_cone",
    "random_feasible_hrep",
    "random_problem",
    "random_cut_box",
]


@dataclass(frozen=True)
class InstanceConfig:
    """Size envelope for random problems."""

    max_dim: int = 4
    max_ineqs: int = 6
    max_eqs: int = 1
    max_outputs: int = 3
    max_normals: int = 3
    coeff_bound: int = 3

    def __post_init__(self):
        # a zero bound leaves no nonzero vector to draw, a zero maximum no
        # size to draw from
        for name in ("max_dim", "max_ineqs", "max_outputs", "max_normals", "coeff_bound"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.max_eqs < 0:
            raise ValueError("max_eqs must be nonnegative")


def triangle_problem() -> VLPProblem:
    """Identity objective over the triangle with vertices (0,1), (1,0), (1,1),
    ordered by the first quadrant.  Its efficient set is the edge between
    (0,1) and (1,0)."""
    D = HRep.of(2, ineqs=[((-1, -1), -1), ((1, 0), 1), ((0, 1), 1)])
    return VLPProblem(Matrix.identity(2), D, first_quadrant())


def square_constant_row_problem() -> VLPProblem:
    """Unit square with objective (x1, 0) and the first quadrant order.  The
    second output is constant, so the weakly efficient set is the whole
    square while the efficient set is only the left edge."""
    D = HRep.of(2, ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
    return VLPProblem(Matrix.of([(1, 0), (0, 0)]), D, first_quadrant())


def first_quadrant() -> ConeH:
    return ConeH.of(2, [(-1, 0), (0, -1)])


def random_vector(rng: random.Random, dim: int, bound: int) -> Vector:
    return Vector.of([rng.randint(-bound, bound) for _ in range(dim)])


def _nonzero_vector(rng: random.Random, dim: int, bound: int) -> Vector:
    if dim < 1 or bound < 1:
        raise ValueError("a nonzero vector needs a dimension and an entry bound of at least 1")
    while True:
        v = random_vector(rng, dim, bound)
        if not v.is_zero():
            return v


def random_cone(
    rng: random.Random,
    dim: int,
    max_normals: int = 3,
    bound: int = 2,
    allow_subspace: bool = True,
) -> ConeH:
    """A cone with between 1 and max_normals nonzero normal rows.  With
    allow_subspace False, redraw until the cone is not a linear subspace."""
    while True:
        count = rng.randint(1, max_normals)
        K = ConeH(dim, tuple(_nonzero_vector(rng, dim, bound) for _ in range(count)))
        if allow_subspace or not decompose(K).is_subspace:
            return K


def random_feasible_hrep(
    rng: random.Random,
    dim: int,
    max_ineqs: int = 6,
    max_eqs: int = 1,
    bound: int = 3,
) -> HRep:
    """A nonempty polyhedron: every row is slackened around a random anchor
    point, which therefore always remains feasible.  Low row counts routinely
    produce unbounded sets and lineality."""
    anchor = random_vector(rng, dim, 2)
    eqs = []
    for _ in range(rng.randint(0, max_eqs)):
        a = _nonzero_vector(rng, dim, bound)
        eqs.append((a, a.dot(anchor)))
    ineqs = []
    for _ in range(rng.randint(1, max_ineqs)):
        a = _nonzero_vector(rng, dim, bound)
        ineqs.append((a, a.dot(anchor) + rat(rng.randint(0, 2))))
    return HRep.of(dim, eqs, ineqs)


def random_problem(
    rng: random.Random,
    config: InstanceConfig = InstanceConfig(),
    allow_subspace: bool = True,
) -> VLPProblem:
    n = rng.randint(1, config.max_dim)
    q = rng.randint(1, config.max_outputs)
    M = Matrix.of(
        [
            [rng.randint(-config.coeff_bound, config.coeff_bound) for _ in range(n)]
            for _ in range(q)
        ],
        cols=n,
    )
    D = random_feasible_hrep(rng, n, config.max_ineqs, config.max_eqs, config.coeff_bound)
    K = random_cone(rng, q, config.max_normals, 2, allow_subspace)
    return VLPProblem(M, D, K)


def random_cut_box(rng: random.Random) -> VLPProblem:
    """A problem whose solution sets often have several maximal faces.

    D is the unit cube in R^3, or the slab that leaves its last coordinate
    free, cut by 0-2 random rows slackened by 0 or 1/2 around the center of
    the cube, which therefore stays feasible.  M is an integer q x 3 matrix
    with q = 2..3, and K is the orthant with normals -e_i or a random cone
    with two or three normals that is not a subspace.  A cone with one
    normal is left out: its weights are the multiples of one vector, whose
    argmin is a single face.
    """
    n = 3
    center = Vector.of([rat(1, 2)] * n)
    ineqs = []
    for i in range(n - rng.randint(0, 1)):
        e = Vector.unit(n, i)
        ineqs += [(-e, 0), (e, 1)]
    for _ in range(rng.randint(0, 2)):
        a = _nonzero_vector(rng, n, 2)
        ineqs.append((a, a.dot(center) + rat(rng.randint(0, 1), 2)))
    q = rng.randint(2, 3)
    M = Matrix.of([[rng.randint(-2, 2) for _ in range(n)] for _ in range(q)], cols=n)
    if rng.randint(0, 1):
        K = ConeH(q, tuple(-Vector.unit(q, i) for i in range(q)))
    else:
        K = random_cone(rng, q, allow_subspace=False)
        while len(K.normals) < 2:
            K = random_cone(rng, q, allow_subspace=False)
    return VLPProblem(M, HRep.of(n, ineqs=ineqs), K)
