"""Independent oracles that re-derive efficiency verdicts by other routes.

Each function here deliberately avoids the formulation used by the main
implementation so that agreement between the two is meaningful evidence:
domination is decided through explicit cone generators, and efficiency is
re-decided inside the quotient by the lineality space of the ordering cone,
using the projected image polyhedron and the pointed part of the cone.  The
(weakly) efficient set is re-derived by testing every face of D, with none
of the main route's pruning or special cases.
"""

from __future__ import annotations

from typing import Optional

from .exact import Vector, rat
from .lp import LPStatus, solve_lp
from .polyhedron import Face, HRep, InternalInvariantError, active_set, faces, h_to_v
from .vlp import EfficientSet, SetKind, VLPProblem, face_scalarizable

__all__ = [
    "dominated_via_generators",
    "minimal_face",
    "efficient_via_witness_system",
    "efficient_via_quotient",
    "solution_set_via_all_faces",
]


def dominated_via_generators(P: VLPProblem, u: Vector) -> bool:
    """Whether some feasible x puts M u - M x in K outside the lineality of K.

    Writes M u - M x = W a + R b with W a basis of the lineality space of K,
    R the extreme rays of the pointed part, a free and b >= 0, and maximizes
    the total b.  Because the pointed part contains no line, the combination
    leaves the lineality space exactly when b is nonzero, so u is dominated
    exactly when the supremum is positive (or infinite)."""
    dec = P.decomposition
    M = P.objective
    n = P.feasible_set.dim
    W = list(dec.y0_basis)
    R = list(dec.k1_rays)
    q = P.cone.dim
    width = n + len(W) + len(R)

    def ext(row: Vector, alpha: list, beta: list) -> Vector:
        return Vector(row.coords + tuple(alpha) + tuple(beta))

    eqs = []
    Mu = M.matvec(u)
    for i in range(q):
        mrow = M.row(i)
        alpha = [w.coords[i] for w in W]
        beta = [r.coords[i] for r in R]
        eqs.append((ext(mrow, alpha, beta), Mu.coords[i]))
    for row, b in P.feasible_set.eq_rows():
        eqs.append((ext(row, [rat(0)] * len(W), [rat(0)] * len(R)), b))
    ineqs = []
    for row, b in P.feasible_set.ineq_rows():
        ineqs.append((ext(row, [rat(0)] * len(W), [rat(0)] * len(R)), b))
    for k in range(len(R)):
        e = [rat(0)] * width
        e[n + len(W) + k] = rat(-1)
        ineqs.append((Vector(tuple(e)), rat(0)))
    c = Vector((rat(0),) * (n + len(W)) + (rat(-1),) * len(R))
    out = solve_lp(HRep.of(width, eqs, ineqs), c)
    if out.status is LPStatus.UNBOUNDED:
        return True
    if out.status is not LPStatus.OPTIMAL:
        raise InternalInvariantError("domination oracle expected a feasible program")
    return out.value < 0


def minimal_face(P: VLPProblem, u: Vector) -> Face:
    """The smallest face of the feasible set containing u."""
    D = P.feasible_set
    tight = [
        (row, b) for row, b in D.ineq_rows() if row.dot(u) == b
    ]
    geom = h_to_v(D.with_extra_eqs(tight))
    return Face(active_set(D, geom), geom)


def efficient_via_witness_system(P: VLPProblem, u: Vector) -> bool:
    """Efficiency decided by scalarizing the minimal face containing u.

    A point is efficient exactly when its minimal face admits a weight in the
    relative interior of the dual cone scalarizing the whole face into the
    argmin, because any argmin face containing the point contains its minimal
    face."""
    return face_scalarizable(P, minimal_face(P, u), weak=False)


def efficient_via_quotient(P: VLPProblem, u: Vector) -> bool:
    """Efficiency re-decided in the quotient by the lineality space of K.

    u is efficient iff (pi(M u) - image) meets the pointed part of K only at
    the origin, where image is the projected image polyhedron.  The check
    maximizes the total ray weight b in pi(M u) - z = R b over z in the image
    and b >= 0; pointedness makes any nonzero b leave the origin."""
    D1 = P.image_set
    R = list(P.decomposition.k1_rays)
    q = P.cone.dim
    target = P.project_to_y1(P.objective.matvec(u))
    np_, nr, nl, nb = len(D1.points), len(D1.rays), len(D1.lineality), len(R)
    width = np_ + nr + nl + nb

    def column(vecs, i):
        return [v.coords[i] for v in vecs]

    eqs = []
    for i in range(q):
        row = (
            column(D1.points, i)
            + column(D1.rays, i)
            + column(D1.lineality, i)
            + column(R, i)
        )
        eqs.append((Vector(tuple(row)), target.coords[i]))
    eqs.append((Vector((rat(1),) * np_ + (rat(0),) * (nr + nl + nb)), rat(1)))
    ineqs = []
    # Point, ray, and pointed-part multipliers are conic; only the lineality
    # multipliers stay free.
    for k in list(range(np_ + nr)) + list(range(np_ + nr + nl, width)):
        e = [rat(0)] * width
        e[k] = rat(-1)
        ineqs.append((Vector(tuple(e)), rat(0)))
    c = Vector((rat(0),) * (width - nb) + (rat(-1),) * nb)
    out = solve_lp(HRep.of(width, eqs, ineqs), c)
    if out.status is LPStatus.UNBOUNDED:
        return False
    if out.status is not LPStatus.OPTIMAL:
        raise InternalInvariantError("quotient oracle expected a feasible program")
    return out.value == 0


def solution_set_via_all_faces(
    P: VLPProblem, weak: bool = False, max_faces: Optional[int] = None
) -> EfficientSet:
    """The (weakly) efficient set by testing every face of D.

    Every face from faces() goes through face_scalarizable, and the passing
    faces with no passing face strictly containing them are kept, in faces()
    order.  A subspace cone or an empty-interior cone gets no special case:
    the zero weight is admissible there, so every face passes and the
    improper face is the answer.  Only an empty D, and a weak order with no
    dual generators (K the whole space, so no weight at all), answer without
    a face test.  Raises FaceLimitError when D has more than max_faces faces.
    """
    kind = SetKind.WEAKLY_EFFICIENT if weak else SetKind.EFFICIENT
    sub = P.decomposition.is_subspace
    # by the LP, so this oracle shares no interior test with the set routines
    eint = not P.cone.has_nonempty_interior()
    if P.feasible_vrep.is_empty or (weak and not P.decomposition.dual_generators):
        return EfficientSet(P, kind, (), sub, eint)
    passing = [
        f for f in faces(P.feasible_set, max_faces=max_faces) if face_scalarizable(P, f, weak)
    ]
    keep = tuple(
        f
        for f in passing
        if not any(set(g.active_ineq) < set(f.active_ineq) for g in passing)
    )
    return EfficientSet(P, kind, keep, sub, eint)
