"""Exact linear programming over the rationals.

A deliberately plain two-phase primal simplex with Bland's rule: no floating
point, no scaling heuristics, termination guaranteed by the anti-cycling
pivot choice.  On top of the basic solver sit a lexicographic refinement
(so optimal points are canonical), certified unbounded directions, argmin
faces, and exact breakpoint analysis of objectives moving along a segment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import Matrix, Vector, ZERO, ONE, rat
from .polyhedron import HRep, InternalInvariantError, h_to_v

__all__ = [
    "LPStatus",
    "LPOutcome",
    "NoArgminError",
    "UnsolvableSegmentError",
    "solve_lp",
    "feasible",
    "argmin_face",
    "parametric_breakpoints",
]


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPOutcome:
    """Result of minimizing c.x over an HRep.

    For OPTIMAL, point is the lexicographically smallest optimal point and
    value its objective.  For UNBOUNDED, descent_ray is a recession direction
    with c.descent_ray < 0, scaled to a +-1 leading coordinate.
    """

    status: LPStatus
    value: Optional[object] = None
    point: Optional[Vector] = None
    descent_ray: Optional[Vector] = None


class NoArgminError(ValueError):
    """Raised when the argmin face is requested but the LP has no optimum."""


class UnsolvableSegmentError(ValueError):
    """Raised when a parametric objective fails to stay solvable on [0, 1]."""


# ---------------------------------------------------------------------------
# simplex core on equality-standard form
#
# The tableau works on  A z = b, z >= 0  with z the split variables
# (x+, x-, slacks).  Rows are kept as dense rational lists.


class _Tableau:
    def __init__(self, A: list, b: list):
        self.A = A  # list of rows, each a list of rationals
        self.b = b
        self.ncols = len(A[0]) if A else 0
        self.basis: list = []

    def pivot(self, row: int, col: int):
        A, b = self.A, self.b
        piv = A[row][col]
        inv = 1 / piv
        A[row] = [v * inv for v in A[row]]
        b[row] = b[row] * inv
        prow = A[row]
        pb = b[row]
        for r in range(len(A)):
            if r == row:
                continue
            f = A[r][col]
            if f == 0:
                continue
            arow = A[r]
            A[r] = [arow[j] - f * prow[j] for j in range(self.ncols)]
            b[r] = b[r] - f * pb
        self.basis[row] = col

    def solution(self) -> list:
        z = [ZERO] * self.ncols
        for r, col in enumerate(self.basis):
            z[col] = self.b[r]
        return z


def _reduced_costs(T: _Tableau, c: list) -> list:
    """c_j - c_B . A_j for every column, with basic columns exactly zero."""
    lam = [c[col] for col in T.basis]  # multiplier per row
    red = list(c)
    for r, row in enumerate(T.A):
        f = lam[r]
        if f == 0:
            continue
        for j in range(T.ncols):
            if row[j] != 0:
                red[j] -= f * row[j]
    for col in T.basis:
        red[col] = ZERO
    return red


def _simplex(T: _Tableau, c: list, frozen: Optional[set] = None) -> tuple:
    """Minimize c.z from the current basic feasible solution.

    Bland's rule both for the entering column (lowest eligible index) and the
    leaving row (smallest basic variable index among the ratio ties), which
    rules out cycling.  Columns in frozen are never entered.  Returns
    ("optimal", None) or ("unbounded", entering_column_index).
    """
    while True:
        red = _reduced_costs(T, c)
        enter = None
        for j in range(T.ncols):
            if frozen is not None and j in frozen:
                continue
            if red[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal", None
        leave = None
        best = None
        for r in range(len(T.A)):
            a = T.A[r][enter]
            if a > 0:
                ratio = T.b[r] / a
                if best is None or ratio < best or (
                    ratio == best and T.basis[r] < T.basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave is None:
            return "unbounded", enter
        T.pivot(leave, enter)


def _standard_form(P: HRep) -> tuple:
    """Equality standard form of an HRep.

    Variables are x+ (dim), x- (dim), then one slack per inequality.  Rows
    with a negative right-hand side are negated so b >= 0 for phase one.
    Returns (rows, rhs, nvars).
    """
    d = P.dim
    n_ineq = P.ineq_lhs.rows
    nvars = 2 * d + n_ineq
    rows = []
    rhs = []

    def add(coef_x: Sequence, slack: Optional[int], b):
        row = [ZERO] * nvars
        for j, v in enumerate(coef_x):
            row[j] = v
            row[d + j] = -v
        if slack is not None:
            row[2 * d + slack] = ONE
        if b < 0:
            row = [-v for v in row]
            b = -b
        rows.append(row)
        rhs.append(b)

    for i in range(P.eq_lhs.rows):
        add(P.eq_lhs.row(i).coords, None, P.eq_rhs[i])
    for i in range(n_ineq):
        add(P.ineq_lhs.row(i).coords, i, P.ineq_rhs[i])
    return rows, rhs, nvars


def _phase_one(rows: list, rhs: list, nvars: int) -> Optional[_Tableau]:
    """Feasible tableau via artificial variables, or None if infeasible."""
    m = len(rows)
    if m == 0:
        raise ValueError("the simplex needs at least one constraint row")
    A = [list(row) + [ONE if r == i else ZERO for r in range(m)] for i, row in enumerate(rows)]
    T = _Tableau(A, list(rhs))
    T.basis = [nvars + i for i in range(m)]
    cost = [ZERO] * nvars + [ONE] * m
    status, _ = _simplex(T, cost)
    if status != "optimal":
        raise InternalInvariantError("phase one came back unbounded")
    if any(T.b[r] != 0 for r in range(m) if T.basis[r] >= nvars):
        return None
    # drive artificials out of the basis; drop redundant rows
    keep = []
    for r in range(m):
        if T.basis[r] < nvars:
            keep.append(r)
            continue
        enter = next((j for j in range(nvars) if T.A[r][j] != 0), None)
        if enter is None:
            continue  # redundant row, drop it
        T.pivot(r, enter)
        keep.append(r)
    T.A = [T.A[r][:nvars] for r in keep]
    T.b = [T.b[r] for r in keep]
    T.basis = [T.basis[r] for r in keep]
    T.ncols = nvars
    return T


def _extract_point(T: _Tableau, dim: int) -> Vector:
    z = T.solution()
    return Vector(tuple(z[j] - z[dim + j] for j in range(dim)))


def _ray_from_column(T: _Tableau, col: int, dim: int) -> Vector:
    """Recession direction of the standard-form feasible set when column col
    can increase forever: z_col = 1, basic variables move by -A_col."""
    delta = [ZERO] * T.ncols
    delta[col] = ONE
    for r, basic in enumerate(T.basis):
        delta[basic] = -T.A[r][col]
    return Vector(tuple(delta[j] - delta[dim + j] for j in range(dim)))


def solve_lp(P: HRep, c: Vector) -> LPOutcome:
    """Minimize c.x over an HRep, exactly and deterministically.

    The optimal point is canonical: the simplex is re-run restricted to the
    optimal face, minimizing one coordinate after another, so whenever the
    optimal face has a lexicographically smallest point that is the point
    returned.  A coordinate stage that is unbounded below on the face is
    skipped (the outcome stays deterministic, Bland's rule leaves nothing to
    chance).  Unbounded problems come with a certified descent ray.
    """
    if c.dim != P.dim:
        raise ValueError("objective dimension differs from ambient dimension")
    d = P.dim
    if P.eq_lhs.rows == 0 and P.ineq_lhs.rows == 0:
        # whole space: bounded only for the zero objective, where every point
        # is optimal and the origin is the canonical pick
        if c.is_zero():
            return LPOutcome(LPStatus.OPTIMAL, ZERO, Vector.zero(d))
        ray = (-c).normalized_direction()
        return LPOutcome(LPStatus.UNBOUNDED, descent_ray=ray)
    rows, rhs, nvars = _standard_form(P)
    T = _phase_one(rows, rhs, nvars)
    if T is None:
        return LPOutcome(LPStatus.INFEASIBLE)
    cost = [ZERO] * nvars
    for j in range(d):
        cost[j] = c[j]
        cost[d + j] = -c[j]
    status, col = _simplex(T, cost)
    if status == "unbounded":
        ray = _ray_from_column(T, col, d).normalized_direction()
        if c.dot(ray) >= 0:
            raise InternalInvariantError("unbounded ray does not descend")
        return LPOutcome(LPStatus.UNBOUNDED, descent_ray=ray)
    value = c.dot(_extract_point(T, d))

    # lexicographic refinement: freeze out every column whose reduced cost
    # is positive (those stay nonbasic on the optimal face), then minimize
    # coordinate after coordinate under the accumulating freezes
    frozen = set()
    red = _reduced_costs(T, cost)
    for j in range(nvars):
        if red[j] > 0:
            frozen.add(j)
    for k in range(d):
        stage = [ZERO] * nvars
        stage[k] = ONE
        stage[d + k] = -ONE
        status, _ = _simplex(T, stage, frozen)
        if status == "optimal":
            red = _reduced_costs(T, stage)
            for j in range(nvars):
                if red[j] > 0:
                    frozen.add(j)
        # an unbounded stage adds no freezes; later coordinates still resolve
    point = _extract_point(T, d)
    if c.dot(point) != value:
        raise InternalInvariantError("lexicographic refinement left the optimal face")
    return LPOutcome(LPStatus.OPTIMAL, value, point)


def feasible(P: HRep) -> bool:
    return solve_lp(P, Vector.zero(P.dim)).status == LPStatus.OPTIMAL


def argmin_face(P: HRep, c: Vector) -> HRep:
    """The optimal face of min c.x over P, as the HRep with c.x = value added.

    Raises NoArgminError when the problem is infeasible or unbounded.
    """
    out = solve_lp(P, c)
    if out.status != LPStatus.OPTIMAL:
        raise NoArgminError("no argmin")
    return P.with_extra_eqs([(c, out.value)])


# ---------------------------------------------------------------------------
# parametric objectives


def parametric_breakpoints(c0: Vector, c1: Vector, P: HRep) -> list:
    """Breakpoints of t |-> argmin over P of ((1-t) c0 + t c1).x on [0, 1].

    Returns the sorted rational list starting with 0 and ending with 1; on
    the open interval between consecutive entries the argmin face is one
    fixed face.  The problem must be solvable (finite optimum) for every t
    in [0, 1], otherwise UnsolvableSegmentError is raised.
    """
    if c0.dim != P.dim or c1.dim != P.dim:
        raise ValueError("objective dimension differs from ambient dimension")
    geom = h_to_v(P)
    if geom.is_empty:
        raise UnsolvableSegmentError("unsolvable on segment")
    delta = c1 - c0

    def cost(t):
        return c0 + delta.scale(t)

    # objective value lines of the candidate vertices: f_p(t) = c0.p + t delta.p
    lines = [(c0.dot(p), delta.dot(p)) for p in geom.points]
    candidates = {rat(0), rat(1)}
    for i in range(len(lines)):
        a0, a1 = lines[i]
        for j in range(i + 1, len(lines)):
            b0, b1 = lines[j]
            if a1 == b1:
                continue
            t = (b0 - a0) / (a1 - b1)
            if 0 < t < 1:
                candidates.add(t)
    # rays and lineality switch solvability where their product crosses zero
    for g in list(geom.rays) + list(geom.lineality):
        a0, a1 = c0.dot(g), delta.dot(g)
        if a1 != 0:
            t = -a0 / a1
            if 0 < t < 1:
                candidates.add(t)
    grid = sorted(candidates)

    def signature(t):
        ct = cost(t)
        for g in geom.lineality:
            if ct.dot(g) != 0:
                return None
        ray_products = tuple(ct.dot(g) for g in geom.rays)
        if any(v < 0 for v in ray_products):
            return None
        values = [v0 + t * v1 for v0, v1 in lines]
        best = min(values)
        argmin = tuple(i for i, v in enumerate(values) if v == best)
        tight_rays = tuple(i for i, v in enumerate(ray_products) if v == 0)
        return argmin, tight_rays

    # signatures are constant between consecutive candidates, so probing the
    # exact rational midpoint of each open interval classifies it completely
    sigs = []
    for k in range(1, len(grid)):
        mid = (grid[k - 1] + grid[k]) / 2
        sig = signature(mid)
        if sig is None:
            raise UnsolvableSegmentError("unsolvable on segment")
        sigs.append(sig)
    breakpoints = [rat(0)]
    for k in range(1, len(grid) - 1):
        if sigs[k - 1] != sigs[k]:
            breakpoints.append(grid[k])
    breakpoints.append(rat(1))

    for t in breakpoints:
        if solve_lp(P, cost(t)).status != LPStatus.OPTIMAL:
            raise UnsolvableSegmentError("unsolvable on segment")
    return breakpoints
