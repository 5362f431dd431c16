"""Exact linear programming over the rationals.

A two-phase primal simplex with Bland's rule: no floating point, termination
guaranteed by the anti-cycling pivot choice.  The tableau is kept in Python
ints: each row is scaled to integers once, pivoting is integer-preserving
over one common denominator, and the reduced costs ride along as one more
row updated by every pivot.  Rationals appear only when a point, a ray or
the optimal value is read off.  Phase one starts from the slack basis: only
the rows without a usable slack (equalities, and inequalities with a
negative right-hand side) take an artificial, and the phase-one simplex
runs only when some artificial starts above zero.  Its starting basis is
read off one transpose of the rows.

There is one simplex with two entries.  An HRep goes through
polyhedron._scaled_rows, which scales each row to (ints [a | b], scale), the
row format the double description's int entry takes too; _solve_rows takes
such rows
directly, and the pipeline in vlp.py builds its LPs (slack programs, weight
regions, argmin checks) that way, as ints with no HRep in between.  Both
entries share the row writer, phase one and phase two.  The private core
_solve runs the two phases on an HRep and returns the status, the optimal
value and certified unbounded directions; _solve_rows does the same on int
rows.  A free variable is split as x+ - x-; _solve_rows can also take
trailing sign-constrained variables, which get one column each and need no
-x <= 0 rows (the slack programs pass their slacks this way).  The HRep
entry has only free variables, so its tableau is the split one.  solve_lp
adds a lexicographic refinement on top, so its optimal points are
canonical.  Exact breakpoint analysis of objectives moving along
a segment sits on top of both.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import Rational, Vector, ZERO, _integers, rat
from .polyhedron import HRep, InternalInvariantError, VRep, _scaled_rows, h_to_v

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
# (x+, x-, slacks).  Each row of [A | b] is scaled by the lcm of its
# denominators, so the data are integers, and pivoting is integer-preserving
# (Edmonds; Bareiss): the stored rows are det * B^-1 [A | b] for the current
# basis B and one positive common denominator det, which is |det B|.  Every
# division in a pivot is exact.  The reduced costs are carried along as one
# more integer row, a positive multiple of c - c_B B^-1 A, set up once per
# objective and updated by every pivot.  Positive row and column scalings
# change no sign and no ratio comparison, so the pivots are those of the
# plain rational tableau; rationals appear only when a point or a ray is read
# off.


class _Tableau:
    def __init__(self, rows: list, basis: list):
        self.rows = rows  # integer rows, right-hand side last
        self.basis = basis
        self.ncols = len(rows[0]) - 1
        self.det = 1
        self.obj: Optional[list] = None  # reduced-cost row, rhs slot last

    def set_objective(self, cost: Sequence):
        """Carry the reduced costs of the integer cost vector cost."""
        det = self.det
        obj = [det * v for v in cost] + [0]
        for row, col in zip(self.rows, self.basis):
            f = cost[col]
            if f:
                obj = [o - f * v for o, v in zip(obj, row)]
        self.obj = obj

    def pivot(self, row: int, col: int):
        """Integer-preserving pivot on (row, col); the pivot row stays as it
        is.  A negative pivot element comes only from driving an artificial
        out, when no objective is carried; it flips the sign of every row, so
        det stays positive."""
        rows = self.rows
        prow = rows[row]
        p = prow[col]
        det = self.det
        nz = [(j, v) for j, v in enumerate(prow) if v]

        def eliminate(other: list) -> list:
            f = other[col]
            if not f:
                if p == det:
                    return other
                return [v * p // det for v in other]
            new = [v * p for v in other]
            for j, v in nz:
                new[j] -= f * v
            if det != 1:
                new = [v // det for v in new]
            return new

        for r in range(len(rows)):
            if r != row:
                rows[r] = eliminate(rows[r])
        if self.obj is not None:
            self.obj = eliminate(self.obj)
        if p < 0:
            self.rows = [[-v for v in r] for r in rows]
            p = -p
        self.det = p
        self.basis[row] = col

    def values(self) -> list:
        """Every variable at the basic solution, times det."""
        z = [0] * self.ncols
        for row, col in zip(self.rows, self.basis):
            z[col] = row[-1]
        return z


def _simplex(T: _Tableau, frozen: Optional[set] = None) -> tuple:
    """Minimize the carried objective from the current basic feasible solution.

    Bland's rule both for the entering column (lowest eligible index) and the
    leaving row (smallest basic variable index among the ratio ties), which
    rules out cycling.  Columns in frozen are never entered.  Returns
    ("optimal", None) or ("unbounded", entering_column_index).
    """
    cols = [j for j in range(T.ncols) if frozen is None or j not in frozen]
    basis = T.basis
    while True:
        obj = T.obj
        enter = next((j for j in cols if obj[j] < 0), None)
        if enter is None:
            return "optimal", None
        leave = None
        for r, row in enumerate(T.rows):
            a = row[enter]
            if a > 0:
                # b / a < best_b / best_a, by cross-multiplying positive a's
                if leave is None:
                    leave, best_b, best_a = r, row[-1], a
                    continue
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, best_b, best_a = r, row[-1], a
        if leave is None:
            return "unbounded", enter
        T.pivot(leave, enter)


def _write_rows(dim: int, eqs: Sequence, ineqs: Sequence, nonneg: int = 0) -> tuple:
    """Integer equality standard form of the rows a.x = b (eqs) and
    a.x <= b (ineqs), each given as (ints [a | b], scale).

    The last nonneg of the dim variables are sign-constrained, x >= 0.
    Variables are x+ (dim), x- (the dim - nonneg free ones), then one slack
    per inequality: a sign-constrained variable is its own column, with no
    x- copy.  Each int row is written straight out: the x- part is the
    negated free part of x+ and the slack entry is 1.  That is a positive
    scaling of the slack column, which changes no sign, ratio or Bland
    choice, and slacks are never read off.  Rows with a negative right-hand
    side are negated so b >= 0 for phase one, which turns their slack entry
    into -1.  scale is the row's factor over its rational row, which phase
    one needs.  Returns (rows, scales, nvars), right-hand side last in each
    row.
    """
    free = dim - nonneg
    n_ineq = len(ineqs)
    first_slack = dim + free
    nvars = first_slack + n_ineq
    rows = []
    scales = []

    def add(ints: list, scale: int, slack: Optional[int]):
        a, b = ints[:dim], ints[dim]
        unit = 1
        if b < 0:
            a, b = [-v for v in a], -b
            unit = -1
        row = a + [-v for v in a[:free]] + [0] * n_ineq + [b]
        if slack is not None:
            row[first_slack + slack] = unit
        rows.append(row)
        scales.append(scale)

    for ints, scale in eqs:
        add(ints, scale, None)
    for i, (ints, scale) in enumerate(ineqs):
        add(ints, scale, i)
    return rows, scales, nvars


def _standard_form(P: HRep) -> tuple:
    """Integer equality standard form of an HRep: _write_rows of its scaled
    rows."""
    return _write_rows(P.dim, *_scaled_rows(P))


def _phase_one(rows: list, scales: list, nvars: int) -> Optional[_Tableau]:
    """Feasible tableau from the slack basis, or None if infeasible.  The
    tableau takes over rows.

    A row starts with the first column that is 1 in it and 0 in every other
    row as its basic variable.  The slack of every inequality with b >= 0 is
    such a column; an x column that only this row uses, with entry 1, comes
    before it.  The columns are read off one transpose of the rows, so
    counting a column's zeros and finding its 1 run in C.  Every other row
    (the equalities and the negated inequalities, as a rule) takes an
    artificial variable; when none does, the rows are the tableau as they
    are.  Row i was scaled by d_i, so its artificial a_i' = d_i a_i gets a
    unit column and cost 1/d_i; the phase-one objective is the plain sum of
    the artificials.  The phase-one simplex runs only when some artificial
    starts above zero; otherwise the start is already feasible, and the
    artificials, all basic at zero, are driven out or their rows dropped.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("the simplex needs at least one constraint row")
    basis = [None] * m
    others = m - 1
    for j, col in zip(range(nvars), zip(*rows)):
        if col.count(0) == others and col.count(1) == 1:
            r = col.index(1)
            if basis[r] is None:
                basis[r] = j
    arts = [r for r in range(m) if basis[r] is None]
    if not arts:
        return _Tableau(rows, basis)
    for k, r in enumerate(arts):
        basis[r] = nvars + k
    A = [
        row[:-1] + [int(basis[i] == nvars + k) for k in range(len(arts))] + row[-1:]
        for i, row in enumerate(rows)
    ]
    T = _Tableau(A, basis)
    if any(rows[r][-1] for r in arts):
        L = math.lcm(*[scales[r] for r in arts])
        T.set_objective([0] * nvars + [L // scales[r] for r in arts])
        status, _ = _simplex(T)
        if status != "optimal":
            raise InternalInvariantError("phase one came back unbounded")
        if any(row[-1] != 0 for row, col in zip(T.rows, T.basis) if col >= nvars):
            return None
    # drive artificials out of the basis; drop redundant rows
    T.obj = None
    keep = []
    for r in range(m):
        if T.basis[r] < nvars:
            keep.append(r)
            continue
        row = T.rows[r]
        enter = next((j for j in range(nvars) if row[j] != 0), None)
        if enter is None:
            continue  # redundant row, drop it
        T.pivot(r, enter)
        keep.append(r)
    T.rows = [T.rows[r][:nvars] + T.rows[r][-1:] for r in keep]
    T.basis = [T.basis[r] for r in keep]
    T.ncols = nvars
    return T


def _extract_point(T: _Tableau, dim: int) -> Vector:
    return Vector(tuple([Rational(v, T.det) for v in _split(T.values(), dim, dim)]))


def _split(z: list, dim: int, free: int) -> list:
    """x = x+ - x- from the standard-form variables z, whose last dim - free
    x variables have no x- column."""
    return [z[j] - z[dim + j] for j in range(free)] + z[free:dim]


def _ray_from_column(T: _Tableau, col: int, dim: int, free: int) -> Vector:
    """Recession direction of the standard-form feasible set when column col
    can increase forever: z_col = 1, basic variables move by -A_col."""
    delta = [0] * T.ncols
    delta[col] = T.det
    for row, basic in zip(T.rows, T.basis):
        delta[basic] = -row[col]
    return Vector(tuple([Rational(v, T.det) for v in _split(delta, dim, free)]))


def _optimize(P: HRep, c: Vector) -> tuple:
    """Phase one and phase two of min c.x over an HRep: (outcome, tableau).

    The outcome has no point; for OPTIMAL its value is c at the basic optimal
    point, and for UNBOUNDED it carries the certified descent ray.  The
    tableau is the optimal one, or None when there is none to refine (no
    optimum, or P is the whole space).
    """
    if c.dim != P.dim:
        raise ValueError("objective dimension differs from ambient dimension")
    return _optimize_rows(P.dim, *_scaled_rows(P), c)


def _optimize_rows(
    dim: int, eqs: Sequence, ineqs: Sequence, c: Vector, nonneg: int = 0
) -> tuple:
    """_optimize over integer rows (ints [a | b], scale), as _scaled_rows
    gives them, with the last nonneg variables sign-constrained (see
    _write_rows); those need at least one row."""
    if not eqs and not ineqs and not nonneg:
        # whole space: bounded only for the zero objective
        if c.is_zero():
            return LPOutcome(LPStatus.OPTIMAL, ZERO), None
        ray = (-c).normalized_direction()
        return LPOutcome(LPStatus.UNBOUNDED, descent_ray=ray), None
    rows, scales, nvars = _write_rows(dim, eqs, ineqs, nonneg)
    T = _phase_one(rows, scales, nvars)
    if T is None:
        return LPOutcome(LPStatus.INFEASIBLE), None
    free = dim - nonneg
    cx, L = _integers(c.coords)
    T.set_objective(cx + [-v for v in cx[:free]] + [0] * (nvars - dim - free))
    status, col = _simplex(T)
    if status == "unbounded":
        ray = _ray_from_column(T, col, dim, free).normalized_direction()
        if c.dot(ray) >= 0:
            raise InternalInvariantError("unbounded ray does not descend")
        return LPOutcome(LPStatus.UNBOUNDED, descent_ray=ray), None
    # c at the basic point, (cx / L).x / det, with one division
    x = _split(T.values(), dim, free)
    value = Rational(sum([v * w for v, w in zip(cx, x) if v]), L * T.det)
    return LPOutcome(LPStatus.OPTIMAL, value), T


def _solve(P: HRep, c: Vector) -> LPOutcome:
    """Minimize c.x over an HRep for the status, the optimal value and the
    descent ray only: solve_lp without the lexicographic refinement, so the
    outcome has no point.  Status, value and ray are solve_lp's."""
    return _optimize(P, c)[0]


def _solve_rows(
    dim: int, eqs: Sequence, ineqs: Sequence, c: Vector, nonneg: int = 0
) -> LPOutcome:
    """_solve over integer rows: eqs are the rows a.x = b and ineqs the rows
    a.x <= b, each (ints [a | b], scale) with scale the row's positive factor
    over its rational row.  The last nonneg variables are sign-constrained,
    each one column with no x- copy, so a caller writes no -x_j <= 0 rows
    for them.  The pipeline builds its programs this way, with no HRep; rows
    that _scaled_rows gives, with nonneg 0, pivot exactly as their HRep does.
    """
    return _optimize_rows(dim, eqs, ineqs, c, nonneg)[0]


def solve_lp(P: HRep, c: Vector) -> LPOutcome:
    """Minimize c.x over an HRep, exactly and deterministically.

    The optimal point is canonical: after the two phases of _solve the
    simplex is re-run restricted to the optimal face, minimizing one
    coordinate after another, so whenever the optimal face has a
    lexicographically smallest point that is the point returned.  A
    coordinate stage that is unbounded below on the face is skipped (the
    outcome stays deterministic, Bland's rule leaves nothing to chance).
    Unbounded problems come with a certified descent ray.  Callers that read
    only the status or the value use _solve.
    """
    out, T = _optimize(P, c)
    if out.status is not LPStatus.OPTIMAL:
        return out
    d = P.dim
    if T is None:
        # the whole space under the zero objective: every point is optimal
        # and the origin is the canonical pick
        return LPOutcome(LPStatus.OPTIMAL, ZERO, Vector.zero(d))

    # lexicographic refinement: freeze out every column whose reduced cost
    # is positive (those stay nonbasic on the optimal face), then minimize
    # coordinate after coordinate under the accumulating freezes
    nvars = T.ncols
    frozen = {j for j in range(nvars) if T.obj[j] > 0}
    for k in range(d):
        stage = [0] * nvars
        stage[k] = 1
        stage[d + k] = -1
        T.set_objective(stage)
        status, _ = _simplex(T, frozen)
        if status == "optimal":
            frozen.update(j for j in range(nvars) if T.obj[j] > 0)
        # an unbounded stage adds no freezes; later coordinates still resolve
    point = _extract_point(T, d)
    if c.dot(point) != out.value:
        raise InternalInvariantError("lexicographic refinement left the optimal face")
    return LPOutcome(LPStatus.OPTIMAL, out.value, point)


def feasible(P: HRep) -> bool:
    return _solve(P, Vector.zero(P.dim)).status == LPStatus.OPTIMAL


def argmin_face(P: HRep, c: Vector) -> HRep:
    """The optimal face of min c.x over P, as the HRep with c.x = value added.

    Raises NoArgminError when the problem is infeasible or unbounded.
    """
    out = _solve(P, c)
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
    return _breakpoints(c0, c1, h_to_v(P), _scaled_rows(P))


def _breakpoints(c0: Vector, c1: Vector, geom: VRep, rows: tuple) -> list:
    """parametric_breakpoints over a polyhedron P, given geom = h_to_v(P)
    and rows = _scaled_rows(P)."""
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
        if _solve_rows(geom.dim, *rows, cost(t)).status != LPStatus.OPTIMAL:
            raise UnsolvableSegmentError("unsolvable on segment")
    return breakpoints
