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

The general simplex has one column layout: every variable is free and
split as x = x+ - x-, so a row [a | b] is written [a | -a | slacks | b]
and a sign constraint is one more row -x <= 0.  Its core, _optimize_rows,
takes int rows (ints [a | b], scale), the row format
polyhedron._scaled_rows gives and the double description's int entry
takes too, and a cost vector in the library's int form (*C, L), standing
for C / L, which it splits as (C, -C) itself.  It has two entries, and
both pass an HRep's _scaled_rows as they are.  solve_lp, the entry that
returns a point (crosscheck's oracles run it), reads a certified descent
ray off the entering column of an unbounded program, and adds a
lexicographic refinement on top, so its optimal points are canonical.
_solve_rows is the value-only entry of feasible (which
cone.ConeH.has_nonempty_interior runs), argmin_face and
parametric_breakpoints' re-checks, and of the oracles' weight regions,
which vlp.face_scalarizable writes as int rows with no HRep in between.
They read only the status and the optimal value, which every optimal
basis shares, so no point and no ray is built for them.  No pipeline
program and no benchmark query reaches the general simplex; the
per-point programs run on the cone core below.

Homogeneous cone programs, min c.x over {x : a.x <= 0} with free and
sign-constrained columns, have their own simplex, _cone_descent: the
slack basis is feasible and every pivot degenerate, so it runs Bland's
phase two alone on a condensed int tableau whose rows are scaled one by
one, with no right-hand side, no common denominator, no row writer, no
phase one and no LPOutcome.  It answers "bounded, optimum 0" with a dual
certificate checked in ints, or with a descending edge direction checked
in ints, so a caller trusts no pivot of it.  Every per-point program of
vlp.py runs on it: the efficiency tests' slack programs, and the argmin
re-checks of the witnesses and of connect's breakpoints, whose certificate
is the Farkas multipliers that prove c.d >= 0 on the tangent cone.

Exact breakpoint analysis of objectives moving along a segment needs no
simplex: it reads the candidate breakpoints off the int generators of the
double description, with the costs in the same int form, and names the
first argmin point of each interval among them.  parametric_breakpoints
re-checks each breakpoint with an LP over the polyhedron; vlp.connect
certifies its own on tangent cones instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import Rational, Vector, ZERO
from .polyhedron import (
    HRep,
    InternalInvariantError,
    _Generators,
    _direction,
    _dot,
    _generators,
    _int_vector,
    _scaled_rows,
)

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
# The tableau works on  A z = b,  z >= 0, with z the split variables x+
# and x- and one slack per inequality (see _write_rows).  Each row of
# [A | b] is scaled by the lcm of its denominators, so the data are
# integers, and pivoting is integer-preserving (Edmonds; Bareiss): the
# stored rows are det * B^-1 [A | b] for the current basis B and one
# positive common denominator det, which is |det B|.  Every division in a
# pivot is exact.  The reduced costs are carried along as one more integer
# row, a positive multiple of c - c_B B^-1 A, set up once per objective and
# updated by every pivot.  Positive row and column scalings change no sign
# and no ratio comparison, so the pivots are those of the plain rational
# tableau; rationals appear only when a value, a point or a ray is read off.


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

    def direction(self, col: int) -> list:
        """The edge direction along which the nonbasic column col increases
        from the basic solution, times det: the column moves by det, every
        basic variable by minus its entry."""
        delta = [0] * self.ncols
        delta[col] = self.det
        for row, basic in zip(self.rows, self.basis):
            delta[basic] = -row[col]
        return delta


def _simplex(T: _Tableau, frozen: Optional[set] = None) -> tuple:
    """Minimize the carried objective from the current basic feasible solution.

    Bland's rule both for the entering column (lowest index with a negative
    reduced cost) and the leaving row (smallest basic variable index among
    the ratio ties), which rules out cycling.  Columns in frozen are never
    entered.  Returns ("optimal", None) or ("unbounded", entering_column_index).
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


def _write_rows(dim: int, eqs: Sequence, ineqs: Sequence) -> tuple:
    """Integer equality standard form of the rows a.x = b (eqs) and
    a.x <= b (ineqs) over dim free variables, each row given as
    (ints [a | b], scale).

    Each variable is split as x = x+ - x-, so a row [a | b] becomes
    [a | -a | slacks | b]: the columns x+, then x-, then one slack per
    inequality.  Each int row is written straight out, with slack entry 1.
    That is a positive scaling of the slack column, which changes no sign,
    ratio or Bland choice, and slacks are never read off.  Rows with a
    negative right-hand side are negated so b >= 0 for phase one, which
    turns their slack entry into -1.  scale is the row's factor over its
    rational row, which phase one needs.  Returns (rows, scales, nvars),
    right-hand side last in each row.
    """
    n_ineq = len(ineqs)
    rows = []
    scales = []

    def add(ints: list, scale: int, slack: Optional[int]):
        a, b = ints[:dim], ints[dim]
        unit = 1
        if b < 0:
            a, b = [-v for v in a], -b
            unit = -1
        row = [*a, *[-v for v in a], *[0] * n_ineq, b]
        if slack is not None:
            row[2 * dim + slack] = unit
        rows.append(row)
        scales.append(scale)

    for ints, scale in eqs:
        add(ints, scale, None)
    for i, (ints, scale) in enumerate(ineqs):
        add(ints, scale, i)
    return rows, scales, 2 * dim + n_ineq


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


def _optimize_rows(dim: int, eqs: Sequence, ineqs: Sequence, cost: Sequence) -> tuple:
    """Phase one and phase two of min c.x over integer rows (ints [a | b],
    scale), as _scaled_rows gives them, over dim free variables, for the
    cost c = C / L given as the int generator cost = (*C, L), L > 0.  The
    tableau is the split one of _write_rows, with cost (C, -C) on x+, x-.

    Returns (outcome, T, enter).  The outcome has the status and, for
    OPTIMAL, the value of c at the basic optimal point; no point and no ray.
    T is the final tableau, or None when there is none (infeasible, or no
    rows at all: the whole space, bounded only for the zero objective).
    For UNBOUNDED, enter is the column that can increase forever, and c
    descends along T.direction(enter), as checked in ints.
    """
    C, L = cost[:-1], cost[-1]
    if not eqs and not ineqs:
        if not any(C):
            return LPOutcome(LPStatus.OPTIMAL, ZERO), None, None
        return LPOutcome(LPStatus.UNBOUNDED), None, None
    rows, scales, nvars = _write_rows(dim, eqs, ineqs)
    T = _phase_one(rows, scales, nvars)
    if T is None:
        return LPOutcome(LPStatus.INFEASIBLE), None, None
    cx = [*C, *[-v for v in C]]
    T.set_objective([*cx, *[0] * (nvars - 2 * dim)])
    status, enter = _simplex(T)
    if status == "unbounded":
        if _dot(cx, T.direction(enter)) >= 0:
            raise InternalInvariantError("unbounded ray does not descend")
        return LPOutcome(LPStatus.UNBOUNDED), T, enter
    # c at the basic point, (cx / L).x / det, with one division
    return LPOutcome(LPStatus.OPTIMAL, Rational(_dot(cx, T.values()), L * T.det)), T, None


def _solve_rows(dim: int, eqs: Sequence, ineqs: Sequence, cost: Sequence) -> LPOutcome:
    """Status and optimal value of min c.x over integer rows: eqs are the
    rows a.x = b and ineqs the rows a.x <= b over dim free variables, each
    (ints [a | b], scale) with scale the row's positive factor over its
    rational row, and the cost c = C / L is the int generator
    cost = (*C, L), L > 0.  A sign constraint is one more row -x <= 0.  The
    outcome has no point and no ray; an unbounded one has passed the
    descent check in ints.  The oracles' weight regions
    (vlp.face_scalarizable) are written this way, with no HRep.
    """
    return _optimize_rows(dim, eqs, ineqs, cost)[0]


# ---------------------------------------------------------------------------
# homogeneous cone programs
#
# min c.x over the cone {x : a.x <= 0}: every right-hand side is 0, so the
# slack basis is feasible, every basic solution is the origin and every
# pivot is degenerate.  All ratios tie at 0, so the ratio test reduces to
# Bland's tie-break, and no row's scale is ever compared with another's:
# each row keeps its own positive scale, divided out by its gcd after each
# elimination, with no common denominator and no right-hand-side column.
# The tableau is condensed, one column per nonbasic variable: row i is the
# equation s_i x_B(i) + sum_j row_i[j] x_N(j) = 0, with its scale s_i > 0
# stored last, and the objective row, alpha c.x = sum_j obj[j] x_N(j),
# carries alpha > 0 last.  Variables are labelled 0..n-1, and the slack of
# row i is n + i.


def _cone_descent(free: int, rows: Sequence, cost: Sequence) -> Optional[list]:
    """Phase two of min cost.x over {x : a.x <= 0 for a in rows}, started
    on the slack basis, in ints: the first free variables are free columns
    and the rest are >= 0.  rows are int vectors and cost an int vector,
    all of one length; positive scalings of either change nothing.

    Returns None when the program is bounded, so its optimum is 0, or an
    int direction d of an unbounded edge: every a.d <= 0, d >= 0 on the
    sign-constrained columns and cost.d < 0.  Both answers are checked in
    ints: d must descend, and a bounded answer must carry its dual
    certificate.  That is y >= 0, the slacks' reduced costs, with the
    variables' reduced costs, which are >= 0 and 0 on the free columns,
    equal to alpha cost + y.A; then cost.x >= 0 on the whole cone.

    Bland's rule picks the entering variable (lowest eligible label; a free
    one is eligible with either sign of its reduced cost, and enters
    decreasing when it is positive) and the leaving row (lowest basic label
    among the rows of sign-constrained basic variables with an entry of the
    entering sign), which rules out cycling; a free variable never leaves
    once it has entered.
    """
    n = len(cost)
    tab = [[*a, 1] for a in rows]
    basic = list(range(n, n + len(tab)))
    nonbasic = list(range(n))
    obj = [*cost, 1]
    while True:
        enter = None
        for c, label in enumerate(nonbasic):
            v = obj[c]
            if (v < 0 or (v and label < free)) and (enter is None or label < nonbasic[enter]):
                enter = c
        if enter is None:
            break
        sign = 1 if obj[enter] < 0 else -1
        leave = None
        for r, (b, row) in enumerate(zip(basic, tab)):
            if row[enter] * sign > 0 and b >= free and (leave is None or b < basic[leave]):
                leave = r
        if leave is None:
            # x_N(enter) moves by sign L and x_B(i) by -sign row_i[enter] L / s_i,
            # with L the lcm of the s_i that move; slacks are not returned
            steps = [(b, row[-1], row[enter]) for b, row in zip(basic, tab) if row[enter] and b < n]
            L = math.lcm(*[s for _, s, _ in steps])
            d = [0] * n
            if nonbasic[enter] < n:
                d[nonbasic[enter]] = sign * L
            for b, s, a in steps:
                d[b] = -sign * a * (L // s)
            if _dot(cost, d) >= 0:
                raise InternalInvariantError("unbounded edge of a cone program does not descend")
            return d
        prow = tab[leave] if sign > 0 else [-v for v in tab[leave]]
        p, s = prow[enter], prow[-1]
        # eliminating x_N(enter) from another row, times p, puts -f s in
        # the column that x_B(leave) takes over, and p times its scale last
        elim = prow[:]
        elim[enter] = p + s
        elim[-1] = 0
        for r, row in enumerate(tab):
            f = row[enter]
            if f and r != leave:
                new = [p * v - f * w for v, w in zip(row, elim)]
                g = math.gcd(*new)
                tab[r] = new if g == 1 else [v // g for v in new]
        f = obj[enter]
        obj = [p * v - f * w for v, w in zip(obj, elim)]
        g = math.gcd(*obj)
        if g > 1:
            obj = [v // g for v in obj]
        prow[enter], prow[-1] = s, p
        tab[leave] = prow
        basic[leave], nonbasic[enter] = nonbasic[enter], basic[leave]
    # the reduced costs by label, 0 on the basic ones
    reduced = [0] * (n + len(tab))
    for label, v in zip(nonbasic, obj):
        reduced[label] = v
    y, alpha = reduced[n:], obj[-1]
    cols = zip(*rows) if rows else [()] * n
    certified = all(v - _dot(y, col) == alpha * c for v, col, c in zip(reduced, cols, cost))
    if not certified:
        raise InternalInvariantError("bounded cone program without a zero-optimum certificate")
    return None


def solve_lp(P: HRep, c: Vector) -> LPOutcome:
    """Minimize c.x over an HRep, exactly and deterministically.

    The HRep's scaled rows go to _optimize_rows as they are, so the tableau
    is the split one over x = x+ - x-.  An unbounded program comes with a
    certified descent ray, read off the entering column as x+ - x-.  The optimal point is canonical: after the
    two phases the simplex is re-run restricted to the optimal face,
    minimizing one coordinate after another, so whenever the optimal face
    has a lexicographically smallest point that is the point returned.  A
    coordinate stage that is unbounded below on the face is skipped (the
    outcome stays deterministic, Bland's rule leaves nothing to chance).
    Callers that read only the status or the value use _solve_rows.
    """
    if c.dim != P.dim:
        raise ValueError("objective dimension differs from ambient dimension")
    d = P.dim
    eqs, ineqs = _scaled_rows(P)
    if not eqs and not ineqs:
        # whole space: bounded only for the zero objective, where every
        # point is optimal and the origin is the canonical pick
        if c.is_zero():
            return LPOutcome(LPStatus.OPTIMAL, ZERO, Vector.zero(d))
        return LPOutcome(LPStatus.UNBOUNDED, descent_ray=(-c).normalized_direction())
    out, T, enter = _optimize_rows(d, eqs, ineqs, _int_vector(c))
    if out.status is LPStatus.UNBOUNDED:
        delta = T.direction(enter)
        ray = _direction([delta[j] - delta[d + j] for j in range(d)])
        return LPOutcome(LPStatus.UNBOUNDED, descent_ray=ray)
    if out.status is not LPStatus.OPTIMAL:
        return out

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
    z = T.values()
    point = Vector(tuple([Rational(z[j] - z[d + j], T.det) for j in range(d)]))
    if c.dot(point) != out.value:
        raise InternalInvariantError("lexicographic refinement left the optimal face")
    return LPOutcome(LPStatus.OPTIMAL, out.value, point)


def feasible(P: HRep) -> bool:
    return _solve_rows(P.dim, *_scaled_rows(P), (0,) * P.dim + (1,)).status == LPStatus.OPTIMAL


def argmin_face(P: HRep, c: Vector) -> HRep:
    """The optimal face of min c.x over P, as the HRep with c.x = value added.

    Raises NoArgminError when the problem is infeasible or unbounded.
    """
    if c.dim != P.dim:
        raise ValueError("objective dimension differs from ambient dimension")
    out = _solve_rows(P.dim, *_scaled_rows(P), _int_vector(c))
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
    in [0, 1], otherwise UnsolvableSegmentError is raised.  The breakpoints
    come from the int analysis of _breakpoints, and each is re-checked by
    an LP over P.
    """
    if c0.dim != P.dim or c1.dim != P.dim:
        raise ValueError("objective dimension differs from ambient dimension")
    rows = _scaled_rows(P)
    grid, _ = _breakpoints(_int_vector(c0), _int_vector(c1), _generators(P.dim, *rows))
    breakpoints = [Rational(num, den) for num, den in grid]
    delta = c1 - c0
    for t in breakpoints:
        if _solve_rows(P.dim, *rows, _int_vector(c0 + delta.scale(t))).status != LPStatus.OPTIMAL:
            raise UnsolvableSegmentError("unsolvable on segment")
    return breakpoints


def _breakpoints(c0: tuple, c1: tuple, gens: _Generators) -> tuple:
    """The breakpoint analysis behind parametric_breakpoints, in ints, for
    the costs c0 = C0 / L0 and c1 = C1 / L1 given as int generators
    (*C0, L0) and (*C1, L1), over a polyhedron P given by its int
    generators gens = polyhedron._generators of P.  Returns (grid, firsts):
    the breakpoints as reduced int pairs (num, den), den > 0, from (0, 1)
    to (1, 1), and for each open interval between them the index in
    gens.points of the first point of P's generator form in the
    interval's argmin face, the lexicographically smallest argmin point,
    since the points are sorted.  No LP runs: parametric_breakpoints
    re-checks the breakpoints over P, and vlp.connect certifies them on
    tangent cones.

    With both costs brought to one denominator L, Dc = C1 - C0, and the
    points g / h of P brought to the lcm H of their h, the objective value
    of a point along the segment is (A0 + t A1) / (L H) with
    A0 = (H / h) C0.g and A1 = (H / h) Dc.g, so two points' lines cross at
    the t where A0 + t A1 agree.  A ray or lineality vector g / h has a
    product C0.g + t Dc.g of the same sign, which crosses zero where
    solvability can switch.  Each crossing in (0, 1) is a reduced int pair
    (num, den) with den > 0.  The argmin points and the rays tight on the
    argmin are constant between consecutive crossings, so each open
    interval is classified at its midpoint, by the signs of den (A0 + t A1)
    and of the ray products in ints.  The t where the objective is bounded
    below on P form a closed interval, so an unbounded t in [0, 1] shows on
    an open interval next to it, and UnsolvableSegmentError is raised
    there.
    """
    if not gens.points:
        raise UnsolvableSegmentError("unsolvable on segment")
    L = math.lcm(c0[-1], c1[-1])
    f0, f1 = L // c0[-1], L // c1[-1]
    C0 = [x * f0 for x in c0[:-1]]
    Dc = [y * f1 - x for x, y in zip(C0, c1[:-1])]
    H = math.lcm(*[v[-1] for v in gens.points])
    lines = []
    for v in gens.points:
        # v's trailing h is past the end of C0 and Dc, so _dot skips it
        f = H // v[-1]
        lines.append((f * _dot(C0, v), f * _dot(Dc, v)))
    rays = [(_dot(C0, v), _dot(Dc, v)) for v in gens.rays]
    lineality = [(_dot(C0, v), _dot(Dc, v)) for v in gens.lineality]

    candidates = {(0, 1), (1, 1)}

    def cross(num: int, den: int) -> None:
        if den < 0:
            num, den = -num, -den
        if 0 < num < den:
            g = math.gcd(num, den)
            candidates.add((num // g, den // g))

    for i, (a0, a1) in enumerate(lines):
        for b0, b1 in lines[i + 1 :]:
            if a1 != b1:
                cross(b0 - a0, a1 - b1)
    # rays and lineality switch solvability where their product crosses zero
    for a0, a1 in rays + lineality:
        if a1:
            cross(-a0, a1)
    common = math.lcm(*[den for _, den in candidates])
    grid = sorted(candidates, key=lambda t: t[0] * (common // t[1]))

    def signature(num: int, den: int):
        """The argmin points and tight rays at t = num / den, den > 0, or
        None when the objective is unbounded there."""
        if any(den * a0 + num * a1 for a0, a1 in lineality):
            return None
        products = [den * a0 + num * a1 for a0, a1 in rays]
        if any(v < 0 for v in products):
            return None
        values = [den * a0 + num * a1 for a0, a1 in lines]
        best = min(values)
        argmin = tuple(i for i, v in enumerate(values) if v == best)
        tight_rays = tuple(i for i, v in enumerate(products) if v == 0)
        return argmin, tight_rays

    # signatures are constant between consecutive candidates, so probing the
    # exact midpoint of each open interval classifies it completely
    sigs = []
    for (n0, d0), (n1, d1) in zip(grid, grid[1:]):
        sig = signature(n0 * d1 + n1 * d0, 2 * d0 * d1)
        if sig is None:
            raise UnsolvableSegmentError("unsolvable on segment")
        sigs.append(sig)
    breakpoints, firsts = [grid[0]], [sigs[0][0][0]]
    for k in range(1, len(grid) - 1):
        if sigs[k - 1] != sigs[k]:
            breakpoints.append(grid[k])
            firsts.append(sigs[k][0][0])
    breakpoints.append(grid[-1])
    return breakpoints, firsts
