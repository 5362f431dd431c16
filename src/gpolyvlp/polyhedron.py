"""Polyhedral convex sets in halfspace and generator form, with exact conversions.

The workhorse is an incremental double description method whose core, _dd,
computes on Python ints.  It maintains a lineality basis next to the
extreme-ray list, so sets with nontrivial lineality (and cones that are
whole subspaces) need no special casing anywhere above this module.  Rows
are scaled to primitive integer vectors once; rays are primitive integer
representatives modulo the lineality space, kept reduced against an integer
echelon basis of it.  The core has two int entries: _cone_ints for a cone,
behind dd_cone and v_to_h, and _generators for a polyhedron, which takes
int rows [a | b] as _scaled_rows and the pipeline write them, behind
h_to_v.  Both keep their output in ints: rays are projected orthogonally
to the lineality space by integer steps, and every generator is a tuple
(*g, h) of ints that stands for the rational vector g / h.  A rational
view (dd_cone, _vrep) divides each coordinate once, so a caller that needs
ints reads them off the DD without a round trip through rationals.
v_to_h writes the polar cone's rows in ints, reduces its facet rows modulo
the implicit equalities in ints and divides once per output coordinate,
and assemble_vrep projects with the same integer steps, so no conversion
eliminates or projects in rationals.

Faces and DD adjacency are both decided by incidence, which rows are tight
on which generators: the DD carries each ray's zero set as a bitmask, and
_generators hands the zero sets of its generators on as the one incidence
of the polyhedron, so no row is dotted with a generator to find it again.
The face lattice (faces, _face_lattice) and every face tag (_tag) are read
off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .exact import (
    ONE,
    ZERO,
    Matrix,
    Rational,
    Vector,
    _integers,
    format_rational,
    parse_rational,
    rank,
)

__all__ = [
    "HRep",
    "VRep",
    "Face",
    "EmptyPolyhedronError",
    "FaceLimitError",
    "InternalInvariantError",
    "dd_cone",
    "h_to_v",
    "v_to_h",
    "contains",
    "vrep_contains",
    "map_polyhedron",
    "relative_interior_contains",
    "faces",
    "assemble_vrep",
    "canonical_vrep",
    "active_set",
]


class EmptyPolyhedronError(ValueError):
    """Raised when an operation needs a nonempty polyhedron."""


class FaceLimitError(RuntimeError):
    """Raised when a face search exceeds its cap: on faces() the faces of
    the lattice, on the set routines the rays held by W's DD (_dd)."""


class InternalInvariantError(RuntimeError):
    """A self-check on a computed result failed."""


def _json_dim(obj: dict) -> int:
    """The "dim" field of a JSON object: a positive integer, never a boolean."""
    dim = obj.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("dim must be a positive integer")
    return dim


@dataclass(frozen=True, slots=True)
class HRep:
    """Halfspace representation: eq_lhs x = eq_rhs, ineq_lhs x <= ineq_rhs."""

    dim: int
    eq_lhs: Matrix
    eq_rhs: Vector
    ineq_lhs: Matrix
    ineq_rhs: Vector

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if self.eq_lhs.cols != self.dim or self.ineq_lhs.cols != self.dim:
            raise ValueError("constraint row width differs from ambient dimension")
        if self.eq_lhs.rows != self.eq_rhs.dim:
            raise ValueError("equality lhs/rhs row counts differ")
        if self.ineq_lhs.rows != self.ineq_rhs.dim:
            raise ValueError("inequality lhs/rhs row counts differ")

    @staticmethod
    def of(dim: int, eqs: Iterable = (), ineqs: Iterable = ()) -> "HRep":
        """Build from (row, rhs) pairs."""
        eqs = list(eqs)
        ineqs = list(ineqs)
        return HRep(
            dim,
            Matrix.of([list(r) for r, _ in eqs], cols=dim),
            Vector.of([b for _, b in eqs]),
            Matrix.of([list(r) for r, _ in ineqs], cols=dim),
            Vector.of([b for _, b in ineqs]),
        )

    @staticmethod
    def universe(dim: int) -> "HRep":
        return HRep.of(dim)

    @staticmethod
    def infeasible(dim: int) -> "HRep":
        """Canonical empty set: 0 <= -1."""
        return HRep.of(dim, ineqs=[([0] * dim, -1)])

    def eq_rows(self) -> list:
        return [(self.eq_lhs.row(i), self.eq_rhs[i]) for i in range(self.eq_lhs.rows)]

    def ineq_rows(self) -> list:
        return [
            (self.ineq_lhs.row(i), self.ineq_rhs[i]) for i in range(self.ineq_lhs.rows)
        ]

    def with_extra_eqs(self, extra: Iterable) -> "HRep":
        return HRep.of(self.dim, self.eq_rows() + list(extra), self.ineq_rows())

    def to_json_obj(self) -> dict:
        def rows(m: Matrix):
            return [[format_rational(v) for v in row] for row in m.entries]

        return {
            "dim": self.dim,
            "eq": [rows(self.eq_lhs), [format_rational(v) for v in self.eq_rhs]],
            "ineq": [rows(self.ineq_lhs), [format_rational(v) for v in self.ineq_rhs]],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "HRep":
        if not isinstance(obj, dict):
            raise ValueError("polyhedron must be a JSON object")
        dim = _json_dim(obj)

        def block(name):
            pair = obj.get(name, [[], []])
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"{name} must be a [rows, rhs] pair")
            lhs_raw, rhs_raw = pair
            lhs = [
                [parse_rational(v) for v in _as_list(row, f"{name} row")]
                for row in _as_list(lhs_raw, f"{name} rows")
            ]
            rhs = [parse_rational(v) for v in _as_list(rhs_raw, f"{name} rhs")]
            if len(lhs) != len(rhs):
                raise ValueError(f"{name} lhs/rhs row counts differ")
            if any(len(r) != dim for r in lhs):
                raise ValueError(f"{name} row width differs from dim")
            return Matrix.of(lhs, cols=dim), Vector.of(rhs)

        eq_lhs, eq_rhs = block("eq")
        ineq_lhs, ineq_rhs = block("ineq")
        return HRep(dim, eq_lhs, eq_rhs, ineq_lhs, ineq_rhs)


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array")
    return value


@dataclass(frozen=True, slots=True)
class VRep:
    """Generator representation: conv(points) + cone(rays) + span(lineality).

    Canonical objects keep points and rays orthogonal to the lineality span,
    rays scaled so the first nonzero coordinate is +-1, generators sorted,
    and the lineality basis in reduced echelon form.  The represented set is
    empty iff points is empty, in which case rays and lineality are empty too.
    """

    dim: int
    points: tuple
    rays: tuple
    lineality: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        for g in self.points + self.rays + self.lineality:
            if g.dim != self.dim:
                raise ValueError("generator dimension differs from ambient dimension")
        for g in self.rays + self.lineality:
            if g.is_zero():
                raise ValueError("zero vector is not a valid ray or lineality generator")
        if not self.points and (self.rays or self.lineality):
            raise ValueError("an empty set carries no rays or lineality")
        if self.lineality:
            m = Matrix.from_rows(list(self.lineality), cols=self.dim)
            if rank(m) != len(self.lineality):
                raise ValueError("lineality vectors must be linearly independent")

    @staticmethod
    def empty(dim: int) -> "VRep":
        return VRep(dim, (), (), ())

    @property
    def is_empty(self) -> bool:
        return not self.points

    def generators(self) -> list:
        return list(self.points) + list(self.rays) + list(self.lineality)

    def to_json_obj(self) -> dict:
        def grp(vs):
            return [[format_rational(c) for c in v] for v in vs]

        return {
            "dim": self.dim,
            "points": grp(self.points),
            "rays": grp(self.rays),
            "lineality": grp(self.lineality),
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "VRep":
        if not isinstance(obj, dict):
            raise ValueError("generator form must be a JSON object")
        dim = _json_dim(obj)

        def grp(name):
            return [
                Vector.of([parse_rational(c) for c in _as_list(row, f"{name} vector")])
                for row in _as_list(obj.get(name, []), name)
            ]

        return VRep(dim, tuple(grp("points")), tuple(grp("rays")), tuple(grp("lineality")))


@dataclass(frozen=True, slots=True)
class Face:
    """A nonempty face of an HRep, tagged by its maximal active inequality set."""

    active_ineq: tuple
    geometry: VRep


# ---------------------------------------------------------------------------
# double description


def dd_cone(dim: int, eq_rows: Sequence[Vector], ineq_rows: Sequence[Vector]):
    """Generators of the cone {z : e.z = 0 for all e, a.z <= 0 for all a}.

    Returns (lineality_basis, extreme_rays): the basis in reduced row echelon
    form, the rays canonical modulo the lineality span: orthogonal to it,
    scaled to a +-1 leading coordinate, deduplicated and sorted.  The rows
    are scaled to ints once, and the result is the rational view of
    _cone_ints.
    """
    for r in list(eq_rows) + list(ineq_rows):
        if r.dim != dim:
            raise ValueError("constraint row dimension mismatch")
    lin, rays = _cone_ints(
        dim,
        [_integers(e.coords)[0] for e in eq_rows],
        [_integers(a.coords)[0] for a in ineq_rows],
    )
    return [_view(l) for l in lin], [_view(r) for r in rays]


def _cone_ints(dim: int, eq_rows: Sequence, ineq_rows: Sequence) -> tuple:
    """dd_cone on int rows, with int output: (lineality, rays) as tuples of
    int generators (*g, h), g / h the vector dd_cone returns.  A lineality
    vector is a primitive echelon row g with h its pivot entry, a ray the
    primitive projection g of a _dd ray with h the absolute value of its
    leading entry; both in dd_cone's order."""
    lin, rays = _dd(dim, eq_rows, ineq_rows)
    rays = _in_order([(r + (_lead(r),), None) for r in _project(rays, lin)])
    return _echelon_basis(lin), tuple([r for r, _ in rays])


def _dd(dim: int, eq_rows: Sequence, ineq_rows: Sequence, cap: Optional[int] = None) -> tuple:
    """The integer core of the double description: generators of the cone
    {z : e.z = 0, a.z <= 0} for int rows e in eq_rows and a in ineq_rows.

    Returns (lineality, rays): a basis of the lineality space L as a list
    of primitive int vectors, and a dict from one primitive representative
    of every extreme ray class modulo L, neither projected nor scaled, to
    its zero set (see below), the rows of ineq_rows tight on it.

    Every row is divided once by the gcd of its entries, which changes no
    sign.  L is held as primitive integer vectors, each with a pivot column
    where it is positive and every other basis vector is zero; it starts as
    the kernel of the equalities as _kernel_int gives it, already in that
    form (the identity without equalities).  Rays are primitive
    integer representatives modulo L that are zero on every pivot column.
    Each class r + L has exactly one such representative, so rays dedupe on
    it, and every processed row vanishes on L, so it gives the same signs
    and zero sets as any other representative.

    Inequalities are inserted incrementally.  When a new row a cuts L, one
    basis vector r0 (signed so that a.r0 < 0) turns into a ray, and every
    other vector v, basis or ray, becomes the positive combination
    (-a.r0) v + (a.v) r0 on the row's hyperplane.  r0 is zero on the other
    pivot columns, so the results are already reduced modulo the new L.
    Otherwise the classic step combines adjacent rays p and n across the
    hyperplane as (a.p) n - (a.n) p.

    Each ray carries its zero set as a bitmask (bit i: ineq_rows[i] is tight
    on it).  Every processed row is <= 0 on every ray, so the combination of
    rays p and n is tight exactly on zeros[p] & zeros[n] plus the new row.
    Adjacency is decided combinatorially on that common zero set (see
    _adjacent): no rank is computed.

    cap, when given, bounds the rays held, where the method blows up (Avis,
    Bremner & Seidel 1997): they are counted after each cut of L and each
    positive ray's combinations, never per pair; more raise FaceLimitError.
    """
    eqs = [_primitive(e) for e in eq_rows]
    ineqs = [_primitive(a) for a in ineq_rows]
    L = _kernel_int(eqs, dim)
    rays: dict = {}  # ray -> zero set over the rows inserted so far

    for i, a in enumerate(ineqs):
        bit = 1 << i
        if not any(a):
            rays = {r: z | bit for r, z in rays.items()}
            continue

        cut = next((k for k, (_, l) in enumerate(L) if _dot(a, l)), None)
        if cut is not None:
            # the row cuts the lineality space: l0 becomes a ray, tight on
            # every earlier row; earlier rows vanish on l0, so the moved rays
            # keep their zero sets and gain the new row
            _, l0 = L.pop(cut)
            d0 = _dot(a, l0)
            r0 = l0 if d0 < 0 else tuple([-x for x in l0])
            f0 = abs(d0)

            def onto(v):
                dv = _dot(a, v)
                if not dv:
                    return v
                return _primitive([f0 * x + dv * y for x, y in zip(v, r0)])

            L = [(c, onto(l)) for c, l in L]
            moved = {}
            for r, z in rays.items():
                moved.setdefault(onto(r), z | bit)
            moved.setdefault(r0, bit - 1)
            rays = moved
            if cap is not None and len(rays) > cap:
                raise FaceLimitError(f"face search exceeded the cap of {cap} rays")
            continue

        old = list(rays.items())
        vals = [_dot(a, r) for r, _ in old]
        pos = [k for k, v in enumerate(vals) if v > 0]
        if not pos:
            rays = {r: z | bit if v == 0 else z for (r, z), v in zip(old, vals)}
            continue
        neg = [k for k, v in enumerate(vals) if v < 0]
        zeros = [z for _, z in old]
        rays = {r: z | bit if v == 0 else z for (r, z), v in zip(old, vals) if v <= 0}
        for p in pos:
            rp, vp, zp = old[p][0], vals[p], zeros[p]
            for n in neg:
                common = zp & zeros[n]
                if not _adjacent(zeros, common):
                    continue
                vn = vals[n]
                r_new = _primitive([vp * x - vn * y for x, y in zip(old[n][0], rp)])
                rays.setdefault(r_new, common | bit)
            if cap is not None and len(rays) > cap:
                raise FaceLimitError(f"face search exceeded the cap of {cap} rays")

    lin = [l for _, l in L]
    gens = list(rays) + lin
    if any(_dot(e, g) for e in eqs for g in gens):
        raise InternalInvariantError("generator violates an equality row")
    if any(_dot(a, r) > 0 for a in ineqs for r in rays) or any(
        _dot(a, l) for a in ineqs for l in lin
    ):
        raise InternalInvariantError("generator violates an inequality row")
    return lin, rays


def _adjacent(zeros: list, common: int) -> bool:
    """Whether two extreme rays of a cone, whose zero sets meet in common,
    are adjacent, given the zero sets of all its extreme rays, the two
    included.  The smallest face holding both is cut out by the rows in
    common, and its extreme rays are those whose zero set contains common;
    the two rays span a 2-face (modulo the lineality) exactly when no third
    ray is among them (Fukuda & Prodon 1996).  This is the rank test
    rank(rows in common) = dim - dim L - 2 without the rank."""
    hits = 0
    for z in zeros:
        if z & common == common:
            hits += 1
            if hits > 2:
                return False
    return True


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _primitive(v) -> tuple:
    """The integer vector v divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(v) if g <= 1 else tuple([x // g for x in v])


def _echelon_int(rows) -> list:
    """Reduced echelon form of integer rows, fraction-free: rows combine
    with integer multipliers and are divided by the gcd of their entries.

    Returns (pivot column, primitive row) pairs, one per unit of rank: each
    row is positive at its pivot column and every other row is zero there.
    """
    out = []
    for r in rows:
        for c, e in out:
            f = r[c]
            if f:
                g = e[c]
                r = [g * x - f * y for x, y in zip(r, e)]
        c = next((j for j, x in enumerate(r) if x), None)
        if c is None:
            continue
        r = _primitive([-x for x in r] if r[c] < 0 else r)
        g = r[c]
        out = [
            (k, _primitive([g * x - e[c] * y for x, y in zip(e, r)])) if e[c] else (k, e)
            for k, e in out
        ]
        out.append((c, r))
    return out


def _kernel_int(rows: list, dim: int) -> list:
    """A basis of the null space of the int rows, as (f, primitive int
    vector) pairs: one per free column f of their reduced echelon form, the
    vector x_f = D and x_c = -D e[f] / e[c] on the pivot column c of each
    echelon row e, with D the lcm of the pivot entries, divided by its gcd.

    Each vector is positive at its free column f and every other one is
    zero there, which is the form in which _dd keeps a lineality basis, so
    it takes the kernel as it is; without rows it is the identity
    [(i, e_i)].  x / x[f] is the canonical kernel vector of
    exact.kernel_basis, the one with x_f = 1."""
    echelon = _echelon_int(rows)
    pivots = {c for c, _ in echelon}
    D = lcm(*[e[c] for c, e in echelon])
    basis = []
    for f in range(dim):
        if f in pivots:
            continue
        v = [0] * dim
        v[f] = D
        for c, e in echelon:
            v[c] = -e[f] * (D // e[c])
        basis.append((f, _primitive(v)))
    return basis


def _project(vectors: list, lin: list) -> list:
    """The int vectors projected orthogonally to span(lin), each as a
    primitive positive multiple of its projection.

    lin is made orthogonal first, by the same integer step v -> (q.q) v -
    (v.q) q against each earlier vector q, which is the rejection from q
    times q.q > 0; against an orthogonal basis the rejections in turn are
    the projection."""
    basis = []
    for l in lin:
        q = _reject(l, basis)
        basis.append((q, _dot(q, q)))
    return [_reject(v, basis) for v in vectors]


def _reject(v, basis: list):
    for q, qq in basis:
        dv = _dot(v, q)
        if dv:
            v = _primitive([qq * x - dv * y for x, y in zip(v, q)])
    return v


def _lead(r) -> int:
    """The absolute value of the leading nonzero entry of the int vector r."""
    lead = next((abs(x) for x in r if x), None)
    if lead is None:
        raise InternalInvariantError("zero vector produced as an extreme ray")
    return lead


def _direction(r) -> Vector:
    """The int vector r as a rational vector with a +-1 leading coordinate."""
    return _view(tuple(r) + (_lead(r),))


def _view(v) -> Vector:
    """The rational vector g / h of the int generator v = (*g, h), one
    rational per coordinate.  Zero entries, and unit entries over h = 1,
    share the immutable ZERO and ONE, as exact.kernel_basis does."""
    h = v[-1]
    if h == 1:
        return Vector(tuple([ZERO if x == 0 else ONE if x == 1 else Rational(x) for x in v[:-1]]))
    return Vector(tuple([Rational(x, h) if x else ZERO for x in v[:-1]]))


def _echelon_basis(lin: list) -> tuple:
    """The reduced row echelon basis of span(lin) as int generators: each
    integer echelon row e, in pivot order, as (*e, e[c]) with c its pivot
    column, which stands for e / e[c]."""
    return tuple([e + (e[c],) for c, e in sorted(_echelon_int(lin))])


def _in_order(items: list) -> list:
    """(generator, data) pairs sorted by the rational vectors g / h of the
    int generators (*g, h): brought to the common denominator H of all of
    them, g H / h compares as g / h does."""
    H = lcm(*[v[-1] for v, _ in items])
    items.sort(key=lambda item: [x * (H // item[0][-1]) for x in item[0][:-1]])
    return items


# ---------------------------------------------------------------------------
# conversions


def assemble_vrep(dim: int, points: list, rays: list, lineality: list) -> VRep:
    """Light canonical assembly: echelon lineality basis, generators projected
    orthogonal to it, rays normalized, duplicates dropped, everything sorted.
    Does not remove hull-redundant generators; see canonical_vrep for that.

    The projection runs in ints, as in _generators: a point g / h is
    projected as the ray (g, h) against the lineality lifted with a 0, so
    its last entry stays a positive multiple of h."""
    basis = _echelon_basis([_integers(l.coords)[0] for l in lineality])
    echelon = [e[:-1] for e in basis]
    lifted = [e + (0,) for e in echelon]
    pts = _project([_int_vector(p) for p in points], lifted)
    rs = _project([_integers(r.coords)[0] for r in rays], echelon)
    pts = sorted(set(_view(p).coords for p in pts))
    rs = sorted(set(_direction(r).coords for r in rs if any(r)))
    return VRep(
        dim,
        tuple(Vector(p) for p in pts),
        tuple(Vector(r) for r in rs),
        tuple([_view(e) for e in basis]),
    )


def h_to_v(P: HRep) -> VRep:
    """Generator form of an HRep via double description on the homogenization."""
    return _h_to_v_rows(P.dim, *_scaled_rows(P))


def _scaled_rows(P: HRep) -> tuple:
    """The rows of an HRep scaled to integers: (eqs, ineqs), each a list of
    (ints, scale) with ints the row [a | b] times scale, the lcm of its
    denominators."""
    eqs = [_integers(a + (b,)) for a, b in zip(P.eq_lhs.entries, P.eq_rhs.coords)]
    ineqs = [_integers(a + (b,)) for a, b in zip(P.ineq_lhs.entries, P.ineq_rhs.coords)]
    return eqs, ineqs


def _h_to_v_rows(d: int, eqs: Sequence, ineqs: Sequence) -> VRep:
    """h_to_v of {x : a.x = b for eqs, a.x <= b for ineqs}, given as int
    rows (ints [a | b], scale) as _scaled_rows and the pipeline write them:
    the rational view of _generators."""
    return _vrep(d, _generators(d, eqs, ineqs))


# _Generators is a plain slotted class: a dataclass generates its methods
# with exec when the module is imported.
class _Generators:
    """The generator form of a polyhedron in ints, in the order of the VRep
    that _vrep makes of it: points, rays and a lineality basis, each
    generator a tuple (*g, h) of ints that stands for the rational vector
    g / h.  A point is the projected ray (g, h) of the homogenized cone that
    it comes from, h > 0 its homogenizing coordinate; a ray is a projected
    primitive g with h the absolute value of its leading entry, and a
    lineality vector a primitive echelon row g with h its pivot entry.  g
    and h have no common factor, so h is the lcm of the denominators of
    g / h.  An empty polyhedron has no generators at all.

    tight is the incidence with the inequality rows the set was given by,
    read off the DD's zero sets: one mask per row, bit k set when the row
    is tight on points[k] and bit len(points) + k when it is tight on
    rays[k].  Row (a | b) is tight on the point g / h when a.g = b h, and
    on the ray g / h when a.g = 0."""

    __slots__ = ("points", "rays", "lineality", "tight")

    def __init__(self, points: tuple, rays: tuple, lineality: tuple, tight: tuple):
        self.points, self.rays, self.lineality, self.tight = points, rays, lineality, tight


def _generators(d: int, eqs: Sequence, ineqs: Sequence) -> _Generators:
    """The int generators of {x : a.x = b for eqs, a.x <= b for ineqs},
    given as int rows (ints [a | b], scale); the scale plays no part.

    The cone of the homogenization, rows [a | -b] and -t <= 0, goes through
    the integer core _dd, and its rays are projected orthogonally to the
    lineality in ints: a ray r with t = r[-1] > 0 is the point r[:-1] / t,
    one with t = 0 is a ray of the set, and the lineality basis is the
    reduced echelon form of the integer one.  No rational is built.

    The incidence is the DD's zero sets: every row vanishes on the
    lineality, so a projected ray keeps the zero set of its DD ray, and
    row [a | -b] is zero on (g, t) exactly when a.g = b t, which is the
    point g / t on the row's boundary, or for t = 0 the ray g along it.
    Bit i + 1 of a zero set is ineqs[i], past the row -t <= 0.
    """
    lin, rays = _homogenized_dd(d, eqs, ineqs)
    if not any(r[-1] > 0 for r in rays):
        return _Generators((), (), (), ())
    if any(l[-1] for l in lin):
        raise InternalInvariantError("homogenization lineality leaked a nonzero last coordinate")
    points, free_rays = [], []
    for r, zeros in zip(_project(rays, lin), rays.values()):
        if r[-1] > 0:
            points.append((r, zeros))
        else:
            # t < 0 is impossible: the homogenization row forbids it
            g = r[:-1]
            free_rays.append((g + (_lead(g),), zeros))
    points, free_rays = _in_order(points), _in_order(free_rays)
    zero_sets = [z for _, z in points + free_rays]
    tight = tuple(
        [
            sum([1 << k for k, z in enumerate(zero_sets) if z >> i & 1])
            for i in range(1, len(ineqs) + 1)
        ]
    )
    # the echelon rows end in the homogenizing coordinate 0, dropped here
    lineality = tuple([e[:-2] + e[-1:] for e in _echelon_basis(lin)])
    return _Generators(
        tuple([v for v, _ in points]), tuple([v for v, _ in free_rays]), lineality, tight
    )


def _vrep(d: int, gens: _Generators) -> VRep:
    """The rational view of int generators: each g / h as a Vector, one
    rational per coordinate."""
    if not gens.points:
        return VRep.empty(d)
    return VRep(
        d,
        tuple([_view(v) for v in gens.points]),
        tuple([_view(v) for v in gens.rays]),
        tuple([_view(v) for v in gens.lineality]),
    )


def _homogenized_dd(d: int, eqs: Sequence, ineqs: Sequence, cap: Optional[int] = None) -> tuple:
    """_dd of the homogenization of {x : a.x = b for eqs, a.x <= b for
    ineqs}, int rows as _h_to_v_rows takes them: the cone of (x, t) with
    rows [a | -b] and -t <= 0, its rays capped by cap as _dd caps them.
    Returns (lineality, rays) as _dd does; a ray r with r[-1] > 0 stands
    for the point r[:-1] / r[-1] modulo the lineality, one with r[-1] == 0
    for a ray of the set."""
    eq_lift = [[*e[:d], -e[d]] for e, _ in eqs]
    ineq_lift = [[0] * d + [-1]] + [[*a[:d], -a[d]] for a, _ in ineqs]
    return _dd(d + 1, eq_lift, ineq_lift, cap)


def v_to_h(V: VRep) -> HRep:
    """Halfspace form of a VRep via double description of the polar cone.

    Implicit equalities surface as the polar's lineality, so the inequality
    rows returned are exactly the facets; rows supported only at infinity are
    recognized by never being tight at an input point and dropped.

    The polar cone's rows are the generators in ints, a point g / h as
    (g, h) and a ray or lineality vector as (g, 0), and _cone_ints gives its
    generators in ints.  The equality rows are the integer echelon form of
    the polar's lineality with its last entry negated, and each facet row
    is reduced modulo them and scaled to a +-1 leading coefficient in ints;
    the one rational step is the division of each output coordinate.
    """
    d = V.dim
    if V.is_empty:
        return HRep.infeasible(d)
    points = [_int_vector(u) for u in V.points]
    polar_eqs = [[*_integers(w.coords)[0], 0] for w in V.lineality]
    polar_ineqs = points + [[*_integers(r.coords)[0], 0] for r in V.rays]
    lin, rays = _cone_ints(d + 1, polar_eqs, polar_ineqs)

    # an int generator (*g, h) ends in g's last entry, the polar's eta, then h
    equalities = _echelon_int([[*s[:d], -s[d]] for s in lin])
    if any(c == d for c, _ in equalities):
        raise InternalInvariantError("inconsistent implicit equalities for a nonempty set")
    eq_rows = [_row(e + (e[c],), d) for c, e in sorted(equalities)]

    ineq_rows = []
    for g in rays:
        g = g[:-1]
        if not any(g[:d]):
            continue
        if not any(_dot(g, u) == 0 for u in points):
            continue  # supporting only the recession part, no facet of the set
        # reduce modulo the equality rows so pivot coordinates drop out
        aug = [*g[:d], -g[d]]
        for c, e in equalities:
            f = aug[c]
            if f:
                aug = [e[c] * x - f * y for x, y in zip(aug, e)]
        if not any(aug[:d]):
            raise InternalInvariantError("facet row vanished modulo the equality rows")
        ineq_rows.append(_row(tuple(aug) + (_lead(aug),), d))
    ineq_rows.sort(key=lambda rb: (rb[0].coords, rb[1]))
    return HRep.of(d, eq_rows, ineq_rows)


def _row(v: tuple, d: int) -> tuple:
    """The row (a, b) of the int generator v = (*a, b, h), a rational view."""
    coords = _view(v).coords
    return Vector(coords[:d]), coords[d]


def canonical_vrep(V: VRep) -> VRep:
    """Fully canonical, irredundant generator form of the same set."""
    return h_to_v(v_to_h(V))


def contains(P: HRep, x: Vector) -> bool:
    """Membership in an HRep."""
    if x.dim != P.dim:
        raise ValueError("point dimension differs from ambient dimension")
    for row, b in P.eq_rows():
        if row.dot(x) != b:
            return False
    for row, b in P.ineq_rows():
        if row.dot(x) > b:
            return False
    return True


def vrep_contains(V: VRep, x: Vector) -> bool:
    """Membership in a VRep, by converting to halfspace form."""
    if x.dim != V.dim:
        raise ValueError("point dimension differs from ambient dimension")
    if V.is_empty:
        return False
    return contains(v_to_h(V), x)


def map_polyhedron(T: Matrix, V: VRep) -> VRep:
    """Image of a VRep under a linear map, re-canonicalized."""
    if T.cols != V.dim:
        raise ValueError("map width differs from ambient dimension")
    if T.rows < 1:
        raise ValueError("map must have a positive target dimension")
    if V.is_empty:
        return VRep.empty(T.rows)
    pts = [T.matvec(p) for p in V.points]
    rays = [w for w in (T.matvec(r) for r in V.rays) if not w.is_zero()]
    lin = [w for w in (T.matvec(l) for l in V.lineality) if not w.is_zero()]
    return canonical_vrep(assemble_vrep(T.rows, pts, rays, lin))


def relative_interior_contains(V: VRep, x: Vector) -> bool:
    """Membership in the relative interior: on the affine hull and strictly
    inside every facet inequality."""
    if x.dim != V.dim:
        raise ValueError("point dimension differs from ambient dimension")
    if V.is_empty:
        return False
    H = v_to_h(V)
    for row, b in H.eq_rows():
        if row.dot(x) != b:
            return False
    for row, b in H.ineq_rows():
        if row.dot(x) >= b:
            return False
    return True


def active_set(P: HRep, geom: VRep) -> tuple:
    """Indices of the inequality rows tight on the whole of geom."""
    out = []
    for i, (row, b) in enumerate(P.ineq_rows()):
        if all(row.dot(p) == b for p in geom.points) and all(
            row.dot(g) == 0 for g in list(geom.rays) + list(geom.lineality)
        ):
            out.append(i)
    return tuple(out)


def faces(P: HRep, max_faces: Optional[int] = None) -> list:
    """All nonempty faces of P, each tagged by its maximal active set.

    One double description of P (_generators), whose zero sets are the
    generator-constraint incidence, then the face lattice is read off that
    incidence (_face_lattice): a face keeps P's lineality and is generated
    by the points and rays of P tight on its rows.  Exponential in the
    number of inequalities in the worst case; intended for small systems
    (roughly 20 inequalities or fewer), with max_faces as a hard stop.
    """
    gens = _generators(P.dim, *_scaled_rows(P))
    if not gens.points:
        raise EmptyPolyhedronError("empty polyhedron")
    geom = _vrep(P.dim, gens)
    n_pts = len(geom.points)
    out = []
    for active, G in _face_lattice(gens, max_faces):
        points = tuple([p for k, p in enumerate(geom.points) if G >> k & 1])
        rays = tuple([r for k, r in enumerate(geom.rays, n_pts) if G >> k & 1])
        out.append(Face(active, VRep(P.dim, points, rays, geom.lineality)))
    return out


def _tag(tight: tuple, mask: int) -> tuple:
    """The rows tight on every generator in mask, for the incidence tight
    of _Generators: the rows whose incidence mask contains mask.  A mask is
    a face when it holds a point and equals the AND of its tag's masks (all
    generators for an empty tag), and then the tag is the face's maximal
    active set."""
    return tuple([i for i, t in enumerate(tight) if t & mask == mask])


def _face_lattice(gens: _Generators, max_faces: Optional[int]) -> list:
    """The nonempty faces of the polyhedron whose int generators are gens,
    as (tag, generator mask) pairs sorted by tag, read off gens.tight.  Bit
    k of a mask stands for gens.points[k], and bit len(gens.points) + k for
    gens.rays[k].

    Lattice search from the whole set down: a child adds one more tight
    row, so its mask is its parent's AND that row's, and it is a face when
    it holds a point.  Duplicates merge on the canonical tag (_tag).  The
    whole lattice is built before anything is returned, so max_faces
    counts every face whatever the caller does with them, the polyhedron
    itself included.
    """
    tight = gens.tight

    def check_cap():
        if max_faces is not None and len(found) > max_faces:
            raise FaceLimitError(f"face enumeration exceeded the cap of {max_faces}")

    everything = (1 << (len(gens.points) + len(gens.rays))) - 1
    point_bits = (1 << len(gens.points)) - 1
    found = {_tag(tight, everything): everything}
    check_cap()
    frontier = list(found)
    while frontier:
        nxt = []
        for S in frontier:
            for i in range(len(tight)):
                if i in S:
                    continue
                G = found[S] & tight[i]
                if not G & point_bits:
                    continue
                canon = _tag(tight, G)
                if canon not in found:
                    found[canon] = G
                    check_cap()
                    nxt.append(canon)
        frontier = nxt

    return sorted(found.items())


def _int_vector(v: Vector) -> tuple:
    """The rational vector v as an int generator (*g, h): g = v h for h the
    lcm of its denominators."""
    ints, h = _integers(v.coords)
    return (*ints, h)

