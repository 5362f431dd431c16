"""Linear vector optimization over a polyhedral ordering cone.

A problem bundles a rational objective matrix M, a feasible polyhedron D in
halfspace form, and an ordering cone K given by outer normals.  The cone may
have a nontrivial lineality space, so "efficient" means: no feasible x makes
M u - M x land in K outside the lineality space of K.  "Weakly efficient"
replaces the punctured cone with the topological interior of K.

The module computes membership tests, the weight region of a face (the dual
weights that scalarize the whole face into the argmin over D; a witness is
its relative interior point, a face test asks whether it is nonempty), the
efficient and weakly efficient sets as unions of maximal faces of D, and
piecewise-linear connectivity certificates.  Everything is exact.

Witnesses come first.  By the efficiency criterion a verified weight
(ri(K*) for efficiency, K* \\ {0} for weak efficiency) that puts u in the
argmin over D certifies u by itself, so scalarize_witness, weak_witness
and connect run no efficiency test of their own; only an empty weight
region runs the primal slack program of is_efficient /
is_weakly_efficient, to confirm that u is dominated.  No LP here reads an
optimal point.  The slack programs and the argmin re-checks all run on
lp._cone_descent, the simplex for homogeneous cone programs, and none
trusts its pivots: the core checks its own answer in ints, a dual
certificate (Farkas multipliers on the tight rows) for a bounded program
or the descent of an edge for an unbounded one.  Both kinds share one
body: _efficient behind the two tests, and _witness behind the two
witnesses and connect.  Where K alone decides every point of D (_trivial:
strict and K a subspace, all; weak and int K empty, all; weak and K = R^q,
none), the tests run no program, the witness is the zero weight, whose
argmin re-check is an int test that its cost is constant on D
(_verify_constant), and the set routines return all of D or nothing.

A witness is certified once per face.  By the scalarization formula one
weight puts a whole face in the argmin, and the weight _witness works out
is a function of the kind and of the rows tight at u alone: the weight
region, its relative interior point, the admissibility check and the
argmin re-check read nothing else of u.  So a problem keeps each weight
that passed its re-check, keyed by (kind, tight rows)
(VLPProblem._face_weights), and a later query on the same face returns
those bits and the certificate that proved them.  Nothing that raised is
kept, and the efficiency tests never read the kept weights, so the slack
program stays an independent primal route.

The certificates of a point u are posed on the tangent cone
T_D(u) = cone(D - u), cut out by D's equalities and the inequalities tight
at u; the rows slack at u play no part, and no point query builds a DD of
D.  D is convex, so a direction d of T_D(u) has u + e d in D for small
e > 0.  The slack programs ask whether some d has -M d in K \\ l(K)
(strict) or in int K (weak), sets closed under positive scaling, which
holds exactly when some x in D dominates u.  They are cone programs, with
no <= 1 rows on their slacks: bounded, with optimum 0, exactly when u is
(weakly) efficient, and unbounded otherwise.  The argmin re-check of a
weight c asks whether c.d >= 0 on T_D(u), which holds exactly when u
minimizes c.x over D; it certifies the witnesses and the breakpoints of
connect's paths.  For the same reason a witness's weight region is
written over T_D(u): the admissible y with y.M d >= 0 on T's extreme rays
and = 0 on its lineality, from one small DD of the tight rows.  All of
them are written in one
equality-free frame per problem: d = B z over the kernel of D's
equalities, B its int basis (the identity without equalities), with z
free, one simplex column per coordinate.  D's inequality rows, the cone
rows and M are multiplied by B once (_tangent_frame), the rows tight at u
come from the dot products that check u against D, and every cost is an
int vector, so no per-point program has an equality row, a right-hand side
other than 0 or a phase one.

A problem has one integer set-up, each part a cached property built on
first use by the programs that read it, from the ints the DD cores
produce: D's scaled rows (_d_rows), D's generators and their row incidence
from the one DD of D (_d_generators, each point or ray a tuple (*g, h) of
ints standing for g / h; read by the set routines and by connect's
breakpoints only), the split K = Y0 + K1 from one integer kernel and one
DD of K (_cone_split), S M (_image_rows) and S (-M^T n_j) over the cone
normals (_weak_image_rows), an int product of the normals with S M, and
the frame of the tangent-cone programs (_tangent_frame), D's inequality
rows and these rows times the int kernel basis of D's equalities.
feasible_vrep and decomposition are rational views of the same results,
built only when asked for, and the certificates and set routines read
neither: every weight they emit is checked against the int split by
cone._dual_weight, and a witness is worked out in ints from its region's
int generators, with a rational built only for each coordinate it returns.

Every LP, and the DDs of every witness's tangent cone and weight region,
are written as int rows straight from the set-up; membership in D is
tested on the same ints.  Each int row carries its factor over the
rational row it stands for, so the simplex sees the program the rational
formula describes.

The set routines solve no LP per face.  By geometric duality (Heyde &
Loehne, SIAM J. Optim. 2008), taken here over the ri(K*) weights of a
non-pointed K, the argmin faces of all admissible weights at once are read
off one DD of the lifted weight polyhedron W of pairs (y, t) with y
admissible and t <= y.M x on D: each point of W is tight on exactly the
generators of its argmin face.  The maximal tight masks are the maximal
faces of the set.  Each is tagged, and checked to be a face, from D's
row/generator incidence; no face lattice is walked.  A face cap bounds the
rays that W's DD holds, where the method's blow-up lives, and not D's
faces.  W's points stay the int rays of its homogenized cone, and the
weight-space images of D's generators are int products of the image rows
with D's int generators, over one common denominator.

connect solves no LP over D either.  Its weights stay the int generators
of the endpoint witnesses and of their interpolations, its costs are int
products with the image rows, and its breakpoints are worked out over D's
int generators, which also name the first argmin point of each interval.
The path is certified in the tangent-cone frame: the witnesses' re-checks
cover t = 0 and t = 1, one argmin re-check per interior breakpoint covers
the point named there, and every segment's other end is compared by an
exact int dot product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .cone import ConeDecomposition, ConeH, _decomposition, _dual_weight, _split
from .exact import Matrix, Rational, Vector, _integers, complement_projector, rat
from .lp import LPStatus, _breakpoints, _cone_descent, _solve_rows
from .polyhedron import (
    Face,
    HRep,
    InternalInvariantError,
    VRep,
    _Generators,
    _cone_ints,
    _dot,
    _echelon_int,
    _generators,
    _homogenized_dd,
    _int_vector,
    _kernel_int,
    _primitive,
    _scaled_rows,
    _tag,
    _view,
    _vrep,
    map_polyhedron,
)

__all__ = [
    "SetKind",
    "VLPProblem",
    "EfficientSet",
    "PathCertificate",
    "InfeasiblePointError",
    "NotEfficientError",
    "InternalInvariantError",
    "is_efficient",
    "is_weakly_efficient",
    "scalarize_witness",
    "weak_witness",
    "efficient_set",
    "weakly_efficient_set",
    "face_scalarizable",
    "connect",
]


class InfeasiblePointError(ValueError):
    """The queried point does not belong to the feasible set."""


class NotEfficientError(ValueError):
    """The queried point fails the efficiency precondition."""


class SetKind(enum.Enum):
    EFFICIENT = "efficient"
    WEAKLY_EFFICIENT = "weakly-efficient"


@dataclass(frozen=True)
class VLPProblem:
    """A linear vector optimization problem min_K { M x : x in D }.

    objective:    q x n rational matrix M.
    feasible_set: the polyhedron D, in halfspace form, with dim n.
    cone:         the ordering cone K in R^q, in outer-normal form.

    The problem's integer set-up is built once, on first use, and so is one
    verified witness weight per kind and face of D (_face_weights), which
    later witness queries on that face return.
    """

    objective: Matrix
    feasible_set: HRep
    cone: ConeH

    def __post_init__(self):
        q, n = self.objective.shape
        if self.feasible_set.dim != n:
            raise ValueError(
                "objective has %d columns but the feasible set lives in"
                " dimension %d" % (n, self.feasible_set.dim)
            )
        if self.cone.dim != q:
            raise ValueError(
                "objective has %d rows but the cone lives in dimension %d"
                % (q, self.cone.dim)
            )

    @cached_property
    def decomposition(self) -> ConeDecomposition:
        """cone.decompose of K: the rational view of _cone_split, for the
        CLI's cone command, projector and the independent oracles.  The
        certificates and set routines check their weights on _cone_split
        itself (cone._dual_weight) and never build it."""
        return _decomposition(self.cone, self._cone_split)

    @cached_property
    def _cone_split(self) -> tuple:
        """K = Y0 + K1 in ints, (y0, k1) as cone._split gives it, from one
        DD of K."""
        return _split(self.cone)

    @cached_property
    def projector(self) -> Matrix:
        """Orthogonal projection of R^q onto Y1, the complement of the
        lineality space of K, expressed in ambient coordinates."""
        return complement_projector(self.decomposition.y0_basis, self.cone.dim)

    @cached_property
    def feasible_vrep(self) -> VRep:
        """h_to_v of D: the rational view of _d_generators."""
        return _vrep(self.feasible_set.dim, self._d_generators)

    @cached_property
    def _d_generators(self) -> _Generators:
        """D's generators as ints, in feasible_vrep order, with their
        incidence with D's inequality rows (polyhedron._Generators), from
        the one DD of D.  The DD runs on _d_rows when a certificate has
        already scaled them; otherwise D's rows are scaled for it and not
        kept, since the set routines need them for nothing else."""
        rows = vars(self).get("_d_rows") or _scaled_rows(self.feasible_set)
        return _generators(self.feasible_set.dim, *rows)

    @cached_property
    def image_set(self) -> VRep:
        """The projected image (pi . M)(D) in generator form."""
        return map_polyhedron(self.projector.matmul(self.objective), self.feasible_vrep)

    @cached_property
    def _d_rows(self) -> tuple:
        """D's (eqs, ineqs) as polyhedron._scaled_rows gives them, each row
        (ints [a | b], scale), held as tuples."""
        eqs, ineqs = _scaled_rows(self.feasible_set)
        return tuple([(tuple(a), s) for a, s in eqs]), tuple([(tuple(a), s) for a, s in ineqs])

    @cached_property
    def _image_rows(self) -> tuple:
        """(S M as int rows, S).  The strict weight-space row of v is M v, in
        y-space."""
        return _int_rows(self.objective.entries)

    @cached_property
    def _weak_image_rows(self) -> tuple:
        """(S (-M^T n_j) over the cone normals n_j as int rows, S), S the lcm
        of all their denominators, as _int_rows gives them.  The weak
        weight-space row of v is (g_j . M v)_j over the dual generators
        g_j = -n_j, in lambda-space; the rows are also the x part of the cone
        rows of the slack programs.

        Each row is an int product: with S' M = _image_rows and the normal
        n = N / s in ints, R = -(S' M)^T N is S' s times the rational row.
        Divided by g, the gcd of S' s and R, the row's lowest common
        denominator is S' s / g, and S is the lcm of those."""
        rows, scale = self._image_rows
        products = []
        for n in self.cone.normals:
            N, s = _integers(n.coords)
            R = [-_dot(N, col) for col in zip(*rows)]
            g = gcd(scale * s, *R)
            products.append(([x // g for x in R], scale * s // g))
        S = lcm(*[d for _, d in products])
        return tuple([tuple([x * (S // d) for x in R]) for R, d in products]), S

    @cached_property
    def _tangent_frame(self) -> tuple:
        """The one equality-free int frame of the programs posed on tangent
        cones of D, (width, ineqs, cone_rows, image_cols).

        A direction d in the kernel of D's equality rows is written d = B z,
        with B the int kernel basis polyhedron._kernel_int gives (the
        identity when D has no equalities), and width the number of z
        columns.  ineqs holds each inequality row (a | b) of _d_rows as
        (a B, scale), in D's order; cone_rows the rows S (-M^T n_j) B of
        _weak_image_rows, over their scale S; image_cols the columns S M B of
        _image_rows, over theirs.  Every product is in ints."""
        n = self.feasible_set.dim
        eqs, ineqs = self._d_rows
        basis = [v for _, v in _kernel_int([a[:n] for a, _ in eqs], n)]

        def in_z(a) -> tuple:
            # a may carry its right-hand side past the end of each v
            return tuple([_dot(a, v) for v in basis])

        image, _ = self._image_rows
        return (
            len(basis),
            tuple([(in_z(a), scale) for a, scale in ineqs]),
            tuple([in_z(a) for a in self._weak_image_rows[0]]),
            tuple([tuple([_dot(a, v) for a in image]) for v in basis]),
        )

    @cached_property
    def _face_weights(self) -> dict:
        """The verified weights of _witness, w = (*Y, h) keyed by (weak,
        tight), the kind and the indices of D's inequality rows tight at the
        queried point.  Filled by _witness only, after the argmin re-check
        passes, and read by it only."""
        return {}

    @cached_property
    def cone_interior_empty(self) -> bool:
        """Whether K has empty topological interior, read off the int split
        K = Y0 + cone(k1 rays).  The rays lie in Y1, the orthogonal
        complement of Y0, so the span of K is Y0 plus the span of the rays
        and their dimensions add.  A convex cone has interior points exactly
        when it spans R^q, so the interior is empty exactly when
        len(y0) + rank(k1 rays) < q; one integer echelon pass gives the
        rank.  A cone with no normals has Y0 = R^q.
        ConeH.has_nonempty_interior decides the same by an LP."""
        y0, k1 = self._cone_split
        return len(y0) + len(_echelon_int([r[:-1] for r in k1])) < self.cone.dim

    def project_to_y1(self, y: Vector) -> Vector:
        """The unique component of y lying in Y1 along the lineality of K."""
        return self.projector.matvec(y)


def _int_rows(rows) -> tuple:
    """(ints, S): the rational rows times S, the lcm of all their
    denominators, as tuples of ints.  No rows give ((), 1)."""
    flat, S = _integers([x for row in rows for x in row])
    it = iter(flat)
    return tuple([tuple([next(it) for _ in row]) for row in rows]), S


@dataclass(frozen=True)
class EfficientSet:
    """A (weakly) efficient set, presented as maximal faces of D.

    subspace_cone is set when K is a linear subspace, in which case the
    efficient set is all of D.  empty_interior is set when K has empty
    topological interior, in which case the weakly efficient set is all of D.
    """

    problem: VLPProblem
    kind: SetKind
    faces: tuple
    subspace_cone: bool
    empty_interior: bool


@dataclass(frozen=True)
class PathCertificate:
    """A piecewise-linear path certificate between two efficient points.

    points:      r points; consecutive pairs are the r - 1 segments.
    weights:     one scalarization weight per segment; the whole segment is
                 optimal for the scalar objective (M^T weight) . x over D.
    breakpoints: the parameter values in [0, 1] where the argmin face of the
                 interpolated scalarization changes.
    """

    points: tuple
    weights: tuple
    breakpoints: tuple


def _require_feasible(P: VLPProblem, u: Vector) -> tuple:
    """(ui, tight) for a point u of D: ui = (*U, L) is u's int form, U / L
    = u with L the lcm of its denominators, and tight the indices of D's
    inequality rows that hold with equality at u (see _feasible_form).  The
    certificates of u take the pair as it is.  Raises InfeasiblePointError
    when u is not in D."""
    if u.dim != P.feasible_set.dim:
        raise InfeasiblePointError("infeasible point")
    return _feasible_form(P, _int_vector(u))


def _feasible_form(P: VLPProblem, ui: tuple) -> tuple:
    """_require_feasible of the point given by its int form ui = (*U, L),
    L > 0: (ui, tight), with tight read off the same dot products that
    check U / L against D.  Raises InfeasiblePointError when it is not in
    D."""
    eqs, ineqs = P._d_rows
    U, L = ui[:-1], ui[-1]
    # row (a | b) holds at u = U / L iff a.U = b L (<= for an inequality)
    if any(_dot(a, U) != a[-1] * L for a, _ in eqs):
        raise InfeasiblePointError("infeasible point")
    tight = []
    for i, (a, _) in enumerate(ineqs):
        excess = _dot(a, U) - a[-1] * L
        if excess > 0:
            raise InfeasiblePointError("infeasible point")
        if not excess:
            tight.append(i)
    return ui, tuple(tight)


def _max_slack(P: VLPProblem, at: tuple, weak: bool) -> Optional[int]:
    """Optimum of the slack program behind the efficiency tests, posed on
    the tangent cone T_D(u) of the point u with feasible form at (see
    _require_feasible): 0 exactly when u is (weakly) efficient, and None
    when the slack is unbounded, which is the other case.

    Variables are (d, s) with d in T_D(u) and <n_j, -M d> <= -s_j for every
    cone normal n_j.  The strict program gives each normal its own slack
    s_j >= 0; the weak program shares one slack t >= 0 between all normals.
    The objective maximizes the total slack.  Every row is homogeneous, so
    the feasible set is a cone: a feasible point with a positive slack
    scales without bound, and otherwise the optimum is 0.

    This is the program over x in D in the shifted variables d = x - u,
    with D's rows that are slack at u dropped.  D is convex, so every d in
    T_D(u) has u + e d in D for some e > 0, and both K \\ l(K) and int K are
    closed under positive scaling: a dominating x exists exactly when a
    dominating direction d does.

    The program (_slack_program) is a homogeneous cone program, so it runs
    on lp._cone_descent: phase two from the slack basis, with no
    right-hand side and no common denominator.  That core checks both of
    its answers in ints, the descent of an unbounded edge and the dual
    certificate of the zero optimum, and raises InternalInvariantError
    when either fails.
    """
    return 0 if _cone_descent(*_slack_program(P, at, weak)) is None else None


def _slack_program(P: VLPProblem, at: tuple, weak: bool) -> tuple:
    """_max_slack's program as (free, rows, cost) for lp._cone_descent.

    d = B z runs over the kernel of D's equalities, so the program is
    written in P._tangent_frame: z is free, the slacks are sign-constrained
    columns, and the rows are the tight inequalities (a B, 0) and a cone
    row (S (-M^T n_j) B, S e_j) of scale S per normal, all <= 0.  The cost
    is -1 on every slack.
    """
    width, ineqs, cone_rows, _ = P._tangent_frame
    S = P._weak_image_rows[1]
    k = 1 if weak else len(cone_rows)
    pad = (0,) * k
    rows = [ineqs[i][0] + pad for i in at[1]]
    for j, a in enumerate(cone_rows):
        s = [0] * k
        s[0 if weak else j] = S
        rows.append((*a, *s))
    return width, rows, (0,) * width + (-1,) * k


def is_efficient(P: VLPProblem, u: Vector) -> bool:
    """Exact efficiency test.

    When K is a linear subspace, K minus its lineality space is empty, so
    nothing dominates anything and every point of D is efficient, with no
    program.  Otherwise it maximizes the total slack sum s_j subject to d in
    the tangent cone T_D(u) = cone(D - u), s_j >= 0 and <n_j, -M d> <= -s_j
    for every cone normal n_j.  The program is a cone: u is efficient
    exactly when its optimum is zero, and otherwise the slack is unbounded.
    Any positive slack exhibits a direction d, and with it a feasible
    x = u + e d, such that M u - M x lies in K but outside the lineality
    space of K.  K minus its lineality space is closed under positive
    scaling, so looking along T_D(u) finds every such x (see _max_slack).
    Raises InfeasiblePointError when u is not in D.
    """
    return _efficient(P, u, weak=False)


def is_weakly_efficient(P: VLPProblem, u: Vector) -> bool:
    """Exact weak efficiency test.

    Maximizes a single slack t >= 0 with d in the tangent cone
    T_D(u) = cone(D - u) and <n_j, -M d> <= -t for every normal.  The
    program is a cone, with optimum zero exactly when u is weakly
    efficient; otherwise t is unbounded.  A positive slack exhibits a
    direction d, and with it a feasible x = u + e d, such that M u - M x is
    interior to K, which is closed under positive scaling (see _max_slack).
    When K has empty interior every feasible point is weakly efficient and
    the test short-circuits to True; when K is the whole space no point is
    weakly efficient.
    """
    return _efficient(P, u, weak=True)


def _trivial(P: VLPProblem, weak: bool) -> Optional[bool]:
    """The verdict that K alone gives every point of D, or None when it
    takes a program: strict and K a subspace, every point is efficient (K
    has no direction outside its lineality); weak and int K empty, every
    point is weakly efficient; weak and K = R^q, none is, since u
    dominates itself through 0 in int K."""
    if not weak:
        return True if not P._cone_split[1] else None
    if P.cone_interior_empty:
        return True
    return False if not P.cone.normals else None


def _efficient(P: VLPProblem, u: Vector, weak: bool) -> bool:
    """The body of is_efficient, and of is_weakly_efficient when weak."""
    at = _require_feasible(P, u)
    verdict = _trivial(P, weak)
    if verdict is not None:
        return verdict
    return _max_slack(P, at, weak) == 0


# _WeightSpace is a plain slotted class: a dataclass generates its methods
# with exec when the module is imported.
class _WeightSpace:
    """The weights of one set call or one face test, ready to write the
    weight region of a face as int rows.

    Strict weights y* in ri(K*) live in y-space: y*.w = 0 on Y0 and
    y*.r >= 1 on the extreme rays of K1.  Weak weights y* = sum lambda_j g_j
    over the dual generators live in lambda-space: lambda >= 0, sum = 1.
    eqs and ineqs are these admissibility rows, each (ints [a | b], scale).
    images holds the int weight-space row of M v (see VLPProblem._image_rows
    and _weak_image_rows) for D's points, then D's rays, then the extra
    generators of _int_weight_space, keyed by that index, all over the one
    common denominator den.
    """

    __slots__ = ("dim", "eqs", "ineqs", "images", "den", "n_points", "n_rays")

    def __init__(self, dim, eqs, ineqs, images, den, n_points, n_rays):
        self.dim, self.eqs, self.ineqs = dim, eqs, ineqs
        self.images, self.den = images, den
        self.n_points, self.n_rays = n_points, n_rays


def _admissible(P: VLPProblem, weak: bool) -> tuple:
    """The admissible weights of P and the int rows that map a direction d
    of R^n into their space, as (dim, eqs, ineqs, rows, S).

    eqs and ineqs are _WeightSpace's admissibility rows, each (ints
    [a | b], scale), in the dim coordinates of the weights.  The strict
    rows are read off the int split of K (P._cone_split): a y0 vector g / h
    gives the row (g | 0) of scale h, and a k1 ray g / h the row (-g | -h)
    of scale h.  rows over S are the weight-space rows of the kind,
    P._image_rows or P._weak_image_rows."""
    if weak:
        dim = len(P.cone.normals)
        eqs = [([1] * (dim + 1), 1)]
        ineqs = [([-int(i == j) for j in range(dim)] + [0], 1) for i in range(dim)]
        return (dim, eqs, ineqs, *P._weak_image_rows)
    y0, k1 = P._cone_split
    eqs = [(list(v[:-1]) + [0], v[-1]) for v in y0]
    ineqs = [([-x for x in v], v[-1]) for v in k1]
    return (P.cone.dim, eqs, ineqs, *P._image_rows)


def _int_weight_space(P: VLPProblem, weak: bool, extra: tuple) -> _WeightSpace:
    """The weight space of P with the images of D's points and rays and of
    the int generators (*g, h) in extra, computed together over one common
    denominator L.

    D's generators are P._d_generators.  For every generator g / h here, h
    is the lcm of the denominators of g / h, so L is the lcm of all the h,
    and the image of g / h is (L / h) times the int rows dotted with g: the
    rows times the vector scaled to ints over L.  The admissibility rows
    are _admissible's."""
    gens = P._d_generators
    dim, eqs, ineqs, rows, S = _admissible(P, weak)
    generators = gens.points + gens.rays + extra
    L = lcm(*[v[-1] for v in generators])
    images = []
    for v in generators:
        # v's trailing h is past the end of every row, so _dot skips it
        f = L // v[-1]
        images.append([_dot(a, v) * f for a in rows])
    return _WeightSpace(dim, eqs, ineqs, images, S * L, len(gens.points), len(gens.rays))


def _weight_region(W: _WeightSpace, points: list, dirs: list) -> tuple:
    """The admissible dual weights that put all of a face F in the argmin
    over D, as (dim, eqs, ineqs) in int rows for lp._solve_rows.

    F is generated by W.images[points] (a nonempty list) and
    W.images[dirs], its rays and lineality.  The argmin rows are written
    through <y*, z>: y* is constant on M F and no generator of D beats F's
    first point.  They are differences of images, exactly the rows of the
    differences, because the map is linear; each is W.den times its rational
    row, which is its scale.
    """
    img, den = W.images, W.den
    base = img[points[0]]
    eqs = W.eqs + [([x - y for x, y in zip(img[g], base)] + [0], den) for g in points[1:]]
    eqs += [(img[v] + [0], den) for v in dirs]
    p = W.n_points
    ineqs = W.ineqs + [([-x for x in img[r]] + [0], den) for r in range(p, p + W.n_rays)]
    ineqs += [([x - y for x, y in zip(base, img[v])] + [0], den) for v in range(p)]
    return W.dim, eqs, ineqs


def _face_region(P: VLPProblem, F: VRep, weak: bool) -> tuple:
    """_weight_region of the face F of D, given by its rational generators,
    each taken as an int generator."""
    W = _int_weight_space(P, weak, tuple([_int_vector(v) for v in F.generators()]))
    first = W.n_points + W.n_rays
    mid = first + len(F.points)
    return _weight_region(W, range(first, mid), range(mid, len(W.images)))


def _relative_interior_point(gens: _Generators) -> tuple:
    """Mean of the points plus the sum of the rays of a nonempty generator
    form in ints, always a relative interior point, as (*g, h) standing for
    g / h, not reduced.  With m points and L the lcm of every generator's
    h, g is the sum of the points times L / h each plus m times that of the
    rays, and h = m L."""
    m = len(gens.points)
    L = lcm(*[v[-1] for v in gens.points + gens.rays])
    g = [0] * (len(gens.points[0]) - 1)
    for vectors, f in ((gens.points, 1), (gens.rays, m)):
        for v in vectors:
            k = f * (L // v[-1])
            # v's trailing h is past the end of g, so zip skips it
            g = [x + k * y for x, y in zip(g, v)]
    return (*g, m * L)


def _point_region(P: VLPProblem, at: tuple, weak: bool) -> tuple:
    """The admissible dual weights that put u in the argmin over D, as
    (dim, eqs, ineqs) in int rows for polyhedron._generators, with u given
    by its feasible form at (see _require_feasible).  The region is written
    over the tangent cone T_D(u) in P._tangent_frame, and no DD of D runs.

    D is convex, so u minimizes y.M x over D exactly when y.M d >= 0 for
    every d in T_D(u) = {B z : (a B) z <= 0 on the rows tight at u}.  One
    small DD of those rows (polyhedron._cone_ints, no homogenization) gives
    T's extreme rays t and lineality basis l in z, and the region is the
    admissible y (_admissible) with y.(S M B) t >= 0 and y.(S M B) l = 0;
    the weak kind, in lambda-space, reads the frame's cone rows in place of
    S M B.  Each row (ints, scale) stands for the rational row times its
    scale S h, for t or l = g / h.

    It is the set _weight_region writes from D's generators for the flat
    u + lin(D): y.M(p - u) >= 0 on D's points p, y.M r >= 0 on its rays r
    and y.M l = 0 on lin(D), since p - u, r and +-l generate T_D(u).
    polyhedron._generators is canonical on sets, so the region's
    generators, and the witness read off them, are the same either way."""
    width, ineqs, cone_rows, image_cols = P._tangent_frame
    dim, eqs, adm, _, S = _admissible(P, weak)
    frame = cone_rows if weak else tuple(zip(*image_cols))
    lin, rays = _cone_ints(width, [], [ineqs[i][0] for i in at[1]])
    # t's trailing h is past the end of every frame row, so _dot skips it
    eqs = eqs + [([_dot(a, l) for a in frame] + [0], S * l[-1]) for l in lin]
    adm = adm + [([-_dot(a, t) for a in frame] + [0], S * t[-1]) for t in rays]
    return dim, eqs, adm


def _point_weight(P: VLPProblem, at: tuple, weak: bool) -> tuple:
    """The relative interior point of the weight region of u (_point_region),
    in ints as _relative_interior_point gives it, read off the region's int
    generators; u comes in its feasible form at (see _require_feasible).
    Every weight of the region is zero on M lin(D), so it puts all of the
    flat u + lin(D) in the argmin.

    An empty region means u is not (weakly) efficient, and that verdict is
    cross-checked by the primal slack program before NotEfficientError is
    raised: a zero slack there contradicts it."""
    region = _generators(*_point_region(P, at, weak))
    if not region.points:
        if _max_slack(P, at, weak) == 0:
            raise InternalInvariantError("no dual weight for a (weakly) efficient point")
        raise NotEfficientError("not weakly efficient" if weak else "not efficient")
    return _relative_interior_point(region)


def _argmin_program(P: VLPProblem, w: tuple, at: tuple) -> tuple:
    """_verify_argmin's program as (free, rows, cost) for lp._cone_descent.

    With d = B z and S M the image rows, c.d = Y.(S M B) z / (S h) for the
    weight w = (*Y, h), so the cost is the int row Y.(S M B) over the free
    z, scaled by S h > 0, which changes no answer, and the rows are the
    tight inequalities a B of P._tangent_frame, all <= 0."""
    width, ineqs, _, image_cols = P._tangent_frame
    # w's trailing h is past the end of each column, so _dot skips it
    return width, [ineqs[i][0] for i in at[1]], tuple([_dot(w, col) for col in image_cols])


def _verify_argmin(P: VLPProblem, w: tuple, at: tuple, label: str) -> None:
    """Re-verify that u, a point of D with feasible form at (see
    _require_feasible), minimizes c.x over D for c = M^T y*, the weight
    y* = Y / h given as the int generator w = (*Y, h).  D is convex, so
    that holds exactly when c.d >= 0 on the tangent cone T_D(u): min c.d
    over T_D(u) is then bounded, with optimum 0, and otherwise it is
    unbounded below.

    The program (_argmin_program) is a homogeneous cone program with every
    column free, so it runs on lp._cone_descent, which checks its answer in
    ints.  A bounded answer carries a dual certificate: multipliers y >= 0
    on the tight rows a B and alpha > 0 with alpha C + y.(a B) = 0 for the
    program's int cost C, which proves c.d >= 0 on T_D(u) without trusting
    a pivot.  An unbounded answer carries a descending edge.  Either failed
    check raises InternalInvariantError, and so does an unbounded
    answer."""
    if _cone_descent(*_argmin_program(P, w, at)) is not None:
        raise InternalInvariantError(
            "%s does not scalarize its point to an argmin of D" % label
        )


def _verify_constant(P: VLPProblem, w: tuple, label: str) -> None:
    """Re-verify in ints that c = M^T y*, for the weight y* = Y / h given
    as the int generator w = (*Y, h), is constant on D, so that every point
    of D minimizes c.x over D.  c is constant on D exactly when c.d = 0 on
    the kernel of D's equalities, d = B z, that is when the cost row
    Y.(S M B) of _verify_argmin's program is zero.  It stands for that
    program where its answer is fixed: for the zero weight, which _witness
    gives where K decides every point, min c.d over T_D(u) is 0 whatever u
    is, and u has passed _require_feasible already."""
    if any(_dot(w[:-1], col) for col in P._tangent_frame[3]):
        raise InternalInvariantError("%s is not constant on D" % label)


def scalarize_witness(P: VLPProblem, u: Vector) -> Vector:
    """A dual vector y* in the relative interior of K* with u minimizing
    x -> <M^T y*, x> over D.

    The witness is the canonical relative interior point of the strict
    weight region of u: the functionals that vanish on the lineality of K,
    are at least 1 on every extreme ray of its pointed part, and put u in
    the argmin over D.  The region lies in Y1 already, so no projection is
    needed.  When K is a subspace, K* is the annihilator of K, a subspace
    equal to its own relative interior, and the zero functional is the
    witness.  The witness is sought first: by the efficiency criterion a
    verified witness certifies efficiency by itself, so no separate
    efficiency test runs.  Only an empty region falls back to the slack
    program of is_efficient, which must confirm that u is dominated; then
    NotEfficientError is raised.  The result is re-verified before it is
    returned; its admissibility is checked in ints on the split of K
    (cone._dual_weight), and the one rational built is the witness itself.
    Raises InfeasiblePointError when u is not in D.
    """
    return _view(_witness(P, u, weak=False)[1])


def weak_witness(P: VLPProblem, u: Vector) -> Vector:
    """A dual vector y* in K* \\ {0} with u minimizing <M^T y*, x> over D,
    certifying weak efficiency.  When K has empty interior the weakly
    efficient set is all of D and the zero weight is returned; when K is the
    whole space no point is weakly efficient.  As in scalarize_witness the
    weight is sought first, and only an empty weight region runs the slack
    program of is_weakly_efficient, which must confirm the verdict before
    NotEfficientError is raised.  The weight y* = sum lambda_j (-n_j) over
    the cone normals is combined, and checked to be nonzero, in ints
    (cone._dual_weight).  Raises InfeasiblePointError when u is not in D.
    """
    return _view(_witness(P, u, weak=True)[1])


def _witness(P: VLPProblem, u: Vector, weak: bool) -> tuple:
    """scalarize_witness in ints, or weak_witness when weak: (at, w), with
    at the feasible form of u (see _require_feasible) and w = (*Y, h) the
    verified weight Y / h.  Where K decides every point (_trivial), the
    weight is zero, and its argmin re-check is the int check of
    _verify_constant, with no LP.

    Otherwise w is looked up in P._face_weights under (weak, at[1]), and
    worked out only on a miss, then kept once its argmin re-check passes.
    That is exact: _point_region, _point_weight's slack cross-check and
    _argmin_program read only at[1], so a kept weight is the weight a
    recomputation would give, and its re-check proved it for every point
    with those tight rows, the relative interior of one face of D.  A
    query that raises keeps nothing."""
    at = _require_feasible(P, u)
    label = "weak witness" if weak else "witness"
    verdict = _trivial(P, weak)
    if verdict is False:
        raise NotEfficientError("not weakly efficient")
    if verdict:
        w = (0,) * P.cone.dim + (1,)
        _verify_constant(P, w, "zero " + label)
        return at, w
    key = (weak, at[1])
    w = P._face_weights.get(key)
    if w is not None:
        return at, w
    region_point = _point_weight(P, at, weak)
    weight = _dual_weight(P.cone, P._cone_split, region_point[:-1], weak)
    if weight is None:
        raise InternalInvariantError(
            "weak witness degenerated to zero"
            if weak
            else "witness left the relative interior of the dual"
        )
    Y, s = weight
    w = (*Y, s * region_point[-1])
    _verify_argmin(P, w, at, label)
    P._face_weights[key] = w
    return at, w


def face_scalarizable(P: VLPProblem, face: Face, weak: bool) -> bool:
    """Whether some admissible dual weight scalarizes the whole face into the
    argmin over D.  Strict efficiency draws weights from the relative
    interior of K*; weak efficiency from K* \\ {0} via a normalized conic
    combination of the dual generators.  One feasibility LP over the weight
    region of the face.  The set routines do not call it: it serves the
    independent oracles of crosscheck, above all the all-faces oracle
    solution_set_via_all_faces, which runs it on every face."""
    dim, eqs, ineqs = _face_region(P, face.geometry, weak)
    return _solve_rows(dim, eqs, ineqs, (0,) * dim + (1,)).status is LPStatus.OPTIMAL


def _maximal_scalarizable(P: VLPProblem, weak: bool, max_faces: Optional[int]) -> tuple:
    """The maximal faces of a nonempty D that some admissible weight puts in
    the argmin over D, in faces() order, from one DD of the lifted weight
    polyhedron of geometric duality (Heyde & Loehne, SIAM J. Optim. 2008)

        W = {(y, t) : y admissible, t <= y.M p for every point p of D,
             y.M r >= 0 for every ray r of D, y.M l = 0 on lin(D)}.

    A point (y, t) of W's VRep has t = min y.M x over D, so the point rows
    tight on it are the points of its argmin face and the tight ray rows
    are that face's rays: its tight mask is the face's generator mask.
    Every argmin face of a weight is scalarizable.  For a maximal
    scalarizable face F, the points of W tight on all of F form a nonempty
    face of W; a minimal face inside it is a VRep point (W's lineality is
    tight on every row), whose argmin face contains F and so is F.  So the
    maximal tight masks are exactly the maximal faces.

    W's points are the int rays (Y, T, h) with h > 0 of its homogenized
    cone, straight from the DD, and each one's tight mask is its zero set
    there, shifted past the homogenizing row and the admissibility rows:
    the point rows and then the ray rows of W are the last rows of the DD.
    Every row of W vanishes on W's lineality, so the zero set is that of
    the projected point (Y, T) / h.  A mask's tag is read off the incidence
    of P._d_generators by polyhedron._tag, and sorting by tag is faces()
    order.  A mask that is
    not the AND of its tag's masks (all generators for an empty tag), or
    that holds no point, is no face of D; that, and a returned face whose
    weight the cone rejects (cone._dual_weight, on the int Y), raises
    InternalInvariantError.

    W is written from the int set-up of P: D's int generators, the int
    split of K and the image rows.  The returned faces are built from the
    rational views of their own generators only; feasible_vrep is not
    needed.

    No face lattice is walked.  max_faces, when given, caps the rays that
    W's DD holds at any step (polyhedron._dd), and more raise
    FaceLimitError.
    """
    gens = P._d_generators
    W = _int_weight_space(P, weak, gens.lineality)
    img, den, dim = W.images, W.den, W.dim
    points, rays = range(W.n_points), range(W.n_points, W.n_points + W.n_rays)
    # the lifted polyhedron's rows in (y, t): an admissibility row [a | b]
    # of the weight space gets a 0 for t
    eqs = [(a[:dim] + [0, a[dim]], s) for a, s in W.eqs]
    eqs += [(img[l] + [0, 0], den) for l in range(rays.stop, len(img))]
    ineqs = [(a[:dim] + [0, a[dim]], s) for a, s in W.ineqs]
    ineqs += [([-x for x in img[p]] + [den, 0], den) for p in points]
    ineqs += [([-x for x in img[r]] + [0, 0], den) for r in rays]
    # bit 0 of a DD zero set is the homogenizing row, then come W.ineqs
    shift = 1 + len(W.ineqs)
    weights = {}  # tight mask -> the first W point (Y, T, h) with it
    for v, zeros in _homogenized_dd(dim + 1, eqs, ineqs, max_faces)[1].items():
        if v[-1] > 0:  # not a ray of W
            weights.setdefault(zeros >> shift, v)
    tight = gens.tight
    everything = (1 << rays.stop) - 1
    found = []
    for m, v in weights.items():
        if any(o != m and o & m == m for o in weights):
            continue
        tag = _tag(tight, m)
        closure = everything
        for i in tag:
            closure &= tight[i]
        if closure != m or not m & ((1 << W.n_points) - 1):
            raise InternalInvariantError("a weight's argmin face is missing from the face lattice")
        if _dual_weight(P.cone, P._cone_split, v[:dim], weak) is None:
            raise InternalInvariantError("a set weight left the admissible dual weights")
        found.append((tag, m))
    n = P.feasible_set.dim
    lineality = tuple([_view(l) for l in gens.lineality])
    faces = []
    for tag, m in sorted(found):
        face_points = tuple([_view(p) for k, p in enumerate(gens.points) if m >> k & 1])
        face_rays = tuple([_view(r) for k, r in enumerate(gens.rays, W.n_points) if m >> k & 1])
        faces.append(Face(tag, VRep(n, face_points, face_rays, lineality)))
    return tuple(faces)


def efficient_set(P: VLPProblem, max_faces: Optional[int] = None) -> EfficientSet:
    """The efficient set of P as a tuple of maximal faces of D.

    A face belongs to the efficient set exactly when some weight in the
    relative interior of K* scalarizes all of it into the argmin over D; the
    union of such faces is the whole efficient set.  The maximal ones are
    read off one DD of the lifted weight polyhedron (geometric duality,
    Heyde & Loehne 2008; see _maximal_scalarizable), with no LP per face;
    the answer is the same as testing every face.  max_faces caps the rays
    that DD holds, not D's faces: more raise FaceLimitError, and a cap that
    does not trip changes nothing.  When K is a subspace the efficient set
    is all of D, the single improper face; an infeasible D yields no faces.
    """
    return _solution_set(P, False, max_faces)


def weakly_efficient_set(P: VLPProblem, max_faces: Optional[int] = None) -> EfficientSet:
    """The weakly efficient set of P as a tuple of maximal faces of D.

    Weights come from K* \\ {0}, normalized as convex combinations of the
    dual generators; the faces and max_faces are as in efficient_set.  All
    of D is weakly efficient when the interior of K is empty, and no point
    is when K is the whole space, whose interior holds 0.
    """
    return _solution_set(P, True, max_faces)


def _solution_set(P: VLPProblem, weak: bool, max_faces: Optional[int]) -> EfficientSet:
    """The body of efficient_set, and of weakly_efficient_set when weak.
    Its early returns run no DD of W: D empty, or a K that decides every
    point of D (_trivial), which gives all of D or nothing."""
    gens = P._d_generators
    verdict = _trivial(P, weak)
    kind = SetKind.WEAKLY_EFFICIENT if weak else SetKind.EFFICIENT
    if not gens.points or verdict is False:
        found = ()
    elif verdict:
        everything = (1 << (len(gens.points) + len(gens.rays))) - 1
        found = (Face(_tag(gens.tight, everything), P.feasible_vrep),)
    else:
        found = _maximal_scalarizable(P, weak, max_faces)
    return EfficientSet(P, kind, found, not P._cone_split[1], P.cone_interior_empty)


def connect(P: VLPProblem, u: Vector, v: Vector, weak: bool = False) -> PathCertificate:
    """A piecewise-linear path from u to v inside the (weakly) efficient set.

    Witnesses xi_0 for u and xi_1 for v (scalarize_witness, or weak_witness
    when weak) certify the endpoints, and no separate efficiency test runs;
    an endpoint without a witness raises NotEfficientError("endpoint not
    efficient").  The witnesses are interpolated; the breakpoints of
    t -> argmin <M^T xi_t, x> partition [0, 1], and within each interval the
    argmin face is constant.  The chain takes u, then the lexicographically
    smallest argmin vertex of each interval, which the breakpoint analysis
    names among D's int generators (lp._breakpoints), then v.  Each
    surviving segment carries the weight at the breakpoint where it starts,
    whose argmin face contains both of its endpoints.

    No LP runs over D.  The witnesses put u in the argmin at t = 0 and v at
    t = 1, and at each interior breakpoint one cone program on the tangent
    cone (_verify_argmin) puts the point named for the interval that starts
    there in the argmin.  So every segment has one endpoint certified at
    its weight, and the other is in the argmin exactly when it has the same
    objective value, an exact int comparison.  Every returned point and
    segment stays inside the efficient set (weakly efficient set when weak).

    Everything is worked out in ints: the weights are the int generators
    (*Y, h) of the witnesses and their interpolations, each cost is
    Y.(S M) over S h from P._image_rows, and the points are int forms; only
    the returned points, weights and breakpoints are made rational.
    """
    try:
        at_u, xi0 = _witness(P, u, weak)
        at_v, xi1 = (at_u, xi0) if u == v else _witness(P, v, weak)
    except NotEfficientError as exc:
        raise NotEfficientError("endpoint not efficient") from exc
    if u == v:
        return PathCertificate((u,), (), (rat(0), rat(1)))
    if weak and _trivial(P, weak):
        # The weakly efficient set is all of D, which is convex: the straight
        # segment is a valid path and the zero weight scalarizes it trivially.
        return PathCertificate((u, v), (_view(xi0),), (rat(0), rat(1)))

    rows, S = P._image_rows
    cols = list(zip(*rows))

    def cost(w: tuple) -> tuple:
        # M^T (Y / h) as the int generator (*Y.(S M), S h); w's trailing h
        # is past the end of each column, so _dot skips it
        return (*[_dot(w, col) for col in cols], S * w[-1])

    gens = P._d_generators
    try:
        grid, firsts = _breakpoints(cost(xi0), cost(xi1), gens)
    except ValueError as exc:
        raise InternalInvariantError(
            "interpolated scalarizations became unsolvable"
        ) from exc

    # xi_t at t = num / den, den > 0, in ints
    (*Y0, h0), (*Y1, h1) = xi0, xi1
    weights = [
        _primitive([(den - num) * h1 * a + num * h0 * b for a, b in zip(Y0, Y1)] + [den * h0 * h1])
        for num, den in grid
    ]
    # each interior breakpoint starts an interval, whose named point must
    # be an argmin of the breakpoint's weight
    for w, k in zip(weights[1:-1], firsts[1:]):
        try:
            at = _feasible_form(P, gens.points[k])
        except InfeasiblePointError as exc:
            raise InternalInvariantError("a path point left D") from exc
        _verify_argmin(P, w, at, "path weight")

    chain = [at_u[0]] + [gens.points[k] for k in firsts] + [at_v[0]]
    points, path_weights = [chain[0]], []
    for a, b, w in zip(chain, chain[1:], weights):
        if b == points[-1]:
            continue
        # int forms (*X, L): c.a = c.b exactly when C.A Lb = C.B La
        C = cost(w)
        if _dot(C, a) * b[-1] != _dot(C, b) * a[-1]:
            raise InternalInvariantError("path segment left its argmin face")
        points.append(b)
        path_weights.append(w)
    return PathCertificate(
        tuple([_view(x) for x in points]),
        tuple([_view(w) for w in path_weights]),
        tuple([Rational(num, den) for num, den in grid]),
    )
