"""Independent checks of query outputs.

Each check re-derives what it can by another route than the library's own
formulation: efficiency through the cone generators and through the quotient
by the cone's lineality (``gpolyvlp.crosscheck``), witnesses and path weights
by membership in the relative interior of the dual cone and by exact dot
products against the generators of the feasible set, and conversions by
membership of sampled points and by the round trip.  A check returns an
empty string when the output passes and a reason when it does not.  Checks
run untimed and with the tracer uninstalled.
"""

from __future__ import annotations


def check(lib, P, query, output) -> str:
    """Check one certify or convert output; P is the benchmark's own copy of
    the query's problem (a VLPProblem, or the HRep for convert)."""
    return {
        "test": _check_test,
        "test-weak": _check_test_weak,
        "connect": _check_connect,
        "connect-weak": _check_connect_weak,
        "convert": _check_convert,
    }[query.kind](lib, P, query.args, output)


def check_solve(lib, P, result, weak: bool) -> str:
    """Each face of an efficient_set (weak: weakly_efficient_set) result is
    a face of D, and its relative interior point passes the independent
    (weak) efficiency test."""
    for f in result.faces:
        reason = _check_face(P.feasible_set, f)
        if reason:
            return reason
        u = _relative_interior_point(lib, f.geometry)
        if weak:
            if _strictly_dominated(lib, P, u):
                return f"weakly efficient face {f.active_ineq} is strictly dominated"
        elif lib.crosscheck.dominated_via_generators(P, u):
            return f"efficient face {f.active_ineq} is dominated"
    return ""


def check_containment(efficient, weak) -> str:
    """Criterion 8: every efficient face sits inside a weakly efficient one."""
    weak_actives = [set(g.active_ineq) for g in weak.faces]
    for f in efficient.faces:
        if not any(a <= set(f.active_ineq) for a in weak_actives):
            return f"efficient face {f.active_ineq} escapes the weakly efficient set"
    return ""


# ---------------------------------------------------------------------------
# certify


def _check_test(lib, P, args, output) -> str:
    (u,) = args
    verdict, witness = output
    if verdict != (not lib.crosscheck.dominated_via_generators(P, u)):
        return "verdict disagrees with the generator route"
    if verdict != lib.crosscheck.efficient_via_quotient(P, u):
        return "verdict disagrees with the quotient route"
    if not verdict:
        return "" if witness is None else "negative verdict came with a witness"
    return _check_weight(lib, P, witness, [u])


def _check_test_weak(lib, P, args, output) -> str:
    (u,) = args
    if output != (not _strictly_dominated(lib, P, u)):
        return "weak verdict disagrees with the generator route"
    if not output and not lib.crosscheck.dominated_via_generators(P, u):
        return "efficient point reported as not weakly efficient"
    return ""


def _check_connect(lib, P, args, cert, weak=False) -> str:
    u, v = args
    pts, weights, bps = cert.points, cert.weights, cert.breakpoints
    if pts[0] != u or pts[-1] != v:
        return "path does not run between the requested endpoints"
    if len(weights) != len(pts) - 1:
        return "path needs one weight per segment"
    if bps[0] != 0 or bps[-1] != 1 or list(bps) != sorted(set(bps)):
        return "breakpoints are not an increasing partition of [0, 1]"
    for a, b, w in zip(pts, pts[1:], weights):
        reason = _check_weight(lib, P, w, [a, b], weak)
        if reason:
            return "segment: " + reason
    return ""


def _check_connect_weak(lib, P, args, cert) -> str:
    return _check_connect(lib, P, args, cert, weak=True)


def _check_weight(lib, P, w, points, weak=False) -> str:
    """w lies in the relative interior of the dual cone (weak: in the dual
    cone, and nonzero unless K has empty interior), and every given point
    minimizes (M^T w).x over D, decided by exact dot products against the
    generators of D."""
    dual_generators = [-n for n in P.cone.normals]
    if weak:
        if not _generated_cone_contains(lib, dual_generators, w):
            return "weight outside the dual cone"
        if w.is_zero() and _interior_nonempty(lib, P):
            return "zero weight although K has interior points"
    elif not lib.cone.ri_generated_cone_contains(dual_generators, w):
        return "weight outside the relative interior of the dual cone"
    c = P.objective.tmatvec(w)
    V = P.feasible_vrep
    if any(c.dot(l) != 0 for l in V.lineality) or any(c.dot(r) < 0 for r in V.rays):
        return "scalarization unbounded on D"
    best = min(c.dot(p) for p in V.points)
    if any(c.dot(p) != best for p in points):
        return "point is not a minimizer of the scalarization"
    return ""


def _generated_cone_contains(lib, generators, y) -> bool:
    """Whether y = sum(lambda_i g_i) has a solution with lambda >= 0."""
    if not generators:
        return y.is_zero()
    m = len(generators)
    eqs = [(lib.exact.Vector.of([g[k] for g in generators]), y[k]) for k in range(y.dim)]
    ineqs = [(-lib.exact.Vector.unit(m, i), 0) for i in range(m)]
    return lib.lp.feasible(lib.polyhedron.HRep.of(m, eqs, ineqs))


def _interior_nonempty(lib, P) -> bool:
    """K has interior points exactly when its generators span the space."""
    dec = P.decomposition
    gens = list(dec.y0_basis) + list(dec.k1_rays)
    q = P.cone.dim
    return lib.exact.rank(lib.exact.Matrix.from_rows(gens, cols=q)) == q


def _strictly_dominated(lib, P, u) -> bool:
    """Whether some x in D puts M u - M x in the interior of K.

    The interior is empty unless the generators of K span the space; then it
    is the relative interior, the combinations W a + R b with every b_k > 0
    (W spans the lineality of K, R holds the extreme rays of its pointed
    part).  Maximizes t under b_k >= t, t <= 1; u is strictly dominated
    exactly when the optimum is positive."""
    Vector, HRep = lib.exact.Vector, lib.polyhedron.HRep
    if not _interior_nonempty(lib, P):
        return False
    dec = P.decomposition
    W, R = list(dec.y0_basis), list(dec.k1_rays)
    q = P.cone.dim
    M = P.objective
    n = P.feasible_set.dim
    width = n + len(W) + len(R) + 1
    zero, one = lib.exact.rat(0), lib.exact.rat(1)

    def row(x, a, b, t):
        return Vector(tuple(x) + tuple(a) + tuple(b) + (t,))

    Mu = M.matvec(u)
    eqs = [
        (row(M.row(i).coords, [w.coords[i] for w in W], [r.coords[i] for r in R], zero),
         Mu.coords[i])
        for i in range(q)
    ]
    pad_w, pad_r = [zero] * len(W), [zero] * len(R)
    eqs += [(row(a.coords, pad_w, pad_r, zero), b) for a, b in P.feasible_set.eq_rows()]
    ineqs = [(row(a.coords, pad_w, pad_r, zero), b) for a, b in P.feasible_set.ineq_rows()]
    for k in range(len(R)):
        b = [zero] * len(R)
        b[k] = -one
        ineqs.append((row([zero] * n, pad_w, b, one), zero))  # t - b_k <= 0
    ineqs.append((row([zero] * n, pad_w, pad_r, one), one))  # t <= 1
    c = Vector((zero,) * (width - 1) + (-one,))
    out = lib.lp.solve_lp(HRep.of(width, eqs, ineqs), c)
    if out.status is not lib.lp.LPStatus.OPTIMAL:
        raise RuntimeError("strict domination check expected a bounded program")
    return out.value < 0


# ---------------------------------------------------------------------------
# solve


def _relative_interior_point(lib, V):
    s = lib.exact.Vector.zero(V.dim)
    for p in V.points:
        s = s + p
    s = s.scale(lib.exact.rat(1, len(V.points)))
    for r in V.rays:
        s = s + r
    return s


def _generators_in(D, G) -> str:
    """Points of G lie in D, rays in its recession cone, lineality in its
    lineality space."""
    for a, b in D.eq_rows():
        if any(a.dot(p) != b for p in G.points) or any(a.dot(g) != 0 for g in G.rays + G.lineality):
            return "generator leaves an equality row"
    for a, b in D.ineq_rows():
        if any(a.dot(p) > b for p in G.points) or any(a.dot(r) > 0 for r in G.rays):
            return "generator leaves an inequality row"
        if any(a.dot(l) != 0 for l in G.lineality):
            return "lineality direction crosses an inequality row"
    return ""


def _check_face(D, face) -> str:
    """The face geometry lies in D and makes exactly its tagged rows tight."""
    G = face.geometry
    if not G.points:
        return f"face {face.active_ineq} has no point"
    reason = _generators_in(D, G)
    if reason:
        return f"face {face.active_ineq}: {reason}"
    for i, (a, b) in enumerate(D.ineq_rows()):
        tight = all(a.dot(p) == b for p in G.points) and all(
            a.dot(g) == 0 for g in G.rays + G.lineality
        )
        if tight != (i in face.active_ineq):
            return f"face {face.active_ineq} has the wrong active set at row {i}"
    return ""


# ---------------------------------------------------------------------------
# convert


def _check_convert(lib, P, args, output) -> str:
    V, H, faces = output
    poly = lib.polyhedron
    if V.is_empty:
        return "nonempty polyhedron converted to the empty set"
    reason = _generators_in(P, V)
    if reason:
        return reason
    for s in _round_trip_samples(lib, P, V):
        if poly.contains(H, s) != poly.contains(P, s):
            return "halfspace form disagrees with the input on a sampled point"
    if poly.h_to_v(H) != V:
        return "round trip changed the generator form"
    if not faces or len({f.active_ineq for f in faces}) != len(faces):
        return "face list empty or repeated"
    for f in faces:
        reason = _check_face(P, f)
        if reason:
            return reason
    return ""


def _round_trip_samples(lib, P, V) -> list:
    """The sample points of criterion 6: generators, midpoints, points along
    each direction, and one point just outside every inequality row."""
    samples = list(V.points)
    for a, b in zip(V.points, V.points[1:]):
        samples.append((a + b).scale(lib.exact.rat(1, 2)))
    base = V.points[0]
    for r in V.rays + V.lineality:
        samples.append(base + r)
    for ell in V.lineality:
        samples.append(base - ell)
    for row, rhs in P.ineq_rows():
        samples.append(row.scale((rhs + 1) / row.dot(row)))
    return samples
