#!/usr/bin/env python3
"""Randomized cross-validation sweep over generated problem instances.

For every instance the script decides efficiency of a handful of feasible
vertices along four independent routes: the direct membership program, the
generator-based domination program, the quotient reduction, and the
minimal-face witness system.  It stops at the first disagreement.  Each
slack program that the tests run at those vertices, of both kinds, is
solved once more on the general simplex, which must give the status of the
cone core that the tests use.  Each of those vertices also gets its strict
and its weak witness, which must exist exactly for the (weakly) efficient
ones, and each witness is checked without a solver, against the rational
cone decomposition and D's generator form, as the path weights below are.
Every argmin re-check that the witnesses and the paths below run on the
cone core is solved once more on the general simplex too, and the two must
agree.  On every instance with two
decided vertices of a kind, efficient or weakly efficient, it connects the
first and the last of them and checks the path without a solver: every
point lies in D by exact row checks, every segment weight is admissible (in
ri(K*), or a nonzero element of K* for the weak kind), and both ends of
every segment attain the minimum of (M^T w).x over D, read off D's
generator form.  Each path is computed once more on a fresh problem of the
same data, which has no face weight kept from earlier queries, and the two
certificates must be identical: points, weights and breakpoints.  On a
configurable subset of instances it also recomputes
the full efficient and weakly efficient sets, capped as `gpoly-vlp solve`
caps them (cli.DEFAULT_MAX_FACES), checks that each equals the
set found by testing every face of the feasible set, and checks that every
efficient face sits inside some weakly efficient face.  All arithmetic is
exact, so a clean run certifies thousands of zero-tolerance agreements.

Usage:
    python3 scripts/random_sweep.py --count 200 --seed 90210
"""

from __future__ import annotations

import argparse
import contextlib
import random
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from gpolyvlp import vlp
from gpolyvlp.cli import DEFAULT_MAX_FACES
from gpolyvlp.crosscheck import (
    dominated_via_generators,
    efficient_via_quotient,
    efficient_via_witness_system,
    solution_set_via_all_faces,
)
from gpolyvlp.instances import InstanceConfig, random_problem
from gpolyvlp.lp import LPStatus, _cone_descent, _solve_rows
from gpolyvlp.polyhedron import contains
from gpolyvlp.vlp import (
    NotEfficientError,
    VLPProblem,
    _argmin_program,
    _require_feasible,
    _slack_program,
    _trivial,
    connect,
    efficient_set,
    is_efficient,
    is_weakly_efficient,
    scalarize_witness,
    weak_witness,
    weakly_efficient_set,
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200, help="instances to generate")
    ap.add_argument("--seed", type=int, default=90210, help="random seed")
    ap.add_argument("--max-dim", type=int, default=4)
    ap.add_argument("--max-ineqs", type=int, default=6)
    ap.add_argument("--max-eqs", type=int, default=1)
    ap.add_argument("--max-outputs", type=int, default=3)
    ap.add_argument("--max-normals", type=int, default=3)
    ap.add_argument("--coeff-bound", type=int, default=3)
    ap.add_argument(
        "--vertices", type=int, default=4, help="vertices cross-checked per instance"
    )
    ap.add_argument(
        "--sets-every",
        type=int,
        default=10,
        help="recompute the full solution sets on every Nth instance",
    )
    ap.add_argument(
        "--allow-subspace",
        action="store_true",
        help="also draw ordering cones that are linear subspaces",
    )
    args = ap.parse_args(argv)
    if args.count < 1:
        ap.error("--count must be at least 1")
    if args.vertices < 0 or args.sets_every < 0:
        ap.error("--vertices and --sets-every must be nonnegative")
    if args.vertices == 0 and args.sets_every == 0:
        ap.error("--vertices 0 with --sets-every 0 checks no verdict and no set")
    try:
        args.config = InstanceConfig(
            max_dim=args.max_dim,
            max_ineqs=args.max_ineqs,
            max_eqs=args.max_eqs,
            max_outputs=args.max_outputs,
            max_normals=args.max_normals,
            coeff_bound=args.coeff_bound,
        )
    except ValueError as exc:
        ap.error(f"invalid instance sizes: {exc}")
    return args


def slack_statuses(P, u, weak: bool):
    """The status of the slack program of u, of one kind, on the cone core
    that the efficiency tests run and on the general simplex
    (lp._solve_rows, on its split layout, with the slacks' signs written as
    rows -s <= 0), or None where K decides u and no program runs."""
    if _trivial(P, weak) is not None:
        return None
    free, rows, cost = _slack_program(P, _require_feasible(P, u), weak)
    n = len(cost)
    core = LPStatus.OPTIMAL if _cone_descent(free, rows, cost) is None else LPStatus.UNBOUNDED
    signs = [[0] * j + [-1] + [0] * (n - j - 1) for j in range(free, n)]
    general = _solve_rows(n, (), [([*a, 0], 1) for a in rows + signs], (*cost, 1))
    return core, general.status


@contextlib.contextmanager
def recorded_argmin_programs():
    """Within the block, every argmin re-check that the witnesses and
    connect run (vlp._verify_argmin) also appends its program
    (free, rows, cost), as vlp._argmin_program writes it, to the list the
    block gets."""
    programs = []
    real = vlp._verify_argmin

    def recording(P, w, at, label):
        programs.append(_argmin_program(P, w, at))
        return real(P, w, at, label)

    vlp._verify_argmin = recording
    try:
        yield programs
    finally:
        vlp._verify_argmin = real


def argmin_fault(programs: list):
    """What is wrong with the recorded argmin re-check programs, or None;
    empties the list.  Each is solved on the cone core that the re-checks
    run and on the general simplex (lp._solve_rows, with no sign row, since
    every variable of an argmin program is free), and the two statuses
    must agree."""
    try:
        for free, rows, cost in programs:
            core = _cone_descent(free, rows, cost)
            general = _solve_rows(free, (), [([*a, 0], 1) for a in rows], (*cost, 1)).status
            if (core is None) != (general is LPStatus.OPTIMAL):
                bounded = "bounded" if core is None else "unbounded"
                return f"argmin re-check: cone core {bounded}, general simplex {general.value}"
        return None
    finally:
        programs.clear()


def weight_fault(P, w, points, weak: bool):
    """What is wrong with the weight w as a certificate that every point in
    points minimizes (M^T w).x over D, or None.  w must be admissible: in
    ri(K*), or a nonzero element of K* for the weak kind, read off the
    rational cone decomposition.  The minimum is read off D's generator
    form.  The checks use exact dot products only, no LP."""
    dec, geom = P.decomposition, P.feasible_vrep
    if weak and P.cone_interior_empty:
        # the weakly efficient set is all of D; the zero weight serves
        admissible = w.is_zero()
    elif weak:
        in_dual = all(y.dot(w) == 0 for y in dec.y0_basis) and all(
            r.dot(w) >= 0 for r in dec.k1_rays
        )
        admissible = in_dual and not w.is_zero()
    else:
        admissible = dec.ri_dual_contains(w)
    if not admissible:
        return f"weight {w} is not admissible"
    c = P.objective.tmatvec(w)
    if any(c.dot(r) < 0 for r in geom.rays) or any(c.dot(l) for l in geom.lineality):
        return f"weight {w} is unbounded below on D"
    low = min(c.dot(p) for p in geom.points)
    if any(c.dot(x) != low for x in points):
        return f"weight {w} misses the argmin"
    return None


def witness_fault(P, u, efficient: bool, weak: bool):
    """What is wrong with the (weak) witness of the vertex u, whose verdict
    is efficient, or None."""
    try:
        w = (weak_witness if weak else scalarize_witness)(P, u)
    except NotEfficientError:
        return "efficient vertex without a witness" if efficient else None
    if not efficient:
        return f"dominated vertex with witness {w}"
    return weight_fault(P, w, [u], weak)


def path_fault(P, u, v, cert, weak: bool):
    """What is wrong with cert as connect's path from u to v, or None.  The
    checks use exact dot products only, no LP."""
    if cert.points[0] != u or cert.points[-1] != v:
        return "path does not run between the queried vertices"
    if any(not contains(P.feasible_set, x) for x in cert.points):
        return "path point outside D"
    for i, w in enumerate(cert.weights):
        fault = weight_fault(P, w, cert.points[i : i + 2], weak)
        if fault:
            return f"segment {i}: {fault}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    with recorded_argmin_programs() as programs:
        return sweep(args, programs)


def sweep(args: argparse.Namespace, programs: list) -> int:
    """The sweep of main, with the argmin re-checks it runs recorded into
    programs (see recorded_argmin_programs)."""
    config = args.config
    rng = random.Random(args.seed)
    verdicts = efficient = witnesses = sets_checked = paths = slacks = argmins = 0
    fresh_argmins = 0
    t0 = time.perf_counter()
    for i in range(args.count):
        P = random_problem(rng, config, allow_subspace=args.allow_subspace)
        ends = {False: [], True: []}  # the decided vertices of each kind
        for u in P.feasible_vrep.points[: args.vertices]:
            routes = {
                "membership": is_efficient(P, u),
                "generators": not dominated_via_generators(P, u),
                "quotient": efficient_via_quotient(P, u),
                "witness": efficient_via_witness_system(P, u),
            }
            if len(set(routes.values())) != 1:
                print(
                    f"disagreement on instance {i} at {u}: {routes}",
                    file=sys.stderr,
                )
                return 1
            verdict = routes["membership"]
            weak_verdict = is_weakly_efficient(P, u)
            if verdict and not weak_verdict:
                print(
                    f"efficient vertex {u} of instance {i} not weakly efficient",
                    file=sys.stderr,
                )
                return 1
            for weak in (False, True):
                statuses = slack_statuses(P, u, weak)
                if statuses is None:
                    continue
                if statuses[0] != statuses[1]:
                    kind = "weak slack" if weak else "slack"
                    print(
                        f"{kind} program of vertex {u} of instance {i}: cone core "
                        f"{statuses[0].value}, general simplex {statuses[1].value}",
                        file=sys.stderr,
                    )
                    return 1
                slacks += 1
            for weak, ok in ((False, verdict), (True, weak_verdict)):
                fault = witness_fault(P, u, ok, weak)
                argmins += len(programs)
                fault = fault or argmin_fault(programs)
                if fault:
                    kind = "weak witness" if weak else "witness"
                    print(f"{kind} of vertex {u} of instance {i}: {fault}", file=sys.stderr)
                    return 1
                witnesses += ok
                if ok:
                    ends[weak].append(u)
            verdicts += 1
            efficient += verdict
        for weak, found in ends.items():
            if len(found) < 2:
                continue
            cert = connect(P, found[0], found[-1], weak=weak)
            fault = path_fault(P, found[0], found[-1], cert, weak)
            argmins += len(programs)
            fault = fault or argmin_fault(programs)
            if not fault:
                # no endpoint weight is kept on a fresh problem of the same data
                fresh = VLPProblem(P.objective, P.feasible_set, P.cone)
                same = connect(fresh, found[0], found[-1], weak=weak) == cert
                fresh_argmins += len(programs)
                fault = argmin_fault(programs) or (
                    None if same else "path differs from the path on a fresh problem"
                )
            if fault:
                kind = "weakly efficient" if weak else "efficient"
                print(f"{kind} path of instance {i}: {fault}", file=sys.stderr)
                return 1
            paths += 1
        if args.sets_every > 0 and i % args.sets_every == 0:
            E = efficient_set(P, max_faces=DEFAULT_MAX_FACES)
            W = weakly_efficient_set(P, max_faces=DEFAULT_MAX_FACES)
            for S, weak in ((E, False), (W, True)):
                if S != solution_set_via_all_faces(P, weak):
                    print(
                        f"{S.kind.value} set of instance {i} differs from "
                        "the set found by testing every face",
                        file=sys.stderr,
                    )
                    return 1
            weak_actives = [set(f.active_ineq) for f in W.faces]
            for f in E.faces:
                if not any(a <= set(f.active_ineq) for a in weak_actives):
                    print(
                        f"efficient face {f.active_ineq} of instance {i} "
                        "escapes the weakly efficient set",
                        file=sys.stderr,
                    )
                    return 1
            sets_checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"{args.count} instances, {verdicts} vertex verdicts "
        f"({efficient} efficient) agree on all four routes, "
        f"{slacks} slack programs and {argmins} argmin re-checks "
        f"(and {fresh_argmins} on fresh problems) agree on the cone core "
        "and the general simplex, "
        f"{witnesses} witnesses check out, "
        f"{sets_checked} set pairs match the all-faces route and nest, "
        f"{paths} connect paths check out and equal a fresh problem's, {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
