"""The benchmark's three workloads: corpus, query list, execution and digests.

Every workload queries a fixed corpus, drawn from the workload's default
seed; a run's seed presents that corpus afresh and picks the query points,
which fixes the run's query list.  A query is one public library call
sequence on one problem, the same sequence a user of the library or of the
``gpoly-vlp`` command line would send:

* ``certify``: ``gpoly-vlp test`` (both kinds) on every vertex of a random
  corpus at the criterion-1 envelope and of the four ``problems/*.json``, and
  ``gpoly-vlp connect`` (both kinds, both directions) between pairs of
  efficient vertices.  Simplex work dominates; no face is enumerated.
* ``solve``: ``efficient_set`` and ``weakly_efficient_set`` on a corpus at the
  criterion-8 envelope plus the orthant-ordered unit cubes.  Every visited
  face costs one double description and one zero-objective feasibility LP.
* ``convert``: ``h_to_v``, ``v_to_h`` and ``faces`` on random polyhedra.  No
  LP runs, so double description and the exact kernels do all the work.

The library is reached only through module attributes looked up at call time
(``lib.vlp.is_efficient``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBLEMS_DIR = ROOT / "problems"

LIB_MODULES = ("exact", "polyhedron", "lp", "cone", "vlp", "crosscheck", "instances", "cli")

# Each workload's corpus is drawn once, from its default seed, whatever seed a
# run is given.  The run's seed then presents that corpus afresh (see
# _relabel_problem) and draws the connect endpoints.  Drawing a new corpus per
# seed moved certify's throughput and 90th percentile by a quarter from seed
# to seed even with every shape balanced, because a few large problems carry
# much of the cost; a run cannot hold enough problems to average that out.
DEFAULT_SEEDS = {"certify": 90210, "solve": 88, "convert": 66}
WORKLOADS = tuple(DEFAULT_SEEDS)

# Corpus sizes.  One pass holds well over 100 queries, so ten latency
# samples lie beyond the 90th percentile, and takes about half of a 36-second
# run, so a run times two passes.
CERTIFY_PROBLEMS = 200  # the criterion-1 corpus
SOLVE_PROBLEMS = 300
SOLVE_CUBES = (2, 3, 4)
CONVERT_POLYHEDRA = 140
# One convert cycle: (kind, dim) pairs, repeated.  Fixing the shapes keeps the
# share of each cost class constant.  Latency rises by class roughly in the
# order random 2, random 3, box 2, random 4, box 3, box 4; random 4 appears
# twice so the median lies inside a class rather than on the edge between two,
# and box 4 stays a seventh of the list, so the 90th percentile lies inside it.
CONVERT_CYCLE = (
    ("random", 2), ("box", 2), ("random", 3), ("box", 3), ("random", 4), ("box", 4),
    ("random", 4),
)
WEIGHT_DRAWS = 16
# Connect queries sit in the latency tail; a fixed number of pairs, at most
# one per problem, keeps the 90th percentile from following the count.
CONNECT_PAIRS = 12


class LibraryMissing(RuntimeError):
    """The checkout holds no importable gpolyvlp sources."""


def load_library() -> SimpleNamespace:
    """Import gpolyvlp afresh from the checkout's ``src`` directory.

    Modules already imported are dropped first, so calling this again
    measures a real import.  Refuses a gpolyvlp found anywhere else.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gpolyvlp" or m.startswith("gpolyvlp.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("gpolyvlp")
    except ImportError as exc:
        raise LibraryMissing(f"cannot import gpolyvlp from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise LibraryMissing(f"gpolyvlp was imported from {package.__file__}, not {SRC}")
    modules = {name: importlib.import_module("gpolyvlp." + name) for name in LIB_MODULES}
    return SimpleNamespace(package=package, **modules)


@dataclass(frozen=True)
class Query:
    """One query: a kind, the index of its problem in the corpus, and its
    arguments (points of the feasible set, or nothing)."""

    problem: int
    kind: str
    args: tuple = ()


@dataclass
class Workload:
    name: str
    seed: int
    lib: SimpleNamespace
    problems: list  # VLPProblem sources (certify, solve) or HRep (convert)
    queries: list

    def fresh(self, index: int):
        """The problem a pass queries: a new VLPProblem with cold caches, as a
        library user builds it, or the immutable HRep for convert."""
        src = self.problems[index]
        if self.name == "convert":
            return src
        return self.lib.vlp.VLPProblem(src.objective, src.feasible_set, src.cone)

    def execute(self, problem, query: Query):
        vlp, polyhedron = self.lib.vlp, self.lib.polyhedron
        kind = query.kind
        if kind == "test":
            (u,) = query.args
            verdict = vlp.is_efficient(problem, u)
            return verdict, vlp.scalarize_witness(problem, u) if verdict else None
        if kind == "test-weak":
            return vlp.is_weakly_efficient(problem, query.args[0])
        if kind == "connect":
            return vlp.connect(problem, *query.args)
        if kind == "connect-weak":
            return vlp.connect(problem, *query.args, weak=True)
        if kind == "solve":
            return vlp.efficient_set(problem)
        if kind == "solve-weak":
            return vlp.weakly_efficient_set(problem)
        if kind == "convert":
            V = polyhedron.h_to_v(problem)
            return V, polyhedron.v_to_h(V), polyhedron.faces(problem)
        raise ValueError(f"unknown query kind {kind!r}")


def build(name: str, seed: int) -> Workload:
    """Import the library, generate the corpus and select the queries."""
    lib = load_library()
    generate = {"certify": _certify, "solve": _solve, "convert": _convert}[name]
    corpus = random.Random(DEFAULT_SEEDS[name])
    problems, queries = generate(lib, corpus, random.Random(seed))
    return Workload(name, seed, lib, problems, queries)


def _signed_permutation(rng, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((-1, 1)) for _ in range(n)]


def _relabel_hrep(lib, rng, D, perm, signs):
    """D in the coordinates y with x[perm[j]] = signs[j] y[j], rows shuffled."""
    n = D.dim

    def row(a):
        return tuple(a.coords[perm[j]] * signs[j] for j in range(n))

    eqs = [(row(a), b) for a, b in D.eq_rows()]
    ineqs = [(row(a), b) for a, b in D.ineq_rows()]
    rng.shuffle(eqs)
    rng.shuffle(ineqs)
    return lib.polyhedron.HRep.of(n, eqs, ineqs)


def _relabel_problem(lib, rng, P):
    """The same problem presented afresh: variables and outputs permuted and
    sign-flipped, rows and cone normals reordered.  Every answer maps over
    exactly, and the instance is as hard, but the simplex and the double
    description meet its rows and columns in another order."""
    n, q = P.feasible_set.dim, P.cone.dim
    perm, signs = _signed_permutation(rng, n)
    operm, osigns = _signed_permutation(rng, q)
    D = _relabel_hrep(lib, rng, P.feasible_set, perm, signs)
    rows = P.objective.entries
    M = lib.exact.Matrix.of(
        [[rows[operm[k]][perm[j]] * signs[j] * osigns[k] for j in range(n)] for k in range(q)],
        cols=n,
    )
    normals = [tuple(v.coords[operm[k]] * osigns[k] for k in range(q)) for v in P.cone.normals]
    rng.shuffle(normals)
    return lib.vlp.VLPProblem(M, D, lib.cone.ConeH.of(q, normals))


# ---------------------------------------------------------------------------
# certify


def _certify(lib, corpus, rng):
    cfg = lib.instances.InstanceConfig(
        max_dim=4, max_ineqs=6, max_eqs=1, max_outputs=3, max_normals=3, coeff_bound=3
    )
    problems = [
        lib.instances.random_problem(corpus, cfg, allow_subspace=False)
        for _ in range(CERTIFY_PROBLEMS)
    ]
    paths = sorted(PROBLEMS_DIR.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no problem files under {PROBLEMS_DIR}")
    problems += [lib.cli.load_problem(str(p)) for p in paths]
    problems = [_relabel_problem(lib, rng, P) for P in problems]
    queries = []
    pairs = 0
    for i, P in enumerate(problems):
        # Points are chosen on a copy, so the timed problem keeps cold caches.
        copy = lib.vlp.VLPProblem(P.objective, P.feasible_set, P.cone)
        V = copy.feasible_vrep
        for u in V.points:
            queries.append(Query(i, "test", (u,)))
            queries.append(Query(i, "test-weak", (u,)))
        efficient = _minimizers_of_ri_weights(lib, copy, V, rng)
        if len(efficient) >= 2 and pairs < CONNECT_PAIRS:
            pairs += 1
            u, v = efficient[0], efficient[-1]
            # both directions, strict and weak, as `gpoly-vlp connect [--weak]`
            for a, b in ((u, v), (v, u)):
                queries.append(Query(i, "connect", (a, b)))
                queries.append(Query(i, "connect-weak", (a, b)))
    return problems, queries


def _minimizers_of_ri_weights(lib, P, V, rng) -> list:
    """Vertices minimizing (M^T w).x over D for random weights w in the
    relative interior of the dual cone.  Every such minimizer is efficient,
    so connect queries never fail, and finding them takes no LP: the dual
    cone is generated by the negated normals, a strictly positive
    combination of them lies in its relative interior, and a scalarization
    is bounded on D exactly when it is nonnegative on the rays and zero on
    the lineality of D."""
    found = []
    q = P.cone.dim
    for _ in range(WEIGHT_DRAWS):
        w = lib.exact.Vector.zero(q)
        for n in P.cone.normals:
            w = w - n.scale(rng.randint(1, 9))
        c = P.objective.tmatvec(w)
        if any(c.dot(l) != 0 for l in V.lineality) or any(c.dot(r) < 0 for r in V.rays):
            continue
        values = [c.dot(p) for p in V.points]
        best = min(values)
        found += [p for p, v in zip(V.points, values) if v == best and p not in found]
    return found


# ---------------------------------------------------------------------------
# solve


def _solve(lib, corpus, rng):
    cfg = lib.instances.InstanceConfig(
        max_dim=3, max_ineqs=5, max_eqs=1, max_outputs=2, max_normals=3, coeff_bound=2
    )
    problems = [
        lib.instances.random_problem(corpus, cfg, allow_subspace=True)
        for _ in range(SOLVE_PROBLEMS)
    ]
    problems += [_orthant_cube(lib, n) for n in SOLVE_CUBES]
    problems = [_relabel_problem(lib, rng, P) for P in problems]
    queries = [Query(i, kind) for i in range(len(problems)) for kind in ("solve", "solve-weak")]
    return problems, queries


def _orthant_cube(lib, n: int):
    """The unit n-cube with identity objective, ordered by the orthant: its
    efficient set is the single vertex at the origin."""
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    neg = [tuple(-v for v in e) for e in unit]
    D = lib.polyhedron.HRep.of(n, ineqs=[(e, 0) for e in neg] + [(e, 1) for e in unit])
    K = lib.cone.ConeH.of(n, neg)
    return lib.vlp.VLPProblem(lib.exact.Matrix.identity(n), D, K)


# ---------------------------------------------------------------------------
# convert


def _convert(lib, corpus, rng):
    polyhedra = []
    for i in range(CONVERT_POLYHEDRA):
        kind, dim = CONVERT_CYCLE[i % len(CONVERT_CYCLE)]
        if kind == "random":
            # Unbounded sets and sets with lineality are common here.
            P = lib.instances.random_feasible_hrep(corpus, dim, max_ineqs=6, max_eqs=1, bound=3)
        else:
            P = _cut_box(lib, corpus, dim, cuts=1 + (i // len(CONVERT_CYCLE)) % 2)
        perm, signs = _signed_permutation(rng, dim)
        polyhedra.append(_relabel_hrep(lib, rng, P, perm, signs))
    return polyhedra, [Query(i, "convert") for i in range(len(polyhedra))]


def _cut_box(lib, rng, dim: int, cuts: int):
    """A box [-b, b]^dim cut by random halfspaces that keep an interior
    anchor point, so the set is bounded and never empty."""
    b = rng.randint(1, 3)
    anchor = [rng.randint(-b + 1, b - 1) for _ in range(dim)]
    ineqs = []
    for k in range(dim):
        for sign in (1, -1):
            ineqs.append((tuple(sign if j == k else 0 for j in range(dim)), b))
    for _ in range(cuts):
        a = [0] * dim
        while not any(a):
            a = [rng.randint(-3, 3) for _ in range(dim)]
        ineqs.append((tuple(a), sum(x * y for x, y in zip(a, anchor)) + rng.randint(0, 2)))
    return lib.polyhedron.HRep.of(dim, ineqs=ineqs)


# ---------------------------------------------------------------------------
# digests


def encode(obj):
    """A JSON-ready canonical form of any query output, rationals as strings."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [encode(x) for x in obj]
    if is_dataclass(obj):
        if type(obj).__name__ == "VLPProblem":
            return None  # EfficientSet carries its problem; that is input, not output
        return {f.name: encode(getattr(obj, f.name)) for f in fields(obj)}
    if hasattr(obj, "numerator") and hasattr(obj, "denominator"):
        return str(obj)
    raise TypeError(f"cannot encode {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(encode(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
