import os

import pytest
from hypothesis import HealthCheck, settings

from gpolyvlp import polyhedron

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "fast",
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def adjacency_verdicts(monkeypatch):
    """Record, for every pos/neg pair of rays that the double description
    meets, the combinatorial verdict of polyhedron._adjacent beside the rank
    verdict worked out here with _echelon_int: the pair is adjacent exactly
    when the rows tight on both have rank dim - dim L - 2.  Every ray of the
    current cone is extreme, so the rows tight on one ray have rank
    dim - dim L - 1, which gives the target without L.  Returns the list of
    (combinatorial, rank) pairs, filled as the DDs run."""
    verdicts = []
    rows = {}
    real_dd, real_adjacent = polyhedron._dd, polyhedron._adjacent

    def dd(dim, eq_rows, ineq_rows, cap=None):
        rows["eqs"], rows["ineqs"] = list(eq_rows), list(ineq_rows)
        return real_dd(dim, eq_rows, ineq_rows, cap)

    def rank(mask):
        tight = [list(a) for j, a in enumerate(rows["ineqs"]) if mask >> j & 1]
        return len(polyhedron._echelon_int([list(e) for e in rows["eqs"]] + tight))

    def adjacent(zeros, common):
        got = real_adjacent(zeros, common)
        verdicts.append((got, rank(common) == rank(zeros[0]) - 1))
        return got

    monkeypatch.setattr(polyhedron, "_dd", dd)
    monkeypatch.setattr(polyhedron, "_adjacent", adjacent)
    return verdicts
