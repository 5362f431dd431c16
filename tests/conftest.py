import os

import pytest
from hypothesis import HealthCheck, settings

from gpolyvlp import lp, polyhedron

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


@pytest.fixture
def cone_program_oracle():
    """A check of lp._cone_descent on one homogeneous cone program
    (free, rows, cost) against the general simplex, lp._optimize_rows with
    the rows written as (ints [a | 0], 1) and the trailing columns
    sign-constrained.  The statuses must agree, a bounded program must
    have the value 0 there, and a returned direction d is checked in ints:
    a.d <= 0 on every row, d >= 0 on the sign-constrained columns and
    cost.d < 0.  Returns the status."""

    def check(free, rows, cost):
        n = len(cost)
        d = lp._cone_descent(free, rows, cost)
        want = lp._optimize_rows(n, (), [([*a, 0], 1) for a in rows], (*cost, 1), n - free)[0]
        if d is None:
            assert (want.status, want.value) == (lp.LPStatus.OPTIMAL, 0)
            return lp.LPStatus.OPTIMAL
        assert want.status is lp.LPStatus.UNBOUNDED
        assert len(d) == n and all(isinstance(x, int) for x in d)
        assert all(sum(a * x for a, x in zip(row, d)) <= 0 for row in rows)
        assert all(x >= 0 for x in d[free:])
        assert sum(c * x for c, x in zip(cost, d)) < 0
        return lp.LPStatus.UNBOUNDED

    return check



@pytest.fixture
def corrupt_argmin_recheck(monkeypatch):
    """Plant a fault in the cone core inside every argmin re-check
    (vlp._verify_argmin), and nowhere else.  "edge": the core answers a
    bogus edge, the zero direction, whatever the program.  "reduced cost":
    the core runs, but its dual check reads every product off by one, so
    the reduced costs do not match the multipliers.  Returns the function
    that plants a fault by name and gives the end of the error message it
    must raise."""
    from gpolyvlp import vlp

    real_verify, real_dot = vlp._verify_argmin, lp._dot
    messages = {
        "edge": "does not scalarize its point to an argmin of D",
        "reduced cost": "bounded cone program without a zero-optimum certificate",
    }

    def plant(fault):
        def verify(P, w, at, label):
            with monkeypatch.context() as m:
                if fault == "edge":
                    m.setattr(vlp, "_cone_descent", lambda free, rows, cost: [0] * len(cost))
                else:
                    m.setattr(lp, "_dot", lambda a, b: real_dot(a, b) + 1)
                real_verify(P, w, at, label)

        monkeypatch.setattr(vlp, "_verify_argmin", verify)
        return messages[fault]

    return plant
