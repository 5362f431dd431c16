"""Instance generators and the random sweep reject sizes that draw nothing.

A zero entry bound leaves no nonzero vector to draw, so the generator would
redraw forever; a sweep that checks no verdict and no set would report a
clean run that certified nothing.  Both fail loudly instead.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from gpolyvlp.instances import InstanceConfig, _nonzero_vector, random_cone, random_problem

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "random_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("random_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "field", ["max_dim", "max_ineqs", "max_outputs", "max_normals", "coeff_bound"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_nonpositive_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        InstanceConfig(**{field: value})


def test_config_rejects_negative_max_eqs():
    with pytest.raises(ValueError, match="max_eqs"):
        InstanceConfig(max_eqs=-1)
    config = InstanceConfig(max_eqs=0, max_dim=1, coeff_bound=1)
    P = random_problem(random.Random(7), config)
    assert P.feasible_set.eq_lhs.rows == 0 and P.feasible_set.dim == 1


def test_nonzero_vector_rejects_empty_ranges():
    rng = random.Random(3)
    for dim, bound in [(2, 0), (2, -1), (0, 3)]:
        with pytest.raises(ValueError):
            _nonzero_vector(rng, dim, bound)
    with pytest.raises(ValueError):
        random_cone(rng, 2, bound=0)
    assert not _nonzero_vector(rng, 3, 1).is_zero()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--count", "0"], "--count must be at least 1"),
        (["--count", "-3"], "--count must be at least 1"),
        (["--count", "3", "--vertices", "-1"], "nonnegative"),
        (["--count", "3", "--sets-every", "-2"], "nonnegative"),
        (["--count", "3", "--vertices", "0", "--sets-every", "0"], "checks no verdict"),
        (["--count", "3", "--coeff-bound", "0"], "coeff_bound"),
        (["--count", "3", "--max-dim", "0"], "max_dim"),
        (["--count", "3", "--max-eqs", "-1"], "max_eqs"),
    ],
)
def test_sweep_rejects_runs_that_check_nothing(sweep, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        sweep.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_sweep_small_run_is_clean(sweep, capsys):
    assert sweep.main(["--count", "3", "--seed", "5", "--vertices", "1", "--sets-every", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3 instances, ") and "2 set pairs" in out


def test_sweep_with_two_equalities_is_clean(sweep, capsys):
    # D's with up to two equalities, so the equality frame of the per-point
    # programs and of connect's checks is swept against the independent
    # routes
    assert sweep.main(["--count", "30", "--seed", "7", "--max-eqs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("30 instances, ") and "3 set pairs" in out
    assert "7 connect paths" in out
