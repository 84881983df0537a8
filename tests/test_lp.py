import random
from fractions import Fraction

import pytest

from lp import lp_feasible


def test_plain_equations():
    ok, x = lp_feasible([([1, 1], 2), ([1, -1], 0)], [], [], 2)
    assert ok and x == [1, 1]


def test_inconsistent_equations():
    ok, x = lp_feasible([([1, 0], 1), ([1, 0], 2)], [], [], 1)
    assert (ok, x) == (False, None)


def test_redundant_and_inconsistent_ranks():
    ok, _ = lp_feasible([([1, 1], 1), ([2, 2], 2)], [], [], 2)
    assert ok
    ok, _ = lp_feasible([([1, 1], 1), ([2, 2], 3)], [], [], 2)
    assert not ok


def test_strict_band():
    ok, x = lp_feasible([], [([1], 0), ([-1], -1)], [], 1)
    assert ok and 0 < x[0] < 1


def test_strict_against_weak_boundary():
    # x >= 0 and -x >= 0 pin x = 0; "x > -1" is satisfiable, "x > 0" is not
    ok, x = lp_feasible([], [([1], -1)], [([1], 0), ([-1], 0)], 1)
    assert ok and x[0] == 0
    ok, x = lp_feasible([], [([1], 0)], [([1], 0), ([-1], 0)], 1)
    assert (ok, x) == (False, None)


def test_strict_far_from_origin():
    ok, x = lp_feasible([], [([1], 5)], [], 1)
    assert ok and x[0] > 5


def test_negative_and_fractional_data():
    ok, x = lp_feasible(
        [([2, 3], Fraction(-1, 2))],
        [([-1, 0], -10)],
        [([0, -1], -10)],
        2,
    )
    assert ok
    assert 2 * x[0] + 3 * x[1] == Fraction(-1, 2)
    assert x[0] < 10 and x[1] <= 10


def test_free_variables_go_negative():
    ok, x = lp_feasible([([1], -7)], [], [], 1)
    assert ok and x == [-7]


def test_mixed_system_with_witness_types():
    ok, x = lp_feasible(
        [([1, 1, 1], 6)],
        [([1, 0, 0], 0), ([0, 1, 0], 0)],
        [([0, 0, 1], 1)],
        3,
    )
    assert ok
    assert all(isinstance(c, Fraction) for c in x)


@pytest.mark.parametrize("seed", range(8))
def test_constructed_feasible_systems(seed):
    # build systems around a known solution point; they must come back feasible
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)
    target = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nvars)]
    eqs, strict, weak = [], [], []
    for _ in range(rng.randint(0, 3)):
        a = [rng.randint(-4, 4) for _ in range(nvars)]
        eqs.append((a, sum(c * t for c, t in zip(a, target))))
    for _ in range(rng.randint(0, 4)):
        a = [rng.randint(-4, 4) for _ in range(nvars)]
        strict.append((a, sum(c * t for c, t in zip(a, target)) - rng.randint(1, 3)))
    for _ in range(rng.randint(0, 4)):
        a = [rng.randint(-4, 4) for _ in range(nvars)]
        weak.append((a, sum(c * t for c, t in zip(a, target)) - rng.randint(0, 2)))
    ok, x = lp_feasible(eqs, strict, weak, nvars)
    assert ok  # witness correctness is asserted inside lp_feasible


@pytest.mark.parametrize("seed", range(8))
def test_constructed_infeasible_systems(seed):
    # a.x > b together with a.x <= b can never hold
    rng = random.Random(100 + seed)
    nvars = rng.randint(1, 4)
    a = [rng.randint(-4, 4) for _ in range(nvars)]
    if not any(a):
        a[0] = 1
    b = rng.randint(-3, 3)
    extra_weak = []
    for _ in range(rng.randint(0, 3)):
        c = [rng.randint(-4, 4) for _ in range(nvars)]
        extra_weak.append((c, -20))  # harmless, keeps the system non-trivial
    ok, x = lp_feasible([], [(a, b)], [([-c for c in a], -b)] + extra_weak, nvars)
    assert (ok, x) == (False, None)
