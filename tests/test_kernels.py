"""Integer kernels against a Fraction Gauss-Jordan oracle and their invariants."""

import random
from fractions import Fraction

import pytest

from valperm import kernels


def rref_oracle(rows, ncols):
    """Plain Fraction Gauss-Jordan, normalized to primitive integer rows."""
    from math import gcd

    work = [[Fraction(x) for x in r] for r in rows if any(r)]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    out = []
    for k in range(r):
        denoms = [x.denominator for x in work[k]]
        mult = 1
        for d in denoms:
            mult = mult * d // gcd(mult, d)
        ints = [int(x * mult) for x in work[k]]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = [x // g for x in ints]
        if ints[pivots[k]] < 0:
            ints = [-x for x in ints]
        out.append(ints)
    return out, pivots


def random_matrix(rng, nrows, ncols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_vec_gcd_reduce():
    assert kernels.vec_gcd_reduce([6, -9, 0]) == [2, -3, 0]
    assert kernels.vec_gcd_reduce([0, 0]) == [0, 0]
    assert kernels.vec_gcd_reduce([-4]) == [-1]
    assert kernels.vec_gcd_reduce([3, 5]) == [3, 5]


def test_dot():
    assert kernels.dot([1, 2, 3], [4, -5, 6]) == 12


def test_rref_matches_fraction_oracle():
    rng = random.Random(20240)
    for _ in range(200):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        mat = random_matrix(rng, nrows, ncols)
        got_rows, got_piv = kernels.rref([list(r) for r in mat], ncols)
        exp_rows, exp_piv = rref_oracle(mat, ncols)
        assert got_piv == exp_piv
        assert got_rows == exp_rows


def test_rref_canonical_under_row_ops():
    rng = random.Random(7)
    for _ in range(50):
        mat = random_matrix(rng, 4, 5)
        base = kernels.rref([list(r) for r in mat], 5)
        shuffled = [list(r) for r in mat]
        rng.shuffle(shuffled)
        factors = [rng.choice([1, 2, -3, 5]) for _ in shuffled]
        scaled = [[x * f for x in r] for f, r in zip(factors, shuffled)]
        assert kernels.rref(scaled, 5) == base


def test_nullspace():
    rng = random.Random(99)
    for _ in range(100):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        mat = random_matrix(rng, nrows, ncols)
        ns = kernels.nullspace([list(r) for r in mat], ncols)
        assert len(ns) == ncols - kernels.rank([list(r) for r in mat], ncols)
        for v in ns:
            for row in mat:
                assert kernels.dot(row, v) == 0
        # basis vectors are primitive and nonzero
        for v in ns:
            assert any(v)
            assert kernels.vec_gcd_reduce(v) == v


def test_combine_ray():
    b = [3, -2, 5]
    p, n = [1, 1, 1], [1, 4, 0]
    wp, wn = kernels.dot(b, p), kernels.dot(b, n)
    assert wp > 0 and wn < 0
    c = kernels.combine_ray(p, n, wp, wn)
    assert kernels.dot(b, c) == 0
    assert any(c)


def random_cases():
    """Seeded int matrices with zero, repeated and scaled rows, wider and
    taller shapes, and the empty matrix, as ``(rows, ncols)`` pairs."""
    rng = random.Random(4242)
    cases = [([], 0), ([], 3), ([[0, 0, 0]], 3), ([[0, 0], [0, 0]], 2)]
    for _ in range(300):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        mat = random_matrix(rng, nrows, ncols, rng.choice([-1, -3, -9]), rng.choice([1, 3, 9]))
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.3:
                mat.append([0] * ncols)
            elif roll < 0.6:
                mat.append(list(rng.choice(mat)))
            else:
                mat.append([rng.choice([-4, 2, 7]) * x for x in rng.choice(mat)])
        rng.shuffle(mat)
        cases.append((mat, ncols))
    return cases


def large_entry_cases():
    """Seeded int matrices with entries up to +-10^6, some rows integer
    combinations of others, so that elimination grows the entries."""
    rng = random.Random(10**6)
    cases = []
    for _ in range(60):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        mat = random_matrix(rng, nrows, ncols, -10**6, 10**6)
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(mat), rng.choice(mat)
            ca, cb = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            mat.append([ca * x + cb * y for x, y in zip(a, b)])
        rng.shuffle(mat)
        cases.append((mat, ncols))
    return cases


def assert_elimination_matches_oracle(mat, ncols):
    """``rref`` and ``rank``, which share one forward pass, against the
    Fraction Gauss-Jordan oracle, leaving their input as it was."""
    expected = rref_oracle(mat, ncols)
    copy = [list(r) for r in mat]
    assert kernels.rref(copy, ncols) == expected, (mat, ncols)
    assert copy == mat
    assert kernels.rank(copy, ncols) == len(expected[0]), (mat, ncols)
    assert copy == mat
    return len(expected[0])


def test_rank_matches_rref():
    """The rank and the RREF of every random case against the oracle."""
    shapes = set()
    for mat, ncols in random_cases():
        rank = assert_elimination_matches_oracle(mat, ncols)
        shapes.add((len(mat) > ncols, len(mat) < ncols, rank < min(len(mat), ncols)))
    assert {(True, False, False), (False, True, False), (True, False, True), (False, True, True)} <= shapes


def test_elimination_with_large_entries_matches_oracle():
    deficient = 0
    for mat, ncols in large_entry_cases():
        deficient += assert_elimination_matches_oracle(mat, ncols) < min(len(mat), ncols)
    assert deficient >= 10


@pytest.mark.parametrize("ncols", range(5))
def test_empty_rows(ncols):
    """No rows: rank 0, an empty echelon form and the identity nullspace
    basis, which ``cone_solve`` relies on for a system without equations."""
    assert kernels.rank([], ncols) == 0
    assert kernels.rref([], ncols) == ([], [])
    identity = [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    assert kernels.nullspace([], ncols) == identity


def test_nullspace_depends_only_on_the_rowspace():
    """The basis is read off the canonical RREF, so the RREF's own rows give
    the same basis, and the input rows are left as they were."""
    for mat, ncols in random_cases():
        rows = [list(r) for r in mat]
        assert kernels.nullspace(kernels.rref(rows, ncols)[0], ncols) == kernels.nullspace(rows, ncols)
        assert rows == mat


@pytest.mark.parametrize("cases", [random_cases, large_entry_cases], ids=["random", "large"])
def test_rank_with_a_stop_is_the_least_of_the_rank_and_the_stop(cases):
    """A rank that stops at ``stop`` pivots reads ``min(rank, stop)`` for a
    stop below, at and above the oracle's rank, and leaves its input as it
    was."""
    stopped = 0
    for mat, ncols in cases():
        true = len(rref_oracle(mat, ncols)[0])
        for stop in {max(true - 1, 0), true, true + 1, ncols}:
            copy = [list(r) for r in mat]
            assert kernels.rank(copy, ncols, stop) == min(true, stop), (mat, ncols, stop)
            assert copy == mat
            stopped += stop < true
    assert stopped >= 50
