"""Integer kernels against a Fraction Gauss-Jordan oracle and their invariants."""

import random
from fractions import Fraction

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
