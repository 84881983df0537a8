"""The integer Gram-Schmidt, projection and double description against
Fraction and brute-force oracles."""

import random
from fractions import Fraction

import pytest

from valperm import kernels, linalg, polyhedra
from valperm.permutahedra import permutohedron_vertices
from valperm.polyhedra import double_description

from oracles import extremal_rays_by_subsets, orthogonalize_fraction, project_off_fraction


def test_scale_to_int():
    assert linalg.scale_to_int([Fraction(1, 2), Fraction(-3, 4), 0]) == [2, -3, 0]
    assert linalg.scale_to_int((4, -6, 0)) == [2, -3, 0]
    assert linalg.scale_to_int([Fraction(4), 6]) == [2, 3]
    assert linalg.scale_to_int([0, 0]) == [0, 0]
    out = linalg.scale_to_int((1, 2))
    assert out == [1, 2] and type(out) is list and all(type(x) is int for x in out)


def random_entry(rng, rational):
    num = rng.randint(-4, 4)
    return Fraction(num, rng.randint(1, 5)) if rational and rng.random() < 0.5 else num


def random_rows(rng, count, ncols, rational):
    """Random rows mixed with zero rows and combinations of earlier rows."""
    rows = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            rows.append([0] * ncols)
        elif roll < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = random_entry(rng, rational), random_entry(rng, rational)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            rows.append([random_entry(rng, rational) for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_orthogonalize_and_project_off_match_fraction_oracle(seed, rational):
    rng = random.Random(seed)
    ncols = rng.randint(1, 6)
    rows = random_rows(rng, rng.randint(0, 5), ncols, rational)
    basis = linalg.orthogonalize(rows, ncols)
    assert basis == orthogonalize_fraction(rows)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            assert sum(x * y for x, y in zip(basis[a], basis[b])) == 0
    for v in random_rows(rng, 6, ncols, rational) + rows:
        for b in (basis, []):
            got = linalg.project_off(v, b)
            assert got == project_off_fraction(v, b)
            assert all(type(x) is int for x in got)


def test_project_off_inside_the_span_is_zero():
    basis = linalg.orthogonalize([[1, 1, 0], [1, 0, 1]], 3)
    assert linalg.project_off([3, 1, 2], basis) == [0, 0, 0]
    assert linalg.project_off([0, 0, 0], []) == [0, 0, 0]
    assert linalg.project_off([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)], basis) == [1, -1, -1]


def random_pointed_cone(rng):
    """A full-rank row system in dim 3-5 with 6-12 rows, including repeated,
    scaled and zero rows and rows through a common feasible point."""
    dim = rng.randint(3, 5)
    center = [rng.randint(-2, 2) for _ in range(dim)]
    while True:
        rows = []
        for _ in range(rng.randint(6, 12)):
            roll = rng.random()
            if roll < 0.1:
                rows.append([0] * dim)
            elif roll < 0.3 and rows:
                rows.append([rng.randint(1, 2) * x for x in rng.choice(rows)])
            else:
                row = [rng.randint(-3, 3) for _ in range(dim)]
                if rng.random() < 0.7 and sum(a * b for a, b in zip(row, center)) < 0:
                    row = [-x for x in row]
                rows.append(row)
        if kernels.rank(rows, dim) == dim:
            return rows, dim


# Each row that vanishes on the lineality left when it comes, in sorted
# order, depends on the rows before it and runs a double description step on
# a cone that still has lineality.
DEPENDENT_CONES = {
    # (0, 2, 2) scales (0, 1, 1)
    "scaled-copy": ([[0, -1, 1], [0, 1, 1], [0, 2, 2], [1, 0, 0]], 3),
    # (0, 1, 0) = (0, 0, 1) - (0, -1, 1) is negative on one ray, positive on the other
    "difference-of-two-rows": ([[0, -1, 1], [0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]], 3),
    # (0, 1, 0) = (0, 0, 1) + (0, 1, -1)
    "sum-of-two-rows": ([[0, 0, 1], [0, 1, -1], [0, 1, 0], [1, -1, 0]], 3),
    # (0, 1, 0, 1) = (0, 0, 1, 1) - (0, -1, 1, 0)
    "difference-in-four-dimensions": ([[0, -1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1],
                                       [0, 1, 1, -1], [1, 0, 0, 0]], 4),
    # the opposite pair leaves the cone flat, which the pointed dimension
    # learns from a rank recompute, once with lineality left and once without
    "opposite-pair": ([[-1, 0, 0], [1, 0, 0], [1, 0, 1], [1, 1, 0]], 3),
    "opposite-pair-late": ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, -1, 0],
                            [-1, -1, 1, 0], [1, 2, 3, 4]], 4),
}


@pytest.mark.parametrize("case", list(range(60)) + sorted(DEPENDENT_CONES))
def test_double_description_matches_subset_oracle(case):
    if case in DEPENDENT_CONES:
        rows, dim = DEPENDENT_CONES[case]
    else:
        rows, dim = random_pointed_cone(random.Random(1000 + case))
    assert double_description(rows, dim) == extremal_rays_by_subsets(rows, dim)


def test_double_description_rank_deficient_after_many_rows():
    """Rows in the hyperplane z4 = 0 cut three lineality vectors into rays
    early, and every later row vanishes on the one left, e4; that lineality
    is left after the last row, and the full-rank error is raised."""
    rng = random.Random(8)
    rows = []
    while len(rows) < 16:
        row = [rng.randint(-5, 5) for _ in range(3)]
        if sum(row) < 0:
            row = [-x for x in row]
        rows.append(row + [0])
    assert kernels.rank(rows, 4) == 3
    with pytest.raises(ValueError, match="full rank"):
        double_description(rows, 4)
    # a row off the hyperplane, last in sorted order, completes the rank
    full = rows + [[6, 0, 0, 1]]
    assert max(map(tuple, full)) == (6, 0, 0, 1)
    rays = double_description(full, 4)
    assert rays == extremal_rays_by_subsets(full, 4) and len(rays) > 1


@pytest.mark.parametrize("seed", range(3))
def test_double_description_on_lifted_polar_systems(seed, monkeypatch):
    """The 25-row, dimension-5 systems that ``lower_cells`` hands the double
    description for n = 4 heights, where most positive/negative pairs share
    fewer than dim - 2 tight rows and are dropped before the adjacency scan."""
    systems = []
    solve = polyhedra.double_description

    def captured(rows, dim):
        systems.append((rows, dim))
        return solve(rows, dim)

    monkeypatch.setattr(polyhedra, "double_description", captured)
    rng = random.Random(seed)
    verts = permutohedron_vertices(4)
    polyhedra.lower_cells(verts, [rng.randint(0, 4 + 8 * seed) for _ in verts], verts)
    ((rows, dim),) = systems
    assert (len(rows), dim) == (25, 5)
    assert solve(rows, dim) == extremal_rays_by_subsets(rows, dim)
