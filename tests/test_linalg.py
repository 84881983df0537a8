"""The integer Gram-Schmidt, projection and double description against
Fraction and brute-force oracles."""

import random
from fractions import Fraction

import pytest

from valperm import kernels, linalg, polyhedra
from valperm.permutahedra import permutohedron_vertices
from valperm.polyhedra import double_description

from oracles import (
    cone_solve_by_rowspace_reduction,
    extremal_rays_by_subsets,
    orthogonalize_fraction,
    project_off_fraction,
    rays_modulo_lineality,
)


def test_scale_to_int():
    assert linalg.scale_to_int([Fraction(1, 2), Fraction(-3, 4), 0]) == [2, -3, 0]
    assert linalg.scale_to_int((4, -6, 0)) == [2, -3, 0]
    assert linalg.scale_to_int([Fraction(4), 6]) == [2, 3]
    assert linalg.scale_to_int([0, 0]) == [0, 0]
    out = linalg.scale_to_int((1, 2))
    assert out == [1, 2] and type(out) is list and all(type(x) is int for x in out)


def test_float_rows_are_refused():
    # a float row is refused with TypeError, not read through a missing
    # denominator, in the row scaling and in the solvers that call it
    with pytest.raises(TypeError, match="float 0.5 is not exact"):
        linalg.scale_to_int([0.5, 1])
    with pytest.raises(TypeError, match="float 0.5 is not exact"):
        polyhedra.cone_solve([], [[0.5, 1], [1, 0]], 2)
    points = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(TypeError, match="float 0.5 is not exact"):
        polyhedra.lower_cells(points, [0.5, 0, 0], "abc")
    with pytest.raises(TypeError, match="float 1.5 is not exact"):
        polyhedra.lower_cells([(0, 0), (1.5, 0), (0, 1)], [0, 0, 0], "abc")


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


def has_fraction(row):
    return any(isinstance(x, Fraction) for x in row)


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_orthogonalize_and_project_off_match_fraction_oracle(seed, rational):
    """Rational rows go through ``scale_to_int`` first, and the integer
    results match the Fraction oracles on the rows as drawn; a Fraction
    entry given to the integer functions raises TypeError."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 6)
    rows = random_rows(rng, rng.randint(0, 5), ncols, rational)
    basis = linalg.orthogonalize([linalg.scale_to_int(r) for r in rows])
    assert basis == orthogonalize_fraction(rows)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            assert sum(x * y for x, y in zip(basis[a], basis[b])) == 0
    if any(map(has_fraction, rows)):
        with pytest.raises(TypeError):
            linalg.orthogonalize(rows)
    for v in random_rows(rng, 6, ncols, rational) + rows:
        for b in (basis, []):
            got = linalg.project_off(linalg.scale_to_int(v), b)
            assert got == project_off_fraction(v, b)
            assert all(type(x) is int for x in got)
            if has_fraction(v):
                with pytest.raises(TypeError):
                    linalg.project_off(v, b)


@pytest.mark.parametrize("seed", range(20))
def test_project_rows_off_scales_every_row_by_one_factor(seed):
    """Each output row is the Fraction projection of its row times one
    positive integer common to all rows, so a combination of the rows
    projects to the same combination of the output rows."""
    rng = random.Random(500 + seed)
    ncols = rng.randint(1, 6)
    basis = linalg.orthogonalize([linalg.scale_to_int(r)
                                  for r in random_rows(rng, rng.randint(0, 4), ncols, False)])
    rows = random_rows(rng, rng.randint(1, 5), ncols, False)
    out = linalg.project_rows_off(rows, basis)
    assert len(out) == len(rows) and all(type(x) is int for row in out for x in row)
    factors = set()
    for v, w in zip(rows, out):
        exact = [Fraction(x) for x in v]
        for u in basis:
            coef = Fraction(sum(a * b for a, b in zip(v, u)), sum(x * x for x in u))
            exact = [a - coef * b for a, b in zip(exact, u)]
        k = next((j for j, x in enumerate(exact) if x), None)
        if k is None:
            assert not any(w)
        else:
            factors.add(w[k] / exact[k])
            assert w == [w[k] / exact[k] * x for x in exact]
    assert len(factors) <= 1 and all(f > 0 and f.denominator == 1 for f in factors)
    coefs = [rng.randint(-3, 3) for _ in rows]
    combined = [sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(ncols)]
    assert linalg.project_off(combined, basis) == kernels.vec_gcd_reduce(
        [sum(c * w[j] for c, w in zip(coefs, out)) for j in range(ncols)])


def test_project_off_inside_the_span_is_zero():
    basis = linalg.orthogonalize([[1, 1, 0], [1, 0, 1]])
    assert linalg.project_off([3, 1, 2], basis) == [0, 0, 0]
    assert linalg.project_off([0, 0, 0], []) == [0, 0, 0]
    half = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)]
    assert linalg.project_off(linalg.scale_to_int(half), basis) == [1, -1, -1]
    with pytest.raises(TypeError):
        linalg.project_off(half, basis)


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


def dd_row_events(rows, dim, monkeypatch):
    """Run ``double_description`` on ``rows`` and say how its row loop took
    each row, in the order given with exact repeats dropped: a map from the
    index of each row that ran a double description step to ``(lineality
    left before the row, whether the pointed dimension was then recomputed
    by rank)``.  Every other row met the lineality left."""
    rows = [list(r) for r in dict.fromkeys(map(tuple, rows))]
    steps, recomputed = {}, set()
    insert_row, rank = polyhedra._insert_row, kernels.rank

    def spied_insert_row(rays, masks, vals, bit, dim, keep_positive=True, face=polyhedra._NO_FACE):
        steps[bit.bit_length() - 1] = None
        return insert_row(rays, masks, vals, bit, dim, keep_positive, face)

    def spied_rank(matrix, ncols):
        recomputed.add(max(steps))
        return rank(matrix, ncols)

    with monkeypatch.context() as mp:
        mp.setattr(polyhedra, "_insert_row", spied_insert_row)
        mp.setattr(kernels, "rank", spied_rank)
        double_description(rows, dim)
    return {k: (dim - rank(rows[:k], dim), k in recomputed) for k in steps}


# Each case is taken in the order listed.  The row at the index given
# depends on the rows before it, so it vanishes on the lineality left, and
# it runs a double description step on a cone that still has lineality (or,
# for the opposite pairs, one after which the pointed dimension is
# recomputed by rank).
DEPENDENT_CONES = {
    # (0, 2, 2) scales (0, 1, 1)
    "scaled-copy": ([[0, -1, 1], [0, 1, 1], [0, 2, 2], [1, 0, 0]], 3, 2),
    # (0, 1, 0) = (0, 0, 1) - (0, -1, 1) is negative on one ray, positive on the other
    "difference-of-two-rows": ([[0, -1, 1], [0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]], 3, 2),
    # (0, 1, 0) = (0, 0, 1) + (0, 1, -1)
    "sum-of-two-rows": ([[0, 0, 1], [0, 1, -1], [0, 1, 0], [1, -1, 0]], 3, 2),
    # (0, 1, 0, 1) = (0, 0, 1, 1) - (0, -1, 1, 0)
    "difference-in-four-dimensions": ([[0, -1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1],
                                       [0, 1, 1, -1], [1, 0, 0, 0]], 4, 2),
    # the opposite pair leaves the cone flat, which the pointed dimension
    # learns from a rank recompute, once with lineality left and once without
    "opposite-pair": ([[-1, 0, 0], [1, 0, 0], [1, 0, 1], [1, 1, 0]], 3, 1),
    "opposite-pair-late": ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, -1, 0],
                            [-1, -1, 1, 0], [1, 2, 3, 4]], 4, 4),
}


@pytest.mark.parametrize("case", list(range(60)) + sorted(DEPENDENT_CONES))
def test_double_description_matches_subset_oracle(case):
    if case in DEPENDENT_CONES:
        rows, dim, _ = DEPENDENT_CONES[case]
    else:
        rows, dim = random_pointed_cone(random.Random(1000 + case))
    assert double_description(rows, dim) == extremal_rays_by_subsets(rows, dim)


@pytest.mark.parametrize("case", sorted(DEPENDENT_CONES))
def test_dependent_cones_hit_their_branch(case, monkeypatch):
    rows, dim, k = DEPENDENT_CONES[case]
    assert kernels.rank(rows[:k + 1], dim) == kernels.rank(rows[:k], dim)
    lineality_left, recomputed = dd_row_events(rows, dim, monkeypatch)[k]
    if case.startswith("opposite-pair"):
        assert recomputed and (lineality_left > 0) == (case == "opposite-pair")
    else:
        assert lineality_left > 0 and not recomputed


@pytest.mark.parametrize("seed", range(40))
def test_double_description_does_not_depend_on_row_order(seed):
    rng = random.Random(3000 + seed)
    rows, dim = random_pointed_cone(rng)
    want = double_description(rows, dim)
    for order in (sorted(rows), sorted(rows, reverse=True), rng.sample(rows, len(rows))):
        assert double_description(order, dim) == want


def test_double_description_rank_deficient_after_many_rows(monkeypatch):
    """Rows in the hyperplane z4 = 0, in the order generated, cut three
    lineality vectors into rays early, and every later row vanishes on the
    one left, e4; that lineality is left after the last row, and the rays
    come out modulo it: those of the cone the rows cut in R^3."""
    rng = random.Random(8)
    rows = []
    while len(rows) < 16:
        row = [rng.randint(-5, 5) for _ in range(3)]
        if sum(row) < 0:
            row = [-x for x in row]
        rows.append(row + [0])
    assert kernels.rank(rows, 4) == 3
    distinct = len(set(map(tuple, rows)))
    steps = dd_row_events(rows, 4, monkeypatch)
    assert sorted(steps) == list(range(3, distinct))
    assert all(left == 1 for left, _ in steps.values())
    in_three = extremal_rays_by_subsets([r[:3] for r in rows], 3)
    assert double_description(rows, 4) == [r + [0] for r in in_three] and in_three
    # a row off the hyperplane, taken last, meets e4 and completes the rank
    full = rows + [[6, 0, 0, 1]]
    assert sorted(dd_row_events(full, 4, monkeypatch)) == list(range(3, distinct))
    rays = double_description(full, 4)
    assert rays == extremal_rays_by_subsets(full, 4) and len(rays) > 1


@pytest.mark.parametrize("seed", range(3))
def test_double_description_on_lifted_polar_systems(seed, monkeypatch):
    """The 25-row, dimension-5 systems that ``lower_cells`` hands the double
    description for n = 4 heights, where most positive/negative pairs share
    fewer than dim - 2 tight rows and are dropped before the adjacency scan.
    The hull is solved in affine coordinates of the permutohedron, so each
    cone is pointed, and its rays equal the brute-force rays of the cone."""
    systems = []
    solve = polyhedra.double_description

    def captured(rows, dim, face=None):
        systems.append((rows, dim))
        return solve(rows, dim, face)

    rng = random.Random(seed)
    verts = permutohedron_vertices(4)
    polyhedra._vertical_facets(polyhedra._affine_coordinates(tuple(verts)))  # not captured
    monkeypatch.setattr(polyhedra, "double_description", captured)
    polyhedra.lower_cells(verts, [rng.randint(0, 4 + 8 * seed) for _ in verts], verts)
    ((rows, dim),) = systems
    assert (len(rows), dim) == (25, 5)
    rays = solve(rows, dim)
    assert rays.lineality == [] and rays.pointed == dim
    assert rays == extremal_rays_by_subsets(rows, dim)


def subset_oracle_rays(rows, dim):
    cone = cone_solve_by_rowspace_reduction([], rows, dim, find_rays=extremal_rays_by_subsets)
    return [list(r) for r in cone.rays]


def test_double_description_with_lineality_matches_the_rowspace_reduction():
    """Rows drawn from the span of fewer vectors than the dimension, most
    oriented toward a common point, leave a lineality space; projected off
    it, the rays equal the brute-force rays of the cone in the coordinates
    of the rows' rowspace, where it is pointed."""
    rng = random.Random(5000)
    with_rays = 0
    for _ in range(150):
        dim = rng.randint(2, 6)
        span = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, dim - 1))]
        center = [rng.randint(-2, 2) for _ in range(dim)]
        rows = []
        for _ in range(rng.randint(1, 9)):
            coeffs = [rng.randint(-2, 2) for _ in span]
            row = [sum(c * v[j] for c, v in zip(coeffs, span)) for j in range(dim)]
            if rng.random() < 0.8 and kernels.dot(row, center) < 0:
                row = [-x for x in row]
            rows.append(row)
        assert kernels.nullspace(rows, dim)
        rays = double_description(rows, dim)
        assert rays_modulo_lineality(rows, dim, rays) == subset_oracle_rays(rows, dim)
        with_rays += len(rays) >= 3
    assert with_rays >= 25
