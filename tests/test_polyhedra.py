import importlib.util
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from types import MappingProxyType

import pytest

from valperm import fans, kernels, linalg, polyhedra, subdivisions, valuated
from valperm.permutahedra import (
    enumerate_two_faces,
    mask_indicator,
    permutohedron_vertices,
    subsets_of_size,
)
from valperm.polyhedra import (
    check_extremal,
    cone_cut,
    cone_image,
    cone_solve,
    double_description,
    hull_edges,
    hull_facet_sets,
    incidence_edges,
    lower_cells,
    normalize_rows,
)

from oracles import (
    cone_solve_by_rowspace_reduction,
    extremal_by_full_rank,
    extremal_rays_by_subsets,
    heights_are_affine_by_rank,
    hull_vertices_and_edges_by_lp,
    hypersimplex_edges,
    incidence_edges_by_pair_scan,
    lower_cells_by_support_search,
    lower_cells_in_ambient_coordinates,
    pair_is_face,
    permutohedron_edges,
    ray_tight_masks,
)


# ---------------------------------------------------------------------------
# cones


def test_cone_subspace_only():
    c = cone_solve([[1, 0]], [], 2)
    assert (c.dim, c.lineality_dim, c.rays) == (1, 1, ())
    assert c.lineality == ((0, 1),)
    assert c.is_linear_space


def test_cone_quadrant():
    c = cone_solve([], [[1, 0], [0, 1]], 2)
    assert (c.dim, c.lineality_dim) == (2, 0)
    assert c.rays == ((0, 1), (1, 0))
    assert c.contains((3, 5)) and not c.contains((-1, 0))


def test_cone_opposing_halfspaces():
    c = cone_solve([], [[1, 0], [-1, 0]], 2)
    assert (c.dim, c.lineality_dim, c.rays) == (1, 1, ())
    assert c.lineality == ((0, 1),)


def test_cone_wedge():
    c = cone_solve([], [[1, 1], [1, -1]], 2)
    assert c.rays == ((1, -1), (1, 1))
    assert (c.dim, c.lineality_dim) == (2, 0)


def test_cone_trivial():
    c = cone_solve([[1, 0], [0, 1]], [], 2)
    assert (c.dim, c.lineality_dim, c.rays, c.lineality) == (0, 0, (), ())


def test_cone_unconstrained():
    c = cone_solve([], [], 3)
    assert (c.dim, c.lineality_dim, c.rays) == (3, 3, ())
    assert c.lineality == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_cone_redundant_rows_same_key():
    a = cone_solve([], [[1, 0], [0, 1]], 2)
    b = cone_solve([], [[1, 0], [2, 0], [0, 1], [1, 1], [0, 0]], 2)
    assert a.key == b.key and a == b


def test_double_description_returns_rays_modulo_the_lineality():
    # one representative per ray, which cone_solve projects off the lineality
    assert double_description([[1, 0]], 2) == [[1, 0]]
    assert double_description([[1, 1]], 2) == [[1, 0]]
    c = cone_solve([], [[1, 1]], 2)
    assert (c.lineality, c.rays, c.dim) == (((1, -1),), ((1, 1),), 2)
    rays = double_description([[1, 1, 0], [1, -1, 0]], 3)
    assert (rays, rays.lineality, rays.pointed) == ([[1, -1, 0], [1, 1, 0]], [[0, 0, 1]], 2)
    line = double_description([[1, 0], [-1, 0]], 2)
    assert (line, line.lineality, line.pointed) == ([], [[0, 1]], 0)
    assert double_description([], 3) == []


def test_cone_solve_raises_on_a_wrong_ray(monkeypatch):
    square_cone = [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]]
    assert len(cone_solve([], square_cone, 3).rays) == 4

    def wrong_combine_ray(pos_ray, neg_ray, wpos, wneg):
        return [wneg * y - wpos * x for x, y in zip(pos_ray, neg_ray)]

    monkeypatch.setattr(kernels, "combine_ray", wrong_combine_ray)
    with pytest.raises(RuntimeError, match="^cone_solve: a ray violates its own defining system"):
        cone_solve([], square_cone, 3)


def test_cone_solve_refuses_a_ray_that_is_not_extremal(monkeypatch):
    # a double description that also returns the sum of two of its rays
    # gives a ray that satisfies the system, so only the rank certificate of
    # the ambient cone can refuse it
    solve = polyhedra.double_description

    def padded(rows, dim, face=None):
        rays = solve(rows, dim, face)
        rays.append([x + y for x, y in zip(rays[0], rays[1])])
        return rays

    monkeypatch.setattr(polyhedra, "double_description", padded)
    with pytest.raises(RuntimeError, match="^cone_solve: a ray of a cone is not extremal"):
        cone_solve([], [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]], 3)


@pytest.mark.parametrize("seed", range(6))
def test_cone_canonical_key_random(seed):
    rng = random.Random(seed)
    ambient = 4
    eqs = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(0, 2))]
    ineqs = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(1, 5))]
    base = cone_solve(eqs, ineqs, ambient)

    eq_factors = [rng.choice([-3, -1, 2, 5]) for _ in eqs]
    in_factors = [Fraction(rng.choice([1, 2, 7]), rng.choice([1, 3])) for _ in ineqs]
    eqs2 = [[x * f for x in r] for r, f in zip(eqs, eq_factors)]
    ineqs2 = [[x * f for x in r] for r, f in zip(ineqs, in_factors)]
    rng.shuffle(eqs2)
    rng.shuffle(ineqs2)
    again = cone_solve(eqs2, ineqs2, ambient)
    assert base.key == again.key and base == again


@pytest.mark.parametrize("seed", range(4))
def test_cone_contains_generated_points(seed):
    rng = random.Random(50 + seed)
    ambient = rng.choice([3, 4])
    ineqs = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(rng.randint(2, 5))]
    cone = cone_solve([], ineqs, ambient)
    for v in cone.lineality:
        assert cone.contains(v) and cone.contains([-x for x in v])
    for _ in range(20):
        pt = [0] * ambient
        for r in cone.rays:
            c = rng.randint(0, 3)
            pt = [p + c * x for p, x in zip(pt, r)]
        for l in cone.lineality:
            c = rng.randint(-2, 2)
            pt = [p + c * x for p, x in zip(pt, l)]
        assert cone.contains(pt)


def _mapped(rays, basis):
    """The primitive images ``r . basis`` of ``rays``, as ``cone_image``
    takes them."""
    return [tuple(kernels.vec_gcd_reduce(x)) for x in linalg.mat_mul(rays, basis)]


def _image_modulo_common_lineality(eqs, ineqs, ambient):
    """``cone_image`` of the cone ``eqs = 0, ineqs >= 0`` solved in the
    coordinates of the equations' nullspace modulo the common lineality L
    of the restricted inequalities, on the pivot columns of their RREF,
    where it is pointed; L's image is brought to RREF and checked against
    the system once, and the pivot columns' basis vectors are projected off
    it once, as ``three_term_fan`` does."""
    basis = kernels.nullspace(eqs, ambient)
    reduced = [[kernels.dot(a, b) for b in basis] for a in ineqs]
    red, pivots = kernels.rref(reduced, len(basis))
    common = kernels.nullspace(red, len(basis))
    assert len(pivots) + len(common) == len(basis)
    quotient = cone_solve([], [[r[p] for p in pivots] for r in reduced], len(pivots))
    assert quotient.lineality == ()
    lineality = kernels.rref(linalg.mat_mul(common, basis), ambient)[0]
    eqs, ineqs = polyhedra.normalize_rows(eqs), polyhedra.normalize_rows(ineqs)
    assert not any(kernels.dot(r, v) for r in eqs + ineqs for v in lineality)
    section = linalg.project_rows_off([basis[p] for p in pivots], linalg.orthogonalize(lineality))
    return cone_image(quotient, _mapped(quotient.rays, section), ambient, (), eqs, ineqs, lineality)


@pytest.mark.parametrize("seed", range(6))
def test_cone_image_equals_the_ambient_solve(seed):
    # solve in the coordinates of the equations' nullspace, then map back
    rng = random.Random(70 + seed)
    ambient = rng.randint(3, 6)
    eqs = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(rng.randint(1, 2))]
    ineqs = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(2, 7))]
    image = _image_modulo_common_lineality(eqs, ineqs, ambient)
    want = cone_solve(eqs, ineqs, ambient)
    assert (image.key, image.dim, image.lineality_dim) == (want.key, want.dim, want.lineality_dim)
    assert (image.eqs, image.ineqs, image.tight) == (want.eqs, want.ineqs, want.tight)
    assert image.tight == tuple(ray_tight_masks(image))


@pytest.mark.parametrize("seed", range(8))
def test_cone_image_with_lineality_equals_the_ambient_solve(seed):
    # inequalities drawn from the span of fewer vectors than the equations'
    # nullspace has dimensions, oriented toward a random point of it, leave
    # a common lineality L there: solve modulo L, on the pivot columns of
    # the rows' RREF, then map back with L's image as the lineality
    rng = random.Random(2600 + seed)
    while True:
        ambient = rng.randint(3, 7)
        eqs = [[rng.randint(-2, 2) for _ in range(ambient)]
               for _ in range(rng.randint(0, min(2, ambient - 2)))]
        basis = kernels.nullspace(eqs, ambient)
        spans = [[rng.randint(-2, 2) for _ in range(ambient)]
                 for _ in range(rng.randint(1, len(basis) - 1))]
        weights = [rng.randint(-2, 2) for _ in basis]
        center = [sum(c * b[t] for c, b in zip(weights, basis)) for t in range(ambient)]
        ineqs = []
        for _ in range(rng.randint(2, 7)):
            coefs = [rng.randint(-2, 2) for _ in spans]
            row = [sum(c * g[t] for c, g in zip(coefs, spans)) for t in range(ambient)]
            ineqs.append(row if kernels.dot(row, center) >= 0 else [-x for x in row])
        reduced = [[kernels.dot(a, b) for b in basis] for a in ineqs]
        if kernels.rref(reduced, len(basis))[1]:
            break
    image = _image_modulo_common_lineality(eqs, ineqs, ambient)
    want = cone_solve(eqs, ineqs, ambient)
    assert image.lineality_dim > 0
    assert (image.key, image.dim, image.lineality_dim) == (want.key, want.dim, want.lineality_dim)
    assert (image.eqs, image.ineqs, image.tight) == (want.eqs, want.ineqs, want.tight)
    assert image.tight == tuple(ray_tight_masks(image))


def test_cone_image_refuses_a_ray_off_the_system():
    # the quadrant x, y >= 0 of the plane z = 0, stated with a flipped ray
    basis = [[1, 0, 0], [0, 1, 0]]
    quadrant = cone_solve([], [[1, 0], [0, 1]], 2)
    flipped = replace(quadrant, rays=((-1, 0), (0, 1)))
    system = ((0, 0, 1),), ((1, 0, 0), (0, 1, 0))
    assert cone_image(quadrant, _mapped(quadrant.rays, basis), 3, (), *system, ()).rays == (
        (0, 1, 0), (1, 0, 0))
    with pytest.raises(RuntimeError, match="cone_image: a ray violates its own defining system"):
        cone_image(flipped, _mapped(flipped.rays, basis), 3, (), *system, ())


def test_cone_image_refuses_a_cone_with_lineality():
    # the half-plane x >= 0 of R^2 has the lineality y, which the image's
    # certified lineality would not hold
    half = cone_solve([], [[1, 0]], 2)
    assert half.lineality_dim == 1
    with pytest.raises(RuntimeError, match="^cone_image: the cone is not pointed"):
        cone_image(half, _mapped(half.rays, [[1, 0, 0], [0, 1, 0]]), 3, (), ((0, 0, 1),), ((1, 0, 0),), ())


def assert_solves_like_the_rowspace_reduction(eqs, ineqs, ambient, find_rays=double_description):
    """``cone_solve`` and the rowspace-reduction oracle, finding rays with
    ``find_rays``, give the same cone: key, dimensions, stored system and
    tight masks.  Returns the cone."""
    cone = cone_solve(eqs, ineqs, ambient)
    want = cone_solve_by_rowspace_reduction(eqs, ineqs, ambient, find_rays)
    assert (cone.key, cone.dim, cone.lineality_dim) == (want.key, want.dim, want.lineality_dim)
    assert (cone.eqs, cone.ineqs, cone.tight) == (want.eqs, want.ineqs, want.tight)
    return cone


def test_cone_solve_matches_the_rowspace_reduction_on_random_systems():
    # equations, and inequalities that leave a random subspace free: rows
    # drawn from the span of fewer vectors than the ambient dimension
    rng = random.Random(2525)
    shapes = set()
    for _ in range(300):
        ambient = rng.randint(1, 7)
        span = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(rng.randint(1, ambient))]

        def row():
            coeffs = [rng.randint(-2, 2) for _ in span]
            return [sum(c * v[j] for c, v in zip(coeffs, span)) for j in range(ambient)]

        eqs = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(rng.randint(0, 2))]
        # small enough for the brute-force rays, which share no code with
        # double description
        cone = assert_solves_like_the_rowspace_reduction(eqs, [row() for _ in range(rng.randint(0, 7))],
                                                         ambient, extremal_rays_by_subsets)
        shapes.add((bool(cone.eqs), cone.lineality_dim > 0, len(cone.rays) > 1))
    assert len(shapes) == 8


def test_cone_solve_matches_the_rowspace_reduction_on_the_fan4_first_level():
    # the three systems the n = 4 fan search solves, one per pair of the
    # first hexagon, in the reduced coordinates of the 2-skeleton space, and
    # the same choices stated in R^24 with all of the base equations
    verts, base_eqs, diag_rows = fans._context(4)
    basis = kernels.nullspace(base_eqs, len(verts))
    first = [[kernels.dot(r, b) for b in basis] for r in diag_rows[0]]
    for pair in fans._PAIRS:
        reduced = assert_solves_like_the_rowspace_reduction(
            *fans._choice_system([], [first], (pair,)), len(basis))
        full = assert_solves_like_the_rowspace_reduction(
            *fans._choice_system(base_eqs, diag_rows[:1], (pair,)), len(verts))
        assert reduced.lineality_dim > 0 and full.lineality_dim > 0 and len(full.eqs) > 10


def test_cone_solve_matches_the_rowspace_reduction_on_every_flags4_seed1_hull():
    # the lifted system in all four coordinates of the permutohedron, which
    # spans a hyperplane, so the cone has a lineality line
    verts = permutohedron_vertices(4)
    count = 0
    for heights in flags4_heights(1):
        eqs, ineqs, ambient = lifted_dual_system(verts, heights)
        assert assert_solves_like_the_rowspace_reduction(eqs, ineqs, ambient).lineality_dim == 1
        count += 1
    assert count == 480


def random_three_dim_cone(rng):
    """A ``cone_solve`` cone of dimension 3 modulo its lineality, in ambient
    dimension 3-6, with 0-3 equations and 3-9 inequalities oriented toward a
    random point of the equations' nullspace; the inequalities leave the last
    ``lin`` coordinates free, which gives a lineality space of dimension up
    to ``lin``."""
    while True:
        ambient = rng.randint(3, 6)
        lin = rng.randint(0, ambient - 3)
        used = ambient - lin
        eqs = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(rng.randint(0, used - 3))]
        null = kernels.nullspace(eqs, ambient)
        center = [sum(rng.randint(-2, 2) * v[t] for v in null) for t in range(ambient)]
        ineqs = []
        for _ in range(rng.randint(3, 9)):
            row = [rng.randint(-3, 3) for _ in range(used)] + [0] * lin
            if kernels.dot(row, center) < 0:
                row = [-x for x in row]
            ineqs.append(row)
        cone = cone_solve(eqs, ineqs, ambient)
        if cone.dim - cone.lineality_dim == 3:
            return cone


def test_incidence_edges_match_pair_oracle_on_random_cones():
    rng = random.Random(909)
    shapes = set()
    for _ in range(80):
        cone = random_three_dim_cone(rng)
        want = [(i, j) for i, j in combinations(range(len(cone.rays)), 2) if pair_is_face(cone, i, j)]
        assert cone.tight == tuple(ray_tight_masks(cone))
        assert incidence_edges(cone.tight) == want
        # the 2-faces of a 3-dimensional pointed cone form one cycle
        assert len(want) == len(cone.rays)
        shapes.add((cone.lineality_dim > 0, len(cone.rays) > 3, bool(cone.eqs)))
    assert {(False, False, False), (True, False, False), (False, True, False),
            (True, True, False), (False, True, True)} <= shapes


def test_incidence_edges_match_the_pair_scan_on_random_masks():
    rng = random.Random(2323)
    for _ in range(400):
        facets = rng.randint(0, 8)
        tight = [rng.getrandbits(facets) if facets else 0 for _ in range(rng.randint(0, 9))]
        if rng.random() < 0.3 and tight:
            tight.append(rng.choice(tight))  # two elements on the same facets
        assert incidence_edges(tight) == incidence_edges_by_pair_scan(tight)


def test_incidence_edges_small_cases():
    assert incidence_edges([]) == []
    assert incidence_edges([0, 0]) == [(0, 1)]
    assert incidence_edges([0, 0, 0]) == []
    # a square: vertex k lies on facets k and k - 1 (mod 4)
    square = [0b1001, 0b0011, 0b0110, 0b1100]
    assert incidence_edges(square) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    # a point inside the square lies on no facet and blocks no edge
    assert incidence_edges(square + [0]) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def _hexagon_rows():
    """Height-space rows over the six sorted vertices of the n=3 permutohedron."""
    verts = sorted(permutohedron_vertices(3))
    assert verts == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    alt = [1, -1, -1, 1, 1, -1]  # alternating-sum row of the hexagon cycle
    diag = {
        1: [1, 0, 0, 0, 0, 1],  # 123 + 321
        2: [0, 1, 0, 0, 1, 0],  # 132 + 312
        3: [0, 0, 1, 1, 0, 0],  # 213 + 231
    }
    total = [1] * 6
    return alt, diag, total


def test_hexagon_height_cones():
    alt, diag, total = _hexagon_rows()

    def minus(a, b):
        return [x - y for x, y in zip(a, b)]

    eq_choice = minus(diag[2], diag[3])
    ineqs = [minus(diag[2], diag[1]), minus(diag[3], diag[1])]

    choice_only = cone_solve([eq_choice], ineqs, 6)
    assert (choice_only.dim, choice_only.lineality_dim, len(choice_only.rays)) == (5, 4, 1)

    with_alt = cone_solve([eq_choice, alt], ineqs, 6)
    assert (with_alt.dim, with_alt.lineality_dim, len(with_alt.rays)) == (4, 3, 1)

    normalized = cone_solve([eq_choice, alt, total], ineqs, 6)
    assert (normalized.dim, normalized.lineality_dim, len(normalized.rays)) == (3, 2, 1)

    # the single ray is strictly on the chosen side
    ray = normalized.rays[0]
    assert sum(a * b for a, b in zip(ineqs[0], ray)) > 0

    keys = set()
    for lo in (1, 2, 3):
        hi = [d for d in (1, 2, 3) if d != lo]
        sys_eq = [minus(diag[hi[0]], diag[hi[1]]), alt, total]
        sys_in = [minus(diag[h], diag[lo]) for h in hi]
        cone = cone_solve(sys_eq, sys_in, 6)
        assert (cone.dim, cone.lineality_dim, len(cone.rays)) == (3, 2, 1)
        keys.add(cone.key)
    assert len(keys) == 3


# ---------------------------------------------------------------------------
# hulls


def test_hull_triangle():
    verts, edges = hull_edges([(0, 0), (1, 0), (0, 1)], ["a", "b", "c"])
    assert verts == ["a", "b", "c"]
    assert edges == [("a", "b"), ("a", "c"), ("b", "c")]


def test_hull_square_center_duplicate():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2)), (0, 0)]
    verts, edges = hull_edges(pts, ["a", "b", "c", "d", "e", "z"])
    assert verts == ["a", "b", "c", "d"]
    assert edges == [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]


def test_hull_segment_with_midpoint():
    verts, edges = hull_edges([(0,), (2,), (1,)], [0, 2, 1])
    assert (verts, edges) == ([0, 2], [(0, 2)])


def test_hull_single_point():
    verts, edges = hull_edges([(1, 1), (1, 1)], ["p", "q"])
    assert (verts, edges) == (["p"], [])


def test_hull_cube():
    pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    verts, edges = hull_edges(pts, pts)
    assert len(verts) == 8 and len(edges) == 12
    assert all(sum(abs(a - b) for a, b in zip(u, v)) == 1 for u, v in edges)


@pytest.mark.parametrize("n", [3, 4])
def test_hull_matches_permutohedron_graph(n):
    pts = permutohedron_vertices(n)
    verts, edges = hull_edges(pts, pts)
    assert verts == pts
    assert edges == permutohedron_edges(n)


def test_hull_matches_hypersimplex_graph():
    masks = sorted(subsets_of_size(4, 2))
    pts = [mask_indicator(m, 4) for m in masks]
    verts, edges = hull_edges(pts, masks)
    assert verts == masks
    assert edges == hypersimplex_edges(2, 4)
    assert len(edges) == 12  # the octahedron


@pytest.mark.parametrize("seed", range(6))
def test_hull_vs_lp_oracle(seed):
    rng = random.Random(seed)
    dim = rng.choice([3, 4])
    npts = rng.randint(5, min(9, 2**dim))
    pts = set()
    while len(pts) < npts:
        pts.add(tuple(rng.randint(0, 1) for _ in range(dim)))
    pts = sorted(pts)
    labels = list(range(len(pts)))
    assert hull_edges(pts, labels) == hull_vertices_and_edges_by_lp(pts, labels)


def test_two_face_census_from_facets_n5():
    # the permutohedron is simple, so its 2-faces are intersections of facet
    # pairs; faces with 4 or 6 points are exactly the squares and hexagons
    pts = permutohedron_vertices(5)
    facets = hull_facet_sets(pts)
    assert len(facets) == 2**5 - 2
    faces = set()
    for f, g in combinations(facets, 2):
        common = f & g
        if len(common) in (4, 6):
            faces.add(common)
    sizes = sorted(len(f) for f in faces)
    assert sizes.count(6) == 60 and sizes.count(4) == 90
    census = enumerate_two_faces(5)
    assert sum(1 for t in census if t.kind == "hexagon") == 60
    assert sum(1 for t in census if t.kind == "square") == 90
    assert {frozenset(pts.index(v) for v in t.vertices) for t in census} == faces


# ---------------------------------------------------------------------------
# lower cells / regular subdivisions


def test_lower_affine_single_cell():
    # the one cell is the lower facet of the lifted hull, and its points'
    # masks decide its vertices and edges as its own hull does
    verts = sorted(permutohedron_vertices(3))
    heights = [v[0] for v in verts]
    cells, tight = lower_cells(verts, heights, verts)
    assert cells == [tuple(verts)] and all(tight)
    assert hull_edges(verts, verts, tight) == hull_edges(verts, verts)


HEXAGON_HEIGHTS = {
    (1, 2, 3): 4,
    (2, 1, 3): 5,
    (1, 3, 2): 2,
    (3, 1, 2): 4,
    (2, 3, 1): 2,
    (3, 2, 1): 3,
}


def test_lower_hexagon_splits_into_two_quadrilaterals():
    verts = sorted(HEXAGON_HEIGHTS)
    heights = [HEXAGON_HEIGHTS[v] for v in verts]
    cells, _ = lower_cells(verts, heights, verts)
    assert cells == [
        ((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2)),
        ((1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)),
    ]
    assert cells == lower_cells_by_support_search(verts, heights, verts)


def test_lower_octahedron_split():
    masks = sorted(subsets_of_size(4, 2))
    pts = [mask_indicator(m, 4) for m in masks]
    heights = [1 if mask_indicator(m, 4) in ((1, 1, 0, 0), (0, 0, 1, 1)) else 0 for m in masks]
    labels = ["".join(str(i + 1) for i in range(4) if m >> i & 1) for m in masks]
    cells, _ = lower_cells(pts, heights, labels)
    assert cells == [
        ("12", "13", "14", "23", "24"),
        ("13", "14", "23", "24", "34"),
    ]
    assert cells == lower_cells_by_support_search(pts, heights, labels)


@pytest.mark.parametrize("seed", range(5))
def test_lower_vs_support_search(seed):
    rng = random.Random(200 + seed)
    pts = set()
    while len(pts) < rng.randint(6, 7):
        pts.add(tuple(rng.randint(0, 1) for _ in range(3)))
    pts = sorted(pts)
    heights = [rng.randint(0, 3) for _ in pts]
    labels = list(range(len(pts)))
    assert lower_cells(pts, heights, labels)[0] == lower_cells_by_support_search(pts, heights, labels)


def assert_lower_cell_masks_give_each_cells_own_hull(pts, heights):
    """The lifted-facet masks of ``lower_cells`` decide every cell's vertices
    and edges as the cell's own hull does; returns how many cell points are
    not vertices of their cell."""
    labels = list(range(len(pts)))
    cells, tight = lower_cells(pts, heights, labels)
    assert all(tight[i] for cell in cells for i in cell)
    inner = 0
    for cell in cells:
        own = hull_edges([pts[i] for i in cell], list(cell))
        assert hull_edges([pts[i] for i in cell], list(cell), [tight[i] for i in cell]) == own
        inner += len(cell) - len(own[0])
    return inner


@pytest.mark.parametrize("seed", range(8))
def test_lower_cell_masks_give_each_cells_own_hull(seed):
    rng = random.Random(300 + seed)
    dim = rng.choice([2, 3])
    pts = set()
    while len(pts) < rng.randint(6, 9):
        pts.add(tuple(rng.randint(0, 2) for _ in range(dim)))
    pts = sorted(pts)
    assert_lower_cell_masks_give_each_cells_own_hull(pts, [rng.randint(0, 3) for _ in pts])


def test_lower_cell_masks_skip_points_that_are_not_cell_vertices():
    # |x - 1| + |y - 1| on the 3x3 grid gives four unit squares; |x - 1|
    # gives two 1x2 rectangles, each holding the midpoints of its long sides,
    # and on the 3x3x2 grid two boxes, each holding four such midpoints
    grid = [(x, y) for x in range(3) for y in range(3)]
    assert assert_lower_cell_masks_give_each_cells_own_hull(grid, [abs(x - 1) + abs(y - 1) for x, y in grid]) == 0
    assert assert_lower_cell_masks_give_each_cells_own_hull(grid, [abs(x - 1) for x, y in grid]) == 4
    prism = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]
    assert assert_lower_cell_masks_give_each_cells_own_hull(prism, [abs(x - 1) for x, y, z in prism]) == 8


def test_lower_cell_masks_mark_lower_and_vertical_facets():
    verts = sorted(HEXAGON_HEIGHTS)
    cells, tight = lower_cells(verts, [HEXAGON_HEIGHTS[v] for v in verts], verts)
    # two lower facets and the hexagon's six sides: every vertex lies on one
    # or two cells and on two sides
    used = 0
    for t in tight:
        used |= t
    assert used == (1 << 8) - 1
    for v, t in zip(verts, tight):
        assert bin(t).count("1") == 2 + sum(v in c for c in cells)


def test_hull_edges_rejects_wrong_facet_count():
    with pytest.raises(ValueError, match="facet mask"):
        hull_edges([(0, 0), (1, 0)], ["a", "b"], [1])


@pytest.mark.parametrize("call", [
    lambda: hull_facet_sets([]),
    lambda: hull_edges([], []),
    lambda: lower_cells([], [], []),
], ids=["hull_facet_sets", "hull_edges", "lower_cells"])
def test_empty_point_lists_are_refused(call):
    with pytest.raises(ValueError, match="needs at least one point"):
        call()


def test_lower_rejects_duplicate_points():
    with pytest.raises(ValueError, match="distinct"):
        lower_cells([(0, 0), (0, 0)], [0, 1], ["a", "b"])


def test_lower_rejects_duplicate_labels():
    # two points of one label would merge into one in a cell, as hull_edges
    # refuses them too
    with pytest.raises(ValueError, match="^lower_cells needs one unique label per point$"):
        lower_cells([(0, 0), (1, 0), (0, 1), (1, 1)], [0, 0, 0, 1], ["a", "a", "b", "c"])


# kernels.dot zips, so a row or point of another length would be truncated
# or padded without a word: every entry point refuses it as bad input
@pytest.mark.parametrize("call, caller", [
    (lambda: cone_solve([], [[1, 0], [0, 1, 3]], 2), "cone_solve"),
    (lambda: cone_solve([[1]], [[1, 0]], 2), "cone_solve"),
    (lambda: cone_cut(cone_solve([], [[1, 0]], 2), (), ((0, 1, 3),)), "cone_cut"),
    (lambda: cone_cut(cone_solve([], [[1, 0]], 2), ((1,),), ()), "cone_cut"),
    (lambda: double_description([[1, 0], [0, 1, 3]], 2), "double_description"),
], ids=["long-inequality", "short-equation", "cut-long", "cut-short", "double-description"])
def test_rows_of_the_wrong_length_are_refused(call, caller):
    with pytest.raises(ValueError, match=f"^{caller}: a row of length"):
        call()


MIXED_POINTS = [(0, 0), (1, 0), (0, 1, 5)]


@pytest.mark.parametrize("call, caller", [
    (lambda: hull_facet_sets(MIXED_POINTS), "hull_facet_sets"),
    (lambda: hull_edges(MIXED_POINTS, ["a", "b", "c"]), "hull_edges"),
    (lambda: hull_edges(MIXED_POINTS, ["a", "b", "c"], [1, 1, 1]), "hull_edges"),
    (lambda: lower_cells(MIXED_POINTS, [0, 0, 1], ["a", "b", "c"]), "lower_cells"),
], ids=["hull_facet_sets", "hull_edges", "hull_edges-with-facets", "lower_cells"])
def test_points_of_mixed_length_are_refused(call, caller):
    with pytest.raises(ValueError, match=f"^{caller}: a point of length 3, not 2"):
        call()


# ---------------------------------------------------------------------------
# the vertical facets of the lifted hull, certified once per point set


def assert_the_run_is_the_plain_loop(rows, dim, face):
    """The double description row loop with the face's run and without it:
    the same rays with the same masks, the same lineality and the same
    pointed dimension."""
    rows = [tuple(r) for r in rows]

    def loop(faces):
        identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
        lin, rays, masks, pointed, _ = polyhedra._cut(identity, [], [], 0, 0, (), rows, dim, faces)
        assert len(set(rays)) == len(rays)
        return lin, dict(zip(rays, masks)), pointed

    assert loop(polyhedra._run_faces(face, rows, dim)) == loop(None)


def lower_cells_with_and_without_face(points, heights, labels):
    """``lower_cells`` as it is, and with its lifted dual cone solved by a
    plain ``cone_solve`` that certifies every ray; both results and both cones
    must be equal, tight masks included, and the row loop must give the same
    rays and masks with the face's run as without.  Returns the result."""
    real = polyhedra.cone_solve
    results, cones = [], []
    for keep_face in (True, False):
        def solve(eqs, ineqs, ambient, face=None):
            if face is None:
                return real(eqs, ineqs, ambient)
            cone = real(eqs, ineqs, ambient, face=face if keep_face else None)
            if keep_face:
                assert_the_run_is_the_plain_loop(cone.ineqs, ambient, face)
            cones.append(cone)
            return cone

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyhedra, "cone_solve", solve)
            results.append(lower_cells(points, heights, labels))
    with_face, plain = cones
    assert with_face == plain
    assert (with_face.tight, with_face.ineqs) == (plain.tight, plain.ineqs)
    assert results[0] == results[1]
    return results[0]


@lru_cache(maxsize=None)
def flags4_heights(seed):
    """The integer heights that the benchmark's ``flags4`` workload lifts,
    one tuple over the sorted n = 4 vertices per flag of its seeded stream,
    built once per seed in a test run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("flags4_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    matrices, _ = workloads.random_matrices(4, seed, workloads.flag_count(40))
    verts = permutohedron_vertices(4)
    out = []
    for matrix in matrices:
        value_maps, _ = valuated.tropicalize_matrix(matrix)
        w = subdivisions.compress_on_vertices(subdivisions.ValuatedFlagMatroid(value_maps))
        out.append(tuple(w._ints[v] for v in verts))
    return tuple(out)


def test_incidence_edges_match_the_pair_scan_on_every_flags4_seed1_cell(monkeypatch):
    # each cell's vertices and edges, read from the lifted hull's masks as
    # subdivide reads them
    all_heights = list(flags4_heights(1))
    calls = []
    real = polyhedra.incidence_edges

    def checked(tight):
        calls.append(1)
        edges = real(tight)
        assert edges == incidence_edges_by_pair_scan(tight)
        return edges

    monkeypatch.setattr(polyhedra, "incidence_edges", checked)
    verts = permutohedron_vertices(4)
    cells = 0
    for heights in all_heights:
        cell_labels, tight = lower_cells(verts, heights, verts)
        for cell in cell_labels:
            idx = [verts.index(v) for v in cell]
            hull_edges(list(cell), list(cell), [tight[i] for i in idx])
            cells += 1
    assert len(calls) == cells > 1900


def test_face_is_exact_on_every_flags4_seed1_hull():
    verts = permutohedron_vertices(4)
    count = 0
    for heights in flags4_heights(1):
        cells, tight = lower_cells_with_and_without_face(verts, heights, verts)
        assert cells and all(tight)
        count += 1
    assert count == 480


@pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1)])
def test_face_is_exact_on_seeded_permutohedron_heights(n, seed):
    rng = random.Random(f"vertical/{n}/{seed}")
    verts = permutohedron_vertices(n)
    cells, _ = lower_cells_with_and_without_face(verts, [rng.randint(0, 9) for _ in verts], verts)
    assert len(cells) > 1


@pytest.mark.parametrize("n", [3, 4])
def test_face_is_exact_on_affine_heights(n):
    verts = permutohedron_vertices(n)
    heights = [Fraction(3 * v[0] - v[-1], 2) + 1 for v in verts]
    assert lower_cells_with_and_without_face(verts, heights, verts)[0] == [tuple(verts)]


@pytest.mark.parametrize("n", [3, 4])
def test_face_is_exact_on_mixed_denominator_heights(n):
    # each lifted row is scaled by its own denominator, so its vertical part
    # is a multiple of the run's row, not the row itself
    rng = random.Random(f"vertical/mixed/{n}")
    verts = permutohedron_vertices(n)
    for _ in range(4):
        heights = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 6))) for _ in verts]
        assert lower_cells_with_and_without_face(verts, heights, verts)[0]


@pytest.mark.parametrize("dim,seed", [(2, s) for s in range(5)] + [(3, s) for s in range(5)])
def test_face_is_exact_on_random_point_sets(dim, seed):
    rng = random.Random(f"vertical/points/{dim}/{seed}")
    pts = set()
    while len(pts) < rng.randint(dim + 2, 8):
        pts.add(tuple(rng.randint(-5, 5) for _ in range(dim)))
    pts = sorted(pts)
    heights = [rng.randint(0, 4) for _ in pts]
    labels = list(range(len(pts)))
    cells, _ = lower_cells_with_and_without_face(pts, heights, labels)
    assert cells == lower_cells_by_support_search(pts, heights, labels)


@pytest.mark.parametrize("pts", [
    [(0, 0), (1, 1), (2, 2), (4, 4)],
    [(0, 0, 1), (1, 0, 1), (0, 2, 1), (1, 1, 1), (3, 1, 1)],
], ids=["collinear-in-R2", "coplanar-in-R3"])
def test_face_is_exact_on_point_sets_with_lineality(pts):
    """Points spanning a proper affine subspace would give the dual cone a
    lineality; in coordinates of their affine hull they span the space,
    and the hull is solved there."""
    heights = [(3 * i) % 4 for i in range(len(pts))]
    labels = list(range(len(pts)))
    cells, _ = lower_cells_with_and_without_face(pts, heights, labels)
    assert cells == lower_cells_by_support_search(pts, heights, labels)
    assert len(polyhedra._affine_coordinates(tuple(pts))[0]) == len(pts[0]) - 1


def test_lower_one_cell_that_misses_a_point_is_not_affine():
    # the middle points are lifted above the segment from the first to the
    # last, so the one cell holds two of the four points; each end also lies
    # on its vertical facet
    pts = [(0, 0), (1, 1), (2, 2), (4, 4)]
    assert lower_cells(pts, [0, 3, 2, 1], "abcd") == ([("a", "d")], [6, 0, 0, 3])


def test_face_is_exact_on_a_single_point():
    # two facets: the cell, which holds the point, and the vertical one,
    # which does not
    assert lower_cells_with_and_without_face([(2, -1)], [7], ["p"]) == ([("p",)], [2])


def test_vertical_facets_are_certified_once_per_point_set(monkeypatch):
    solves = []
    real = polyhedra.cone_solve
    monkeypatch.setattr(polyhedra, "cone_solve",
                        lambda *args, **kwargs: solves.append(kwargs.get("face")) or real(*args, **kwargs))
    polyhedra._affine_coordinates.cache_clear()
    polyhedra._vertical_facets.cache_clear()
    polyhedra._affine_dependencies.cache_clear()
    verts = permutohedron_vertices(3)
    for heights in ([0, 1, 2, 3, 4, 5], [5, 0, 2, 1, 3, 1], [v[0] for v in verts]):
        lower_cells(verts, heights, verts)
    # the point set once, without a face, then each hull with the face on
    # its upward row, the same face for every hull
    assert solves[0] is None and all(f is solves[1] for f in solves[1:])
    assert isinstance(solves[1], polyhedra.Face) and solves[1].rows[0] == (0, 0, 1, 0)
    assert len(solves) == 4
    # the affine coordinates and dependencies are built once for the point
    # set too
    assert polyhedra._affine_coordinates.cache_info()[:2] == (2, 1)
    assert polyhedra._affine_dependencies.cache_info()[:2] == (2, 1)
    lower_cells(verts[:4], [0, 1, 1, 0], verts[:4])
    assert len(solves) == 6
    assert polyhedra._affine_coordinates.cache_info()[:2] == (2, 2)
    assert polyhedra._affine_dependencies.cache_info()[:2] == (2, 2)


def test_vertical_facet_masks_put_the_upward_row_at_bit_0():
    # bit 0 is the upward row, on which every vertical ray is tight, and bit
    # i + 1 is point i, tight when the ray's unlifted part is tight on it;
    # the permutohedron's first three coordinates span its affine hull
    verts = permutohedron_vertices(4)
    reduced = polyhedra._affine_coordinates(tuple(verts))
    assert reduced == tuple(v[:3] for v in verts)
    facets = polyhedra._vertical_facets(reduced).rays
    assert len(facets) == 14
    for ray, mask in facets.items():
        assert len(ray) == 5 and ray[3] == 0
        unlifted = ray[:3] + ray[4:]
        want = sum(1 << (i + 1) for i, v in enumerate(reduced) if kernels.dot(unlifted, v + (1,)) == 0)
        assert mask == want | 1


def lifted_dual_system(points, heights):
    """The system of the lifted dual cone over ``points`` in their own
    coordinates, upward row first, as ``lower_cells`` hands it to
    ``cone_solve`` for the points in affine coordinates."""
    m = len(points[0])
    rows = [[0] * m + [1, 0]] + [[*p, h, 1] for p, h in zip(points, heights)]
    return [], rows, m + 2


@pytest.mark.parametrize("mutation", ["missing", "extra", "upward-row-last", "bit-past-the-rows"])
def test_cone_solve_refuses_a_face_that_is_not_exact(mutation):
    heights = [HEXAGON_HEIGHTS[v] for v in sorted(HEXAGON_HEIGHTS)]
    verts = polyhedra._affine_coordinates(tuple(sorted(HEXAGON_HEIGHTS)))
    eqs, ineqs, ambient = lifted_dual_system(verts, heights)
    face = polyhedra._vertical_facets(verts)
    with_face = cone_solve(eqs, ineqs, ambient, face=face)
    assert len(with_face.rays) == 8
    assert with_face.tight == cone_solve(eqs, ineqs, ambient).tight
    facets, refusal = dict(face.rays), "^cone_solve: .*certified face"
    if mutation == "missing":
        del facets[min(facets)]
    elif mutation == "extra":
        lower = [r for r in cone_solve(eqs, ineqs, ambient).rays if r not in facets]
        facets[lower[0]] = 0
    elif mutation == "upward-row-last":
        # the vertical rays are still exactly the rays tight on the upward
        # row, but the run took that row first, and its masks too
        ineqs, refusal = ineqs[1:] + ineqs[:1], "^double_description: row 0 does not fit the run"
    else:
        facets = {r: m | 1 << len(ineqs) for r, m in facets.items()}
    with pytest.raises(RuntimeError, match=refusal):
        cone_solve(eqs, ineqs, ambient, face=replace(face, rays=MappingProxyType(facets)))


@pytest.mark.parametrize("mutation", ["a-point-moved", "a-row-negated", "a-point-dropped",
                                      "another-dimension"])
def test_double_description_refuses_rows_that_do_not_fit_the_run(mutation):
    # the run holds for rows that differ from its own by a positive factor
    # and a height; any other row, order or shape of system is refused
    heights = [HEXAGON_HEIGHTS[v] for v in sorted(HEXAGON_HEIGHTS)]
    verts = polyhedra._affine_coordinates(tuple(sorted(HEXAGON_HEIGHTS)))
    face = polyhedra._vertical_facets(verts)
    _, rows, dim = lifted_dual_system(verts, heights)
    rows = [tuple(r) for r in normalize_rows(rows)]
    assert double_description(rows, dim, face) == double_description(rows, dim)
    if mutation == "a-point-moved":
        rows[3] = (rows[3][0] + 1, *rows[3][1:])
    elif mutation == "a-row-negated":
        rows[3] = tuple(-x for x in rows[3])
    elif mutation == "a-point-dropped":
        rows = rows[:-1]
    else:
        rows, dim = [r + (0,) for r in rows], dim + 1
    with pytest.raises(RuntimeError, match="^double_description: .* fit the run of the face"):
        double_description(rows, dim, face)


def test_lower_cells_refuses_a_lifted_dual_cone_with_a_lineality(monkeypatch):
    # the hexagon spans a plane of R^3: solved in all three coordinates,
    # its vertical facets match the lifted cone's, lineality and all, the
    # run with them is the plain loop, and only the certificate that the
    # cone is pointed refuses it
    verts = sorted(HEXAGON_HEIGHTS)
    heights = [HEXAGON_HEIGHTS[v] for v in verts]
    monkeypatch.setattr(polyhedra, "_affine_coordinates", lambda pts: pts)
    with pytest.raises(RuntimeError, match="^lower_cells: the lifted dual cone is not pointed"):
        lower_cells(verts, heights, verts)
    _, rows, dim = lifted_dual_system(verts, heights)
    assert_the_run_is_the_plain_loop(normalize_rows(rows), dim, polyhedra._vertical_facets(tuple(verts)))
    assert double_description(normalize_rows(rows), dim).lineality


@pytest.mark.parametrize("mutation", ["a-face-ray-dropped", "a-mask-bit-flipped"])
def test_vertical_facets_refuse_a_run_that_misses_the_certified_face(mutation, monkeypatch):
    # the run's loop, broken at its last row, must leave the certified
    # vertical facets, rays and masks, or the run is refused
    verts = polyhedra._affine_coordinates(tuple(sorted(HEXAGON_HEIGHTS)))
    real = polyhedra._cut

    def broken(lin, rays, masks, pointed, done, eqs, ineqs, ambient, faces=None):
        lin, rays, masks, pointed, made = real(lin, rays, masks, pointed, done, eqs, ineqs, ambient, faces)
        if done == len(verts):  # the run's last row
            i = next(i for i, mask in enumerate(masks) if mask & 1)
            if mutation == "a-face-ray-dropped":
                del rays[i], masks[i]
            else:
                masks[i] ^= 1 << done
        return lin, rays, masks, pointed, made

    monkeypatch.setattr(polyhedra, "_cut", broken)
    polyhedra._vertical_facets.cache_clear()
    with pytest.raises(RuntimeError, match="^_vertical_facets: the run's last face is not the certified"):
        polyhedra._vertical_facets(verts)
    monkeypatch.undo()
    assert len(polyhedra._vertical_facets(verts).rays) == 6


# ---------------------------------------------------------------------------
# the hull in coordinates of the points' affine hull, against the hull in
# their own coordinates


def facet_point_sets(tight):
    """The facets of a lifted hull as the sorted list of the point sets on
    them, read from the points' masks: the same for any numbering of the
    facets."""
    width = max(tight).bit_length()
    return sorted(sorted(i for i, t in enumerate(tight) if t >> f & 1) for f in range(width))


def assert_lower_cells_match_the_ambient_hull(points, heights, labels):
    """``lower_cells`` and the hull it solved in the points' own
    coordinates give the same cells and the same facets on the same
    points; returns the cells."""
    cells, tight = lower_cells(points, heights, labels)
    ambient_cells, ambient_tight = lower_cells_in_ambient_coordinates(points, heights, labels)
    assert cells == ambient_cells
    assert facet_point_sets(tight) == facet_point_sets(ambient_tight)
    return cells


AFFINE_COORDINATE_CASES = {
    # the points, and the coordinates that span their affine hull
    "constant-x0-in-R3": ([(5, 0, 0), (5, 1, 0), (5, 0, 1), (5, 1, 1), (5, 2, 1), (5, 1, 3)], (1, 2)),
    "plane-x0+x1=4-in-R3": ([(0, 4, 0), (1, 3, 0), (4, 0, 1), (2, 2, 2), (3, 1, 0), (1, 3, 3)], (0, 2)),
    "collinear-in-R4": ([(t, 2 * t + 1, 3, -t) for t in (-2, 0, 1, 3, 4)], (0,)),
    "one-point": ([(2, -1, 7)], ()),
    "two-points": ([(1, 1, 0), (1, 4, 2)], (1,)),
}


@pytest.mark.parametrize("name", list(AFFINE_COORDINATE_CASES))
def test_affine_coordinates_keep_the_first_coordinates_that_span(name):
    pts, kept = AFFINE_COORDINATE_CASES[name]
    assert polyhedra._affine_coordinates(tuple(pts)) == tuple(tuple(p[j] for j in kept) for p in pts)
    rng = random.Random(f"affine-coordinates/{name}")
    labels = list(range(len(pts)))
    for rational in (False, True):
        for _ in range(3):
            heights = [rng.randint(0, 4) for _ in pts]
            if rational:
                heights = [Fraction(h, rng.randint(1, 3)) for h in heights]
            cells, _ = lower_cells_with_and_without_face(pts, heights, labels)
            assert cells == lower_cells_by_support_search(pts, heights, labels)
            assert cells == assert_lower_cells_match_the_ambient_hull(pts, heights, labels)


@pytest.mark.parametrize("mutation", ["a-pivot-dropped", "a-dependent-column-kept"])
def test_affine_coordinates_certify_the_choice_by_rank(mutation, monkeypatch):
    # the hexagon's columns 1, x0 and x1 span its affine functions and x2
    # is one of them: a choice without x1, or with x2 as well, is refused
    real = kernels.rref

    def rref(rows, ncols):
        red, pivots = real(rows, ncols)
        return red, pivots[:-1] if mutation == "a-pivot-dropped" else pivots + [ncols - 1]

    monkeypatch.setattr(kernels, "rref", rref)
    polyhedra._affine_coordinates.cache_clear()
    with pytest.raises(RuntimeError, match="^_affine_coordinates: the coordinates do not span"):
        polyhedra._affine_coordinates(tuple(sorted(HEXAGON_HEIGHTS)))


def test_lower_cells_match_the_ambient_hull_on_every_flags4_seed1_flag():
    verts = permutohedron_vertices(4)
    count = 0
    for heights in flags4_heights(1):
        assert assert_lower_cells_match_the_ambient_hull(verts, heights, verts)
        count += 1
    assert count == 480


@pytest.mark.parametrize("seed", range(2))
def test_lower_cells_match_the_ambient_hull_on_seeded_n5_heights(seed):
    rng = random.Random(f"ambient/5/{seed}")
    verts = permutohedron_vertices(5)
    heights = [rng.randint(0, 9) for _ in verts]
    assert len(assert_lower_cells_match_the_ambient_hull(verts, heights, verts)) > 1


# ---------------------------------------------------------------------------
# double description in the caller's row order, and the basis of the
# points' affine dependencies that lower_cells reads affinity from
# (_affine_dependencies; the tests named "affine_frame" test it)


def lifted_dd_systems(points, heights_list):
    """The row systems that ``lower_cells`` hands the double description,
    one per height list, upward row first."""
    polyhedra._vertical_facets(polyhedra._affine_coordinates(tuple(points)))  # not captured
    systems = []
    real = polyhedra.double_description

    def captured(rows, dim, face=None):
        systems.append((rows, dim))
        return real(rows, dim, face)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "double_description", captured)
        for heights in heights_list:
            lower_cells(points, heights, points)
    assert len(systems) == len(heights_list)
    return systems


def test_double_description_gives_the_same_rays_with_the_upward_row_last():
    # on the 480 seed-1 flags4 hulls: the rows as lower_cells passes them,
    # the upward row moved last, the old sorted order and one shuffle.  In
    # affine coordinates of the permutohedron each cone is pointed, so its
    # extremal rays do not depend on the order
    rng = random.Random(480)
    count = 0
    for rows, dim in lifted_dd_systems(permutohedron_vertices(4), list(flags4_heights(1))):
        assert (len(rows), dim) == (25, 5)
        assert kernels.nullspace(rows, dim) == []
        want = double_description(rows, dim)
        assert want.lineality == [] and want.pointed == dim
        for order in (rows[1:] + rows[:1], sorted(rows), rng.sample(rows, len(rows))):
            assert double_description(order, dim) == want
        count += 1
    assert count == 480


def test_the_upward_row_comes_first():
    # the first row is the only one that vanishes on every vertical ray
    # and on none of the lower ones, so it is the upward row
    verts = sorted(HEXAGON_HEIGHTS)
    ((rows, dim),) = lifted_dd_systems(verts, [[HEXAGON_HEIGHTS[v] for v in verts]])
    rays = double_description(rows, dim)
    on_first = [kernels.dot(rows[0], r) == 0 for r in rays]
    assert sum(on_first) == 6 and len(rays) == 8
    assert all(sum(kernels.dot(row, r) == 0 for r in rays) != 6 for row in rows[1:])


def dependencies_say_affine(points, heights):
    return not any(sum(c * heights[i] for i, c in mu)
                   for mu in polyhedra._affine_dependencies(tuple(map(tuple, points))))


def assert_dependencies_are_exact(points):
    """Every dependency holds on the points, and there are as many
    independent ones as the points have affine dependencies."""
    deps = polyhedra._affine_dependencies(tuple(map(tuple, points)))
    m = len(points[0])
    homogenized = [list(p) + [1] for p in points]
    scaled = [linalg.scale_to_int(row) for row in homogenized]
    rank = kernels.rank(scaled, m + 1)
    dense = [[dict(mu).get(i, 0) for i in range(len(points))] for mu in deps]
    assert len(deps) == kernels.rank(dense, len(points)) == len(points) - rank
    for mu, row in zip(deps, dense):
        # sparse: the nonzero entries in order, at most rank + 1 of them
        assert [i for i, _ in mu] == [i for i, c in enumerate(row) if c] and len(mu) <= rank + 1
        assert all(type(c) is int for c in row)
        for t in range(m + 1):
            assert sum(c * h[t] for c, h in zip(row, homogenized)) == 0


def affine_heights(points, coeffs, const):
    return [sum(c * x for c, x in zip(coeffs, p)) + const for p in points]


def test_affine_frame_agrees_with_the_rank_test_on_every_flags4_seed1_flag():
    verts = permutohedron_vertices(4)
    assert_dependencies_are_exact(verts)
    for heights in flags4_heights(1):
        assert dependencies_say_affine(verts, heights) == heights_are_affine_by_rank(verts, heights)


@pytest.mark.parametrize("points", [
    permutohedron_vertices(3),
    permutohedron_vertices(4),
    permutohedron_vertices(5),
    [(0, 0), (1, 1), (2, 2), (4, 4)],
    [(0, 0, 1), (1, 0, 1), (0, 2, 1), (1, 1, 1), (3, 1, 1)],
    [(Fraction(1, 2), 0), (0, Fraction(-2, 3)), (1, 1), (2, Fraction(5, 7)), (-1, 3)],
    [(2, -1)],
], ids=["n3", "n4", "n5", "collinear", "coplanar", "fractions", "single-point"])
def test_affine_frame_agrees_with_the_rank_test(points):
    assert_dependencies_are_exact(points)
    rng = random.Random(f"frame/{len(points)}/{len(points[0])}")
    m = len(points[0])
    for k in range(4):
        coeffs = [rng.randint(-4, 4) for _ in range(m)]
        if k % 2:
            coeffs = [Fraction(c, rng.randint(1, 5)) for c in coeffs]
        heights = affine_heights(points, coeffs, rng.choice([0, 3, Fraction(-1, 2)]))
        assert dependencies_say_affine(points, heights) and heights_are_affine_by_rank(points, heights)
        for i in rng.sample(range(len(points)), min(len(points), 12)):
            for step in (1, -1):
                moved = list(heights)
                moved[i] += step
                # a single point can take any height, and on the collinear and
                # coplanar sets the rank test decides it like the dependencies
                said = dependencies_say_affine(points, moved)
                assert said == heights_are_affine_by_rank(points, moved) == (len(points) == 1)
    for _ in range(20):
        heights = [rng.randint(-2, 2) for _ in points]
        assert dependencies_say_affine(points, heights) == heights_are_affine_by_rank(points, heights)


@pytest.mark.parametrize("n", [3, 5])
def test_lower_cells_certifies_affinity_on_permutohedra(n):
    verts = permutohedron_vertices(n)
    rng = random.Random(f"affine-cells/{n}")
    heights = affine_heights(verts, [rng.randint(-3, 3) for _ in range(n)], 2)
    assert lower_cells(verts, heights, verts)[0] == [tuple(verts)]
    heights[rng.randrange(len(verts))] += 1
    assert len(lower_cells(verts, heights, verts)[0]) > 1


def test_affine_frame_refuses_a_corrupted_coordinate(monkeypatch):
    # a nullspace vector with one coordinate off is no dependency, which the
    # exact check refuses
    real = kernels.nullspace

    def corrupted(rows, ncols):
        null = real(rows, ncols)
        if null:
            null[0][0] += 1
        return null

    points = ((0, 0), (3, 0), (0, 3), (1, 1))
    polyhedra._affine_dependencies.cache_clear()
    assert polyhedra._affine_dependencies(points) == (((0, -1), (1, -1), (2, -1), (3, 3)),)
    polyhedra._affine_dependencies.cache_clear()
    monkeypatch.setattr(kernels, "nullspace", corrupted)
    with pytest.raises(RuntimeError, match="^_affine_dependencies: a dependency does not vanish"):
        polyhedra._affine_dependencies(points)
    monkeypatch.undo()
    assert polyhedra._affine_dependencies(points) == (((0, -1), (1, -1), (2, -1), (3, 3)),)


def test_cone_cut_equals_a_fresh_solve_of_the_full_system():
    # random parents with and without lineality, cut by random equations and
    # inequalities: every branch of the cut against cone_solve.  Every other
    # cut has its rows projected off the parent's lineality, so both the cuts
    # that keep the lineality and those that hit it come many times
    rng = random.Random(4242)
    shapes = set()
    kept = hit = made = 0
    for k in range(300):
        ambient = rng.randint(2, 6)
        lin = rng.randint(0, ambient)
        used = ambient - lin

        def row():
            return [rng.randint(-2, 2) for _ in range(used)] + [0] * lin

        parent = cone_solve([row() for _ in range(rng.randint(0, 1))],
                            [row() for _ in range(rng.randint(0, 5))], ambient)
        orth = linalg.orthogonalize(parent.lineality)

        def cut_row():
            r = [rng.randint(-2, 2) for _ in range(ambient)]
            return linalg.project_off(r, orth) if k % 2 else r

        eqs = normalize_rows([cut_row() for _ in range(rng.randint(0, 2))])
        ineqs = normalize_rows([cut_row() for _ in range(rng.randint(0, 3))])
        cut = cone_cut(parent, eqs, ineqs)
        want = cone_solve(parent.eqs + eqs, parent.ineqs + ineqs, ambient)
        assert (cut.key, cut.dim, cut.lineality_dim) == (want.key, want.dim, want.lineality_dim)
        assert (cut.eqs, cut.ineqs, cut.tight) == (want.eqs, want.ineqs, want.tight)
        shapes.add((parent.lineality_dim > cut.lineality_dim, len(cut.rays) > len(parent.rays),
                    cut.dim < parent.dim))
        if cut.lineality_dim == parent.lineality_dim:
            kept += 1
            # a kept lineality leaves the kept rays as they were
            made += not set(cut.rays) <= set(parent.rays)
        else:
            hit += 1
    assert len(shapes) >= 6
    assert kept >= 100 and hit >= 100 and made >= 10


def test_cone_cut_of_a_square_cone():
    # the cone over a square cut by a plane through two opposite rays
    square = cone_solve([], [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]], 3)
    cut = cone_cut(square, ((0, 1, -1),), ())
    assert cut.rays == ((1, -1, -1), (1, 1, 1))
    assert (cut.dim, cut.lineality_dim) == (2, 0)
    half = cone_cut(square, (), ((0, 1, 0),))
    assert half.rays == ((1, 0, -1), (1, 0, 1), (1, 1, -1), (1, 1, 1))
    assert half.tight == tuple(ray_tight_masks(half))


def test_cone_cut_refuses_a_made_ray_off_the_system(monkeypatch):
    # the cone over a square times a line, cut by a row that vanishes on the
    # line: the cut keeps the lineality and makes two rays, which are checked
    # against the whole system, so a combine_ray that returns the opposite
    # ray is caught
    prism = cone_solve([], [[1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 1, 0], [1, 0, -1, 0]], 4)
    half = cone_cut(prism, (), ((0, 1, 0, 0),))
    assert half.lineality == prism.lineality == ((0, 0, 0, 1),)
    assert set(half.rays) - set(prism.rays) == {(1, 0, -1, 0), (1, 0, 1, 0)}
    assert half.tight == tuple(ray_tight_masks(half))

    def wrong_combine_ray(pos_ray, neg_ray, wpos, wneg):
        return [wneg * y - wpos * x for x, y in zip(pos_ray, neg_ray)]

    monkeypatch.setattr(kernels, "combine_ray", wrong_combine_ray)
    with pytest.raises(RuntimeError, match="^cone_cut: a ray violates its own defining system"):
        cone_cut(prism, (), ((0, 1, 0, 0),))


def test_cone_cut_checks_a_made_ray_that_a_later_row_moves(monkeypatch):
    # the prism cut by a row that vanishes on its line, which makes two
    # rays, then by a row that meets the line, which moves them along it
    # and leaves no lineality: the moved rays are still known as made, so
    # a combine_ray that returns the opposite ray is caught
    prism = cone_solve([], [[1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 1, 0], [1, 0, -1, 0]], 4)
    rows = ((0, 1, 0, 0), (0, 0, 1, 1))
    cut = cone_cut(prism, (), rows)
    want = cone_solve([], prism.ineqs + rows, 4)
    assert (cut.key, cut.dim, cut.lineality_dim) == (want.key, want.dim, want.lineality_dim)
    assert cut.lineality == () and cut.tight == want.tight

    def wrong_combine_ray(pos_ray, neg_ray, wpos, wneg):
        return [wneg * y - wpos * x for x, y in zip(pos_ray, neg_ray)]

    monkeypatch.setattr(kernels, "combine_ray", wrong_combine_ray)
    with pytest.raises(RuntimeError, match="^cone_cut: a ray violates its own defining system"):
        cone_cut(prism, (), rows)


def test_cone_cut_rechecks_a_made_ray_equal_to_an_old_one(monkeypatch):
    # a combine_ray that returns its positive ray makes rays equal to rays
    # the cut keeps: they are known as made from the step that made them, so
    # their masks come from the check, not from the step
    prism = cone_solve([], [[1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 1, 0], [1, 0, -1, 0]], 4)
    monkeypatch.setattr(kernels, "combine_ray", lambda pos_ray, neg_ray, wpos, wneg: list(pos_ray))
    half = cone_cut(prism, (), ((0, 1, 0, 0),))
    assert half.rays == ((1, 1, -1, 0), (1, 1, 1, 0))
    assert half.tight == tuple(ray_tight_masks(half))


def test_cone_cut_refuses_a_redundant_ray():
    # a parent with the sum of two rays planted as a third: the cut keeps it
    # and the irredundancy certificate refuses it
    quadrant = cone_solve([], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    planted = replace(quadrant, rays=quadrant.rays + ((1, 1, 0),),
                      tight=quadrant.tight + (quadrant.tight[1] & quadrant.tight[2],))
    assert cone_cut(quadrant, (), ((1, 1, 1),)).rays == quadrant.rays
    with pytest.raises(RuntimeError, match="^cone_cut: a ray is redundant"):
        cone_cut(planted, (), ((1, 1, 1),))


def test_check_extremal_refuses_a_non_extremal_ray():
    quadrant = cone_solve([], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    check_extremal(quadrant, "test")
    inner = replace(quadrant, tight=quadrant.tight[:2] + (quadrant.tight[0] & quadrant.tight[1],))
    with pytest.raises(RuntimeError, match="^test: a ray of a cone is not extremal"):
        check_extremal(inner, "test")


def test_check_extremal_refuses_a_zero_ray_and_a_ray_short_of_a_tight_row():
    # the simplicial cone x0, x1, x2 >= 0 on the plane x0 + x1 + x2 + x3 = 0:
    # the rank stops at the wanted one, which a nonzero ray's tight rows
    # cannot exceed.  A planted zero ray, tight on every row, would reach it
    # too, so it is refused by name; a ray whose mask lost one of its tight
    # rows falls short of it
    cone = cone_solve([[1, 1, 1, 1]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
    assert len(cone.rays) == 3 and all(m.bit_count() == 2 for m in cone.tight)
    check_extremal(cone, "test")
    zero = replace(cone, rays=((0, 0, 0, 0),) + cone.rays[1:], tight=(0b111,) + cone.tight[1:])
    with pytest.raises(RuntimeError, match="^test: a ray of a cone is zero$"):
        check_extremal(zero, "test")
    mask = cone.tight[0]
    short = replace(cone, tight=(mask & (mask - 1),) + cone.tight[1:])
    with pytest.raises(RuntimeError, match="^test: a ray of a cone is not extremal$"):
        check_extremal(short, "test")


def _refusals_agree_with_the_full_rank_oracle(cone, every_bit=True):
    """``check_extremal`` against the full-row rank oracle on ``cone`` and
    on variants of it with one ray's mask less one bit (each bit, or only
    the lowest), or cut to its lowest bit: it must refuse exactly the
    variants whose changed mask the oracle finds non-extremal.  Returns the
    number of variants refused."""
    assert all(extremal_by_full_rank(cone, mask) for mask in cone.tight)
    check_extremal(cone, "test")
    refused = 0
    for i, mask in enumerate(cone.tight):
        bits = [1 << h for h in range(len(cone.ineqs)) if mask >> h & 1]
        for changed in [mask ^ b for b in (bits if every_bit else bits[:1])] + [mask & -mask]:
            variant = replace(cone, tight=cone.tight[:i] + (changed,) + cone.tight[i + 1:])
            extremal = extremal_by_full_rank(cone, changed)
            try:
                check_extremal(variant, "test")
            except RuntimeError as exc:
                assert not extremal and str(exc) == "test: a ray of a cone is not extremal"
                refused += 1
            else:
                assert extremal
    return refused


@pytest.mark.parametrize("seed", range(12))
def test_check_extremal_agrees_with_the_full_rank_oracle_on_dependent_equations(seed):
    # equations with a repeated row and a combination of two others, so the
    # equations' rank is below their count, and random inequalities
    rng = random.Random(2700 + seed)
    ambient = rng.randint(4, 6)
    eqs = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(rng.randint(1, 2))]
    eqs += [eqs[0], [x + 2 * y for x, y in zip(eqs[0], eqs[-1])]]
    ineqs = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(3, 8))]
    cone = cone_solve(eqs, ineqs, ambient)
    assert kernels.rank(list(cone.eqs), ambient) < len(cone.eqs)
    refused = _refusals_agree_with_the_full_rank_oracle(cone)
    assert refused > 0 or not cone.rays


def test_check_extremal_agrees_with_the_full_rank_oracle_on_the_fan4_top_cones():
    # the 75 top cones of the search in the quotient coordinates, with 8
    # equations in R^8, and their images in R^24, with 23 equations of rank 18
    verts, base_eqs, diag_rows = fans._context(4)
    quotient_rows, section, _ = fans._quotient(diag_rows, base_eqs, len(verts))
    quotient = [cone for _, cone in fans._top_dimensional_choices(quotient_rows, len(section))]
    for cones in (quotient, fans.enumerate_fan(4).maximal):
        assert len(cones) == 75 and all(cone.eqs for cone in cones)
        assert sum(_refusals_agree_with_the_full_rank_oracle(cone, every_bit=False) for cone in cones) > 0
