import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from valperm import polyhedra, subdivisions
from valperm.permutahedra import (
    bruhat_interval,
    mask_from,
    parse_perm,
    permutohedron_vertices,
    subsets_of_size,
    vertex_to_flag,
)
from valperm.polyhedra import hull_edges, lower_cells
from valperm.subdivisions import (
    HeightFunction,
    ValuatedFlagMatroid,
    check_positive_flag,
    check_two_skeleton,
    compress,
    compress_on_vertices,
    decompose_height,
    is_bruhat_interval_polytope,
    is_generalized_permutahedron,
    is_lattice_point,
    lift_to_grassmannian,
    reconstruct_potential,
    subdivide,
)
from valperm.valuated import (
    Matroid,
    PolyInT,
    ValuatedMatroid,
    check_plucker,
    check_positive_plucker,
    corank_valuation,
    tropicalize_matrix,
    uniform_matroid,
)

from oracles import bruhat_interval_by_scan, cell_edges_by_own_hull, compress_attainers

V = ValuatedMatroid.from_lex_values

EXAMPLE_HEIGHTS = {"123": 4, "213": 5, "132": 2, "312": 4, "231": 2, "321": 3}


def example_flag():
    return ValuatedFlagMatroid([V(3, 1, [1, 0, 2]), V(3, 2, [1, 2, 1]), V(3, 3, [1])])


def linear_heights(n, a):
    return HeightFunction(
        n, {v: sum(ai * vi for ai, vi in zip(a, v)) for v in permutohedron_vertices(n)}
    )


def zero_flag(n):
    return ValuatedFlagMatroid(
        [V(n, d, [0] * len(list(subsets_of_size(n, d)))) for d in range(1, n + 1)]
    )


def random_tropical_flag(rng, n):
    """A full flag with uniform supports, via minors of a random polynomial matrix."""
    while True:
        mat = [
            [
                PolyInT([(e, rng.choice([-2, -1, 1, 2])) for e in range(4) if rng.random() < 0.6])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        try:
            mus, _ = tropicalize_matrix(mat)
        except ValueError:
            continue
        if all(m.is_uniform for m in mus):
            return ValuatedFlagMatroid(mus)


# ---------------------------------------------------------------------------
# flags and height functions


def test_flag_construction():
    flag = example_flag()
    assert flag.n == 3 and len(flag) == 3
    assert flag.component(2) == V(3, 2, [1, 2, 1])
    with pytest.raises(ValueError, match="not incident"):
        ValuatedFlagMatroid([V(3, 1, [0, 0, 0]), V(3, 2, [0, 1, 2]), V(3, 3, [0])])
    with pytest.raises(ValueError, match="3 components"):
        ValuatedFlagMatroid([V(3, 1, [0, 0, 0]), V(3, 2, [0, 0, 0])])
    with pytest.raises(ValueError, match="rank"):
        ValuatedFlagMatroid([V(3, 2, [0, 0, 0]), V(3, 2, [0, 0, 0]), V(3, 3, [0])])
    with pytest.raises(ValueError, match="ground sets"):
        ValuatedFlagMatroid([V(4, 1, [0] * 4), V(3, 2, [0] * 3), V(3, 3, [0])])
    # the unchecked form accepts non-incident components
    raw = ValuatedFlagMatroid(
        [V(3, 1, [0, 0, 0]), V(3, 2, [0, 1, 2]), V(3, 3, [0])], check=False
    )
    assert raw.component(2).value(mask_from([1, 3])) == 1


def test_height_function():
    w = HeightFunction(3, EXAMPLE_HEIGHTS)
    assert w[(2, 1, 3)] == Fraction(5)
    assert w == HeightFunction(3, {tuple(int(c) for c in k): v for k, v in EXAMPLE_HEIGHTS.items()})
    assert HeightFunction.zero(3)[(1, 2, 3)] == 0
    with pytest.raises(ValueError, match="missing height"):
        HeightFunction(3, {"123": 1})
    with pytest.raises(ValueError):
        HeightFunction(3, {**EXAMPLE_HEIGHTS, "1234": 0})
    with pytest.raises(ValueError):
        HeightFunction(3, {**EXAMPLE_HEIGHTS, "122": 0})


def test_height_given_twice_is_refused():
    # "213" and (2, 1, 3) name one vertex; neither value may silently win
    with pytest.raises(ValueError, match=r"213 is given twice \(key \(2, 1, 3\)\)"):
        HeightFunction(3, {**EXAMPLE_HEIGHTS, (2, 1, 3): 0})


def test_float_heights_are_refused():
    with pytest.raises(TypeError, match="float"):
        HeightFunction(2, {"12": 0, "21": 0.1})
    w = HeightFunction(2, {"12": "1/3", "21": Fraction(1, 6)})
    assert w.heights == {(1, 2): Fraction(1, 3), (2, 1): Fraction(1, 6)}
    assert (w._ints, w._den) == ({(1, 2): 2, (2, 1): 1}, 6)


def test_fractional_vertex_keys_are_refused():
    # (1.5, 2, 3) is not the vertex 123: it is refused, not truncated
    keys = {(1.5, 2, 3): 0, **{v: 0 for v in permutohedron_vertices(3)[1:]}}
    with pytest.raises(TypeError, match="1.5 is not an integer"):
        HeightFunction(3, keys)


def test_lattice_point_membership():
    assert is_lattice_point(3, (2, 2, 2))
    assert is_lattice_point(3, (3, 1, 2))
    assert not is_lattice_point(3, (1, 1, 4))
    assert not is_lattice_point(3, (3, 3, 0))
    assert not is_lattice_point(3, (1, 2, 2.5))
    assert not is_lattice_point(3, (1, 2))


# ---------------------------------------------------------------------------
# compression


def test_compress_example_flag():
    assert compress_on_vertices(example_flag()) == HeightFunction(3, EXAMPLE_HEIGHTS)


def test_compress_zero_flag():
    assert compress_on_vertices(zero_flag(4)) == HeightFunction.zero(4)


def test_compress_quadrangle_corank_flag():
    m1 = Matroid(3, frozenset({mask_from([1]), mask_from([3])}))
    flag = ValuatedFlagMatroid(
        [corank_valuation(m1), corank_valuation(uniform_matroid(3, 2)), corank_valuation(uniform_matroid(3, 3))]
    )
    w = compress_on_vertices(flag)
    assert {k: w[k] for k in w.heights} == {
        (1, 2, 3): 0, (2, 1, 3): 0, (3, 1, 2): 0, (3, 2, 1): 0,
        (1, 3, 2): 1, (2, 3, 1): 1,
    }


def test_compress_interior_point():
    flag = example_flag()
    assert compress(flag, (2, 2, 2)) == 3
    # brute-force oracle over all decompositions into one subset per rank
    best = None
    for y1 in subsets_of_size(3, 1):
        for y2 in subsets_of_size(3, 2):
            vec = tuple(1 + (y1 >> p & 1) + (y2 >> p & 1) for p in range(3))
            if vec != (2, 2, 2):
                continue
            tot = flag.component(1).value(y1) + flag.component(2).value(y2) + flag.component(3).value(7)
            best = tot if best is None else min(best, tot)
    assert best == 3
    with pytest.raises(ValueError, match="lattice point"):
        compress(flag, (1, 1, 4))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_vertex_decomposition_unique(n):
    # at every vertex the minimum is attained by exactly one decomposition,
    # and it is the flag of super-level sets
    flag = random_tropical_flag(random.Random(n), n)
    w = compress_on_vertices(flag)
    for v in permutohedron_vertices(n):
        best, count = compress_attainers(flag, v)
        assert count == 1
        assert best == w[v]


def test_compress_outside_support():
    # rank-1 support {1} only: vertices whose top value is elsewhere have no
    # finite decomposition
    flag = ValuatedFlagMatroid(
        [V(3, 1, [0, None, None]), V(3, 2, [0, 0, 0]), V(3, 3, [0])], check=False
    )
    assert compress(flag, (1, 2, 3)) is None
    assert compress(flag, (3, 2, 1)) == 0
    with pytest.raises(ValueError, match="not finite"):
        compress_on_vertices(flag)


# ---------------------------------------------------------------------------
# cell certificates


def test_generalized_permutahedron_examples():
    assert is_generalized_permutahedron(permutohedron_vertices(3))
    assert is_generalized_permutahedron([(1, 2, 3), (2, 1, 3)])  # an edge
    assert is_generalized_permutahedron([(3, 1, 2)])  # a vertex
    assert is_generalized_permutahedron([(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)])
    assert not is_generalized_permutahedron([(1, 2, 3), (1, 3, 2), (2, 3, 1)])
    with pytest.raises(ValueError):
        is_generalized_permutahedron([])


def test_bruhat_interval_examples():
    ok, ends = is_bruhat_interval_polytope([(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)])
    assert not ok and ends is None
    ok, ends = is_bruhat_interval_polytope(permutohedron_vertices(4))
    assert ok and ends == ((1, 2, 3, 4), (4, 3, 2, 1))
    ok, ends = is_bruhat_interval_polytope(["123", "213", "132", "312"])
    assert ok and ends == ((1, 2, 3), (3, 1, 2))
    ok, ends = is_bruhat_interval_polytope([(2, 1, 3)])
    assert ok and ends == ((2, 1, 3), (2, 1, 3))
    ok, _ = is_bruhat_interval_polytope([(2, 1, 3), (1, 3, 2)])  # two minimal elements
    assert not ok


def test_bruhat_interval_input_contract():
    with pytest.raises(ValueError, match="empty vertex set"):
        is_bruhat_interval_polytope([])
    with pytest.raises(ValueError, match="not a permutation"):
        is_bruhat_interval_polytope([(1, 2, 3), (1, 1, 3)])
    with pytest.raises(ValueError, match="length mismatch"):
        is_bruhat_interval_polytope([(1, 2, 3), (2, 1)])
    with pytest.raises(ValueError, match="length mismatch"):
        is_bruhat_interval_polytope(["21", "123"])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bruhat_interval_matches_scan_oracle(n):
    """Ends by length against the pairwise scan in the subword order, on
    seeded random subsets, on intervals (also with one inner element dropped
    or one stranger added) and on the cells of seeded random heights."""
    rng = random.Random(800 + n)
    verts = permutohedron_vertices(n)
    top = verts[-1]
    subsets = [rng.sample(verts, rng.randint(1, min(8, len(verts)))) for _ in range(100)]
    for _ in range(40):
        lo = rng.choice(verts)
        hi = rng.choice(bruhat_interval(lo, top, n))
        interval = bruhat_interval(lo, hi, n)
        subsets.append(interval)
        inner = [v for v in interval if v not in (lo, hi)]
        if inner:
            dropped = rng.choice(inner)
            subsets.append([v for v in interval if v != dropped])
        if len(interval) < len(verts):
            subsets.append(interval + [rng.choice([v for v in verts if v not in interval])])
    for _ in range({3: 20, 4: 8, 5: 2}[n]):
        heights = [rng.randint(0, 4) for _ in verts]
        subsets.extend(lower_cells(verts, heights, verts)[0])
    verdicts = set()
    for vs in subsets:
        got = is_bruhat_interval_polytope(vs)
        assert got == bruhat_interval_by_scan(vs), vs
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_subdivide_example_heights():
    cells = subdivide(HeightFunction(3, EXAMPLE_HEIGHTS))
    assert [c.vertices for c in cells] == [
        ((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2)),
        ((1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)),
    ]
    assert all(c.is_generalized_permutahedron and c.is_bruhat_interval for c in cells)
    assert (cells[0].bruhat_min, cells[0].bruhat_max) == ((1, 2, 3), (3, 1, 2))
    assert (cells[1].bruhat_min, cells[1].bruhat_max) == ((1, 3, 2), (3, 2, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subdivide_zero_heights(n):
    """Zero heights and a non-zero affine height give the single trivial cell."""
    affine = HeightFunction(
        n,
        {v: Fraction(5, 2) + sum((i * i - n) * x for i, x in enumerate(v)) for v in permutohedron_vertices(n)},
    )
    for w in (HeightFunction.zero(n), affine):
        (cell,) = subdivide(w)
        assert cell.vertices == tuple(permutohedron_vertices(n))
        assert cell.is_generalized_permutahedron and cell.is_bruhat_interval
        assert cell.bruhat_min == tuple(range(1, n + 1))
        assert cell.bruhat_max == tuple(range(n, 0, -1))


def test_subdivide_spiked_heights():
    w = HeightFunction(3, {"123": 1, "132": 0, "213": 0, "231": 0, "312": 0, "321": 0})
    cells = subdivide(w)
    assert [c.vertices for c in cells] == [
        ((1, 2, 3), (1, 3, 2), (2, 1, 3)),
        ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)),
    ]
    assert not any(c.is_generalized_permutahedron for c in cells)


# ---------------------------------------------------------------------------
# the 2-face conditions


def test_skeleton_example_heights():
    report = check_two_skeleton(HeightFunction(3, EXAMPLE_HEIGHTS))
    assert len(report.hexagons) == 1 and not report.squares
    hx = report.hexagons[0]
    assert hx.alternating_equal and hx.diagonal_max_twice and hx.min_diagonal_attains
    assert hx.min_vertex == (1, 2, 3)
    assert hx.attaining == (((1, 2, 3), (3, 2, 1)), ((2, 3, 1), (2, 1, 3)))
    assert report.passes_two_skeleton and report.passes_positive


@pytest.mark.parametrize("n", [3, 4])
def test_skeleton_constant_heights(n):
    w = HeightFunction(n, {v: 7 for v in permutohedron_vertices(n)})
    report = check_two_skeleton(w)
    assert report.passes_two_skeleton and report.passes_positive
    if n == 4:
        assert len(report.hexagons) == 8 and len(report.squares) == 6


def test_skeleton_spiked_heights():
    w = HeightFunction(3, {"123": 1, "132": 0, "213": 0, "231": 0, "312": 0, "321": 0})
    report = check_two_skeleton(w)
    assert not report.passes_alternating
    assert not report.passes_two_skeleton


def test_skeleton_missing_min_diagonal():
    # the pattern where the diagonal through the minimal vertex
    # misses the maximum while the other two attain it
    w = HeightFunction(3, {"123": -1, "321": -1, "132": 0, "213": 0, "231": 0, "312": 0})
    report = check_two_skeleton(w)
    assert report.passes_two_skeleton
    assert not report.passes_min_diagonal and not report.passes_positive
    cells = subdivide(w)
    assert [c.vertices for c in cells] == [
        ((1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1)),
        ((1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)),
    ]
    assert all(c.is_generalized_permutahedron for c in cells)
    assert not any(c.is_bruhat_interval for c in cells)
    result = check_positive_flag(w)
    assert not result.positive


# ---------------------------------------------------------------------------
# potentials and decomposition


def test_potential_triangle():
    from valperm.permutahedra import EdgeValues, hypersimplex_graph

    graph = hypersimplex_graph(1, 3)
    values = EdgeValues()
    values.set(1, 2, Fraction(1))
    values.set(2, 4, Fraction(0))
    values.set(4, 1, Fraction(-1))
    assert reconstruct_potential(graph, values, 2, 0) == {1: 1, 2: 0, 4: 0}
    assert reconstruct_potential(graph, values, 2, 5) == {1: 6, 2: 5, 4: 5}
    bad = EdgeValues()
    bad.set(1, 2, Fraction(1))
    bad.set(2, 4, Fraction(0))
    bad.set(4, 1, Fraction(1))
    with pytest.raises(ValueError, match="cycle sum"):
        reconstruct_potential(graph, bad, 2, 0)


def test_potential_zero_and_gradient():
    from valperm.permutahedra import EdgeValues, permutohedron_graph

    graph = permutohedron_graph(3)
    zero = EdgeValues()
    for u, v in graph.edges:
        zero.set(u, v, Fraction(0))
    f = reconstruct_potential(graph, zero, (1, 2, 3), 9)
    assert set(f.values()) == {Fraction(9)}

    grad = EdgeValues()
    for u, v in graph.edges:
        grad.set(u, v, Fraction(u[0] - v[0]))
    f = reconstruct_potential(graph, grad, (1, 2, 3), 1)
    assert f == {v: Fraction(v[0]) for v in graph.vertices}


def test_decompose_example_heights():
    flag = decompose_height(HeightFunction(3, EXAMPLE_HEIGHTS))
    assert flag.component(1) == V(3, 1, [-1, -2, 0])
    assert flag.component(2) == V(3, 2, [0, 1, 0])
    assert flag.component(3) == V(3, 3, [4])
    # shifts of the example flag's components by constants summing to zero
    mus = example_flag()
    shifts = set()
    for d in (1, 2, 3):
        diffs = {
            flag.component(d).value(m) - mus.component(d).value(m)
            for m in flag.component(d).support
        }
        assert len(diffs) == 1
        shifts.add(diffs.pop())
    assert sum(shifts) == 0
    # a valid flag, and it compresses back to the input
    ValuatedFlagMatroid(flag.components)
    assert compress_on_vertices(flag) == HeightFunction(3, EXAMPLE_HEIGHTS)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decompose_zero_heights(n):
    flag = decompose_height(HeightFunction.zero(n))
    for comp in flag:
        assert set(comp.values.values()) == {Fraction(0)}


@pytest.mark.parametrize("seed", range(4))
def test_decompose_linear_heights(seed):
    rng = random.Random(seed)
    n = rng.choice([3, 4])
    a = [rng.randint(-3, 3) for _ in range(n)]
    w = linear_heights(n, a)
    report = check_two_skeleton(w)
    assert report.passes_two_skeleton and report.passes_positive
    flag = decompose_height(w)
    for comp in flag:
        for m1 in comp.support:
            for m2 in comp.support:
                expected = sum(a[e - 1] for e in range(1, n + 1) if m1 >> (e - 1) & 1) - sum(
                    a[e - 1] for e in range(1, n + 1) if m2 >> (e - 1) & 1
                )
                assert comp.value(m1) - comp.value(m2) == expected
    assert compress_on_vertices(flag) == w
    (cell,) = subdivide(w)
    assert cell.is_bruhat_interval


def test_decompose_errors():
    spike = HeightFunction(3, {"123": 1, "132": 0, "213": 0, "231": 0, "312": 0, "321": 0})
    with pytest.raises(ValueError, match="alternating sums differ on the hexagon"):
        decompose_height(spike)
    w4 = {v: 0 for v in permutohedron_vertices(4)}
    w4[(1, 2, 3, 4)] = 1
    with pytest.raises(ValueError, match="opposite sums differ on the square"):
        decompose_height(HeightFunction(4, w4))


# ---------------------------------------------------------------------------
# the lift to twice the ground set


def test_lift_example_flag():
    mu = lift_to_grassmannian(example_flag())
    assert (mu.n, mu.d, len(mu.values)) == (6, 3, 20)
    assert check_plucker(mu) is None
    assert check_positive_plucker(mu) is None
    # convex correction: rank-3 value on the low block is w_3 + 9 * alpha
    assert mu.value(mask_from([1, 2, 3])) == 1 + 9
    assert mu.value(mask_from([4, 5, 6])) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_lift_zero_flag(n):
    mu = lift_to_grassmannian(zero_flag(n))
    assert set(mu.values.values()) == {Fraction(0)}
    assert check_positive_plucker(mu) is None


def test_lift_of_a_uniform_seven_flag_finishes():
    # the lift is uniform on 14 elements with 3432 bases; a uniform support
    # skips the quadratic basis exchange scan, which takes minutes here
    mu = lift_to_grassmannian(zero_flag(7))
    assert (mu.n, mu.d, len(mu.values)) == (14, 7, 3432)
    assert set(mu.values.values()) == {Fraction(0)}


def test_lift_refuses_partial_support():
    flag = ValuatedFlagMatroid(
        [V(3, 1, [0, None, None]), V(3, 2, [0, 0, 0]), V(3, 3, [0])], check=False
    )
    with pytest.raises(ValueError, match="uniform supports"):
        lift_to_grassmannian(flag)


def test_lift_negative_pattern_fails_positivity():
    w = HeightFunction(3, {"123": -1, "321": -1, "132": 0, "213": 0, "231": 0, "312": 0})
    flag = decompose_height(w)
    ValuatedFlagMatroid(flag.components)  # diagonal-max holds, so a valid flag
    mu = lift_to_grassmannian(flag)
    assert check_plucker(mu) is None
    violation = check_positive_plucker(mu)
    assert violation is not None and violation.kind == "positive-plucker"


def test_lift_restrictions_recover_components():
    rng = random.Random(11)
    flag = random_tropical_flag(rng, 4)
    mu = lift_to_grassmannian(flag)
    assert check_plucker(mu) is None
    for d in range(5):
        block = mask_from(range(5, 5 + (4 - d)))
        offsets = {
            mu.value(t | block) - (flag.component(d).value(t) if d else Fraction(0))
            for t in subsets_of_size(4, d)
        }
        assert len(offsets) == 1  # a constant shift per rank


# ---------------------------------------------------------------------------
# positivity, certified two ways


def test_positive_flag_example_heights():
    result = check_positive_flag(HeightFunction(3, EXAMPLE_HEIGHTS))
    assert result.positive
    assert len(result.cells) == 2


@pytest.mark.parametrize("n", [3, 4])
def test_positive_flag_zero(n):
    result = check_positive_flag(HeightFunction.zero(n))
    assert result.positive and len(result.cells) == 1


def test_positive_flag_raises_when_the_routes_disagree(monkeypatch):
    real_subdivide = subdivisions.subdivide

    def flipped_subdivide(w):
        first, *rest = real_subdivide(w)
        return [replace(first, is_bruhat_interval=not first.is_bruhat_interval), *rest]

    monkeypatch.setattr(subdivisions, "subdivide", flipped_subdivide)
    with pytest.raises(RuntimeError, match="check_positive_flag"):
        check_positive_flag(HeightFunction(3, EXAMPLE_HEIGHTS))


# ---------------------------------------------------------------------------
# results stored on the height function


def test_height_function_computes_its_subdivision_and_report_once(monkeypatch):
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(subdivisions, "lower_cells")
    counted(subdivisions, "enumerate_two_faces")
    counted(polyhedra, "cone_solve")
    polyhedra._vertical_facets.cache_clear()
    w = HeightFunction(3, EXAMPLE_HEIGHTS)
    first = subdivide(w)
    assert len(first) == 2
    # one lifted hull certifies every cell, and one more solve the vertical
    # facets of the point set
    assert calls == {"lower_cells": 1, "cone_solve": 2}
    assert check_positive_flag(w).cells == tuple(first)
    assert subdivide(w) == first
    decompose_height(w)
    assert calls == {"lower_cells": 1, "cone_solve": 2, "enumerate_two_faces": 1}
    # a second hull over the same points solves only itself
    subdivide(HeightFunction(3, {k: -v for k, v in EXAMPLE_HEIGHTS.items()}))
    assert calls == {"lower_cells": 2, "cone_solve": 3, "enumerate_two_faces": 1}


@pytest.mark.parametrize("affine", [False, True])
def test_subdivide_at_n4_makes_one_cone_solve(monkeypatch, affine):
    """The lifted hull certifies every cell, the single cell of affine
    heights too; the vertical facets of the n = 4 vertices take one more
    solve, made once for every hull over them."""
    solves = []
    real = polyhedra.cone_solve
    monkeypatch.setattr(polyhedra, "cone_solve",
                        lambda *args, **kwargs: solves.append(1) or real(*args, **kwargs))
    polyhedra._vertical_facets.cache_clear()
    if affine:
        w = linear_heights(4, (1, -2, 0, 5))
        again = linear_heights(4, (3, 0, -1, 2))
    else:
        rng = random.Random(41)
        w, again = (HeightFunction(4, {v: rng.randint(-3, 3) for v in permutohedron_vertices(4)})
                    for _ in range(2))
    cells = subdivide(w)
    assert (len(cells) == 1) == affine
    assert len(solves) == 2
    assert (len(subdivide(again)) == 1) == affine
    assert len(solves) == 3


def test_subdivide_returns_a_fresh_list():
    w = HeightFunction(3, EXAMPLE_HEIGHTS)
    cells = subdivide(w)
    expected = list(cells)
    cells.append(cells[0])
    assert subdivide(w) == expected
    subdivide(w).clear()
    assert subdivide(w) == expected


def test_height_function_is_immutable():
    w = HeightFunction(3, EXAMPLE_HEIGHTS)
    with pytest.raises(TypeError):
        w.heights[(1, 2, 3)] = 0
    with pytest.raises(AttributeError):
        w.n = 4
    subdivide(w)
    check_two_skeleton(w)
    fresh = HeightFunction(3, EXAMPLE_HEIGHTS)
    assert w == fresh
    assert w.heights == {parse_perm(k): Fraction(v) for k, v in EXAMPLE_HEIGHTS.items()}
    assert subdivide(w) == subdivide(fresh)


def test_flag_is_immutable():
    flag = example_flag()
    with pytest.raises(AttributeError, match="immutable"):
        flag.components = zero_flag(3).components
    with pytest.raises(AttributeError, match="immutable"):
        flag.n = 4
    assert flag == example_flag()
    assert compress_on_vertices(flag) == compress_on_vertices(example_flag())


@pytest.mark.parametrize("n,trials", [(3, 40), (4, 8)])
def test_stored_results_match_a_fresh_copy(n, trials):
    rng = random.Random(17 * n)
    for _ in range(trials):
        w = HeightFunction(n, {v: rng.randint(-2, 2) for v in permutohedron_vertices(n)})
        subdivide(w)
        check_two_skeleton(w)
        fresh = HeightFunction(n, w.heights)
        assert check_positive_flag(w).cells == tuple(subdivide(fresh))
        assert subdivide(w) == subdivide(fresh)
        assert check_two_skeleton(w) == check_two_skeleton(fresh)


@pytest.mark.parametrize("n,trials", [(3, 60), (4, 24)])
def test_cell_edges_from_the_lifted_hull_match_each_cells_own_hull(n, trials):
    """Edges read from the one lifted hull equal those of each cell's own
    hull, on random heights (mostly cells that are not generalized
    permutahedra) and compressed flags (cells that all are)."""
    rng = random.Random(f"lifted-edges/{n}")
    verts = permutohedron_vertices(n)
    verdicts = Counter()
    for t in range(trials):
        if t % 3 == 2:
            w = compress_on_vertices(random_tropical_flag(rng, n))
        else:
            w = HeightFunction(n, {v: rng.randint(-3, 3) for v in verts})
        cells, tight = lower_cells(verts, [w[v] for v in verts], verts)
        mask = dict(zip(verts, tight))
        for cell in cells:
            facets = [mask[v] for v in cell]
            got_verts, got_edges = hull_edges(list(cell), list(cell), facets)
            assert got_verts == list(cell)
            assert got_edges == cell_edges_by_own_hull(cell)
            gp = is_generalized_permutahedron(cell, facets)
            assert gp == is_generalized_permutahedron(cell)
            verdicts[gp] += 1
        assert [c.vertices for c in subdivide(w)] == cells
    assert verdicts[True] >= 10 and verdicts[False] >= 10


# ---------------------------------------------------------------------------
# theorems on sampled heights


def corank_flag_of_cell(cell):
    n = len(cell[0])
    comps = []
    for d in range(1, n + 1):
        m = Matroid(n, frozenset(vertex_to_flag(v)[d - 1] for v in cell))
        comps.append(corank_valuation(m))
    return ValuatedFlagMatroid(comps)


def assert_gp_cells_are_corank_zero_sets(w):
    """Every all-root-edge cell is the zero set of its own corank-flag compression."""
    for cell in subdivide(w):
        if not cell.is_generalized_permutahedron:
            continue
        heights = compress_on_vertices(corank_flag_of_cell(cell.vertices))
        assert all(h >= 0 for h in heights.heights.values())
        zero = tuple(sorted(v for v in heights.heights if heights[v] == 0))
        assert zero == cell.vertices


@pytest.mark.parametrize("n,trials", [(3, 40), (4, 8)])
def test_two_skeleton_biconditional_random(n, trials):
    rng = random.Random(17 * n)
    for _ in range(trials):
        w = HeightFunction(n, {v: rng.randint(-2, 2) for v in permutohedron_vertices(n)})
        report = check_two_skeleton(w)
        all_gp = all(c.is_generalized_permutahedron for c in subdivide(w))
        assert report.passes_two_skeleton == all_gp
        check_positive_flag(w)  # the two positivity routes must agree


@pytest.mark.parametrize("n,trials", [(3, 6), (4, 4)])
def test_valuated_flag_pipeline(n, trials):
    rng = random.Random(23 * n)
    for _ in range(trials):
        flag = random_tropical_flag(rng, n)
        w = compress_on_vertices(flag)
        report = check_two_skeleton(w)
        assert report.passes_two_skeleton
        cells = subdivide(w)
        assert all(c.is_generalized_permutahedron for c in cells)
        assert_gp_cells_are_corank_zero_sets(w)
        rebuilt = decompose_height(w)
        ValuatedFlagMatroid(rebuilt.components)
        assert compress_on_vertices(rebuilt) == w
        result = check_positive_flag(w)
        assert result.positive == all(c.is_bruhat_interval for c in cells)


def test_shifted_example_heights_round_trip():
    base = compress_on_vertices(example_flag())
    rng = random.Random(5)
    for _ in range(6):
        a = [rng.randint(-2, 2) for _ in range(3)]
        w = HeightFunction(
            3,
            {
                v: base[v] + sum(ai * vi for ai, vi in zip(a, v))
                for v in permutohedron_vertices(3)
            },
        )
        assert check_two_skeleton(w).passes_two_skeleton
        assert compress_on_vertices(decompose_height(w)) == w


def test_gp_cells_are_corank_zero_sets_frozen():
    assert_gp_cells_are_corank_zero_sets(HeightFunction(3, EXAMPLE_HEIGHTS))
    w = HeightFunction(3, {"123": -1, "321": -1, "132": 0, "213": 0, "231": 0, "312": 0})
    assert_gp_cells_are_corank_zero_sets(w)
