"""Acceptance criteria, one test per criterion.

Each test prints a single ``CRITERION k: PASS`` line (visible with ``-s``);
a failing criterion fails its test.  Budgets are wall-clock seconds measured
around the relevant computation only.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from oracles import exhaustive_fan_cones
from valperm.fans import (
    enumerate_fan,
    f_vector_census,
    link_homology,
    pattern_signature,
    refinement_census,
    sample_height,
    _subdivision_key,
)
from valperm.permutahedra import permutohedron_vertices
from valperm.subdivisions import (
    HeightFunction,
    ValuatedFlagMatroid,
    check_positive_flag,
    check_two_skeleton,
    compress_on_vertices,
    decompose_height,
    lift_to_grassmannian,
    subdivide,
)
from valperm.valuated import (
    ValuatedMatroid,
    check_incidence,
    check_plucker,
    check_positive_incidence,
    check_positive_plucker,
    tropicalize_matrix,
)
from valperm.valuated import PolyInT


def _ok(k, message):
    print(f"CRITERION {k}: PASS — {message}")


def example_matrix():
    T, C = PolyInT.t, PolyInT.const
    return [
        [T(1), C(1), T(2)],
        [T(4), C(1) + T(2), T(1)],
        [C(1), C(1), C(1)],
    ]


def example_flag():
    maps, _ = tropicalize_matrix(example_matrix())
    return ValuatedFlagMatroid(maps)


@pytest.fixture(scope="module")
def timed_fan4():
    start = time.monotonic()
    fan = enumerate_fan(4)
    return fan, time.monotonic() - start


def test_criterion_1_running_example_tropicalization():
    start = time.monotonic()
    maps, signs = tropicalize_matrix(example_matrix())
    elapsed = time.monotonic() - start
    assert maps[0] == ValuatedMatroid.from_lex_values(3, 1, [1, 0, 2])
    assert maps[1] == ValuatedMatroid.from_lex_values(3, 2, [1, 2, 1])
    assert maps[2] == ValuatedMatroid.from_lex_values(3, 3, [1])
    assert all(s == 1 for smap in signs for s in smap.values())
    assert elapsed < 1.0
    _ok(1, f"value maps (1,0,2)/(1,2,1)/(1), all signs +, {elapsed:.3f}s")


EXAMPLE_HEIGHTS_RAW = {"123": 4, "213": 5, "132": 2, "312": 4, "231": 2, "321": 3}


def test_criterion_2_compression_reproduces_heights():
    start = time.monotonic()
    heights = compress_on_vertices(example_flag())
    elapsed = time.monotonic() - start
    expected = HeightFunction(3, EXAMPLE_HEIGHTS_RAW)
    assert heights.heights == expected.heights
    report = check_two_skeleton(heights)
    (hexagon,) = report.hexagons
    diagonal_sums = [
        heights[a] + heights[b] for a, b in hexagon.face.diagonals()
    ]
    evens = sum(heights[v] for v in hexagon.face.vertices[0::2])
    odds = sum(heights[v] for v in hexagon.face.vertices[1::2])
    assert evens == odds == 10
    assert max(diagonal_sums) == 7 and diagonal_sums.count(7) == 2
    assert elapsed < 1.0
    _ok(2, f"heights (4,5,2,4,2,3), alternating sums 10, max 7 twice, {elapsed:.3f}s")


def test_criterion_3_subdivision_cells():
    start = time.monotonic()
    cells = subdivide(compress_on_vertices(example_flag()))
    elapsed = time.monotonic() - start
    assert len(cells) == 2
    assert all(c.is_generalized_permutahedron for c in cells)
    assert all(c.is_bruhat_interval for c in cells)

    quadrangle = HeightFunction(
        3, {"123": 0, "213": 0, "312": 0, "321": 0, "132": 1, "231": 1}
    )
    cell = next(
        c for c in subdivide(quadrangle)
        if set(c.vertices) == {(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)}
    )
    assert cell.is_generalized_permutahedron and not cell.is_bruhat_interval
    assert elapsed < 1.0
    _ok(3, f"2 GP interval cells; quadrangle GP but not an interval, {elapsed:.3f}s")


def test_criterion_4_small_fan():
    start = time.monotonic()
    fan = enumerate_fan(3)
    elapsed = time.monotonic() - start
    assert len(fan.maximal) == 3
    assert all(len(c.rays) == 1 for c in fan.maximal)
    assert all(c.dim - c.lineality_dim == 1 for c in fan.maximal)
    assert elapsed < 1.0
    _ok(4, f"3 maximal cones, one ray each, {elapsed:.3f}s")


def test_criterion_5_full_fan_census(timed_fan4):
    fan, elapsed = timed_fan4
    census = f_vector_census(fan)
    assert census.f_vector == (20, 76, 75)
    assert census.ray_counts == {3: 72, 4: 3}
    assert census.lineality_dim == 3
    assert elapsed <= 600.0

    # purity certificate: the exhaustive sweep's maximal cones are all
    # top-dimensional, so the search, which keeps only the top-dimensional
    # cones of its last level, misses none of them
    cones, maximal = exhaustive_fan_cones(4)
    assert len(cones) == 171
    assert len(maximal) == 75
    assert all(fan.quotient_dim(c) == 3 for c in maximal)
    assert [c.key for c in maximal] == [c.key for c in fan.maximal]
    assert [(c.eqs, c.ineqs) for c in maximal] == [(c.eqs, c.ineqs) for c in fan.maximal]
    _ok(5, f"f-vector (20,76,75), 72 simplicial + 3 four-ray, {elapsed:.1f}s; "
           "pure: exhaustive sweep gives 171 cones, the same 75 maximal")


def test_criterion_6_refinement_census(timed_fan4):
    fan, _ = timed_fan4
    start = time.monotonic()
    report = refinement_census(fan)
    elapsed = time.monotonic() - start
    assert report.total == 78
    assert report.discrepancies == ()
    for k, ridx in enumerate(fan.maximal_rays):
        if len(ridx) != 4:
            continue
        local = {g: i for i, g in enumerate(ridx)}
        subdivisions, signatures = set(), set()
        for f in fan.maximal_two_faces[k]:
            weights = [1, 1, 1, 1]
            for g in fan.two_faces[f]:
                weights[local[g]] = 5
            w = sample_height(fan, k, tuple(weights))
            subdivisions.add(_subdivision_key(w))
            signatures.add(pattern_signature(w))
        assert len(subdivisions) == 2 and len(signatures) == 1
    assert elapsed <= 300.0
    _ok(6, f"78 refined cones; 4-ray cones split 2 ways sharing a pattern, {elapsed:.1f}s")


def test_criterion_7_link_homology(timed_fan4):
    fan, _ = timed_fan4
    start = time.monotonic()
    report = link_homology(fan)
    elapsed = time.monotonic() - start
    assert report.betti == (1, 0, 18)
    assert report.euler == 19
    assert elapsed <= 60.0
    _ok(7, f"Betti (1,0,18), Euler characteristic 19, {elapsed:.2f}s")


def _rank_one_maps():
    return [
        ValuatedMatroid.from_lex_values(4, 1, v)
        for v in product((0, 1, 2), repeat=4)
    ]


def _rank_two_maps():
    return [
        ValuatedMatroid.from_lex_values(4, 2, v)
        for v in product((0, 1, 2), repeat=6)
    ]


def test_criterion_8_property_suite(timed_fan4):
    fan4, _ = timed_fan4
    fan3 = enumerate_fan(3)

    # one-step implications, exhaustively on ranks (1, 2) of a 4-set
    ones, twos = _rank_one_maps(), _rank_two_maps()
    counterexamples = positive_counterexamples = 0
    for lower in ones:
        for upper in twos:
            if check_incidence(lower, upper) is None:
                if check_plucker(lower) is not None or check_plucker(upper) is not None:
                    counterexamples += 1
            if check_positive_incidence(lower, upper) is None:
                if (
                    check_positive_plucker(lower) is not None
                    or check_positive_plucker(upper) is not None
                ):
                    positive_counterexamples += 1
    assert counterexamples == 0
    assert positive_counterexamples == 0

    # round trip on sampled cone interiors
    round_trips = 0
    for fan in (fan3, fan4):
        for k, ridx in enumerate(fan.maximal_rays):
            for weights in ((1,) * len(ridx), tuple(range(2, 2 + len(ridx)))):
                w = sample_height(fan, k, weights)
                flag = decompose_height(w)
                assert compress_on_vertices(flag).heights == w.heights
                round_trips += 1
    assert round_trips >= 100

    # 2-skeleton and positivity biconditionals on random heights
    rng = random.Random(20260814)
    disagreements = 0
    for _ in range(500):
        w = HeightFunction(
            3,
            {v: Fraction(rng.randint(-4, 4)) for v in permutohedron_vertices(3)},
        )
        report = check_two_skeleton(w)
        cells = subdivide(w)
        if report.passes_two_skeleton != all(
            c.is_generalized_permutahedron for c in cells
        ):
            disagreements += 1
        result = check_positive_flag(w)
        if result.positive != all(c.is_bruhat_interval for c in result.cells):
            disagreements += 1
    for k in range(len(fan4.maximal)):
        w = sample_height(fan4, k)
        report = check_two_skeleton(w)
        cells = subdivide(w)
        if not (
            report.passes_two_skeleton
            and all(c.is_generalized_permutahedron for c in cells)
        ):
            disagreements += 1
        result = check_positive_flag(w)
        if result.positive != all(c.is_bruhat_interval for c in result.cells):
            disagreements += 1
    assert disagreements == 0

    # lift of the running example stays positive on the full rank-3 support
    lifted = lift_to_grassmannian(example_flag())
    assert len(lifted.values) == 20
    assert check_positive_plucker(lifted) is None

    _ok(8, f"implications exhaustive (59049 pairs), {round_trips} round trips, "
           "500+75 biconditional samples, lift positive")
