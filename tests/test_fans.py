"""Fan enumeration: census, refinement, link homology, patterns, symmetry."""

from dataclasses import replace

import pytest

from lp import lp_feasible
from oracles import exhaustive_fan_cones
from valperm import fans, kernels
from valperm.cli import main
from valperm.fans import (
    Fan,
    complex_betti,
    enumerate_fan,
    f_vector_census,
    link_dot,
    link_homology,
    pattern_signature,
    refinement_census,
    sample_height,
    symmetry_orbits,
    _subdivision_key,
)
from valperm.permutahedra import permutohedron_vertices
from valperm.subdivisions import (
    HeightFunction,
    check_two_skeleton,
    compress_on_vertices,
    decompose_height,
    subdivide,
)


@pytest.fixture(scope="session")
def fan4():
    return enumerate_fan(4)


PHI3_RAYS = {
    (-2, 1, 1, 1, 1, -2),
    (1, -2, 1, 1, -2, 1),
    (1, 1, -2, -2, 1, 1),
}


def test_phi3_maximal_cones():
    fan = enumerate_fan(3)
    assert len(fan.maximal) == 3
    assert fan.ambient == 6
    assert fan.lineality_dim == 2
    for cone in fan.maximal:
        assert cone.dim == 3 and cone.lineality_dim == 2
        assert len(cone.rays) == 1
    assert len({c.key for c in fan.maximal}) == 3
    assert set(fan.rays) == PHI3_RAYS
    assert fan.two_faces == ()
    assert fan.maximal_two_faces == ((), (), ())


def test_phi3_census_and_refinement():
    fan = enumerate_fan(3)
    census = f_vector_census(fan)
    assert census.f_vector == (3,)
    assert census.ray_counts == {1: 3}
    assert census.lineality_dim == 2
    report = refinement_census(fan)
    assert report.total == 3
    assert report.per_cone == (1, 1, 1)
    assert report.discrepancies == ()


def test_phi3_parallel_options_rejected():
    with pytest.raises(ValueError):
        enumerate_fan(3, processes=2)
    with pytest.raises(SystemExit) as exc:
        main(["fan", "3", "--threads", "2"])
    assert exc.value.code == 2


def test_phi3_ambient_resolve_disagreement_raises(monkeypatch):
    search = fans._top_dimensional_choices

    def skewed(rows, dim):
        return [(choice, replace(cone, dim=cone.dim + 1)) for choice, cone in search(rows, dim)]

    monkeypatch.setattr(fans, "_top_dimensional_choices", skewed)
    with pytest.raises(RuntimeError, match="ambient re-solve"):
        enumerate_fan(3)


def test_phi3_matches_exhaustive_sweep():
    cones, maximal = exhaustive_fan_cones(3)
    fan = enumerate_fan(3)
    assert len(cones) == len(maximal) == 3
    assert [(c.key, c.eqs, c.ineqs) for c in maximal] == [
        (c.key, c.eqs, c.ineqs) for c in fan.maximal
    ]


def test_phi3_symmetry_single_orbit():
    fan = enumerate_fan(3)
    assert symmetry_orbits(fan) == [(0, 1, 2)]


def test_phi3_link_dot():
    text = link_dot(enumerate_fan(3))
    assert text.startswith("graph link_3 {")
    assert "r0;" in text and "r2;" in text
    assert "--" not in text


def test_phi3_link_is_not_two_dimensional():
    with pytest.raises(ValueError):
        link_homology(enumerate_fan(3))


def test_unsupported_sizes_rejected():
    with pytest.raises(ValueError):
        enumerate_fan(2)
    with pytest.raises(ValueError):
        enumerate_fan(5)


def test_phi3_interior_samples_pass_and_round_trip():
    fan = enumerate_fan(3)
    for k in range(3):
        w = sample_height(fan, k)
        assert check_two_skeleton(w).passes_two_skeleton
        cells = subdivide(w)
        assert len(cells) == 2
        assert all(c.is_generalized_permutahedron for c in cells)
        flag = decompose_height(w)
        assert compress_on_vertices(flag).heights == w.heights


# ---------------------------------------------------------------------------
# the n = 4 fan


def test_phi4_census(fan4):
    assert fan4.ambient == 24
    assert fan4.lineality_dim == 3
    assert len(fan4.maximal) == 75
    assert len(fan4.rays) == 20
    assert len(fan4.two_faces) == 76
    census = f_vector_census(fan4)
    assert census.f_vector == (20, 76, 75)
    assert census.ray_counts == {3: 72, 4: 3}
    assert all(fan4.quotient_dim(c) == 3 for c in fan4.maximal)


def test_phi4_frozen_rays(fan4):
    assert fan4.rays[0] == (
        -11, -5, 13, -5, 13, -11, -5, 1, 13, 1, 13, -5,
        -5, 7, -11, 7, -11, -5, 1, 7, -5, 7, -5, 1,
    )
    assert fan4.rays[-1] == (
        13, 13, -11, -11, -5, -5, 13, 13, -5, -5, 1, 1,
        -11, -11, -5, -5, 7, 7, -5, -5, 1, 1, 7, 7,
    )
    assert all(kernels.dot(r, [1] * 24) == 0 for r in fan4.rays)


def test_phi4_dedup_soundness(fan4):
    keys = {c.key for c in fan4.maximal}
    assert len(keys) == 75
    raysets = [frozenset(r) for r in fan4.maximal_rays]
    assert len(set(raysets)) == 75
    for i, a in enumerate(raysets):
        assert not any(a <= b for j, b in enumerate(raysets) if j != i)


def test_phi4_face_structure(fan4):
    seen = set()
    for ridx, fidx in zip(fan4.maximal_rays, fan4.maximal_two_faces):
        assert len(fidx) == len(ridx)  # triangle or quadrilateral boundary
        for f in fidx:
            pair = fan4.two_faces[f]
            assert set(pair) <= set(ridx)
            seen.add(f)
        if len(ridx) == 3:
            covered = {fan4.two_faces[f] for f in fidx}
            assert covered == {
                (ridx[0], ridx[1]), (ridx[0], ridx[2]), (ridx[1], ridx[2])
            }
        else:
            degree = {}
            for f in fidx:
                for r in fan4.two_faces[f]:
                    degree[r] = degree.get(r, 0) + 1
            assert degree == {r: 2 for r in ridx}
    assert seen == set(range(76))


def test_phi4_homology(fan4):
    report = link_homology(fan4)
    assert report.betti == (1, 0, 18)
    assert report.euler == 19
    census = f_vector_census(fan4)
    chi = census.f_vector[0] - census.f_vector[1] + census.f_vector[2]
    assert chi == report.euler == sum(
        b if k % 2 == 0 else -b for k, b in enumerate(report.betti)
    )


def test_phi4_refinement(fan4):
    report = refinement_census(fan4)
    assert report.total == 78
    assert report.discrepancies == ()
    for count, ridx in zip(report.per_cone, fan4.maximal_rays):
        assert count == (1 if len(ridx) == 3 else 2)


def test_phi4_symmetry_orbits(fan4):
    orbits = symmetry_orbits(fan4)
    assert sorted(len(o) for o in orbits) == [3, 12, 12, 24, 24]
    assert sum(len(o) for o in orbits) == 75
    four_ray = {k for k, r in enumerate(fan4.maximal_rays) if len(r) == 4}
    for orbit in orbits:
        counts = {len(fan4.maximal_rays[k]) for k in orbit}
        assert len(counts) == 1
        if len(orbit) == 3:
            assert set(orbit) == four_ray


def test_phi4_interior_witnesses(fan4):
    for k, cone in enumerate(fan4.maximal):
        w = sample_height(fan4, k)
        assert check_two_skeleton(w).passes_two_skeleton
        vec = [w.heights[v] for v in permutohedron_vertices(4)]
        assert cone.contains(vec)
        others = sum(c.contains(vec) for j, c in enumerate(fan4.maximal) if j != k)
        assert others == 0, f"sample for cone {k} lies in {others} other cones"


def test_phi4_witness_subdivisions_all_gp(fan4):
    for k in range(len(fan4.maximal)):
        cells = subdivide(sample_height(fan4, k))
        assert len(cells) > 1
        assert all(c.is_generalized_permutahedron for c in cells)


def test_phi4_round_trip_on_cone_samples(fan4):
    for k in (0, 5, 9, 37, 69, 74):
        w = sample_height(fan4, k, tuple(range(2, 2 + len(fan4.maximal_rays[k]))))
        flag = decompose_height(w)
        assert compress_on_vertices(flag).heights == w.heights


def test_phi4_lp_interior_witness_matches_sample(fan4):
    verts = permutohedron_vertices(4)
    for k in (0, 5, 40, 74):
        cone = fan4.maximal[k]
        eqs = [(list(e), 0) for e in cone.eqs]
        strict = [
            (list(q), 0)
            for q in cone.ineqs
            if any(kernels.dot(q, r) != 0 for r in cone.rays)
        ]
        ok, witness = lp_feasible(eqs, strict, [], 24)
        assert ok
        assert cone.contains(witness)
        w = HeightFunction(4, dict(zip(verts, witness)))
        assert pattern_signature(w) == pattern_signature(sample_height(fan4, k))


# ---------------------------------------------------------------------------
# patterns


def test_pattern_signature_distinguishes_cones(fan4):
    sigs = {pattern_signature(sample_height(fan4, k)) for k in range(75)}
    assert len(sigs) == 75


def test_pattern_signature_constant_on_cones(fan4):
    for k in (2, 5, 33):
        nrays = len(fan4.maximal_rays[k])
        a = pattern_signature(sample_height(fan4, k))
        b = pattern_signature(sample_height(fan4, k, (3,) + (1,) * (nrays - 1)))
        assert a == b


def test_four_ray_cones_have_two_subdivisions_one_signature(fan4):
    for k, ridx in enumerate(fan4.maximal_rays):
        if len(ridx) != 4:
            continue
        local = {g: i for i, g in enumerate(ridx)}
        subdivisions, signatures = set(), set()
        for f in fan4.maximal_two_faces[k]:
            wts = [1, 1, 1, 1]
            for g in fan4.two_faces[f]:
                wts[local[g]] = 5
            w = sample_height(fan4, k, tuple(wts))
            subdivisions.add(_subdivision_key(w))
            signatures.add(pattern_signature(w))
        signatures.add(pattern_signature(sample_height(fan4, k)))
        assert len(subdivisions) == 2
        assert len(signatures) == 1


def test_pattern_signature_frozen_examples():
    example_heights = HeightFunction(
        3, {"123": 4, "213": 5, "132": 2, "312": 4, "231": 2, "321": 3}
    )
    assert pattern_signature(example_heights) == (((0, 2), 1),)
    flat = HeightFunction.zero(4)
    assert pattern_signature(flat) == (((0, 1, 2), None),) * 8
    with pytest.raises(ValueError):
        pattern_signature(HeightFunction(3, {"123": 1, "132": 0, "213": 0,
                                             "231": 0, "312": 0, "321": 0}))


# ---------------------------------------------------------------------------
# the homology core on small explicit complexes


def test_betti_filled_triangle():
    assert complex_betti(3, [(0, 1), (0, 2), (1, 2)], [[0, 1, 2]]) == (1, 0, 0)


def test_betti_triangle_boundary():
    assert complex_betti(3, [(0, 1), (0, 2), (1, 2)], []) == (1, 1, 0)


def test_betti_two_points():
    assert complex_betti(2, [], []) == (2, 0, 0)


def test_betti_sphere_octahedron():
    edges = [(a, b) for a in range(6) for b in range(a + 1, 6)
             if {a, b} not in ({0, 5}, {1, 4}, {2, 3})]
    walks = [
        [0, 1, 2], [0, 2, 4], [0, 4, 3], [0, 3, 1],
        [5, 2, 1], [5, 4, 2], [5, 3, 4], [5, 1, 3],
    ]
    assert complex_betti(6, edges, walks) == (1, 0, 1)


def test_betti_rejects_walk_off_complex():
    with pytest.raises(AssertionError):
        complex_betti(3, [(0, 1), (1, 2)], [[0, 1, 2]])


def test_link_dot_phi4(fan4):
    text = link_dot(fan4)
    assert text.startswith("graph link_4 {")
    assert text.count(" -- ") == 76
    assert text.count(";") == 20 + 76
