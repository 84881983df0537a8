"""Permutohedron combinatorics: flags, Bruhat order, 2-faces, edges, symmetry."""

import hashlib
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from oracles import (
    argmax_vertex_for_flag,
    bruhat_leq_subword,
    bruhat_lower_set,
    flag_to_vertex,
    permutohedron_edges,
    symmetry_group_order,
    word_to_perm,
)
from valperm.permutahedra import (
    as_int,
    bruhat_interval,
    bruhat_leq,
    enumerate_two_faces,
    inversions,
    mask_elems,
    mask_from,
    mask_size,
    parse_perm,
    parse_subset,
    perm_str,
    permutohedron_vertices,
    reduced_word,
    reverse_complement,
    subset_str,
    subsets_of_size,
    symmetry_generators,
    vertex_flags,
    vertex_to_flag,
)
from valperm import subdivisions
from valperm.subdivisions import HeightFunction, check_two_skeleton


def test_mask_helpers():
    m = mask_from([1, 3, 4])
    assert mask_elems(m) == (1, 3, 4)
    assert mask_size(m) == 3
    assert subset_str(m) == "134"
    assert parse_subset("134") == m
    assert parse_subset([4, 1, 3]) == m
    assert list(subsets_of_size(3, 2)) == [
        mask_from([1, 2]),
        mask_from([1, 3]),
        mask_from([2, 3]),
    ]


def test_subset_strings_take_ascii_digits_only():
    # int() reads Arabic-Indic digits as ASCII ones, and " 13" and "1-3"
    # failed with int()'s own message
    for text in ["\u0661\u0663", " 13", "1-3", "\uff11"]:
        with pytest.raises(ValueError, match="^not a valid subset: "):
            parse_subset(text)
    assert parse_subset("13") == mask_from([1, 3]) and parse_subset("") == 0


def test_perm_helpers():
    assert parse_perm("2134") == (2, 1, 3, 4)
    assert perm_str((2, 1, 3, 4)) == "2134"
    with pytest.raises(ValueError):
        parse_perm("1123")


def test_fractional_entries_are_refused_not_truncated():
    # 1.5 is not 1 and 1.9 is not 1: both raise; integral floats and digit
    # strings read as their ints, as before
    with pytest.raises(TypeError, match="1.5 is not an integer"):
        parse_perm((1.5, 2, 3))
    with pytest.raises(TypeError, match="1.9 is not an integer"):
        parse_subset([1.9, 3])
    with pytest.raises(TypeError, match="is not an integer"):
        parse_perm((Fraction(3, 2), 2, 3))
    assert parse_perm((1.0, 2, 3)) == parse_perm(("1", "2", "3")) == (1, 2, 3)
    assert parse_subset([3.0, "1"]) == mask_from([1, 3])
    assert as_int(7) == 7 and as_int("7") == 7


def test_vertex_to_flag_examples():
    assert [mask_elems(m) for m in vertex_to_flag((1, 2, 3))] == [
        (3,),
        (2, 3),
        (1, 2, 3),
    ]
    assert [mask_elems(m) for m in vertex_to_flag((2, 1, 3))] == [
        (3,),
        (1, 3),
        (1, 2, 3),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_flag_vertex_roundtrip(n):
    seen = set()
    for v in permutohedron_vertices(n):
        f = vertex_to_flag(v)
        assert flag_to_vertex(f) == v
        seen.add(f)
    assert len(seen) == len(permutohedron_vertices(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vertex_flags_table_is_built_once(n):
    table = vertex_flags(n)
    assert table == tuple((v, vertex_to_flag(v)) for v in permutohedron_vertices(n))
    assert vertex_flags(n) is table


@pytest.mark.parametrize("n", [3, 4])
def test_flag_vertex_against_maximization_oracle(n):
    for v in permutohedron_vertices(n):
        f = vertex_to_flag(v)
        assert argmax_vertex_for_flag(f, n) == v


def test_word_convention_matches_hexagon_labels():
    # right multiplication on positions, words read left to right
    assert word_to_perm((1,), 3) == (2, 1, 3)
    assert word_to_perm((2,), 3) == (1, 3, 2)
    assert word_to_perm((2, 1), 3) == (3, 1, 2)
    assert word_to_perm((1, 2), 3) == (2, 3, 1)
    assert word_to_perm((1, 2, 1), 3) == (3, 2, 1)


def test_reduced_words():
    for n in (2, 3, 4, 5):
        for v in permutohedron_vertices(n):
            w = reduced_word(v)
            assert len(w) == inversions(v)
            assert word_to_perm(w, n) == v


def test_bruhat_examples():
    assert bruhat_leq((1, 2, 3), (3, 2, 1))
    assert not bruhat_leq((2, 1, 3), (1, 3, 2))
    assert not bruhat_leq((1, 3, 2), (2, 1, 3))
    # identity below everything, reversal above everything
    for v in permutohedron_vertices(3):
        assert bruhat_leq((1, 2, 3), v)
        assert bruhat_leq(v, (3, 2, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bruhat_matches_subword_oracle(n):
    verts = permutohedron_vertices(n)
    for b in verts:
        lower = bruhat_lower_set(b)
        for a in verts:
            assert bruhat_leq(a, b) == (a in lower), (a, b)


def test_bruhat_is_partial_order():
    verts = permutohedron_vertices(4)
    leq = {(a, b): bruhat_leq(a, b) for a in verts for b in verts}
    for a in verts:
        assert leq[(a, a)]
    for a in verts:
        for b in verts:
            if a != b and leq[(a, b)]:
                assert not leq[(b, a)]
    for a in verts:
        bs = [b for b in verts if leq[(a, b)]]
        for b in bs:
            for c in verts:
                if leq[(b, c)]:
                    assert leq[(a, c)]


def test_two_faces_n3():
    faces = enumerate_two_faces(3)
    assert len(faces) == 1
    hexagon = faces[0]
    assert hexagon.kind == "hexagon"
    assert hexagon.vertices == (
        (1, 2, 3),
        (1, 3, 2),
        (2, 3, 1),
        (3, 2, 1),
        (3, 1, 2),
        (2, 1, 3),
    )
    assert hexagon.flag_data == (0, mask_from([1, 2, 3]))
    assert hexagon.diagonals() == (
        ((1, 2, 3), (3, 2, 1)),
        ((1, 3, 2), (3, 1, 2)),
        ((2, 3, 1), (2, 1, 3)),
    )


def test_two_faces_n4_census():
    faces = enumerate_two_faces(4)
    hexes = [f for f in faces if f.kind == "hexagon"]
    squares = [f for f in faces if f.kind == "square"]
    assert len(hexes) == 8
    assert len(squares) == 6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_two_faces_are_closed_walks(n):
    edge_set = set(permutohedron_edges(n))

    def is_edge(u, v):
        return (min(u, v), max(u, v)) in edge_set

    for face in enumerate_two_faces(n):
        vs = face.vertices
        assert len(set(vs)) == len(vs)
        assert vs[0] == min(vs)
        for i in range(len(vs)):
            assert is_edge(vs[i], vs[(i + 1) % len(vs)])
        # tie-break: second vertex is the smaller neighbour of the start
        nbrs = sorted(w for w in vs if is_edge(vs[0], w))
        assert vs[1] == nbrs[0]


# sha256 of repr([(kind, vertices, flag_data), ...]) in the order
# enumerate_two_faces returns them: the fan's base equations, the skeleton
# reports and the CLI outputs all follow this order and orientation
TWO_FACE_DIGESTS = {
    3: "45d02ad1470a9a3f1b857df73c51e1bc6ef4bd1d370d4c5c1135249fc004567c",
    4: "4be05a905717cee3f1757b2e4b48b57a7c5fb5a666d97611635ef3d9b8d89f2c",
    5: "2df8bfb4a1984326e4556e069e86a279c788c554fabcdacc8efddfb1e84b8a6a",
    6: "22a0c79803d6d2f50b7240ffd6a053f5f4178ee4fbff29e01f0fafc92386a636",
}


@pytest.mark.parametrize("n", sorted(TWO_FACE_DIGESTS))
def test_two_faces_frozen_digest(n):
    text = repr([(f.kind, f.vertices, f.flag_data) for f in enumerate_two_faces(n)])
    assert hashlib.sha256(text.encode()).hexdigest() == TWO_FACE_DIGESTS[n]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hexagon_min_vertex_is_below_its_face(n):
    report = check_two_skeleton(HeightFunction.zero(n))
    assert len(report.hexagons) == sum(f.kind == "hexagon" for f in enumerate_two_faces(n))
    for hx in report.hexagons:
        assert hx.min_vertex in hx.face.vertices
        assert all(bruhat_leq_subword(hx.min_vertex, v) for v in hx.face.vertices)


def test_two_faces_and_graph_are_built_once_and_immutable():
    faces = enumerate_two_faces(4)
    assert faces is enumerate_two_faces(4)
    assert isinstance(faces, tuple)
    # the exchange trees that decompose_height walks are shared tuples too
    tree = subdivisions._exchange_tree(4)
    assert tree is subdivisions._exchange_tree(4)
    assert all(isinstance(level, tuple) for level in tree)
    with pytest.raises(FrozenInstanceError):
        faces[0].kind = "square"


def test_two_faces_n5_census():
    faces = enumerate_two_faces(5)
    hexes = [f for f in faces if f.kind == "hexagon"]
    squares = [f for f in faces if f.kind == "square"]
    assert len(hexes) == 60
    assert len(squares) == 90


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hexagons_are_bruhat_intervals(n):
    for face in enumerate_two_faces(n):
        if face.kind != "hexagon":
            continue
        vs = face.vertices
        mins = [v for v in vs if all(bruhat_leq(v, w) for w in vs)]
        maxs = [v for v in vs if all(bruhat_leq(w, v) for w in vs)]
        assert len(mins) == 1 and len(maxs) == 1
        assert sorted(bruhat_interval(mins[0], maxs[0], n)) == sorted(vs)


@pytest.mark.parametrize("n,order", [(3, 12), (4, 48), (5, 240)])
def test_symmetry_group_order(n, order):
    assert symmetry_group_order(n) == order


def test_symmetry_generators_are_vertex_bijections():
    for n in (3, 4, 5):
        verts = set(permutohedron_vertices(n))
        for g in symmetry_generators(n):
            assert set(g.keys()) == verts
            assert set(g.values()) == verts


def reflection_normal_image(v):
    """Image of a point under the reflection with normal e1 - e2 - e_{n-1} + e_n.

    Exact rational output; only lands on vertices for n <= 4, which pins down
    where the linear-reflection picture of ``reverse_complement`` applies.
    """
    n = len(v)
    normal = [Fraction(0)] * n
    for idx, sgn in ((0, 1), (1, -1), (n - 2, -1), (n - 1, 1)):
        normal[idx] += sgn
    norm_sq = sum(a * a for a in normal)
    lam = sum(a * x for a, x in zip(normal, v))
    return tuple(Fraction(x) - 2 * lam * a / norm_sq for a, x in zip(normal, v))


def test_extra_symmetry_fixes_base_vertex_and_matches_reflection():
    for n in (3, 4, 5):
        base = tuple(range(1, n + 1))
        assert reverse_complement(base) == base
    # for n <= 4 the map is the orthogonal reflection fixing the base vertex
    for n in (3, 4):
        for v in permutohedron_vertices(n):
            img = reflection_normal_image(v)
            assert img == tuple(Fraction(x) for x in reverse_complement(v))
