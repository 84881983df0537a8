"""Fan enumeration: census, refinement, link homology, patterns, symmetry."""

import hashlib
from collections import Counter
from dataclasses import replace
from itertools import combinations
from math import prod

import pytest

from lp import lp_feasible
from oracles import (
    cone_image_by_canonical,
    exhaustive_fan_cones,
    incidence_edges_by_pair_scan,
    pair_is_face,
    ray_tight_masks,
    refinement_census_direct,
    symmetry_group_order,
)
from valperm import cli, fans, kernels, linalg, polyhedra, valuated
from valperm.cli import main
from valperm.fans import (
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
from valperm.polyhedra import cone_solve, incidence_edges
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


def test_phi3_lifted_ray_off_the_ambient_system_raises(monkeypatch, capsys):
    # a reduced cone with its ray flipped maps to a ray that violates its
    # choice's ambient inequalities, which the lift refuses
    search = fans._top_dimensional_choices

    def flipped(rows, dim):
        return [(choice, replace(cone, rays=tuple(tuple(-x for x in r) for r in cone.rays)))
                for choice, cone in search(rows, dim)]

    monkeypatch.setattr(fans, "_top_dimensional_choices", flipped)
    with pytest.raises(RuntimeError, match="cone_image: a ray violates its own defining system"):
        enumerate_fan(3)
    capsys.readouterr()
    assert main(["fan", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: internal error: cone_image: ")


@pytest.mark.parametrize("n", [3, 4])
def test_maximal_cones_equal_fresh_ambient_solves(n, fan4):
    # each lifted cone against its choice's system solved anew in R^(n!)
    fan = fan4 if n == 4 else enumerate_fan(3)
    verts, base_eqs, diag_rows = fans._context(n)
    basis = kernels.nullspace(base_eqs, len(verts))
    reduced_rows = [[[kernels.dot(r, b) for b in basis] for r in rows] for rows in diag_rows]
    fresh = sorted(
        (cone_solve(*fans._choice_system(base_eqs, diag_rows, choice), len(verts))
         for choice, _ in fans._top_dimensional_choices(reduced_rows, len(basis))),
        key=lambda c: c.key,
    )
    assert len(fresh) == len(fan.maximal) == {3: 3, 4: 75}[n]
    for cone, want in zip(fan.maximal, fresh):
        assert (cone.key, cone.dim, cone.lineality_dim) == (want.key, want.dim, want.lineality_dim)
        assert (cone.eqs, cone.ineqs, cone.tight) == (want.eqs, want.ineqs, want.tight)


@pytest.mark.parametrize("n, solved, cut", [(3, 3, 0), (4, 3, 1203)])
def test_enumerate_fan_solves_each_cone_once(n, solved, cut, monkeypatch):
    # the first hexagon's three systems are solved and every later child is
    # cut from its parent, three per kept partial choice, and nothing else:
    # the maximal cones are lifted, not solved again in R^(n!)
    solves, cuts = [], []
    solve, cone_cut = polyhedra.cone_solve, polyhedra.cone_cut

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    def counted_cut(*args):
        cuts.append(args)
        return cone_cut(*args)

    monkeypatch.setattr(fans, "cone_solve", counted_solve)
    monkeypatch.setattr(polyhedra, "cone_solve", counted_solve)
    monkeypatch.setattr(fans, "cone_cut", counted_cut)
    enumerate_fan(n)
    assert (len(solves), len(cuts)) == (solved, cut)


@pytest.mark.parametrize("n, kept, hit", [(3, 0, 0), (4, 903, 300)])
def test_cuts_that_keep_the_lineality_skip_the_canonical_form(n, kept, hit, monkeypatch):
    # a cut whose rows all vanish on its parent's lineality runs no RREF, no
    # Gram-Schmidt and no step 4 of cone_solve; a cut that hits the
    # lineality runs one RREF and at most one Gram-Schmidt of the new
    # lineality, and no step 4 either: its rays carry their masks
    calls = Counter()

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    for module, name in [(kernels, "rref"), (linalg, "orthogonalize"), (polyhedra, "_canonical")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    cuts, work = Counter(), {True: Counter(), False: Counter()}
    cut = fans.cone_cut

    def counted_cut(parent, eqs, ineqs):
        before = calls.copy()
        cone = cut(parent, eqs, ineqs)
        keeps = cone.lineality_dim == parent.lineality_dim
        cuts[keeps] += 1
        work[keeps].update(calls - before)
        return cone

    monkeypatch.setattr(fans, "cone_cut", counted_cut)
    enumerate_fan(n)
    assert (cuts[True], cuts[False]) == (kept, hit)
    assert work[True] == Counter()
    assert work[False]["_canonical"] == 0
    assert work[False]["rref"] == hit and work[False]["orthogonalize"] <= hit


def _reduced_rows(n):
    verts, base_eqs, diag_rows = fans._context(n)
    basis = kernels.nullspace(base_eqs, len(verts))
    return [[[kernels.dot(r, b) for b in basis] for r in rows] for rows in diag_rows], len(basis)


@pytest.mark.parametrize("n, children", [(3, 3), (4, 1206)])
def test_every_search_child_equals_a_fresh_solve_of_its_choice(n, children, monkeypatch):
    # each child of the level search, solved or cut, against its complete
    # prefix's system solved anew in the reduced coordinates; a child's
    # choice is its parent's plus the pair of its place among the three
    # children of that parent
    reduced_rows, dim = _reduced_rows(n)
    choice_of = {id(None): ()}
    made = {}
    recorded = []
    solve, cut = fans.cone_solve, fans.cone_cut

    def record(parent, cone):
        k = made.get(id(parent), 0)
        made[id(parent)] = k + 1
        choice = choice_of[id(parent)] + (fans._PAIRS[k],)
        choice_of[id(cone)] = choice
        recorded.append((choice, cone))
        return cone

    monkeypatch.setattr(fans, "cone_solve", lambda *args: record(None, solve(*args)))
    monkeypatch.setattr(fans, "cone_cut", lambda parent, *rows: record(parent, cut(parent, *rows)))
    fans._last_level(reduced_rows, dim)
    assert len(recorded) == children
    for choice, cone in recorded:
        want = cone_solve(*fans._choice_system([], reduced_rows, choice), dim)
        assert (cone.key, cone.dim, cone.lineality_dim) == (want.key, want.dim, want.lineality_dim)
        assert (cone.eqs, cone.ineqs, cone.tight) == (want.eqs, want.ineqs, want.tight)


# sha256 of repr([(choice, reduced key), ...]) of the top-dimensional cones,
# as the search that solved every child from its system found them
TOP_CHOICE_DIGESTS = {
    3: "352f6ea4958712d9ffbbac860614160d2d92aed1c177babcc51e341b963f978d",
    4: "df66d247dba22020d9ea94412805f852f5338cb7537d2b1041112328b2ed2584",
}


@pytest.mark.parametrize("n", [3, 4])
def test_top_dimensional_choices_are_frozen(n):
    reduced_rows, dim = _reduced_rows(n)
    got = [(choice, cone.key) for choice, cone in fans._top_dimensional_choices(reduced_rows, dim)]
    assert len(got) == {3: 3, 4: 75}[n]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == TOP_CHOICE_DIGESTS[n]


def test_last_level_holds_every_cone_of_the_complete_choices():
    # 75 top cones, 96 lower-dimensional ones and one without a ray, each
    # lower one inside a top one
    level = fans._last_level(*_reduced_rows(4))
    dims = sorted(cone.dim for _, cone in level)
    assert len(level) == 172 and dims.count(dims[-1]) == 75
    assert sum(1 for _, cone in level if not cone.rays) == 1


def _assert_internal_error(capsys, prefix):
    capsys.readouterr()
    assert main(["fan", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"valperm: internal error: {prefix}")


def test_a_top_cone_missing_from_the_top_dimension_fails_purity(monkeypatch, capsys):
    # a last level that records one top cone a dimension lower drops it from
    # the top cones; it lies in none of the others, which the purity
    # certificate refuses
    search = fans._last_level

    def dropped(rows, dim):
        level = search(rows, dim)
        top = max(cone.dim for _, cone in level)
        k = next(i for i, (_, cone) in enumerate(level) if cone.dim == top)
        choice, cone = level[k]
        return level[:k] + [(choice, replace(cone, dim=top - 1))] + level[k + 1:]

    monkeypatch.setattr(fans, "_last_level", dropped)
    with pytest.raises(RuntimeError, match="^enumerate_fan: a cone of a complete choice lies in no top"):
        enumerate_fan(4)
    _assert_internal_error(capsys, "enumerate_fan: a cone of a complete choice")


def test_a_redundant_ray_in_a_parent_is_internal(monkeypatch, capsys):
    # every cut cone with two rays or more gets the sum of two of them
    # planted as one more ray: a child that keeps it fails the cut's
    # irredundancy certificate
    cut = fans.cone_cut

    def planted(parent, eqs, ineqs):
        cone = cut(parent, eqs, ineqs)
        if len(cone.rays) < 2:
            return cone
        (a, b), (ma, mb) = cone.rays[:2], cone.tight[:2]
        extra = tuple(x + y for x, y in zip(a, b))
        return replace(cone, rays=cone.rays + (extra,), tight=cone.tight + (ma & mb,))

    monkeypatch.setattr(fans, "cone_cut", planted)
    with pytest.raises(RuntimeError, match="^cone_cut: a ray is redundant"):
        enumerate_fan(4)
    _assert_internal_error(capsys, "cone_cut: a ray is redundant")


def test_a_made_ray_off_the_system_in_a_cut_that_keeps_the_lineality_is_internal(monkeypatch, capsys):
    # in the cuts whose rows all vanish on the parent's lineality, combine_ray
    # returns the opposite ray: the check of the rays the cut made refuses it
    # in that same cut, before a later cut that hits the lineality could
    cut, combine = fans.cone_cut, kernels.combine_ray
    refused = []

    def wrong_combine_ray(pos_ray, neg_ray, wpos, wneg):
        return [-x for x in combine(pos_ray, neg_ray, wpos, wneg)]

    def faulty(parent, eqs, ineqs):
        if any(kernels.dot(r, v) for r in eqs + ineqs for v in parent.lineality):
            return cut(parent, eqs, ineqs)
        with monkeypatch.context() as m:
            m.setattr(kernels, "combine_ray", wrong_combine_ray)
            try:
                return cut(parent, eqs, ineqs)
            except RuntimeError:
                refused.append(parent)
                raise

    monkeypatch.setattr(fans, "cone_cut", faulty)
    with pytest.raises(RuntimeError, match="^cone_cut: a ray violates its own defining system"):
        enumerate_fan(4)
    assert len(refused) == 1
    _assert_internal_error(capsys, "cone_cut: a ray violates its own defining system")


def test_a_made_ray_off_the_system_in_a_cut_that_hits_the_lineality_is_internal(monkeypatch, capsys):
    # in the cuts whose rows meet the parent's lineality, combine_ray returns
    # the opposite ray: the rays such a cut makes are moved and projected
    # off the new lineality, and still checked against the whole system
    cut, combine = fans.cone_cut, kernels.combine_ray
    refused = []

    def wrong_combine_ray(pos_ray, neg_ray, wpos, wneg):
        return [-x for x in combine(pos_ray, neg_ray, wpos, wneg)]

    def faulty(parent, eqs, ineqs):
        if not any(kernels.dot(r, v) for r in eqs + ineqs for v in parent.lineality):
            return cut(parent, eqs, ineqs)
        with monkeypatch.context() as m:
            m.setattr(kernels, "combine_ray", wrong_combine_ray)
            try:
                return cut(parent, eqs, ineqs)
            except RuntimeError:
                refused.append(parent)
                raise

    monkeypatch.setattr(fans, "cone_cut", faulty)
    with pytest.raises(RuntimeError, match="^cone_cut: a ray violates its own defining system"):
        enumerate_fan(4)
    assert len(refused) == 1
    _assert_internal_error(capsys, "cone_cut: a ray violates its own defining system")


def _counted_search(rows, dim, monkeypatch):
    """The top choices of the level search on ``rows`` and its numbers of
    solves and cuts."""
    calls = Counter()
    solve, cut = polyhedra.cone_solve, polyhedra.cone_cut
    monkeypatch.setattr(fans, "cone_solve", lambda *args: calls.update(["solve"]) or solve(*args))
    monkeypatch.setattr(fans, "cone_cut", lambda *args: calls.update(["cut"]) or cut(*args))
    top = fans._top_dimensional_choices(rows, dim)
    monkeypatch.undo()
    return top, (calls["solve"], calls["cut"])


@pytest.mark.parametrize("n, dims, counts", [(3, (2, 2), (3, 0)), (4, (8, 3), (3, 1203))])
def test_the_quotient_search_finds_the_choices_of_the_unreduced_search(n, dims, counts,
                                                                       monkeypatch, fan4):
    # the search modulo the common lineality against the search in the
    # 2-skeleton space: the same choices in the same order from the same
    # solves and cuts, each cone less the common lineality, and each image
    # in R^(n!) the image of the unreduced cone
    reduced_rows, dim = _reduced_rows(n)
    quotient_rows, pivots, common = fans._quotient(reduced_rows, dim)
    assert (len(pivots), len(common)) == dims
    unreduced, unreduced_counts = _counted_search(reduced_rows, dim, monkeypatch)
    quotient, quotient_counts = _counted_search(quotient_rows, len(pivots), monkeypatch)
    assert [choice for choice, _ in quotient] == [choice for choice, _ in unreduced]
    assert quotient_counts == unreduced_counts == counts
    verts, base_eqs, diag_rows = fans._context(n)
    basis = kernels.nullspace(base_eqs, len(verts))
    section = [basis[p] for p in pivots]
    lineality = kernels.rref(linalg.mat_mul(common, basis), len(verts))[0]
    orth = linalg.orthogonalize(lineality, len(verts))
    images = []
    for (choice, cone), (_, whole) in zip(quotient, unreduced):
        assert (cone.dim, cone.lineality_dim) == (whole.dim - len(common),
                                                  whole.lineality_dim - len(common))
        eqs, ineqs = map(polyhedra.normalize_rows, fans._choice_system(base_eqs, diag_rows, choice))
        image = polyhedra.cone_image(cone, section, eqs, ineqs, lineality, orth)
        want = cone_image_by_canonical(whole, basis, eqs, ineqs)
        assert (image.key, image.dim, image.lineality_dim) == (want.key, want.dim, want.lineality_dim)
        assert (image.eqs, image.ineqs, image.tight) == (want.eqs, want.ineqs, want.tight)
        images.append(image)
    fan = fan4 if n == 4 else enumerate_fan(3)
    assert [c.key for c in fan.maximal] == sorted(c.key for c in images)


@pytest.mark.parametrize("n", [3, 4])
def test_maximal_cones_equal_the_per_cone_canonical_images(n, fan4):
    # each maximal cone, mapped with the lineality certified once, against
    # the image that reduces, orthogonalizes and checks the lineality and
    # normalizes the system for that cone alone
    reduced_rows, dim = _reduced_rows(n)
    quotient_rows, pivots, common = fans._quotient(reduced_rows, dim)
    verts, base_eqs, diag_rows = fans._context(n)
    basis = kernels.nullspace(base_eqs, len(verts))
    common_image = linalg.mat_mul(common, basis)
    want = sorted(
        (cone_image_by_canonical(cone, [basis[p] for p in pivots],
                                 *fans._choice_system(base_eqs, diag_rows, choice),
                                 lineality=common_image)
         for choice, cone in fans._top_dimensional_choices(quotient_rows, len(pivots))),
        key=lambda c: c.key,
    )
    fan = fan4 if n == 4 else enumerate_fan(3)
    assert len(fan.maximal) == len(want) == {3: 3, 4: 75}[n]
    for cone, old in zip(fan.maximal, want):
        assert (cone.key, cone.dim, cone.lineality_dim) == (old.key, old.dim, old.lineality_dim)
        assert (cone.eqs, cone.ineqs, cone.tight) == (old.eqs, old.ineqs, old.tight)
    assert fan.lineality == want[0].lineality


def test_cone_image_refuses_a_quotient_cone_with_lineality(monkeypatch, capsys):
    # a top cone of the quotient search that kept a lineality vector would
    # lose it in the image: the image refuses it as an internal error
    search = fans._top_dimensional_choices

    def widened(rows, dim):
        top = search(rows, dim)
        choice, cone = top[0]
        unit = tuple(int(k == 0) for k in range(dim))
        return [(choice, replace(cone, lineality=(unit,), lineality_dim=1, dim=cone.dim + 1))] + top[1:]

    monkeypatch.setattr(fans, "_top_dimensional_choices", widened)
    with pytest.raises(RuntimeError, match="^cone_image: the cone is not pointed"):
        enumerate_fan(4)
    _assert_internal_error(capsys, "cone_image: the cone is not pointed")


def _dressian_rows(n):
    """The term rows of the three-term Plücker relations of Gr(2, n), one
    coordinate per 2-subset: each term is the sum of two coordinates."""
    masks, relations = valuated._plucker_table(n, 2)
    index = {m: k for k, m in enumerate(masks)}

    def term(a, b):
        row = [0] * len(masks)
        row[index[a]] += 1
        row[index[b]] += 1
        return row

    return [[term(*rel[0:2]), term(*rel[2:4]), term(*rel[4:6])] for rel in relations], len(masks)


@pytest.mark.parametrize("n, maximal, rays", [(5, 15, 10), (6, 105, 25)])
def test_the_quotient_search_gives_the_rank_two_dressian(n, maximal, rays):
    # Dr(2, n), the space of phylogenetic trees on n leaves, has (2n - 5)!!
    # maximal cones of dimension n - 3 modulo its lineality of dimension n,
    # and one ray per split of [n] into two parts of two or more (Speyer
    # and Sturmfels, "The tropical Grassmannian", 2004)
    rows, dim = _dressian_rows(n)
    quotient_rows, pivots, common = fans._quotient(rows, dim)
    assert (len(common), len(pivots)) == (n, dim - n)
    top = fans._top_dimensional_choices(quotient_rows, len(pivots))
    assert len(top) == maximal == prod(range(2 * n - 5, 0, -2))
    assert len({r for _, cone in top for r in cone.rays}) == rays == 2 ** (n - 1) - n - 1
    assert {(cone.dim, cone.lineality_dim) for _, cone in top} == {(n - 3, 0)}
    if n == 5:
        whole = fans._top_dimensional_choices(rows, dim)
        assert [choice for choice, _ in top] == [choice for choice, _ in whole]


def test_a_dependent_quotient_basis_is_internal(monkeypatch, capsys):
    # the common lineality's first basis vector swapped for the first pivot
    # column's unit vector: its image repeats a section row, which the rank
    # of the map back refuses before the search
    quotient = fans._quotient

    def dependent(rows, dim):
        quotient_rows, pivots, common = quotient(rows, dim)
        unit = [int(k == pivots[0]) for k in range(dim)]
        return quotient_rows, pivots, [unit] + common[1:]

    monkeypatch.setattr(fans, "_quotient", dependent)
    with pytest.raises(RuntimeError, match="^enumerate_fan: the quotient section and the common"):
        enumerate_fan(3)
    _assert_internal_error(capsys, "enumerate_fan: the quotient section and the common")


def test_a_common_lineality_off_the_differences_is_internal(monkeypatch, capsys):
    # the common lineality's first basis vector moved along the first pivot
    # column: the map back is still a basis, but some diagonal difference
    # no longer vanishes on it
    quotient = fans._quotient

    def tilted(rows, dim):
        quotient_rows, pivots, common = quotient(rows, dim)
        moved = list(common[0])
        moved[pivots[0]] += 1
        return quotient_rows, pivots, [moved] + common[1:]

    monkeypatch.setattr(fans, "_quotient", tilted)
    with pytest.raises(RuntimeError, match="^enumerate_fan: a diagonal difference does not vanish"):
        enumerate_fan(3)
    _assert_internal_error(capsys, "enumerate_fan: a diagonal difference does not vanish")


@pytest.mark.parametrize("tilt, message", [
    ("section", "a diagonal difference does not vanish on the common lineality"),
    ("unit", "a base equation does not vanish on the common lineality"),
], ids=["section", "unit"])
def test_a_certified_lineality_that_leaves_a_row_is_internal(tilt, message, monkeypatch, capsys):
    # the RREF of the common lineality in R^24 with its first vector moved
    # along a section vector, which stays in the 2-skeleton space but leaves
    # a diagonal difference, or along a unit vector, which leaves a base
    # equation: the certificate made once refuses it before any image is
    # made, so no cone_image relies on it
    verts, base_eqs, _ = fans._context(4)
    basis = kernels.nullspace(base_eqs, len(verts))
    _, pivots, common = fans._quotient(*_reduced_rows(4))
    common_image = linalg.mat_mul(common, basis)
    step = basis[pivots[0]] if tilt == "section" else [int(t == 0) for t in range(len(verts))]
    rref, tilts = kernels.rref, []

    def tilted(rows, ncols):
        red, piv = rref(rows, ncols)
        if [list(r) for r in rows] != common_image:
            return red, piv
        tilts.append(ncols)
        return [[x + y for x, y in zip(red[0], step)]] + red[1:], piv

    monkeypatch.setattr(kernels, "rref", tilted)
    images = []
    monkeypatch.setattr(fans, "cone_image", lambda *args: images.append(args))
    with pytest.raises(RuntimeError, match=f"^enumerate_fan: {message}"):
        enumerate_fan(4)
    assert tilts == [len(verts)] and images == []
    _assert_internal_error(capsys, f"enumerate_fan: {message}")


def test_fan4_tight_masks_match_dot_products(fan4):
    for cone in fan4.maximal:
        assert cone.tight == tuple(ray_tight_masks(cone))


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


def test_phi4_two_faces_match_pair_oracle(fan4):
    """The incidence rule on every maximal cone, with its rays' tight sets
    taken against the cone's inequalities, gives the pairs the linear-algebra
    oracle accepts, and those are the fan's 2-faces of the cone."""
    for cone, ridx, fidx in zip(fan4.maximal, fan4.maximal_rays, fan4.maximal_two_faces):
        tight = [sum(1 << h for h, a in enumerate(cone.ineqs) if kernels.dot(a, r) == 0)
                 for r in cone.rays]
        want = [(i, j) for i, j in combinations(range(len(cone.rays)), 2) if pair_is_face(cone, i, j)]
        assert incidence_edges(tight) == want == incidence_edges_by_pair_scan(tight)
        assert incidence_edges(cone.tight) == incidence_edges_by_pair_scan(cone.tight)
        assert {fan4.two_faces[f] for f in fidx} == {(ridx[i], ridx[j]) for i, j in want}


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


@pytest.fixture(params=[3, 4], ids=["n=3", "n=4"])
def fan_n(request, fan4):
    return fan4 if request.param == 4 else enumerate_fan(3)


def test_refinement_census_matches_direct_oracle(fan_n):
    got = refinement_census(fan_n)
    want = refinement_census_direct(fan_n)
    assert (got.total, got.per_cone, got.discrepancies) == (
        want.total, want.per_cone, want.discrepancies
    )


def _moved_ray(fan, vmap, r):
    """The ray ``r`` with its height coordinates permuted by ``vmap``."""
    verts = permutohedron_vertices(fan.n)
    index = {v: k for k, v in enumerate(verts)}
    img = [0] * fan.ambient
    for c, v in enumerate(verts):
        img[index[vmap[v]]] = r[c]
    return tuple(img)


def _vertex_key(fan, vmap):
    return tuple(vmap[v] for v in permutohedron_vertices(fan.n))


def test_symmetry_group_has_the_computed_order_and_preserves_the_fan(fan_n):
    # the closure against the order of the group the generators generate,
    # closed by the oracle on vertex maps alone: 48 elements for n = 4 and
    # 12 for n = 3, read from the cosets of cone 0's orbit; every element
    # is a permutation of the vertices, rays and cones, maps each ray's
    # coordinates onto its image ray and each cone's rays onto its image
    # cone's
    table = fans._symmetry_table(fan_n)
    verts = permutohedron_vertices(fan_n.n)
    group = [g for rep, coset in table if rep == 0 for g in coset]
    assert len(group) == symmetry_group_order(fan_n.n) == {3: 12, 4: 48}[fan_n.n]
    assert len({_vertex_key(fan_n, vmap) for vmap, _, _ in group}) == len(group)
    vmap, rperm, cperm = table[0][1][0]
    assert all(vmap[v] == v for v in verts)
    assert rperm == tuple(range(len(fan_n.rays))) and cperm == tuple(range(len(fan_n.maximal)))
    for vmap, rperm, cperm in group:
        assert sorted(vmap.values()) == sorted(verts)
        assert sorted(rperm) == list(range(len(fan_n.rays)))
        assert sorted(cperm) == list(range(len(fan_n.maximal)))
        for a, r in enumerate(fan_n.rays):
            assert _moved_ray(fan_n, vmap, r) == fan_n.rays[rperm[a]]
        for k, ridx in enumerate(fan_n.maximal_rays):
            assert sorted(rperm[a] for a in ridx) == list(fan_n.maximal_rays[cperm[k]])


def test_stabilizers_fix_their_representatives(fan_n):
    # each representative is the lowest cone of its orbit; its cosets
    # partition the group, and every element of cone k's coset maps it onto
    # k; its own coset is its stabilizer, the identity first, each element
    # permuting its rays, and orbit size times stabilizer order is the
    # group order
    table = fans._symmetry_table(fan_n)
    order = symmetry_group_order(fan_n.n)
    group = {_vertex_key(fan_n, g[0]) for rep, coset in table if rep == 0 for g in coset}
    orbits = symmetry_orbits(fan_n)
    assert sorted(k for orbit in orbits for k in orbit) == list(range(len(fan_n.maximal)))
    assert sorted({rep for rep, _ in table}) == [orbit[0] for orbit in orbits]
    for orbit in orbits:
        rep = orbit[0]
        assert rep == min(orbit) and all(table[k][0] == rep for k in orbit)
        keys = [_vertex_key(fan_n, g[0]) for k in orbit for g in table[k][1]]
        assert len(keys) == len(set(keys)) == order and set(keys) == group
        assert all(g[2][rep] == k for k in orbit for g in table[k][1])
        stabilizer = table[rep][1]
        assert len(orbit) * len(stabilizer) == order
        assert _vertex_key(fan_n, stabilizer[0][0]) == tuple(permutohedron_vertices(fan_n.n))
        rays = set(fan_n.maximal_rays[rep])
        for vmap, rperm, cperm in stabilizer:
            assert cperm[rep] == rep
            assert {rperm[a] for a in rays} == rays


def test_transported_sample_keys_match_direct_solves(fan_n):
    # every (cone, sample) subdivision carried from the orbit representative
    # equals the one solved in the cone itself, and so do the heights,
    # carried along every element of the cone's coset
    table = fans._symmetry_table(fan_n)
    transported = fans._sample_keys(fan_n)
    pairs = 0
    for k, ridx in enumerate(fan_n.maximal_rays):
        rep, coset = table[k]
        assert rep <= k
        samples = fans._cone_samples(fan_n, k)
        assert len(transported[k]) == len(samples)
        for wts, key in zip(samples, transported[k]):
            direct = sample_height(fan_n, k, wts)
            for vmap, rmap, cmap in coset:
                assert cmap[rep] == k
                assert {rmap[a] for a in fan_n.maximal_rays[rep]} == set(ridx)
                pulled = [wts[ridx.index(rmap[a])] for a in fan_n.maximal_rays[rep]]
                base = sample_height(fan_n, rep, pulled).heights
                assert {vmap[v]: h for v, h in base.items()} == direct.heights
            assert key == _subdivision_key(direct)
            pairs += 1
    assert pairs == {3: 9, 4: 231}[fan_n.n]


def test_symmetry_table_is_built_once_per_fan(fan_n, monkeypatch):
    # census plus orbits on one fan read one table, so the generators are
    # asked for once; the table is stored on the fan, which a replaced fan
    # does not inherit, and equality, hashing and repr ignore it
    calls = []
    generators = fans.symmetry_generators

    def counted(n):
        calls.append(n)
        return generators(n)

    monkeypatch.setattr(fans, "symmetry_generators", counted)
    fan = replace(fan_n)
    assert fan._symmetry is None
    refinement_census(fan)
    symmetry_orbits(fan)
    assert calls == [fan.n]
    assert fans._symmetry_table(fan) is fan._symmetry is not None
    copy = replace(fan, two_faces=fan.two_faces)
    assert copy._symmetry is None
    assert copy == fan and hash(copy) == hash(fan) and repr(copy) == repr(fan)
    assert "_symmetry" not in repr(fan)


def test_refinement_census_solves_once_per_orbit_sample(fan_n, monkeypatch):
    # for n = 4, the samples brought to their least images under the
    # stabilizers: 5 on the orbit of cone 0, 7 on that of cone 1, 5 on each
    # of the orbits of cones 26 and 27 and 2 on the four-ray one; for n = 3
    # the samples (1,) and (5,)
    calls = []
    solve = fans.subdivide

    def counted(w):
        calls.append(w)
        return solve(w)

    monkeypatch.setattr(fans, "subdivide", counted)
    refinement_census(fan_n)
    assert len(calls) == {3: 2, 4: 24}[fan_n.n]


def test_symmetry_that_breaks_the_fan_is_internal(monkeypatch, capsys):
    # one transposition of two vertices is not affine and moves rays off the
    # fan: the table builder refuses it, whether the orbits, the census or
    # the CLI asks, and the CLI exits 3 with one line; the fan is fresh, so
    # no table built from the real generators hides the broken one
    fan = enumerate_fan(4)
    assert fan._symmetry is None
    generators = fans.symmetry_generators

    def broken(n):
        verts = permutohedron_vertices(n)
        swap = {v: v for v in verts}
        swap[verts[0]], swap[verts[1]] = verts[1], verts[0]
        return generators(n) + [swap]

    monkeypatch.setattr(fans, "symmetry_generators", broken)
    message = "_symmetry_table: a symmetry does not preserve the fan"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        symmetry_orbits(fan)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        refinement_census(fan)
    assert fan._symmetry is None
    monkeypatch.setattr(cli, "enumerate_fan", lambda n: fan)
    assert main(["fan", "4", "--refinement"]) == 3
    assert capsys.readouterr().err.splitlines() == [f"valperm: internal error: {message}"]


def test_phi4_interior_witnesses(fan4):
    # the sample heights are integer combinations of integer rays, so the
    # membership tests compare int vectors
    for k, cone in enumerate(fan4.maximal):
        w = sample_height(fan4, k)
        assert check_two_skeleton(w).passes_two_skeleton
        heights = [w.heights[v] for v in permutohedron_vertices(4)]
        assert all(h.denominator == 1 for h in heights)
        vec = [h.numerator for h in heights]
        assert cone.contains(vec)
        others = sum(c.contains(vec) for j, c in enumerate(fan4.maximal) if j != k)
        assert others == 0, f"sample for cone {k} lies in {others} other cones"


def test_phi4_witness_subdivisions_all_gp(fan4):
    for k in range(len(fan4.maximal)):
        cells = subdivide(sample_height(fan4, k))
        assert len(cells) > 1
        assert all(c.is_generalized_permutahedron for c in cells)


def test_sample_height_refuses_a_cone_index_out_of_range():
    # -1 would index the last cone; 3 is past the end of n = 3's three
    fan = enumerate_fan(3)
    for k in (-1, 3, len(fan.maximal) + 5):
        with pytest.raises(ValueError, match="sample_height: no maximal cone"):
            sample_height(fan, k)
    assert sample_height(fan, 2).heights == sample_height(fan, 2, (1,)).heights
    with pytest.raises(ValueError, match="one positive weight per ray"):
        sample_height(fan, 0, (0,))


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
    with pytest.raises(ValueError, match="not an edge"):
        complex_betti(3, [(0, 1), (1, 2)], [[0, 1, 2]])


def test_link_homology_fault_is_internal(fan4, monkeypatch, capsys):
    # a walk step off the complex built from the fan is an internal error
    # (exit 3), not an input error (exit 2)
    monkeypatch.setattr(fans, "_cell_walk", lambda ridx, pairs: [ridx[0], ridx[0], ridx[1]])
    with pytest.raises(RuntimeError, match="link_homology: complex_betti: walk step"):
        link_homology(fan4)
    monkeypatch.setattr(cli, "enumerate_fan", lambda n: fan4)
    assert main(["fan", "4", "--homology"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("valperm: internal error: link_homology")


def test_link_dot_phi4(fan4):
    text = link_dot(fan4)
    assert text.startswith("graph link_4 {")
    assert text.count(" -- ") == 76
    assert text.count(";") == 20 + 76
