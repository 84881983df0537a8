"""Enumeration of the fan of permutahedral height functions (n = 3, 4).

Height functions that induce subdivisions of the permutohedron into cells
with root-parallel edges form a polyhedral fan in R^(n!): on every hexagonal
2-face the two alternating sums agree and the maximal diagonal sum is
attained at least twice, and every square 2-face is balanced.  One closed
cone per choice of attaining diagonal pair (3 per hexagon) covers the fan.

The enumeration does not solve all 3^H choices in R^(n!).  The base
equations (sum zero, hexagon alternation, square balance) are the same for
every choice, so their integer solution basis -- the 2-skeleton space, of
dimension 4 for n = 3 and 11 for n = 4 -- is computed once, and each
hexagon's diagonal rows are expressed in it.  Every cone of a choice then
holds the common lineality L, where the three diagonal sums of every
hexagon agree (dimension 2 for n = 3 and 3 for n = 4), so the search runs
modulo L, in the coordinates of a complement of L (dimension 2 for n = 3
and 8 for n = 4, :func:`_quotient`), and L is added back once to each top
cone.  A level-by-level search over the hexagons finds each partial
choice's cone in those coordinates and keeps one partial choice per
distinct cone: a choice's cone is its prefix's cone cut by one more pair,
so prefixes with equal cones have equal completions.  Only the first level
is solved from its system; every later child is cut from its parent's
generators by :func:`~valperm.polyhedra.cone_cut`.  For n = 4 that is 3
solves and 1203 cuts.  A cut checks its parent's vectors against its new rows only, since
they move only along the parent's lineality, on which the parent's rows
vanish, and checks the rays it makes against the whole system.  The 903
cuts whose rows vanish on the parent's lineality keep the parent's
lineality basis and rays as they are; the other 300 bring the new
lineality to RREF and project the rays off it, each ray keeping its tight
mask.  No cone is solved again in R^(n!): the
top-dimensional cones of the last level are mapped from the quotient
coordinates to R^(n!), with L's image as their lineality, by
:func:`~valperm.polyhedra.cone_image`, and they are the maximal cones.
L's image is brought to RREF, orthogonalized and certified against every
base equation and diagonal difference once, and the rows of the systems
are normalized once; each image's rays are mapped, projected off L and
checked against its ambient defining system.  Their 2-faces come from the
rays' tight masks, which that check records.

The search finds the top-dimensional cones, which are all the maximal ones
exactly when the fan is pure.  Purity is certified on every run: the last
level holds every distinct cone of the 3^H complete choices, and each must
lie in a top-dimensional cone.  The exhaustive 3^H sweep stays in the test
suite as an independent oracle (``tests/oracles.py``).

The refinement census samples every maximal cone but solves only one cone
per symmetry orbit, and one sample per orbit of samples.  The symmetry
generators permute the vertices by affine maps of R^n (coordinate swaps and
``reverse_complement``), so they act on heights as permutation matrices, map
rays to rays and cones to cones (each generator's image is checked), and
send the lower faces of a lifted configuration to the lower faces of its
image.  The group they generate is closed once per fan (48 elements for
n = 4, 12 for n = 3) into one table, stored on the fan
(:func:`_symmetry_table`): for each maximal cone, its orbit's
representative and the coset of elements that map the representative onto
it.  A sample of a cone is therefore pulled back along its coset to the
representative, brought to its least image there, solved once, and its
cells pushed forward through the vertex map: 24 lifted hulls instead of
231 for n = 4.  The orbits are read from the same table.

Everything is exact.  Heights are normalized to sum zero over all vertices,
which leaves a lineality space of dimension n - 1 (linear functionals modulo
the all-ones direction).
"""

from dataclasses import dataclass, field

from valperm import kernels, linalg
from valperm.permutahedra import (
    enumerate_two_faces,
    permutohedron_vertices,
    symmetry_generators,
)
from valperm.polyhedra import (
    check_extremal,
    cone_cut,
    cone_image,
    cone_solve,
    incidence_edges,
    normalize_rows,
)
from valperm.subdivisions import HeightFunction, check_two_skeleton, subdivide

FAN_SIZES = (3, 4)


def _context(n):
    """Static data for the sign-choice systems: vertex order and 2-face rows."""
    verts = permutohedron_vertices(n)
    index = {v: k for k, v in enumerate(verts)}
    hexagons, squares = [], []
    for face in enumerate_two_faces(n):
        idx = [index[v] for v in face.vertices]
        if face.kind == "hexagon":
            hexagons.append(idx)
        else:
            squares.append(idx)
    m = len(verts)

    def row(pairs):
        r = [0] * m
        for k, c in pairs:
            r[k] += c
        return r

    base_eqs = [row([(k, 1) for k in range(m)])]  # heights sum to zero
    for idx in hexagons:
        base_eqs.append(row([(k, 1) for k in idx[0::2]] + [(k, -1) for k in idx[1::2]]))
    for idx in squares:
        base_eqs.append(
            row([(idx[0], 1), (idx[2], 1), (idx[1], -1), (idx[3], -1)])
        )
    # diagonal-sum rows per hexagon: vertices k and k+3 in cyclic order
    diag_rows = [
        [row([(idx[k], 1), (idx[k + 3], 1)]) for k in range(3)] for idx in hexagons
    ]
    return verts, base_eqs, diag_rows


def _diff(a, b):
    return [x - y for x, y in zip(a, b)]


def _choice_system(base_eqs, diag_rows, choice):
    """Equalities and inequalities for one attaining-pair choice per hexagon.

    A partial choice (shorter than ``diag_rows``) constrains only the
    leading hexagons.
    """
    eqs = list(base_eqs)
    ineqs = []
    for rows, pair in zip(diag_rows, choice):
        i, j = pair
        (k,) = set(range(3)) - set(pair)
        eqs.append(_diff(rows[i], rows[j]))
        ineqs.append(_diff(rows[i], rows[k]))
        ineqs.append(_diff(rows[j], rows[k]))
    return eqs, ineqs


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _last_level(reduced_rows, dim):
    """Every distinct cone of the complete choices, one choice per cone.

    ``reduced_rows`` are the hexagons' diagonal rows in ``dim``
    coordinates: those of the 2-skeleton space, or of its quotient by the
    common lineality (:func:`_quotient`).  The search goes level by level,
    one hexagon at a time, and keeps one child per distinct cone of every
    kept partial choice.  A child's cone is its parent's cut by one more
    pair (one equation, two inequalities), so two partial choices with equal
    cones have equal completions, and one of them is enough.  The first
    level is solved with :func:`~valperm.polyhedra.cone_solve`, since the
    whole space has no generators to cut; every later child is cut from its
    parent's generators by :func:`~valperm.polyhedra.cone_cut`, with each
    (hexagon, pair)'s rows built once.  Cones without a ray stay, since
    cutting a linear space can still leave a cone with rays.  The kept
    choices come in the order of ``itertools.product(_PAIRS, repeat=H)``,
    so each cone keeps the first choice reaching it.  Returns
    ``[(choice, reduced cone)]``.
    """
    cuts = [[_choice_system([], [rows], (pair,)) for pair in _PAIRS] for rows in reduced_rows]
    level = [((), None)]
    for systems in cuts:
        kept = {}
        for choice, parent in level:
            for pair, (eqs, ineqs) in zip(_PAIRS, systems):
                if parent is None:
                    cone = cone_solve(eqs, ineqs, dim)
                else:
                    cone = cone_cut(parent, eqs, ineqs)
                kept.setdefault(cone.key, (choice + (pair,), cone))
        level = list(kept.values())
    return level


def _quotient(reduced_rows, dim):
    """The rows of a three-term search modulo the common lineality L.

    ``reduced_rows`` holds three term rows per relation in R^dim.  Every
    row of a choice's system is a difference of two terms of one relation,
    hence a combination of the differences ``rows[0] - rows[k]`` (k = 1, 2)
    of all relations; let ``red`` be their RREF and ``pivots`` its pivot
    columns.  L is the nullspace of ``red``, where the three terms of every
    relation agree.

    This is exact.  The vectors supported on the pivot columns form a
    section S of the quotient by L: ``red`` is diagonal on those columns,
    so S meets L only in 0, and dim S + dim L = dim.  So R^dim = S + L, a
    direct sum, and every difference row vanishes on L.  A choice's cone is
    therefore its cone in S plus L, and in S a difference row reads its
    pivot entries only.  Cones in S are equal exactly when their cones in
    R^dim are, so a search over the rows kept on the pivot columns finds
    the same choices in the same order, with each cone's lineality less L.

    Returns ``(rows, pivots, lineality)``: each term row kept on the pivot
    columns, in R^len(pivots); the pivot columns; and the nullspace basis
    of L in R^dim.
    """
    diffs = [_diff(rows[0], r) for rows in reduced_rows for r in rows[1:]]
    red, pivots = kernels.rref(diffs, dim)
    rows = [[[r[p] for p in pivots] for r in terms] for terms in reduced_rows]
    return rows, pivots, kernels.nullspace(red, dim)


def _inside(cone, other):
    """Whether ``cone`` lies in ``other``: its rays and both signs of its
    lineality vectors do."""
    return (all(other.contains(r) for r in cone.rays)
            and all(other.contains(v) and other.contains([-x for x in v]) for v in cone.lineality))


def _top_dimensional_choices(reduced_rows, dim):
    """The complete choices with top-dimensional cones, one per distinct
    cone, certified to be all the maximal cones.

    The last level of :func:`_last_level` holds every distinct cone of all
    3^H complete choices: dedup merges only equal cones, and equal cones
    have equal completions.  Each of them must lie in one of the
    top-dimensional cones (those with a ray and the greatest dimension), or
    ``RuntimeError`` is raised: so the fan is pure and the top cones are its
    maximal cones, certified on every run.  A cone is tried first against
    the top cones that have all of its rays as rays (as a face of a top
    cone with the same lineality does), then against the rest.  Every ray
    of a top cone is also
    certified extremal by rank (:func:`~valperm.polyhedra.check_extremal`).
    Returns ``[(choice, reduced cone)]`` for the top cones.
    """
    level = _last_level(reduced_rows, dim)
    found = [(choice, cone) for choice, cone in level if cone.rays]
    top_dim = max(cone.dim for _, cone in found)
    top = [(choice, cone) for choice, cone in found if cone.dim == top_dim]
    holding = {}  # ray -> indices of the top cones that have it as a ray
    for k, (_, other) in enumerate(top):
        for r in other.rays:
            holding.setdefault(r, set()).add(k)
    everywhere = set(range(len(top)))
    for _, cone in level:
        if cone.dim == top_dim:
            continue
        likely = everywhere.intersection(*(holding.get(r, ()) for r in cone.rays))
        order = sorted(likely) + sorted(everywhere - likely)
        if not any(_inside(cone, top[k][1]) for k in order):
            raise RuntimeError("enumerate_fan: a cone of a complete choice lies in no "
                               "top-dimensional cone, so the fan is not pure")
    for _, cone in top:
        check_extremal(cone, "enumerate_fan")
    return top


@dataclass(frozen=True)
class Fan:
    """Maximal cones of the height fan with their face structure.

    ``rays``/``two_faces`` are global and deduplicated; ``maximal_rays`` and
    ``maximal_two_faces`` give each maximal cone's faces as indices into
    them.  For n = 3 the maximal cones are single rays and ``two_faces`` is
    empty.  The symmetry table of :func:`_symmetry_table` is stored on the
    fan when first used; equality, hashing, ``repr`` and
    ``dataclasses.replace`` ignore it, so a replaced fan starts without one.
    """

    n: int
    ambient: int
    lineality: tuple
    maximal: tuple
    rays: tuple
    maximal_rays: tuple
    two_faces: tuple
    maximal_two_faces: tuple
    # the symmetry table, built on first use by _symmetry_table
    _symmetry: tuple = field(default=None, init=False, compare=False, repr=False)

    @property
    def lineality_dim(self):
        return len(self.lineality)

    def quotient_dim(self, cone):
        """Cone dimension modulo the lineality space."""
        return cone.dim - cone.lineality_dim


def enumerate_fan(n, processes=1):
    """All maximal cones of the height fan, with faces, for n in {3, 4}.

    The base equations are solved once, and the hexagons' diagonal rows
    are expressed in the 2-skeleton space and then taken modulo the common
    lineality L by :func:`_quotient`.  The level-by-level search of
    :func:`_top_dimensional_choices` then finds, in those quotient
    coordinates (dimension 8 for n = 4), one attaining-pair choice per
    distinct top-dimensional cone (3 solves and 1203 cuts from parent cones
    for n = 4).  The premise of the quotient is certified once: the
    2-skeleton vectors of the pivot columns and of L's basis must be
    independent and span the 2-skeleton space (one rank), and the RREF of
    L's image in R^(n!) must vanish on every base equation and on every
    row of every (hexagon, pair) system, which are normalized once.  So L's
    image lies in every choice's cone, and since each top cone of the
    quotient search is pointed (:func:`~valperm.polyhedra.cone_image`
    refuses one that is not), it is the whole lineality of each image.
    Each top cone is mapped to R^(n!) by
    :func:`~valperm.polyhedra.cone_image`, with that lineality, its
    orthogonal basis (computed once) and its choice's ambient system,
    which every image ray must satisfy; no cone is solved again in
    R^(n!).  The images need no containment sweep: the
    cones of two choices meet where both pairs attain on the hexagons they
    differ on, a face of each.  A top-dimensional cone inside another would
    be a face of it of full dimension, hence equal to it, and the search
    keeps distinct cones.
    The 2-faces of a maximal cone are the ray pairs that
    :func:`~valperm.polyhedra.incidence_edges` accepts from the rays' tight
    masks over the cone's inequalities (:attr:`~valperm.polyhedra.Cone.tight`).
    The result is the full set of maximal cones because the fan is pure,
    which the search certifies on every run: every cone of a complete
    choice lies in a top-dimensional one.  A failed certificate raises
    ``RuntimeError``.

    ``processes`` must be 1: the search runs in this process.
    """
    if n not in FAN_SIZES:
        raise ValueError(f"fan enumeration supports n in {FAN_SIZES}, got {n}")
    if processes != 1:
        raise ValueError(f"fan enumeration runs in one process, got processes={processes}")
    verts, base_eqs, diag_rows = _context(n)
    ambient = len(verts)
    basis = kernels.nullspace(base_eqs, ambient)
    reduced_rows = [[[kernels.dot(r, b) for b in basis] for r in rows] for rows in diag_rows]
    quotient_rows, pivots, common = _quotient(reduced_rows, len(basis))
    section = [basis[p] for p in pivots]
    common_image = linalg.mat_mul(common, basis)
    spanning = section + common_image
    if len(spanning) != len(basis) or kernels.rank(spanning, ambient) != len(basis):
        raise RuntimeError("enumerate_fan: the quotient section and the common lineality "
                           "are not a basis of the 2-skeleton space")
    lineality = tuple(tuple(v) for v in kernels.rref(common_image, ambient)[0])
    orth = linalg.orthogonalize(lineality, ambient)
    base = normalize_rows(base_eqs)
    pair_systems = [{pair: tuple(map(normalize_rows, _choice_system([], [rows], (pair,))))
                     for pair in _PAIRS} for rows in diag_rows]
    if any(kernels.dot(e, v) for e in base for v in lineality):
        raise RuntimeError("enumerate_fan: a base equation does not vanish on the common lineality")
    if any(kernels.dot(r, v) for systems in pair_systems for eqs, ineqs in systems.values()
           for r in eqs + ineqs for v in lineality):
        raise RuntimeError("enumerate_fan: a diagonal difference does not vanish on the "
                           "common lineality")

    def image(choice, cone):
        eqs, ineqs = base, ()
        for systems, pair in zip(pair_systems, choice):
            eqs += systems[pair][0]
            ineqs += systems[pair][1]
        return cone_image(cone, section, eqs, ineqs, lineality, orth)

    maximal = tuple(sorted(
        (image(choice, cone) for choice, cone in _top_dimensional_choices(quotient_rows, len(pivots))),
        key=lambda c: c.key,
    ))

    ray_index = {}
    for c in maximal:
        for r in c.rays:
            ray_index.setdefault(r, None)
    rays = tuple(sorted(ray_index))
    ray_index = {r: k for k, r in enumerate(rays)}
    maximal_rays = tuple(tuple(sorted(ray_index[r] for r in c.rays)) for c in maximal)

    pairs_of = []
    for c, ridx in zip(maximal, maximal_rays):
        pairs = set()
        if c.dim - c.lineality_dim >= 3:
            pairs = {(ridx[a], ridx[b]) for a, b in incidence_edges(c.tight)}
        pairs_of.append(pairs)
    two_faces = tuple(sorted(set().union(*pairs_of)))
    face_index = {pair: k for k, pair in enumerate(two_faces)}
    maximal_two_faces = tuple(tuple(sorted(face_index[p] for p in pairs)) for pairs in pairs_of)

    return Fan(
        n=n,
        ambient=ambient,
        lineality=lineality,
        maximal=maximal,
        rays=rays,
        maximal_rays=maximal_rays,
        two_faces=two_faces,
        maximal_two_faces=maximal_two_faces,
    )


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class FanCensus:
    """Cone counts by dimension (modulo lineality) and by ray count."""

    f_vector: tuple
    ray_counts: dict
    lineality_dim: int


def f_vector_census(fan):
    dims = [fan.quotient_dim(c) for c in fan.maximal]
    top = max(dims)
    counts = [0] * top
    counts[0] = len(fan.rays)
    if top >= 2:
        counts[1] = len(fan.two_faces)
    counts[top - 1] = len(fan.maximal)
    ray_counts = {}
    for ridx in fan.maximal_rays:
        ray_counts[len(ridx)] = ray_counts.get(len(ridx), 0) + 1
    return FanCensus(tuple(counts), ray_counts, len(fan.lineality))


# ---------------------------------------------------------------------------
# interior samples and the secondary-fan refinement count


def sample_height(fan, cone_index, weights=None):
    """An exact interior point of a maximal cone, as a height function:
    the positive integer combination of its rays with the given weights
    (default all ones)."""
    if cone_index not in range(len(fan.maximal)):
        raise ValueError(f"sample_height: no maximal cone {cone_index!r}, the fan has "
                         f"{len(fan.maximal)}")
    ridx = fan.maximal_rays[cone_index]
    if weights is None:
        weights = [1] * len(ridx)
    if len(weights) != len(ridx) or not all(x > 0 for x in weights):
        raise ValueError("sample_height needs one positive weight per ray of the cone")
    verts = permutohedron_vertices(fan.n)
    total = [0] * fan.ambient
    for x, k in zip(weights, ridx):
        for c in range(fan.ambient):
            total[c] += x * fan.rays[k][c]
    return HeightFunction(fan.n, dict(zip(verts, total)))


def _subdivision_key(w):
    return frozenset(c.vertices for c in subdivide(w))


def _proper_coarsening(a, b):
    """Whether subdivision a is a strict coarsening of subdivision b."""
    if a == b:
        return False
    return all(any(set(cb) <= set(ca) for ca in a) for cb in b)


@dataclass(frozen=True)
class RefinementReport:
    """Secondary-fan refinement of the maximal cones.

    ``total`` counts the maximal secondary cones: one per cone with a single
    generic subdivision, one per distinct subdivision otherwise.  A cone
    whose sample subdivisions disagree with the expected pattern (simplicial
    with more than one, or non-simplicial with a count other than two) is
    listed in ``discrepancies``.
    """

    total: int
    per_cone: tuple
    discrepancies: tuple


def _cone_samples(fan, k):
    """Interior sample weights of maximal cone k, in its ray order.

    A simplicial cone gets the balanced center and two skewed points.  A
    cone with more rays than its dimension gets the balanced center and one
    point per 2-face, weighting that face's two rays 5 and the others 1.
    """
    ridx = fan.maximal_rays[k]
    nrays = len(ridx)
    if nrays == fan.quotient_dim(fan.maximal[k]):
        return [(1,) * nrays, (2,) * (nrays - 1) + (1,), (5,) + (1,) * (nrays - 1)]
    samples = [(1,) * nrays]
    local = {g: i for i, g in enumerate(ridx)}
    for f in fan.maximal_two_faces[k]:
        wts = [1] * nrays
        for g in fan.two_faces[f]:
            wts[local[g]] = 5
        samples.append(tuple(wts))
    return samples


def _sample_keys(fan):
    """Per maximal cone, the subdivision key of each of its samples.

    Only orbit representatives are solved, once per sample orbit.  For
    cone k, with representative ``rep`` and coset (every element taking
    ``rep`` to k) from :func:`_symmetry_table`, a sample's weights are
    pulled back along each element of the coset to ``rep``'s ray order,
    and the least of those tuples is taken.  That sample of ``rep`` is
    solved once per distinct least tuple, and its cells are pushed forward
    through the element that gave it.
    """
    solved = {}  # (rep, least pulled weights) -> subdivision key of rep's sample
    out = []
    for k, (ridx, (rep, coset)) in enumerate(zip(fan.maximal_rays, _symmetry_table(fan))):
        local = {a: i for i, a in enumerate(ridx)}
        keys = []
        for wts in _cone_samples(fan, k):
            weights, h = min(((tuple(wts[local[g[1][a]]] for a in fan.maximal_rays[rep]), g)
                              for g in coset), key=lambda pulled: pulled[0])
            if (rep, weights) not in solved:
                solved[rep, weights] = _subdivision_key(sample_height(fan, rep, weights))
            keys.append(frozenset(
                tuple(sorted(h[0][v] for v in cell)) for cell in solved[rep, weights]
            ))
        out.append(keys)
    return out


def refinement_census(fan):
    """Count the secondary-fan refinement of the maximal cones from samples.

    Each cone's samples (:func:`_cone_samples`) give subdivisions; those
    that are a proper coarsening of another sample's lie on an internal
    wall and are dropped, and the rest are the cone's fine subdivisions.

    The subdivisions are solved on one representative per symmetry orbit,
    the orbit's lowest-index cone, once per orbit of its samples under its
    stabilizer, and carried to the other cones and samples
    (:func:`_sample_keys`).  This is exact.  A symmetry h permutes the
    height coordinates, so it maps the rays of one cone exactly onto the
    rays of another and a sample onto the sample with the pulled-back
    weights; and it is induced by an affine map of R^n that leaves the
    height axis alone, so it sends the lower faces of one lifted
    configuration onto those of the other.  The elements taking the
    representative to cone k are its coset in :func:`_symmetry_table`, so
    a sample of k is the image under each of them of the representative's
    sample with the weights pulled back along it, and its cells are the
    images of that sample's cells.  Taking the element with the least
    pulled weights gives one sample of the representative per orbit of
    samples, whichever cone and element it was reached from.
    """
    per_cone = []
    discrepancies = []
    for k, keys in enumerate(_sample_keys(fan)):
        seen = set(keys)
        # a sample on an internal wall induces a common coarsening: drop it
        fine = [s for s in seen if not any(_proper_coarsening(s, o) for o in seen)]
        expected = 1 if len(fan.maximal_rays[k]) == fan.quotient_dim(fan.maximal[k]) else 2
        if len(fine) != expected:
            discrepancies.append((k, len(fine)))
        per_cone.append(len(fine))
    return RefinementReport(sum(per_cone), tuple(per_cone), tuple(discrepancies))


# ---------------------------------------------------------------------------
# patterns on the 2-skeleton


def pattern_signature(w):
    """Per-hexagon signature of a passing height function: the sorted tuple
    of diagonal indices attaining the maximal sum, and the index of the
    diagonal along which the hexagon is split (None when all three attain,
    leaving it undivided).  Equal for all interior points of a fan cone.
    """
    report = check_two_skeleton(w)
    if not report.passes_two_skeleton:
        raise ValueError("height function fails the 2-face conditions")
    signature = []
    for hx in report.hexagons:
        diagonals = hx.face.diagonals()
        attaining = tuple(k for k, d in enumerate(diagonals) if d in hx.attaining)
        split = None
        if len(attaining) == 2:
            (split,) = set(range(3)) - set(attaining)
        signature.append((attaining, split))
    return tuple(signature)


# ---------------------------------------------------------------------------
# homology of the link complex


def complex_betti(nvertices, edges, walks):
    """Rational Betti numbers (b0, b1, b2) of a 2-complex.

    ``edges`` are index pairs; ``walks`` are closed vertex walks bounding the
    2-cells.  Every consecutive walk pair must be an edge; a malformed
    complex raises ``ValueError``.
    """
    edge_index = {}
    for a, b in edges:
        if a == b:
            raise ValueError(f"complex_betti: loop edge at vertex {a}")
        edge_index[tuple(sorted((a, b)))] = len(edge_index)
    if len(edge_index) != len(edges):
        raise ValueError("complex_betti: duplicate edges")
    d1 = []
    for a, b in sorted(edge_index, key=edge_index.get):
        r = [0] * nvertices
        r[a], r[b] = -1, 1
        d1.append(r)
    d2 = []
    for walk in walks:
        r = [0] * len(edge_index)
        for a, b in zip(walk, walk[1:] + walk[:1]):
            key = tuple(sorted((a, b)))
            if key not in edge_index:
                raise ValueError(f"complex_betti: walk step {a}-{b} is not an edge")
            r[edge_index[key]] += 1 if a < b else -1
        if not any(r):
            raise ValueError("complex_betti: degenerate boundary walk")
        d2.append(r)
    rank1 = kernels.rank(d1, nvertices)
    rank2 = kernels.rank(d2, len(edge_index))
    b0 = nvertices - rank1
    b1 = len(edge_index) - rank1 - rank2
    b2 = len(walks) - rank2
    return b0, b1, b2


@dataclass(frozen=True)
class HomologyReport:
    betti: tuple
    euler: int


def _cell_walk(ray_ids, face_pairs):
    """Cyclic vertex order of a polygonal cell from its boundary edges."""
    neighbors = {r: [] for r in ray_ids}
    for a, b in face_pairs:
        neighbors[a].append(b)
        neighbors[b].append(a)
    if any(len(v) != 2 for v in neighbors.values()):
        raise RuntimeError("_cell_walk: a cell boundary is not a cycle")
    start = min(ray_ids)
    walk = [start, min(neighbors[start])]
    while len(walk) < len(ray_ids):
        nxt = [x for x in neighbors[walk[-1]] if x != walk[-2]]
        walk.append(nxt[0])
    if walk[0] not in neighbors[walk[-1]]:
        raise RuntimeError("_cell_walk: a cell boundary does not close")
    return walk


def link_homology(fan):
    """Betti numbers of the 2-dimensional link complex of the fan: rays are
    vertices, 2-dimensional cones are edges, maximal cones are polygonal
    2-cells.  Requires a pure 2-dimensional link (n = 4)."""
    if any(fan.quotient_dim(c) != 3 for c in fan.maximal):
        raise ValueError("link complex needs all maximal cones of dimension 3 mod lineality")
    walks = []
    for ridx, fidx in zip(fan.maximal_rays, fan.maximal_two_faces):
        walks.append(_cell_walk(ridx, [fan.two_faces[f] for f in fidx]))
    try:
        b0, b1, b2 = complex_betti(len(fan.rays), list(fan.two_faces), walks)
    except ValueError as exc:
        # the complex is built from the fan, not from input
        raise RuntimeError(f"link_homology: {exc}") from exc
    euler = len(fan.rays) - len(fan.two_faces) + len(fan.maximal)
    if euler != b0 - b1 + b2:
        raise RuntimeError("link_homology: Euler characteristic does not match the Betti numbers")
    return HomologyReport((b0, b1, b2), euler)


# ---------------------------------------------------------------------------
# symmetries and output helpers


def _symmetry_table(fan):
    """Each maximal cone's ``(rep, coset)`` under the symmetry group, built
    once per fan and stored on it.

    The generators of :func:`~valperm.permutahedra.symmetry_generators`
    are checked first.  A generator permutes the height coordinates, which
    fixes the lineality space and keeps rays primitive and orthogonal to
    it, so the image of a ray is read off exactly; an image that is not a
    ray, or a cone image that is not a maximal cone, raises
    ``RuntimeError``, and so every product maps the fan onto itself.  The
    group is then closed breadth first from the identity, which comes
    first, by composing each generator after each element found.  An
    element is a ``(vertex map, ray permutation, cone permutation)``
    triple, known by its vertex map: its dict on the vertices and the
    index maps it induces on ``fan.rays`` and on the maximal cones.  Its
    order is computed here, not assumed.

    Entry k is ``(rep, coset)``: ``rep`` is the lowest-index cone of k's
    orbit, and ``coset`` every element that maps ``rep`` onto k, in group
    order.  So ``rep``'s own coset is its stabilizer, with the identity
    first, and each of its elements permutes ``rep``'s rays.
    """
    if fan._symmetry is not None:
        return fan._symmetry
    verts = permutohedron_vertices(fan.n)
    index = {v: k for k, v in enumerate(verts)}
    ray_of = {r: k for k, r in enumerate(fan.rays)}
    cone_of = {frozenset(ridx): i for i, ridx in enumerate(fan.maximal_rays)}
    generators = []
    for mapping in symmetry_generators(fan.n):
        perm = [index[mapping[v]] for v in verts]
        ray_perm = []
        for r in fan.rays:
            img = [0] * fan.ambient
            for c, p in enumerate(perm):
                img[p] = r[c]
            ray_perm.append(ray_of.get(tuple(img)))
        # every ray lies on a maximal cone, so a ray image that is not a ray
        # (None) leaves that cone's image unmatched too
        cone_perm = [cone_of.get(frozenset(ray_perm[a] for a in ridx)) for ridx in fan.maximal_rays]
        if None in cone_perm:
            raise RuntimeError("_symmetry_table: a symmetry does not preserve the fan")
        # the vertex map onto this table's vertex tuples, which every
        # element's cells then share
        generators.append(({v: verts[p] for v, p in zip(verts, perm)}, ray_perm, cone_perm))
    group = [({v: v for v in verts}, tuple(range(len(fan.rays))), tuple(range(len(fan.maximal))))]
    seen = {tuple(verts)}
    for vmap, rperm, cperm in group:  # the list grows while it is walked
        for gv, gr, gc in generators:
            image = {v: gv[w] for v, w in vmap.items()}
            if tuple(image.values()) not in seen:
                seen.add(tuple(image.values()))
                group.append((image, tuple(gr[a] for a in rperm), tuple(gc[k] for k in cperm)))
    table = [None] * len(fan.maximal)
    for rep in range(len(fan.maximal)):
        if table[rep] is None:
            cosets = {}
            for g in group:
                cosets.setdefault(g[2][rep], []).append(g)
            for k, coset in cosets.items():
                table[k] = (rep, tuple(coset))
    object.__setattr__(fan, "_symmetry", tuple(table))
    return fan._symmetry


def symmetry_orbits(fan):
    """Orbits of the maximal cones under the vertex-relabeling symmetries.

    Each generator permutes the heights coordinatewise; its image of every
    maximal cone must again be a maximal cone.  The orbits are read from
    the representatives of :func:`_symmetry_table` and returned as sorted
    index tuples, ordered by their lowest index.
    """
    orbits = {}
    for k, (rep, _) in enumerate(_symmetry_table(fan)):
        orbits.setdefault(rep, []).append(k)
    return [tuple(o) for o in orbits.values()]


def link_dot(fan):
    """GraphViz edge list of the link graph (rays and 2-dimensional cones)."""
    lines = [f"graph link_{fan.n} {{"]
    for k in range(len(fan.rays)):
        lines.append(f"  r{k};")
    for a, b in fan.two_faces:
        lines.append(f"  r{a} -- r{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
