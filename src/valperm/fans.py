"""Enumeration of the fan of permutahedral height functions (n = 3, 4).

Height functions that induce subdivisions of the permutohedron into cells
with root-parallel edges form a polyhedral fan in R^(n!): on every hexagonal
2-face the two alternating sums agree and the maximal diagonal sum is
attained at least twice, and every square 2-face is balanced.  One closed
cone per choice of attaining diagonal pair (3 per hexagon) covers the fan.

The height fan is one client of a general three-term fan engine,
:func:`three_term_fan`: a fan cut out by relations of three terms each, the
largest of which is attained at least twice, on the solutions of base
equations that hold on the whole fan.  The height fan's relations are the
hexagons' diagonal sums and its base equations are sum zero, hexagon
alternation and square balance; the Dressians are three-term fans too,
with the tropical Plücker relations and no base equations.

The engine does not solve all 3^H choices in R^ambient.  Every cone of a
choice holds the common lineality L, where the base equations hold and
the three terms of every relation agree (dimension 2 for n = 3 and 3 for
n = 4), so the search runs modulo L, in the coordinates of a section of
the base equations' solutions that complements L (dimension 2 for n = 3
and 8 for n = 4).  One RREF of the base equations stacked with all term
differences gives both, in R^ambient (:func:`_quotient`), and L is added
back once to each top cone.  A level-by-level search over the relations
finds each partial choice's cone in those coordinates and keeps one
partial choice per distinct cone: a choice's cone is its prefix's cone cut
by one more pair, so prefixes with equal cones have equal completions.

Each level then drops every cone that lies in another cone of the level,
whose completions cover its own; :func:`_last_level` gives the fan
argument that makes this exact and finds every containment.  For n = 4 the
levels are 3, 9, 13, 15, 45, 65, 75 and 75 cones wide (20, 22, 66, 134,
147 and 172 from the third level on, unpruned).

Only the first level is solved from its system; every later child is cut
from its parent's generators by :func:`~valperm.polyhedra.cone_cut`.  For
n = 4 that is 3 solves and 675 cuts.  A cut checks its parent's vectors
against its new rows only, since they move only along the parent's
lineality, on which the parent's rows vanish, and checks the rays it makes
against the whole system.  The 459 cuts whose rows vanish on the parent's
lineality keep the parent's lineality basis and rays as they are; the
other 216 bring the new lineality to RREF and project the rays off it,
each ray keeping its tight mask.  No cone is solved again in R^ambient:
the cones of the last level are mapped from the section's coordinates to
R^ambient, with L as their lineality, by
:func:`~valperm.polyhedra.cone_image`, and they are the maximal cones.
L is brought to RREF and certified against every base equation and term
difference once, the section vectors are projected off L once, all by one
factor, and certified against every base equation once, and the rows of
the systems are normalized once, for the search and for the images.  An
image ray is a combination of the projected section vectors, so it is
orthogonal to L and every base equation vanishes on it: each distinct ray
is mapped once (20 for the 75 cones of n = 4), each image's rays are
checked against its choice's own rows only (8 of the 23 equations and all
16 inequalities for n = 4), and the image stores the whole system.  Their
2-faces come from the rays' tight masks, which that check records.

The search finds the maximal cones of the complete choices, which are the
top-dimensional ones exactly when the fan is pure.  Purity is certified on
every run: every cone of the 3^H complete choices lies in a cone of the
last level, so each of those must have a ray and the top dimension.  The
exhaustive 3^H sweep of the height fan and the search that prunes nothing
stay in the test suite as independent oracles (``tests/oracles.py``), and
so do the closed forms of the rank-two Dressians.

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
cells pushed forward through the vertex map: 24 samples to solve instead
of 231 for n = 4.  The orbits are read from the same table.

Most of those samples induce a subdivision already found on their
representative, and that is certified with no hull (:func:`_induces`): a
height induces a given tiling of the permutohedron by cells exactly when
it is affine on each cell and every other vertex lies strictly above the
cell's affine extension, the folding criterion for regular subdivisions
(De Loera, Rambau and Santos, *Triangulations*, 2010, ch. 2 and 5).  A
sample takes a lifted hull only when no subdivision found so far passes:
for n = 4, 6 hulls and 18 passing certificates (of 19 tested); for n = 3,
1 hull and 1 certificate.

The census and the link homology read one face lattice per maximal cone
(:func:`_faces`), in every dimension.  A simplicial cone has every subset
of its rays as a face, which covers 72 of the 75 cones for n = 4 with no
lattice to build; any other cone's faces are the closed sets of its rays'
tight masks (Kaibel and Pfetsch, "Computing the face lattice of a polytope
from its vertex-facet incidences", 2002).  The homology triangulates each
non-simplicial face by pulling its lowest ray in one global order, which
agrees on shared faces, and ranks the simplicial boundary matrices
exactly.  So any three-term fan, the Dressians and products of fans with
cones of dimension 4 and more included, gets its census and homology.

Everything is exact.  Heights are normalized to sum zero over all vertices,
which leaves a lineality space of dimension n - 1 (linear functionals modulo
the all-ones direction).
"""

from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType

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


def _choice_system(base_eqs, relations, choice):
    """Equalities and inequalities for one attaining-pair choice per
    relation (per hexagon, for the height fan).

    A partial choice (shorter than ``relations``) constrains only the
    leading relations.
    """
    eqs = list(base_eqs)
    ineqs = []
    for terms, pair in zip(relations, choice):
        i, j = pair
        (k,) = set(range(3)) - set(pair)
        eqs.append(_diff(terms[i], terms[j]))
        ineqs.append(_diff(terms[i], terms[k]))
        ineqs.append(_diff(terms[j], terms[k]))
    return eqs, ineqs


_PAIRS = ((0, 1), (0, 2), (1, 2))
_RAYLESS = "three_term_fan: the fan has no ray: every cone is the common lineality"


def _last_level(rows, dim):
    """The cones of the complete choices that lie in no other, one choice
    per cone.

    ``rows`` are the relations' term rows in ``dim`` coordinates, those of
    the quotient by the common lineality (:func:`_quotient`) or any others.
    The search goes level by level, one relation at a time.  A child's cone
    is its parent's cut by one more pair (one equation, two inequalities).
    The first level is solved with :func:`~valperm.polyhedra.cone_solve`,
    since the whole space has no generators to cut; every later child is
    cut from its parent's generators by :func:`~valperm.polyhedra.cone_cut`,
    with each (relation, pair)'s rows built and normalized once, as
    ``cone_cut`` takes them.

    Each level keeps one partial choice per distinct cone, since equal
    cones have equal completions, and then drops every cone that lies in
    another cone of the level (:func:`_inside`).  The cones of one level
    are the cones of a fan, the common refinement of each relation's three
    pair pieces, so they all share one lineality, and a cone C inside a
    cone D is a face of D.  Every completion X then gives C ∩ X ⊆ D ∩ X, so
    D's completions cover C's, and dropping C loses no maximal cone of the
    complete choices.  The same fan argument finds every containment: C's
    rays are rays of D and D has a greater dimension, so D is sought only
    among the cones that hold all of C's rays, starting from the cones
    that hold its rarest one, and a cone without a ray, a face of every
    cone, among all of them.  The choices come in the order of
    ``itertools.product(_PAIRS, repeat=H)``, each cone keeping the first
    choice reaching it.  Returns ``[(choice, cone in dim coordinates)]``.
    """
    cuts = [[tuple(map(normalize_rows, _choice_system([], [terms], (pair,)))) for pair in _PAIRS]
            for terms in rows]
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
        cones = [cone for _, cone in kept.values()]
        holding = {}  # ray -> indices of the kept cones that have it as a ray
        for k, cone in enumerate(cones):
            for r in cone.rays:
                holding.setdefault(r, set()).add(k)

        def covered(cone):
            held = sorted((holding[r] for r in cone.rays), key=len)
            candidates = held[0].intersection(*held[1:]) if held else range(len(cones))
            return any(cones[j].dim > cone.dim and _inside(cone, cones[j]) for j in candidates)

        level = [(choice, cone) for choice, cone in kept.values() if not covered(cone)]
    return level


def _quotient(relations, base_eqs, ambient):
    """The term rows of a three-term search modulo the common lineality L,
    in one RREF.

    ``relations`` holds three term rows per relation in R^ambient, and
    ``base_eqs`` the equations that hold on the whole fan.  Every row of a
    choice's system is a difference of two terms of one relation, hence a
    combination of the differences ``terms[0] - terms[k]`` (k = 1, 2) of all
    relations.  L is the space where the base equations hold and the three
    terms of every relation agree: the nullspace of ``red``, the RREF of the
    base equations stacked with all term differences, already in R^ambient.

    This is exact.  Adding rows never removes a pivot column, so the pivots
    of ``red`` are those of the base equations' RREF plus new ones, each a
    free column of the base.  The base's nullspace vectors have one free
    column each, where they alone are nonzero among the free columns; the
    section S is spanned by the vectors at the new pivot columns.  A vector of S that
    also lies in L vanishes on the free columns of ``red``, which determine
    a vector of L, so S meets L only in 0, and dim S + dim L is the number
    of the base's free columns.  So the base's solution space is S + L, a
    direct sum; that is certified once here by one rank, and a failure
    raises ``RuntimeError``.  Every difference row vanishes on L, so a
    choice's cone is its cone in S plus L, and cones in S are equal exactly
    when their cones in R^ambient are: a search over the term rows in S's
    coordinates finds the same choices in the same order, with each cone's
    lineality less L.

    Returns ``(rows, section, common)``: each term row in S's coordinates
    (its dot products with the section vectors); the section vectors; and
    the nullspace basis of L, all in R^ambient but the rows.
    """
    base, base_pivots = kernels.rref(base_eqs, ambient)
    diffs = [_diff(terms[0], t) for terms in relations for t in terms[1:]]
    red, pivots = kernels.rref(base + diffs, ambient)
    null = kernels.nullspace(base, ambient)
    free = [c for c in range(ambient) if c not in base_pivots]
    section = [v for c, v in zip(free, null) if c in pivots]
    common = kernels.nullspace(red, ambient)
    if len(section) + len(common) != len(null) or kernels.rank(section + common, ambient) != len(null):
        raise RuntimeError("three_term_fan: the quotient section and the common lineality "
                           "are not a basis of the base equations' solutions")
    rows = [[[kernels.dot(t, v) for v in section] for t in terms] for terms in relations]
    return rows, section, common


def _inside(cone, other):
    """Whether ``cone`` lies in ``other``: its rays and both signs of its
    lineality vectors do, checked by dot products with ``other``'s system.
    A ray that is also one of ``other``'s needs none: ``other``'s rays were
    checked against its system when it was made.  The level search of
    :func:`_last_level` seeks ``other`` among the cones that have all of
    ``cone``'s rays, so only the lineality takes dot products there."""
    return (all(r in other.rays or other.contains(r) for r in cone.rays)
            and all(other.contains(v) and other.contains([-x for x in v]) for v in cone.lineality))


def _top_dimensional_choices(rows, dim):
    """The complete choices with top-dimensional cones, one per distinct
    cone, certified to be all the maximal cones.

    Every cone of a complete choice lies in a cone of the last level of
    :func:`_last_level`, and no cone of that level lies in another.  So the
    fan is pure exactly when every cone of the last level has a ray and the
    greatest dimension, and then they are its maximal cones; otherwise
    ``RuntimeError`` is raised, so this is certified on every run.  Every
    ray of a top cone is also certified extremal by rank
    (:func:`~valperm.polyhedra.check_extremal`).  Returns ``[(choice,
    cone)]`` for the top cones, as :func:`_last_level` gives them.
    """
    top = _last_level(rows, dim)
    if not any(cone.rays for _, cone in top):
        raise ValueError(_RAYLESS)
    top_dim = max(cone.dim for _, cone in top)
    if not all(cone.rays and cone.dim == top_dim for _, cone in top):
        raise RuntimeError("three_term_fan: a cone of a complete choice lies in no "
                           "top-dimensional cone, so the fan is not pure")
    for _, cone in top:
        check_extremal(cone, "three_term_fan")
    return top


@dataclass(frozen=True)
class Fan:
    """Maximal cones of the height fan with their face structure.

    ``rays``/``two_faces`` are global and deduplicated; ``maximal_rays`` and
    ``maximal_two_faces`` give each maximal cone's faces as indices into
    them.  For n = 3 the maximal cones are single rays and ``two_faces`` is
    empty.  The symmetry table of :func:`_symmetry_table` and the face
    lattice of :func:`_faces` are stored on the fan when first used;
    equality, hashing, ``repr`` and ``dataclasses.replace`` ignore them, so
    a replaced fan starts without either.
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
    # the read-only face lattice, built on first use by _faces
    _lattice: MappingProxyType = field(default=None, init=False, compare=False, repr=False)

    @property
    def lineality_dim(self):
        return len(self.lineality)

    def quotient_dim(self, cone):
        """Cone dimension modulo the lineality space."""
        return cone.dim - cone.lineality_dim


def _refuse_malformed(relations, base_eqs, ambient):
    """Refuse the input of :func:`three_term_fan` that its engine cannot
    read: a relation without three terms, a row of another length than
    ``ambient`` or an entry that is not an int; and no relations at all,
    which leaves the fan one linear space with no ray."""
    if not relations:
        raise ValueError(_RAYLESS)
    for terms in relations:
        if len(terms) != 3:
            raise ValueError(f"three_term_fan: a relation of {len(terms)} terms, not 3")
    for kind, rows in [("a term row", [t for terms in relations for t in terms]),
                       ("a base equation", base_eqs)]:
        for row in rows:
            if len(row) != ambient:
                raise ValueError(f"three_term_fan: {kind} of length {len(row)}, not {ambient}")
            for x in row:
                if type(x) is not int:
                    raise TypeError(f"three_term_fan: {x!r} in {kind} is not an int")


def three_term_fan(relations, base_eqs, ambient):
    """The maximal cones of a three-term fan in R^ambient, with faces.

    ``relations`` holds three term rows per relation, and a point of the fan
    attains the maximum of every relation's terms at least twice, on the
    solutions of ``base_eqs``, the equations that hold on the whole fan
    (none for a Dressian).  One closed cone per choice of attaining pair
    (one equation, two inequalities) per relation covers the fan.

    The term rows are taken modulo the common lineality L by
    :func:`_quotient`, which certifies once that its section and L are a
    basis of the base equations' solutions.  The level-by-level search of
    :func:`_top_dimensional_choices` then finds, in the section's
    coordinates, one attaining-pair choice per distinct top-dimensional
    cone, and certifies that the fan is pure and every ray extremal.  The
    RREF of L must vanish on every base equation and on every row of every
    (relation, pair) system, which are normalized once; so L lies in every
    choice's cone, and since each top cone of the quotient search is
    pointed (:func:`~valperm.polyhedra.cone_image` refuses one that is
    not), it is the whole lineality of each image.  The section vectors
    are projected off L once, all by one positive factor
    (:func:`~valperm.linalg.project_rows_off`), so a combination of them
    projects to the same combination of the projected vectors; every base
    equation must vanish on those, which is certified once, so it vanishes
    on every image ray.  Each distinct ray of the top cones is mapped
    through the projected section once, and each top cone becomes a cone
    of R^ambient by :func:`~valperm.polyhedra.cone_image` from its mapped
    rays, that lineality and its choice's ambient system, which the image
    stores whole; every image ray is checked against its choice's own rows,
    the base equations being certified already.  No cone is solved again in
    R^ambient.  The images need no containment sweep: the search keeps no
    cone that lies in another.  The 2-faces of a maximal cone are the ray
    pairs that :func:`~valperm.polyhedra.incidence_edges` accepts from the
    rays' tight masks over the cone's inequalities
    (:attr:`~valperm.polyhedra.Cone.tight`).
    A failed certificate raises ``RuntimeError`` naming ``three_term_fan``.

    Returns a dict of every :class:`Fan` field but ``n`` and ``ambient``:
    ``lineality``, ``maximal`` (sorted by key), the global ``rays`` and
    ``two_faces``, and each maximal cone's ``maximal_rays`` and
    ``maximal_two_faces`` as indices into them.

    Malformed input is refused before any work: ``ValueError`` for a
    relation that does not have three terms, a term row or base equation
    whose length is not ``ambient``, and a fan with no ray (no relations,
    or every cone equal to the common lineality); ``TypeError`` for an
    entry that is not an int.
    """
    _refuse_malformed(relations, base_eqs, ambient)
    quotient_rows, section, common = _quotient(relations, base_eqs, ambient)
    lineality = tuple(tuple(v) for v in kernels.rref(common, ambient)[0])
    projected = linalg.project_rows_off(section, linalg.orthogonalize(lineality))
    base = normalize_rows(base_eqs)
    pair_systems = [{pair: tuple(map(normalize_rows, _choice_system([], [terms], (pair,))))
                     for pair in _PAIRS} for terms in relations]
    if any(kernels.dot(e, v) for e in base for v in lineality):
        raise RuntimeError("three_term_fan: a base equation does not vanish on the common lineality")
    if any(kernels.dot(e, v) for e in base for v in projected):
        raise RuntimeError("three_term_fan: a base equation does not vanish on the quotient section")
    if any(kernels.dot(r, v) for systems in pair_systems for eqs, ineqs in systems.values()
           for r in eqs + ineqs for v in lineality):
        raise RuntimeError("three_term_fan: a term difference does not vanish on the "
                           "common lineality")

    top = _top_dimensional_choices(quotient_rows, len(section))
    distinct = list(dict.fromkeys(r for _, cone in top for r in cone.rays))
    mapped = {r: tuple(kernels.vec_gcd_reduce(x))
              for r, x in zip(distinct, linalg.mat_mul(distinct, projected))}

    def image(choice, cone):
        eqs, ineqs = (), ()
        for systems, pair in zip(pair_systems, choice):
            eqs += systems[pair][0]
            ineqs += systems[pair][1]
        return cone_image(cone, [mapped[r] for r in cone.rays], ambient, base, eqs, ineqs, lineality)

    maximal = tuple(sorted((image(choice, cone) for choice, cone in top), key=lambda c: c.key))

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

    return dict(lineality=lineality, maximal=maximal, rays=rays, maximal_rays=maximal_rays,
                two_faces=two_faces, maximal_two_faces=maximal_two_faces)


def enumerate_fan(n, processes=1):
    """All maximal cones of the height fan, with faces, for n in {3, 4}.

    The height fan is the three-term fan (:func:`three_term_fan`) of the
    hexagons' diagonal sums on the solutions of the base equations (sum
    zero, hexagon alternation, square balance) of :func:`_context`.  Its
    search runs in 8 coordinates for n = 4 (2 for n = 3), modulo a common
    lineality of dimension 3 (2 for n = 3), with 3 solves and 675 cuts
    from parent cones for n = 4: each level drops the cones that lie in
    another cone of the level, which are faces of it.  The result is the
    full set of maximal cones because the fan is pure, which the search
    certifies on every run; a failed certificate raises ``RuntimeError``.

    ``processes`` must be 1: the search runs in this process.
    """
    if n not in FAN_SIZES:
        raise ValueError(f"fan enumeration supports n in {FAN_SIZES}, got {n}")
    if processes != 1:
        raise ValueError(f"fan enumeration runs in one process, got processes={processes}")
    verts, base_eqs, diag_rows = _context(n)
    return Fan(n=n, ambient=len(verts), **three_term_fan(diag_rows, base_eqs, len(verts)))


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class FanCensus:
    """Cone counts by dimension (modulo lineality) and by ray count."""

    f_vector: tuple
    ray_counts: dict
    lineality_dim: int


def _faces(fan):
    """Every face of the fan modulo its lineality, as ``{rays: dim}``: the
    face's sorted global ray indices (those of ``fan.maximal_rays``, in the
    order of each cone's ``rays``) and its dimension, the apex ``()`` of
    dimension 0 included.  A face shared by several maximal cones is one
    entry, since a cone of a fan is the span of its rays and the lineality.

    A simplicial cone, with as many rays as its dimension, has every subset
    of its rays as a face, of the subset's size; that covers 72 of the 75
    cones for n = 4 with no lattice to build.  Any other cone's faces are
    the closed sets of its tight masks (:attr:`~valperm.polyhedra.Cone.tight`):
    the intersections of the sets of rays tight on each of its
    inequalities, the apex included.  Every face of a pointed cone is an
    intersection of facets, each facet is cut out by one of the
    inequalities, and each inequality cuts out a face (Kaibel and Pfetsch,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences", 2002).  The face lattice is graded, so a face's dimension
    is the length of its longest chain of faces below it.  Each such cone
    is certified: every single ray must be a closed set, and the whole
    cone's chain dimension must be its dimension modulo the lineality;
    otherwise ``RuntimeError`` is raised.  The lattice is built once per
    fan and stored on it as a read-only mapping.
    """
    if fan._lattice is not None:
        return fan._lattice
    faces = {}
    for cone, ridx in zip(fan.maximal, fan.maximal_rays):
        if len(ridx) == fan.quotient_dim(cone):
            for k in range(len(ridx) + 1):
                faces.update(dict.fromkeys(combinations(ridx, k), k))
            continue
        full = (1 << len(ridx)) - 1
        closed = {full, 0}
        for h in range(len(cone.ineqs)):
            on = sum(1 << i for i, m in enumerate(cone.tight) if m >> h & 1)
            closed |= {c & on for c in closed}
        dim = {}
        for c in sorted(closed, key=int.bit_count):
            dim[c] = max((d + 1 for b, d in dim.items() if b & c == b), default=0)
        if any(1 << i not in dim for i in range(len(ridx))):
            raise RuntimeError("_faces: a ray of a maximal cone is not a face of it")
        if dim[full] != fan.quotient_dim(cone):
            raise RuntimeError("_faces: the face lattice of a maximal cone does not have its dimension")
        for c, d in dim.items():
            faces[tuple(g for i, g in enumerate(ridx) if c >> i & 1)] = d
    object.__setattr__(fan, "_lattice", MappingProxyType(faces))
    return fan._lattice


def f_vector_census(fan):
    """Face counts by dimension modulo the lineality, from dimension 1 (the
    rays) to the maximal cones, read from the face lattice of
    :func:`_faces`; with the maximal cones' counts by number of rays and
    the lineality dimension."""
    dims = list(_faces(fan).values())
    ray_counts = {}
    for ridx in fan.maximal_rays:
        ray_counts[len(ridx)] = ray_counts.get(len(ridx), 0) + 1
    return FanCensus(tuple(dims.count(d) for d in range(1, max(dims) + 1)), ray_counts,
                     len(fan.lineality))


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


def _affine_frames(key):
    """Per cell of a subdivision key, ``(basis, den, checks)``: what
    :func:`_induces` reads to test a height against the key with no hull.

    ``basis`` is an affine basis of the cell, drawn from its vertices.
    Every other vertex u of the permutohedron is the affine combination
    ``coeff / den`` of it, and ``checks`` lists ``(u, in_cell, coeff)``.
    One RREF gives them all: its columns are the points (u, 1), the cell's
    first, its pivot columns are the basis, and column u holds u's
    coordinates in it.  A cell whose points do not span the permutohedron's
    affine hull raises ``RuntimeError``: no subdivision has one.
    """
    n = len(next(iter(key))[0])
    verts = permutohedron_vertices(n)
    frames = []
    for cell in key:
        inside = set(cell)
        order = list(cell) + [u for u in verts if u not in inside]
        red, pivots = kernels.rref([[u[c] for u in order] for c in range(n)] + [[1] * len(order)],
                                   len(order))
        if len(pivots) != n or pivots[-1] >= len(cell):
            raise RuntimeError("_affine_frames: a cell is not full-dimensional")
        den = 1  # a common multiple of the pivot entries
        for row, p in zip(red, pivots):
            den *= row[p]
        scale = [den // row[p] for row, p in zip(red, pivots)]
        skip = set(pivots)
        checks = [(u, j < len(cell), [row[j] * s for row, s in zip(red, scale)])
                  for j, u in enumerate(order) if j not in skip]
        frames.append((tuple(order[p] for p in pivots), den, checks))
    return frames


def _induces(w, frames):
    """Whether the height w induces exactly the subdivision K of the given
    frames (:func:`_affine_frames`), certified with no hull.

    For every cell C of K: (a) w is affine on C, that is, each vertex of C
    has the height that the affine interpolant of w from C's basis gives
    it, so the lifted points of C have the rank of the unlifted ones; and
    (b) every vertex outside C lies strictly above that interpolant.  Then
    the lifted C is a lower facet of the lifted hull whose points are
    exactly C.  K must tile the permutohedron, as the subdivision of a
    height computed by a hull does, so it leaves no room for any other
    lower facet, and w induces K: the folding criterion for regular
    subdivisions (De Loera, Rambau and Santos, *Triangulations*, 2010,
    ch. 2 and 5).  Strictness in (b) is essential: the barycentre of a
    four-ray cone lies on the interior wall between its two fine
    subdivisions, is affine on each of their cells and lies weakly above
    every interpolant, and only the vertices outside a cell on which that
    cell's interpolant is tight reject them.  The test reads the integer
    view of w, which has the same lower faces, with one integer dot
    product per vertex and cell.
    """
    h = w._ints
    for basis, den, checks in frames:
        base = [h[b] for b in basis]
        for u, in_cell, coeff in checks:
            gap = den * h[u] - kernels.dot(coeff, base)
            if gap < 0 or (gap == 0) != in_cell:
                return False
    return True


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

    A sample is solved by testing it, with the exact certificate of
    :func:`_induces`, against each subdivision already found on ``rep``, in
    the order found; a lifted hull is solved only when none passes.  For
    n = 4 the 24 samples take 6 hulls and 19 certificates, 18 of which
    pass; for n = 3 the 2 samples take 1 hull and 1 certificate.
    """
    solved = {}  # (rep, least pulled weights) -> subdivision key of rep's sample
    found = {}  # rep -> [(key, frames)] of the subdivisions found on it, in order
    out = []
    for k, (ridx, (rep, coset)) in enumerate(zip(fan.maximal_rays, _symmetry_table(fan))):
        local = {a: i for i, a in enumerate(ridx)}
        keys = []
        for wts in _cone_samples(fan, k):
            weights, h = min(((tuple(wts[local[g[1][a]]] for a in fan.maximal_rays[rep]), g)
                              for g in coset), key=lambda pulled: pulled[0])
            if (rep, weights) not in solved:
                w = sample_height(fan, rep, weights)
                candidates = found.setdefault(rep, [])
                key = next((key for key, frames in candidates if _induces(w, frames)), None)
                if key is None:
                    key = _subdivision_key(w)
                    candidates.append((key, _affine_frames(key)))
                solved[rep, weights] = key
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
    samples, whichever cone and element it was reached from.  A sample
    whose subdivision was already found on the representative is certified
    by :func:`_induces` instead of solved: 6 lifted hulls and 18
    certificates for n = 4.
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


def _betti(simplices):
    """Rational Betti numbers (b0, b1, ...) of the simplicial complex of the
    given vertex tuples and all their subsets, one per dimension up to the
    largest simplex's.

    The boundary of a simplex (v0 < ... < vk) is the alternating sum of its
    facets, each boundary matrix is ranked exactly by
    :func:`~valperm.kernels.rank`, and b_k is the number of k-simplices
    less the ranks of the boundary maps out of them and into them.
    """
    by_size = {}
    for s in simplices:
        for k in range(1, len(s) + 1):
            by_size.setdefault(k, set()).update(combinations(sorted(s), k))
    index = {k: {s: j for j, s in enumerate(sorted(group))} for k, group in by_size.items()}
    top = max(index)
    ranks = {1: 0, top + 1: 0}  # size k -> rank of the boundary map out of the k-sets
    for k in range(2, top + 1):
        rows = []
        for s in index[k]:
            row = [0] * len(index[k - 1])
            for i in range(k):
                row[index[k - 1][s[:i] + s[i + 1:]]] = (-1) ** i
            rows.append(row)
        ranks[k] = kernels.rank(rows, len(index[k - 1]))
    return tuple(len(index[k]) - ranks[k] - ranks[k + 1] for k in range(1, top + 1))


@dataclass(frozen=True)
class HomologyReport:
    betti: tuple
    euler: int


def link_homology(fan):
    """Rational Betti numbers of the link complex of the fan, in every
    dimension: rays are vertices, and each face of dimension d modulo the
    lineality is a cell of dimension d - 1, from the faces of :func:`_faces`.

    Each non-simplicial face is triangulated by pulling its lowest global
    ray: the simplices of its pulled facets that miss that ray, each joined
    with it.  Pulling in one global order restricts to the same
    triangulation on every shared face, so the simplices of the maximal
    cones form one simplicial complex with the homology of the link, whose
    boundary matrices :func:`_betti` ranks.  The Euler characteristic, the
    alternating sum of the fan's f-vector, must equal the alternating sum
    of the Betti numbers; a mismatch raises ``RuntimeError``.
    """
    faces = _faces(fan)
    pulled = {}

    def triangulate(face):
        if len(face) == faces[face]:
            return [face]
        if face not in pulled:
            facets = [g for g, d in faces.items()
                      if d == faces[face] - 1 and face[0] not in g and set(g) <= set(face)]
            pulled[face] = [face[:1] + t for g in facets for t in triangulate(g)]
        return pulled[face]

    betti = _betti([t for ridx in fan.maximal_rays for t in triangulate(ridx)])
    euler = sum((-1) ** (d - 1) for d in faces.values() if d)
    if euler != sum((-1) ** k * b for k, b in enumerate(betti)):
        raise RuntimeError("link_homology: Euler characteristic does not match the Betti numbers")
    return HomologyReport(betti, euler)


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
