"""Exact polyhedral cones, convex hull skeleta and lower (regular) subdivisions.

Everything here is rational-exact.  The workhorse is :func:`cone_solve`, which
turns a system of linear equations and weak inequalities into a canonical
V-description: a lineality basis plus extremal rays.  The pipeline is

1. restrict to the nullspace of the equations,
2. run double description on the restricted inequalities: start from the
   whole space and take the rows one at a time, in the caller's order,
   each row nonzero on the lineality left turning one lineality vector into
   a ray and each other row cutting the rays by one incremental step; with
   a certified :class:`Face`, the rays on the face at each row are those
   its recorded run had there, and the steps carry, test and combine only
   the other rays against them,
3. read off the run: the lineality left at the end is the cone's lineality
   space, the rays (the face's last ones included) come out modulo it, and
   the run has kept the cone's dimension modulo it; map the rays and the
   lineality back,
4. project the rays off the lineality space, normalize, and check every
   ray and lineality vector against the defining system; then certify by
   rank that every ray is extremal (:func:`check_extremal`).

Each fact is certified once.  Double description itself checks nothing
after its run: its rays are checked in the ambient space by step 4, whose
dot products record the tight masks the rank certificate reads.  A fact that
many cones share is certified once for all of them: :func:`cone_solve` takes
a certified face, whose rays it matches exactly and does not check again,
and whose run of double description it does not repeat.  The vertical
facets of the lifted hulls of :func:`lower_cells` are such a face,
certified and run once per point set (:func:`_vertical_facets`).

The canonical form (RREF lineality basis, primitive rays orthogonal to the
lineality, sorted) makes cone equality a tuple comparison, which the fan
enumeration relies on for dedup.  :func:`cone_image` puts a pointed cone
solved in the coordinates of a subspace basis into the same canonical form
in the ambient space without solving it again: it maps the rays through a
basis that its caller projected off the lineality once, and checks them as
step 4 does; it takes a lineality space that its caller brought to
canonical form and certified once for all its images, and equations that
its caller certified once to hold on every image.
:func:`cone_cut` cuts a canonical cone by a few more rows straight from its
generators and tight masks, and certifies the result irredundant from the
masks.  Step 2 and the cut run one row loop, :func:`_cut`: double
description starts it from the whole space, whose lineality basis is the
identity, and a cut from the parent's generators.  A cut never runs
step 4.  Its generators are the parent's canonical, checked vectors,
moved only along parent lineality vectors, on which every parent row
vanishes, so each keeps the signs of its dot products with the parent's
rows and its tight mask over them; the cut checks them against its new
rows only, by the dot products it takes anyway, and checks the few rays
its double description steps made against the whole system.  When a row
is nonzero on the lineality, the cut also puts the moved generators back
in canonical form: the RREF of the new lineality and the rays projected
off it, each carrying its mask.  :func:`cone_image` and :func:`cone_cut`
take their rows as :func:`normalize_rows` gives them, so a caller that
passes the same rows many times normalizes them once.

The check of step 4 computes every ``a . r`` of an inequality ``a`` and a
ray ``r``, and keeps the zeros as the ray's tight mask (:attr:`Cone.tight`).
Callers read ray-inequality incidence from that mask: the hull facets, the
cells of :func:`lower_cells` and the 2-faces of the height fan's cones take
no dot products of their own.

Convex hulls are handled through duality: the inner facet normals of
conv(points) are the extremal rays of the dual ``{y : y . g >= 0}`` of the
cone spanned by the homogenized points ``g``, and vertex/edge/cell
questions reduce to intersecting facet incidence sets.  Rays of the dual
cone are reported modulo its lineality space, which is orthogonal to every
generator, so incidence sets are not affected by that normalization.  One incidence rule,
:func:`incidence_edges`, decides every edge question: the edges of a hull
here, and the 2-faces of the height fan's maximal cones in
:mod:`valperm.fans`, from the rays' tight masks over the cone's own
inequalities.

A regular subdivision needs one hull, not one per cell.  :func:`lower_cells`
lifts the points by their heights and adds the upward direction as a
generator, so the lifted polyhedron has only lower facets (the cells) and
vertical ones (over the boundary).  It solves that hull in coordinates of
the points' affine hull, chosen and certified by rank once per point set
(:func:`_affine_coordinates`): an affine isomorphism of the points keeps
their regular subdivisions, and there the points span the space, so the
lifted cone's dual, whose rays are the facets' inner normals, is pointed.
For the permutohedron, which spans a hyperplane, that is one coordinate
fewer than its own, and no lineality to carry.  Each cell is a face of the
lifted polyhedron, and a face of a face is a face: the smallest face
holding two points of a cell lies inside the cell, so the cell's vertices
and edges follow from its points' masks of lifted facets by the same
incidence rule (:func:`hull_edges` with ``facets``).  The vertical facets
lie over the boundary of conv(points) and do not depend on the heights, so
they are solved and certified once per point set, and each lifted hull
certifies only its lower facets.  The upward row comes first, so double
description cuts the whole space to the lower half before any point row
and never builds an upper facet.  Nor does it depend on the heights how
double description reaches the vertical facets: a vertical vector takes
each lifted row's value up to the row's positive factor, two vertical
rays combine to a vertical ray, and a lower ray never blocks the
adjacency of two vertical ones, since they share the upward row and it
is not on it.  So the vertical rays, their masks, their values on each
row and the lineality before each row are those of the heights 0.  That
run is recorded once per point set with the facets, and each hull's
double description carries, tests and combines only its lower rays
against it (:func:`double_description` with a :class:`Face`).  Whether the heights are affine is read
from a basis of the points' affine dependencies, also built once per point
set (:func:`_affine_dependencies`).
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from valperm import kernels, linalg


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone in canonical V-form.

    ``lineality`` is the integer RREF basis of the maximal linear subspace,
    ``rays`` are primitive, orthogonal to the lineality space and sorted.
    ``eqs``/``ineqs`` keep the (normalized) defining system for membership
    tests, and ``tight[i]`` is the bitmask of the ``ineqs`` that ``rays[i]``
    is tight on, recorded by the check that every ray satisfies the system.
    Two cones produced by :func:`cone_solve`, :func:`cone_image` or
    :func:`cone_cut` are equal as sets iff their ``key`` matches.
    """

    ambient: int
    dim: int
    lineality_dim: int
    lineality: tuple
    rays: tuple
    eqs: tuple = field(default=(), compare=False)
    ineqs: tuple = field(default=(), compare=False)
    tight: tuple = field(default=(), compare=False)

    @property
    def key(self):
        return (self.ambient, self.lineality, self.rays)

    @property
    def is_linear_space(self):
        return not self.rays

    def contains(self, v):
        if any(kernels.dot(e, v) != 0 for e in self.eqs):
            return False
        return all(kernels.dot(a, v) >= 0 for a in self.ineqs)


def _require_length(caller, vectors, length, kind):
    """Refuse with ``ValueError`` any of ``vectors`` whose length is not
    ``length``: :func:`kernels.dot` zips, so a row or point of another
    length would be truncated or padded without a word."""
    for v in vectors:
        if len(v) != length:
            raise ValueError(f"{caller}: {kind} of length {len(v)}, not {length}")


def normalize_rows(rows):
    """The rows as primitive integer tuples, zero rows dropped: the form in
    which every cone here stores its system."""
    out = []
    for r in rows:
        s = linalg.scale_to_int(list(r))
        if any(s):
            out.append(tuple(s))
    return tuple(out)


@dataclass(frozen=True)
class Face:
    """A face of a cone, certified before, and the double description run
    that reaches it, for :func:`cone_solve` to take as given.

    The face is the part of the cone on its first inequality, the unit row
    ``e_axis``.  ``rays`` maps each ray of the face, canonical as
    :func:`cone_solve` makes it, to its tight mask over the cone's
    inequalities; each ray was certified against them and extremal.
    ``rows`` are the rows of the run, ``rows[0] = e_axis`` and every other
    row 0 at ``axis``, and ``steps[j]`` is the run's face before row ``j``:
    the tuple of its rays, the tuple of their masks over the rows before,
    the tuple of their values on row ``j``, and the indices of the positive
    and of the negative values (:func:`_face_step`); ``steps[-1]`` is the
    face after the last row, with no values.  A cone whose rows are these rows
    up to a positive factor each and any entry at ``axis`` (other than the
    first row's) has the same face before each row, since every vector on
    ``e_axis``'s hyperplane takes the row's value up to that factor
    (:func:`double_description`).  :func:`_vertical_facets` builds the
    face of every lifted hull over a point set once.
    """

    rays: MappingProxyType
    rows: tuple
    axis: int
    steps: tuple


_NO_FACE = ((), (), (), (), ())


def _insert_row(rays, masks, vals, bit, dim, keep_positive=True, face=_NO_FACE):
    """One double description step of :func:`_cut`: cut a cone by a row ``h``.

    ``rays`` are the extremal rays (tuples) of a cone of dimension
    ``dim`` modulo its lineality space, on which ``h`` vanishes, ``masks``
    their exact tight sets over an inequality description of it, and
    ``vals[i] = h . rays[i]``.  Returns the rays and masks of the cut
    by ``h . x >= 0``, where rays on the hyperplane gain ``bit``, or by
    ``h . x = 0`` when ``keep_positive`` is false, and the set of the rays
    that the step made; every other ray is one of ``rays``.  Each positive/negative
    pair ``(p, q)`` that spans a 2-face gives the ray combined from them,
    with mask ``mask(p) & mask(q)`` plus ``bit``, which is exactly its tight
    set because both coefficients are positive.  Adjacency is decided
    combinatorially: two rays span a 2-face only if they share at least
    ``dim - 2`` tight rows, so a pair with fewer is dropped at once, and
    otherwise the pair is adjacent when no other ray is tight on all the
    rows they share.  ``dim`` may be a lower bound, never an upper one.

    ``face`` holds the other rays of the cone, those of a :class:`Face`
    carried by its run: their tuples, masks and values on ``h``, and the
    indices of its positive and its negative values.  The step returns
    ``rays``' part of the cut only.  It tests the pairs that hold at least
    one of ``rays``, and scans the masks of every ray of the cone for their
    adjacency; the pairs within the face are the run's.
    """
    frays, fmasks, fvals, fpos, fneg = face
    f = len(frays)
    neg = [i for i, v in enumerate(vals, f) if v < 0]
    if not neg and not fneg and keep_positive:
        return rays, [m | bit if v == 0 else m for m, v in zip(masks, vals)], set()
    pos = [i for i, v in enumerate(vals, f) if v > 0]
    table = {rays[i]: masks[i] | bit if v == 0 else masks[i]
             for i, v in enumerate(vals) if v == 0 or (v > 0 and keep_positive)}
    rays, masks, vals = [*frays, *rays], [*fmasks, *masks], [*fvals, *vals]
    every_neg = [*fneg, *neg]
    made = set()
    for p in [*fpos, *pos]:
        for q in neg if p < f else every_neg:
            common = masks[p] & masks[q]
            if common.bit_count() < dim - 2:
                continue
            adjacent = True
            for r in range(len(rays)):
                if r != p and r != q and masks[r] & common == common:
                    adjacent = False
                    break
            if adjacent:
                ray = tuple(kernels.combine_ray(list(rays[p]), list(rays[q]), vals[p], vals[q]))
                table[ray] = common | bit
                made.add(ray)
    rays = sorted(table)
    return rays, [table[r] for r in rays], made


def _cut(lin, rays, masks, pointed, done, eqs, ineqs, ambient, faces=None):
    """Cut a cone by ``eqs = 0`` and ``ineqs >= 0``, one row at a time.

    The cone is given by a basis ``lin`` of its lineality space, its
    extremal rays modulo that space (tuples), their exact tight masks over
    the ``done`` inequalities processed before, and ``pointed``, its
    dimension modulo the lineality.  Equations go first.  A row that is
    nonzero on the lineality space removes one lineality vector ``l`` and
    projects the other generators along it onto the row's hyperplane; an
    inequality of that kind also adds ``l``, oriented into its half-space,
    as a new ray, tight on every earlier inequality.  A row that vanishes on
    the lineality space is one double description step (:func:`_insert_row`)
    on the rays, with ``pointed`` as its pre-test bound.  Inequality ``i``
    of ``ineqs`` sets bit ``done + i`` of the masks.  Returns the new
    ``(lin, rays, masks, pointed, made)``, where ``made`` is the set of the
    rays that the double description steps made, as later rows moved them.

    ``faces``, when given, are the :attr:`Face.steps` of a run, one more
    than the rows, with each row's values in its own scale: the cone's
    other rays, which the run carries.  ``rays`` and ``masks`` are then the
    rest, and each row moves, tests and combines only those, against the
    run's face before it, and takes the run's face after it as it is; a ray
    that a row turns out of the lineality stays with the rest unless it is
    on that face.  The result is the run's last face plus the rest.
    Without ``faces`` the face is empty at every row.
    """
    steps = [(e, False) for e in eqs] + [(a, True) for a in ineqs]
    if faces is None:
        faces = [_NO_FACE] * (len(steps) + 1)
    made = set()
    for (row, is_ineq), face, after in zip(steps, faces, faces[1:]):
        bit = 1 << done if is_ineq else 0
        on_lin = [kernels.dot(row, v) for v in lin]
        k = next((i for i, x in enumerate(on_lin) if x), None)
        if k is not None:
            l, c = lin.pop(k), on_lin.pop(k)
            if c < 0:
                l, c = [-x for x in l], -c

            def along(v, t):
                return kernels.vec_gcd_reduce([c * x - t * y for x, y in zip(v, l)]) if t else list(v)

            lin = [along(v, t) for v, t in zip(lin, on_lin)]
            moved = [tuple(along(r, kernels.dot(row, r))) for r in rays]
            made = {m for r, m in zip(rays, moved) if r in made}
            rays = moved
            masks = [m | bit for m in masks]
            if is_ineq:
                if tuple(l) not in after[0]:
                    rays.append(tuple(l))
                    masks.append((1 << done) - 1)
                pointed += 1
        elif rays or face[0]:
            vals = [kernels.dot(row, r) for r in rays]
            rays, masks, new = _insert_row(rays, masks, vals, bit, pointed, is_ineq, face)
            made |= new
            pos = bool(face[3]) or max(vals, default=0) > 0
            neg = bool(face[4]) or min(vals, default=0) < 0
            if pos and neg and not is_ineq:
                pointed -= 1  # the hyperplane meets the relative interior
            elif (neg and not pos) or (pos and not neg and not is_ineq):
                # the row cuts out a proper face, whose dimension the signs do not tell
                pointed = kernels.rank(lin + [list(r) for r in after[0] + tuple(rays)], ambient) - len(lin)
        done += is_ineq
    last_rays, last_masks = faces[-1][:2]
    return lin, [*last_rays, *rays], [*last_masks, *masks], pointed, made


class Rays(list):
    """The rays :func:`double_description` returns, with ``lineality``, the
    basis of the lineality space its run left, and ``pointed``, the cone's
    dimension modulo that space."""

    def __init__(self, rays, lineality, pointed):
        super().__init__(rays)
        self.lineality, self.pointed = lineality, pointed


def _run_faces(face, rows, dim):
    """The steps of ``face``'s run in the scale of ``rows``, which must fit it.

    Row ``j`` fits the run's row ``v`` when it is ``v`` itself, for the
    first row ``e_axis``, and otherwise agrees with ``lam * v`` for some
    ``lam > 0`` at every coordinate but ``axis``: then it takes ``lam``
    times the run's value on every vector of the face's hyperplane.  Rows
    that differ from ``v`` only at ``axis`` have ``lam = 1`` and take the
    run's steps as they are.  A row that does not fit, or another number of
    rows or length of row than the run's, raises ``RuntimeError``.
    """
    a, steps = face.axis, list(face.steps)
    if len(rows) != len(face.rows) or dim != len(face.rows[0]):
        raise RuntimeError("double_description: the rows do not fit the run of the face")
    for j, (r, v) in enumerate(zip(rows, face.rows)):
        if r[:a] == v[:a] and r[a + 1:] == v[a + 1:] and (r[a] == v[a] or not v[a]):
            continue
        k = next((i for i, y in enumerate(v) if y and i != a), None)
        if v[a] or k is None or r[k] * v[k] <= 0 or any(
                x * v[k] != y * r[k] for i, (x, y) in enumerate(zip(r, v)) if i != a):
            raise RuntimeError(f"double_description: row {j} does not fit the run of the face")
        frays, fmasks, fvals, fpos, fneg = steps[j]
        steps[j] = frays, fmasks, tuple(x * r[k] // v[k] for x in fvals), fpos, fneg
    return steps


def double_description(rows, dim, face=None):
    """Extremal rays of the cone ``{z : row.z >= 0 for all rows}`` in R^dim,
    modulo its lineality space.

    The run starts from all of R^dim, whose lineality basis is the identity
    and which has no rays, and cuts it by the rows in the order given, with
    exact repeats dropped, with :func:`_cut`, the row loop of
    :func:`cone_cut` too: a row nonzero on the lineality left turns one
    lineality vector into a ray, and a row that vanishes on it is one double
    description step on the rays, which also decides the adjacency of
    positive/negative pairs from the rays' masks of tight rows.  Lineality
    left after the last row is the cone's lineality space, the nullspace of
    the rows; each extremal ray modulo it comes out as one primitive
    representative, which for a pointed cone is the ray itself.  The order
    sets how many rays the intermediate cones hold, so a caller puts first
    the rows that cut most away, but not the result for a pointed cone: its
    extremal rays do not depend on it (with lineality, the representatives
    may).  The output is a sorted :class:`Rays` list that also carries the
    lineality basis and the pointed dimension the run left.  It is not
    checked here: :func:`cone_solve` projects the rays off the lineality,
    checks every ray and lineality vector against its defining system and
    certifies every ray extremal by rank in the ambient space.

    With a :class:`Face`, whose run the rows must fit (:func:`_run_faces`),
    the loop carries only the rays off the face and takes the face from the
    run.  That is exact.  The first row ``e_axis`` turns the one lineality
    vector off its hyperplane into a ray and leaves the rest of the
    lineality on it.  From then on, every lineality vector and face ray
    lies on that hyperplane, where each row takes its run row's value up
    to the row's positive factor: so a row moves, tests and combines them
    as the run did.  Two face rays combine to a face ray, and a combination
    with a ray off the face is off it, with a positive coefficient on that
    ray.  A ray off the face never blocks the adjacency of two face rays:
    their common mask holds the first row, which it is not tight on.  So
    the face, its masks and the lineality before each row are the run's.
    """
    rows = list(dict.fromkeys(tuple(r) for r in rows))
    _require_length("double_description", rows, dim, "a row")
    faces = None if face is None else _run_faces(face, rows, dim)
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    lin, rays, _, pointed, _ = _cut(identity, [], [], 0, 0, (), rows, dim, faces)
    return Rays([list(r) for r in sorted(rays)], lin, pointed)


def _ray_masks(caller, rays, eqs, ineqs):
    """Check every ray against ``eqs = 0`` and ``ineqs >= 0`` and return its
    tight mask over ``ineqs``.  A failed check raises ``RuntimeError``
    naming ``caller``."""
    tight = []
    for r in rays:
        if any(kernels.dot(e, r) != 0 for e in eqs):
            raise RuntimeError(f"{caller}: a ray violates its own defining system")
        mask = 0
        for h, a in enumerate(ineqs):
            v = kernels.dot(a, r)
            if v < 0:
                raise RuntimeError(f"{caller}: a ray violates its own defining system")
            if v == 0:
                mask |= 1 << h
        tight.append(mask)
    return tight


def _face_masks(caller, rays, eqs, ineqs, face):
    """The masks of :func:`_ray_masks` when the :class:`Face` ``face`` on
    ``ineqs[0]`` is certified: ``face.rays`` maps each ray tight on it to
    its tight mask.  One dot product with ``ineqs[0]`` sorts each ray; a
    tight ray must be one of ``face.rays`` and takes its mask, and every
    other ray is checked by :func:`_ray_masks`.  The tight rays must be all
    of ``face.rays``, and each mask taken must have bit 0 and no bit at or
    past ``len(ineqs)``, so a face built for another row layout is refused.
    A failed check raises ``RuntimeError`` naming ``caller``.
    """
    known = face.rays
    tight, on_face = [], 0
    for r in rays:
        if kernels.dot(ineqs[0], r) == 0:
            if r not in known:
                raise RuntimeError(f"{caller}: a ray on the certified face is not one of its rays")
            mask = known[r]
            if not mask & 1 or mask >> len(ineqs):
                raise RuntimeError(f"{caller}: a mask of the certified face does not fit the system")
            tight.append(mask)
            on_face += 1
        else:
            tight += _ray_masks(caller, [r], eqs, ineqs)
    if on_face != len(known):
        raise RuntimeError(f"{caller}: a ray of the certified face is not a ray of the cone")
    return tight


def _canonical(caller, ambient, pointed_dim, lineality, rays, eqs, ineqs, face=None):
    """Step 4 of :func:`cone_solve`: the canonical :class:`Cone` spanned by
    ambient generators, checked against its normalized defining system.

    ``lineality`` spans the lineality space, ``rays`` hold one generator per
    extremal ray and ``pointed_dim`` is the dimension modulo the lineality.
    The check of each ray against the inequalities (:func:`_ray_masks`)
    also records its tight mask; the rays of a certified :class:`Face`
    take theirs from it instead (:func:`_face_masks`).  A failed check raises
    ``RuntimeError`` naming ``caller``.
    """
    lin_rows, _ = kernels.rref(lineality, ambient)
    if rays:
        orth = linalg.orthogonalize(lin_rows)
        rays = sorted(set(tuple(linalg.project_off(x, orth)) for x in rays))
    if face is None:
        tight = _ray_masks(caller, rays, eqs, ineqs)
    else:
        tight = _face_masks(caller, rays, eqs, ineqs, face)
    for v in lin_rows:
        if any(kernels.dot(e, v) != 0 for e in eqs):
            raise RuntimeError(f"{caller}: a lineality vector leaves the equations")
        if any(kernels.dot(a, v) != 0 for a in ineqs):
            raise RuntimeError(f"{caller}: a lineality vector is not tight on every inequality")
    lin_dim = len(lin_rows)
    return Cone(ambient, lin_dim + pointed_dim, lin_dim, tuple(tuple(r) for r in lin_rows),
                tuple(rays), eqs, ineqs, tuple(tight))


def cone_solve(eqs, ineqs, ambient, *, face=None):
    """Canonical V-description of ``{x : eqs.x = 0, ineqs.x >= 0}``.

    The result is certified once, in the ambient space: every ray and
    lineality vector against the system, which records the rays' tight
    masks, and every ray extremal by the rank of its tight rows
    (:func:`check_extremal`).  A failure raises ``RuntimeError``.

    ``face``, a :class:`Face`, states a fact certified before: the rays of
    the cone tight on its first inequality (the first of the normalized
    ``ineqs``, from which zero rows are dropped) are exactly the keys of
    ``face.rays``, canonical as here, each satisfying the system with the
    tight mask it maps to and extremal.  Double description then takes the
    face from its run and carries only the other rays; the rows must fit
    the run, or ``RuntimeError`` is raised.  Each ray takes one dot product
    with ``ineqs[0]``: the tight ones must be exactly the keys of
    ``face.rays`` and take its masks, with no other check, and every other
    ray and every lineality vector is certified in full.

    A nonzero row whose length is not ``ambient`` raises ``ValueError``.
    """
    eqs, ineqs = normalize_rows(eqs), normalize_rows(ineqs)
    _require_length("cone_solve", eqs + ineqs, ambient, "a row")
    null = kernels.nullspace(eqs, ambient)
    k = len(null)
    restricted = []
    for a in ineqs:
        row = [kernels.dot(a, nv) for nv in null]
        if any(row):
            restricted.append(kernels.vec_gcd_reduce(row))

    rays_z = double_description(restricted, k, face)
    cone = _canonical("cone_solve", ambient, rays_z.pointed, linalg.mat_mul(rays_z.lineality, null),
                      linalg.mat_mul(rays_z, null), eqs, ineqs, face)
    check_extremal(cone, "cone_solve", face.rays if face is not None else (), null)
    return cone


def cone_image(cone, rays, ambient, shared, eqs, ineqs, lineality):
    """The canonical cone of R^ambient that the pointed ``cone`` is in the
    coordinates of some rows, plus a certified lineality space.

    ``cone`` is stated in the coordinates of ambient rows B: ``y`` stands
    for ``y . B``.  ``rays`` are the images ``r . B`` in R^ambient of
    ``cone``'s rays, made primitive; the caller maps them, once for all the
    cones that share a ray.  ``lineality`` is the RREF basis of the image's
    lineality space, which the image keeps.  The rows of B must be
    orthogonal to ``lineality`` (:func:`linalg.project_rows_off` makes them
    so, once for all images) and independent; then the map is injective,
    the image's dimension is ``cone``'s plus ``len(lineality)``, and its
    rays are ``rays``, already orthogonal to the lineality as the canonical
    form asks.  The image solves the ambient system of the equations ``shared +
    eqs`` and the inequalities ``ineqs``, given as :func:`normalize_rows`
    gives them, and stores it as it is.  Every image ray is checked against
    ``eqs`` and ``ineqs``, which records its tight mask; ``shared`` holds
    the equations that every image of the caller solves, which vanish on
    every row of B and of ``lineality``, so on every image ray, a
    combination of those rows.

    Nothing that many images share is done per image: the caller brings
    the lineality to RREF, projects B off it, maps the rays and normalizes
    the rows once, and certifies once that every lineality vector vanishes
    on every row of every system it passes here, that every row of
    ``shared`` vanishes on every row of B, and that the rows of B and
    ``lineality`` are independent.  No cone is solved here.  A failed
    check, or a ``cone`` with lineality of its own, which the image would
    lose, raises ``RuntimeError``.
    """
    if cone.lineality:
        raise RuntimeError("cone_image: the cone is not pointed")
    rays = sorted(set(rays))
    tight = _ray_masks("cone_image", rays, eqs, ineqs)
    return Cone(ambient, len(lineality) + cone.dim, len(lineality),
                tuple(tuple(v) for v in lineality), tuple(rays), shared + eqs, ineqs, tuple(tight))


def cone_cut(parent, eqs, ineqs):
    """The canonical cone ``parent ∩ {eqs = 0, ineqs >= 0}``, cut from the
    parent's generators instead of solved from its system.

    ``parent`` must come from :func:`cone_solve`, :func:`cone_cut` or
    :func:`cone_image`: then its lineality basis is in RREF, its rays are
    primitive and orthogonal to that basis, and every ray and lineality
    vector was dot-checked against the parent's system when the parent was
    made, with the ray's tight mask (:attr:`Cone.tight`) recorded by that
    check.  The cut rests on that invariant.

    The rows are taken one at a time by :func:`_cut`, the row loop that
    :func:`double_description` runs from all of R^dim, here started from
    the parent's lineality basis, rays and tight masks.  A row that is
    nonzero on the lineality space turns one lineality vector into a ray or,
    for an equation, drops it; a row that vanishes on it is one double
    description step on the rays.  The new rows are stored after the
    parent's.

    No vector is checked against the parent's rows again.  Every result
    vector that the double description steps did not make is a positive
    multiple of a parent vector plus a combination of parent lineality
    vectors, and every parent row vanishes on those, so its dot product
    with each parent row is the parent vector's up to that positive factor,
    and its tight mask over the parent's rows carries over.  Against the
    new rows, the lineality is checked by the dot products that find the
    rows nonzero on it or not, a vector moved along a lineality vector onto
    a row's hyperplane lies on it by construction, and each other ray kept
    from the parent is checked by the dot products of its double
    description steps, which drop a ray that violates a row and set the
    bits of the rows it is tight on.  The rays
    the steps made are combinations of two rays with positive coefficients;
    they are checked against the whole stored system, and their masks are
    recorded from that check.  Which rays were made is known from the step
    that made them, and a later row that moves a made ray moves its entry
    too, so a made ray equal to an old one gets no stale mask and a moved
    one is still checked.  So every pair of a result vector and a row has
    been dot-checked, at this cut or at an ancestor.

    When every row vanished on the lineality (the common case), the
    parent's lineality basis and the rays kept from it are unchanged
    vectors, and nothing is reduced or projected.  When some row hit the
    lineality, the generators have moved: the new lineality is brought to
    RREF and the rays are projected off it, each keeping its mask, since
    the projection adds lineality vectors and multiplies by a positive
    factor.

    Then comes an irredundancy certificate from the masks: a ray that is a
    positive combination of other rays and the lineality space has its
    tight set inside theirs, so no mask may lie in another.  That keeps a
    redundant ray, which would mislead the adjacency test of the next cut,
    from passing on.

    ``eqs`` and ``ineqs`` are given as :func:`normalize_rows` gives them
    (tuples of primitive integer tuples, no zero row), and stored on the
    result as they are: a caller that cuts many cones by the same rows,
    as the level search of :mod:`valperm.fans` does, normalizes them once.
    A row whose length is not the parent's ambient dimension raises
    ``ValueError``.
    """
    _require_length("cone_cut", eqs + ineqs, parent.ambient, "a row")
    lin, rays, masks, pointed, made = _cut(
        [list(v) for v in parent.lineality], list(parent.rays), list(parent.tight),
        parent.dim - parent.lineality_dim, len(parent.ineqs), eqs, ineqs, parent.ambient)
    eqs, ineqs = parent.eqs + eqs, parent.ineqs + ineqs
    lineality = parent.lineality
    if len(lin) != len(lineality):  # a row hit the lineality
        lin, _ = kernels.rref(lin, parent.ambient)
        lineality = tuple(tuple(v) for v in lin)
        if rays:
            orth = linalg.orthogonalize(lin)
            projected = [tuple(linalg.project_off(r, orth)) for r in rays]
            made = {p for r, p in zip(rays, projected) if r in made}
            pairs = sorted(zip(projected, masks))
            rays, masks = [r for r, _ in pairs], [m for _, m in pairs]
    fresh = [i for i, r in enumerate(rays) if r in made]
    for i, mask in zip(fresh, _ray_masks("cone_cut", [rays[i] for i in fresh], eqs, ineqs)):
        masks[i] = mask
    cone = Cone(parent.ambient, len(lineality) + pointed, len(lineality), lineality,
                tuple(rays), eqs, ineqs, tuple(masks))
    if len(_extremal(cone.tight)) != len(cone.rays):
        raise RuntimeError("cone_cut: a ray is redundant: its tight set lies in another ray's")
    return cone


def _extremal(tight):
    """Indices ``i`` whose mask ``tight[i]`` lies in no other element's mask.

    With ``tight[i]`` the facets element ``i`` lies on, these are the
    vertices of a polytope among its points, or the extremal rays of a cone
    among its generators: an element that is a positive combination of
    others lies on every facet they share.
    """
    return [i for i, t in enumerate(tight)
            if not any(s & t == t for k, s in enumerate(tight) if k != i)]


def check_extremal(cone, caller, certified=(), null=None):
    """Certify by rank that every ray of ``cone`` is extremal.

    A ray is extremal when its tight inequalities T and the equations E
    have rank ``ambient - lineality_dim - 1``: the face they cut out is the
    ray plus the lineality space.  The equations are the same for every
    ray, so they are eliminated once per cone: with N a basis of their
    nullspace, rank(E and T) = rank(E) + rank(T N), since the vectors T and
    E both kill are N's images of the vectors T N kills.  Each ray's tight
    rows are ranked in N's coordinates against the wanted rank less
    rank(E) = ``ambient - len(N)``.  ``null`` is N when the caller has
    already computed it from ``cone.eqs`` (:func:`cone_solve` restricts to
    it); otherwise it is computed here.  A cone with no equations ranks its
    tight rows as they are.  Rays in ``certified`` were certified extremal
    before and are skipped, and a cone with no other ray eliminates
    nothing.

    The rank stops at the wanted one (:func:`kernels.rank` with ``stop``),
    since it can never exceed it.  Every row of E and T vanishes on the
    ray, whose tight mask the dot-check of its system recorded, and on the
    lineality space, which is certified against the whole system.  A
    nonzero ray orthogonal to the lineality space (a canonical ray is) lies
    outside it, so those rows vanish on a space of dimension
    ``lineality_dim + 1``, and their rank is at most the wanted
    ``ambient - lineality_dim - 1``.  That argument needs the ray to be
    nonzero, so a zero ray is refused.  A failure raises ``RuntimeError``
    naming ``caller``.
    """
    masks = [mask for ray, mask in zip(cone.rays, cone.tight) if ray not in certified]
    if not masks:
        return
    if not all(map(any, cone.rays)):
        raise RuntimeError(f"{caller}: a ray of a cone is zero")
    want, ineqs, dim = cone.ambient - cone.lineality_dim - 1, cone.ineqs, cone.ambient
    if cone.eqs:
        if null is None:
            null = kernels.nullspace(cone.eqs, cone.ambient)
        want -= cone.ambient - len(null)
        ineqs = [[kernels.dot(a, v) for v in null] for a in cone.ineqs]
        dim = len(null)
    for mask in masks:
        rows = [a for h, a in enumerate(ineqs) if mask >> h & 1]
        if kernels.rank(rows, dim, want) != want:
            raise RuntimeError(f"{caller}: a ray of a cone is not extremal")


# ---------------------------------------------------------------------------
# convex hulls via duality


def _homogenize(points):
    return [linalg.scale_to_int(list(p) + [1]) for p in points]


def hull_facet_sets(points):
    """Facets of conv(points) as frozensets of point indices.

    Duplicate input points simply appear in the same incidence sets.  Point
    ``i`` is inequality ``i`` of the dual cone, so a facet's points are read
    off its ray's tight mask.  Points of mixed length raise ``ValueError``.
    """
    if not points:
        raise ValueError("hull_facet_sets needs at least one point")
    _require_length("hull_facet_sets", points, len(points[0]), "a point")
    dual = cone_solve([], [(*p, 1) for p in points], len(points[0]) + 1)
    facets = set()
    for mask in dual.tight:
        tight = frozenset(i for i in range(len(points)) if mask >> i & 1)
        if tight and len(tight) < len(points):
            facets.add(tight)
    return sorted(facets, key=sorted)


def incidence_edges(tight):
    """Index pairs ``(i, j)``, ``i < j``, that span an edge of the face lattice.

    ``tight[i]`` is the bitmask of the facets element ``i`` lies on; the
    elements are the vertices of a polytope or the rays of a cone pointed
    modulo its lineality.  The smallest face holding ``i`` and ``j`` is cut
    out by the facets they share, so the pair is an edge exactly when no
    other element lies on every facet in ``tight[i] & tight[j]``.  The
    elements on all of those facets are the AND of the facets' member
    masks, which always holds ``i`` and ``j``: the pair is an edge exactly
    when that AND is ``{i, j}``.
    """
    members = {}
    for i, t in enumerate(tight):
        while t:
            low = t & -t
            members[low] = members.get(low, 0) | 1 << i
            t ^= low
    everyone = (1 << len(tight)) - 1
    edges = []
    for i, j in combinations(range(len(tight)), 2):
        pair = 1 << i | 1 << j
        common, on = tight[i] & tight[j], everyone
        while common and on != pair:
            low = common & -common
            on &= members[low]
            common ^= low
        if on == pair:
            edges.append((i, j))
    return edges


def hull_edges(points, labels, facets=None):
    """Vertices and edges of conv(points), named by the given unique labels.

    Returns ``(sorted vertex labels, sorted edge label pairs)``.  A point is
    a vertex when no other point lies on all of its facets; the edges are the
    :func:`incidence_edges` of the vertices.

    ``facets[i]``, when given, is the bitmask of the facets point ``i`` lies
    on, taken over the facets of any polyhedron that has conv(points) as a
    face (the lifted hull of :func:`lower_cells` for one of its cells); the
    smallest face of that polyhedron holding some of the points lies inside
    conv(points), so the same tests decide its vertices and edges and no
    hull is solved here.  Without it, the facets are those of conv(points),
    from one :func:`hull_facet_sets` solve.  Points of mixed length raise
    ``ValueError``.
    """
    if not points:
        raise ValueError("hull_edges needs at least one point")
    _require_length("hull_edges", points, len(points[0]), "a point")
    if len(points) != len(labels) or len(set(labels)) != len(labels):
        raise ValueError("hull_edges needs one unique label per point")
    if facets is not None and len(facets) != len(points):
        raise ValueError("hull_edges needs one facet mask per point")
    uniq = {}
    for i, p in enumerate(points):
        key = tuple(p)
        if key not in uniq or labels[i] < labels[uniq[key]]:
            uniq[key] = i
    upts = sorted(uniq)
    keep = [uniq[p] for p in upts]
    ulabs = [labels[i] for i in keep]
    if len(upts) == 1:
        return [ulabs[0]], []

    if facets is not None:
        tight = [facets[i] for i in keep]
    else:
        tight = [0] * len(upts)
        for f, members in enumerate(hull_facet_sets(upts)):
            for i in members:
                tight[i] |= 1 << f
    verts = _extremal(tight)
    edges = [tuple(sorted((ulabs[verts[a]], ulabs[verts[b]])))
             for a, b in incidence_edges([tight[i] for i in verts])]
    return sorted(ulabs[v] for v in verts), sorted(edges)


@lru_cache(maxsize=16)
def _affine_coordinates(points):
    """``points``, a tuple of point tuples in R^m, restricted to coordinates
    of their affine hull, chosen and certified once per point set.

    The coordinates ``S`` are picked greedily by index: coordinate ``j`` is
    kept when its column raises the rank of the constant column and the
    columns kept before it, so ``S`` is the pivot columns past the constant
    of the rows ``(1, x_i)`` (:func:`kernels.rref`).  The choice is
    certified by exact rank: the rows ``(1, x_S)`` must have full column
    rank, equal to the rank of the rows ``(1, x)``, or ``RuntimeError`` is
    raised.  Each row is scaled to integers by a positive factor first,
    which keeps the rank of every set of columns.

    Equal ranks mean that every coordinate is an affine function of ``x_S``
    on the points, so the restriction to ``S`` is an affine isomorphism of
    the point configuration onto one that spans R^|S| affinely.  Regular
    subdivisions are unchanged under an affine isomorphism of the point
    configuration (De Loera, Rambau and Santos, *Triangulations*, 2010,
    ch. 2): the map ``(x, h) -> (x_S, h)`` takes each lifted hull of
    :func:`lower_cells` onto the one over the restricted points, with the
    upward direction onto the upward direction, so they have the same
    facets, each on the same points.  For the n! vertices of the
    permutohedron, which span a hyperplane of R^n, it drops the last
    coordinate.
    """
    m = len(points[0])
    rows = [linalg.scale_to_int([1, *p]) for p in points]
    kept = [j - 1 for j in kernels.rref(rows, m + 1)[1] if j]
    reduced_rows = [[r[0]] + [r[j + 1] for j in kept] for r in rows]
    if not kernels.rank(reduced_rows, len(kept) + 1) == len(kept) + 1 == kernels.rank(rows, m + 1):
        raise RuntimeError("_affine_coordinates: the coordinates do not span the affine hull")
    return tuple(tuple(p[j] for j in kept) for p in points)


@lru_cache(maxsize=16)
def _vertical_facets(points):
    """The vertical facets of every lifted hull over ``points``, a tuple of
    distinct point tuples in R^m that span R^m affinely, as
    :func:`_affine_coordinates` gives them, and the double description run
    that builds them, certified and recorded once per point set.

    Returns a :class:`Face` of the lifted dual cone of :func:`lower_cells`
    on its upward row ``e_m``, row 0.  Its ``rays`` map each ray of the dual
    cone of conv(points), which :func:`cone_solve` certifies in full, to
    its tight mask, with a 0 height coordinate inserted at index m.  The
    masks are over the rows of the lifted dual cone, upward row first: bit
    0 is the upward row, which every vertical ray is tight on, and bit
    ``i + 1`` is point ``i``.

    These are exactly the vertical rays of the lifted dual cone of
    :func:`lower_cells`, with their masks, for any heights.  A vector ``y``
    with ``y_m = 0`` has the same dot product with the lifted row
    ``(x_i, h_i, 1)`` as with ``(x_i, 1)`` (up to the positive factor that
    makes each row a primitive integer row), so it satisfies the lifted
    system exactly when its unlifted part satisfies the unlifted one, with
    the same tight point rows, and it is tight on the upward row ``e_m``
    too.  The rays with ``y_m = 0`` span the face on the upward row, which
    is the embedded unlifted dual cone, so they are the embedded unlifted
    rays.  The reduced configuration is full-dimensional, so both dual
    cones are pointed and the embedded rays are canonical as they are:
    primitive.  Their tight rows have rank one higher than unlifted,
    because ``e_m`` spans the height axis the point rows add, and the
    ambient space is one dimension larger, so each stays certified
    extremal.

    The run is the lifted double description of the heights 0, rows
    ``e_m`` and ``(x_i, 0, 1)`` made primitive, taken row by row by
    :func:`_cut`; before each row it records the vertical rays, the rays
    tight on row 0, with their masks and their values on the row.  The
    vertical part of a lifted row ``(x_i, h_i, 1)`` is ``(x_i, 0, 1)``, up
    to the row's positive factor, so every lifted hull over the points fits
    the run, and :func:`double_description` takes its vertical rays from it
    (see there why that is exact).  The run's last face, projected off the
    lineality its run left (none, for points that span), must be the
    certified rays with their masks, or ``RuntimeError`` is raised.
    """
    m = len(points[0])
    dual = cone_solve([], [(*p, 1) for p in points], m + 1)
    facets = {r[:m] + (0,) + r[m:]: mask << 1 | 1 for r, mask in zip(dual.rays, dual.tight)}
    rows = normalize_rows([[0] * m + [1, 0]] + [[*p, 0, 1] for p in points])
    lin = [[int(i == j) for j in range(m + 2)] for i in range(m + 2)]
    rays, masks, pointed, steps = [], [], 0, []
    for j, row in enumerate(rows):
        steps.append(_face_step(rays, masks, row))
        lin, rays, masks, pointed, _ = _cut(lin, rays, masks, pointed, j, (), (row,), m + 2)
    steps.append(_face_step(rays, masks, None))
    orth = linalg.orthogonalize(kernels.rref(lin, m + 2)[0])
    last = {tuple(linalg.project_off(r, orth)): mask for r, mask in zip(*steps[-1][:2])}
    if last != facets:
        raise RuntimeError("_vertical_facets: the run's last face is not the certified vertical facets")
    return Face(MappingProxyType(facets), rows, m, tuple(steps))


def _face_step(rays, masks, row):
    """One :attr:`Face.steps` entry: the rays tight on row 0, their masks,
    their values on ``row`` (none when ``row`` is None) and the indices of
    the positive and of the negative values."""
    face = [(r, mask) for r, mask in zip(rays, masks) if mask & 1]
    vals = () if row is None else tuple(kernels.dot(row, r) for r, _ in face)
    return (tuple(r for r, _ in face), tuple(mask for _, mask in face), vals,
            tuple(i for i, v in enumerate(vals) if v > 0), tuple(i for i, v in enumerate(vals) if v < 0))


@lru_cache(maxsize=16)
def _affine_dependencies(points):
    """A basis of the affine dependencies of ``points`` (a tuple of point
    tuples in R^m), built and checked once per point set.

    Each basis vector is integers ``mu``, one per point, with
    ``sum_i mu_i * (x_i, 1) = 0``, stored sparsely as the pairs ``(i, mu_i)``
    of its nonzero entries: a :func:`kernels.nullspace` vector has one per
    pivot column and one more, so at most rank + 1.  It is a nullspace
    vector of the transposed homogenized points, with coordinate ``i`` times
    the last entry of row ``i``: :func:`_homogenize` scales ``(x_i, 1)`` by
    that positive factor.  Every vector is checked exactly against the
    points here; a failed check raises ``RuntimeError``.
    """
    gens = _homogenize(points)
    null = kernels.nullspace([list(col) for col in zip(*gens)], len(gens))
    deps = tuple(tuple((i, c * gens[i][-1]) for i, c in enumerate(v) if c) for v in null)
    for mu in deps:
        if any(sum(c * (points[i] + (1,))[t] for i, c in mu) for t in range(len(points[0]) + 1)):
            raise RuntimeError("_affine_dependencies: a dependency does not vanish on the points")
    return deps


def lower_cells(points, heights, labels):
    """Cells of the regular subdivision induced by lifting ``points`` to ``heights``.

    Returns ``(cells, tight)``.  ``cells`` lists the cells, each a sorted
    tuple of labels, sorted between themselves.  ``tight[i]`` is the bitmask
    of the facets of the lifted hull that point ``i`` lies on, one bit per
    facet: the lower facets, which are the cells, and the vertical ones over
    the boundary of conv(points).  Each cell is a face of that hull, so its
    points' masks are the ``facets`` that :func:`hull_edges` reads its
    vertices and edges from.

    The hull is solved once, in coordinates of the points' affine hull
    (:func:`_affine_coordinates`), which give it the same facets on the
    same points, with the upward direction ``(0, ..., 0, 1)`` as one more
    generator, so it has no upper facets.  Its facets are the rays of the
    dual of the cone that the lifted points and the upward direction span,
    their inner normals; a lower facet's normal has a positive height
    coordinate.  The reduced configuration is full-dimensional, so that
    dual cone is pointed, and one with a lineality is refused with
    ``RuntimeError``.  The upward generator is row 0 of the dual cone and
    point ``i`` is row ``i + 1``, so which points lie on a facet is read off
    the facet ray's :attr:`Cone.tight` mask.  The rows go to
    :func:`cone_solve` as they are, which makes them primitive.  Double
    description takes them in that order, so the upward row cuts the cone
    first and no intermediate cone holds an upper facet.  The vertical
    facets do not depend on the heights: :func:`_vertical_facets` certifies
    them once per point set, with their masks in this layout, and records
    the run of double description that builds them, which is the same for
    every height.  :func:`cone_solve` takes them as a certified
    :class:`Face` on the upward row: its double description carries and
    combines only the lower rays of each hull, against the run's vertical
    rays, and it checks and rank-certifies only the lower rays.  The rows
    of every hull fit the run, since each differs from the run's row only
    by its positive factor and its height.  The heights are affine exactly when one
    cell holds every point, and that cell count is certified against the
    affine dependencies of :func:`_affine_dependencies`: ``h`` is affine
    exactly when it lies in the column space of the rows ``(x_i, 1)``, which
    is the orthogonal complement of their left nullspace, so exactly when
    every dependency ``mu`` has ``sum_i mu_i * h_i = 0``.  A point lifted
    above the lower hull is in no cell.  Points must be distinct and of one
    length, and labels unique, or ``ValueError`` is raised.
    """
    if not points:
        raise ValueError("lower_cells needs at least one point")
    _require_length("lower_cells", points, len(points[0]), "a point")
    if not len(points) == len(heights) == len(labels):
        raise ValueError("lower_cells needs one height and one label per point")
    if len(set(labels)) != len(labels):
        raise ValueError("lower_cells needs one unique label per point")
    key = tuple(tuple(p) for p in points)
    if len(set(key)) != len(points):
        raise ValueError("lower_cells: points must be distinct")
    reduced = _affine_coordinates(key)
    m = len(reduced[0])
    rows = [[0] * m + [1, 0]] + [[*p, h, 1] for p, h in zip(reduced, heights)]
    dual = cone_solve([], rows, m + 2, face=_vertical_facets(reduced))
    if dual.lineality:
        raise RuntimeError("lower_cells: the lifted dual cone is not pointed")
    tight = [0] * len(points)
    cells = set()
    for f, (ray, mask) in enumerate(zip(dual.rays, dual.tight)):
        on = [i for i in range(len(points)) if mask >> (i + 1) & 1]
        for i in on:
            tight[i] |= 1 << f
        if ray[m] > 0:
            cells.add(tuple(sorted(labels[i] for i in on)))
    affine = not any(sum(c * heights[i] for i, c in mu) for mu in _affine_dependencies(reduced))
    if (len(cells) == 1 and len(next(iter(cells))) == len(points)) != affine:
        kind = "affine" if affine else "non-affine"
        raise RuntimeError(f"lower_cells: {kind} heights gave {len(cells)} cells")
    return sorted(cells), tight
