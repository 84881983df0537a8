"""Independent brute-force oracles used to pin down expected test values.

Everything in here deliberately avoids the code paths under test: Bruhat
order is decided by subwords of a reduced word, Bruhat intervals by a
pairwise scan for the minimal and maximal elements in that order (and the
interval between two given ends by testing every vertex), hull
membership by LP separation, lower cells by trying every support set and
by the lifted hull in the points' ambient coordinates, which the package
solved before it restricted them to coordinates of their affine hull, a
cell's edges by intersecting the facet sets of a hull solved for the cell
alone, the fan by solving every sign choice in full, the last level of the
three-term search by the search that kept every cone, the refinement census
by solving every sample in its own cone, a ray's tight inequalities by one
dot product each, 2-faces of a cone by the sign of the other rays against
the hyperplane a ray pair spans, the edges of a face lattice from facet
masks by scanning every other element for each pair, affine heights by
comparing two ranks, Gram-Schmidt and
projections in ``Fraction`` arithmetic, extremal rays by trying every
row subset, a ray's extremality by the rank of all the rows at once, a
cone's V-description by the rowspace reduction that ``cone_solve`` ran
before double description took cones with lineality, and a cone's image
in the ambient space by the per-cone canonical form ``cone_image`` ran
before its lineality was certified once, and the quotient of a three-term
search by the two reductions it ran before one RREF in the ambient space.  The three-term checks, the
lift and the compression minimum are kept here as they were before the
package moved them onto integer views: in ``Fraction`` arithmetic on the public values.  So are a few
small helpers that only tests use, and the minors of a polynomial matrix
by the Leibniz formula: the vertex of a complete flag, the
permutation of a word, and the order of the symmetry group by closure.
The edges of the permutohedron are listed by swapping two consecutive
values at every vertex, and those of a hypersimplex as the pairs of d-sets
that differ in one exchange; the package keeps neither edge list.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import ceil, gcd

from lp import lp_feasible
from valperm import kernels, linalg
from valperm.permutahedra import (
    apply_right,
    bruhat_leq,
    inversions,
    mask_elems,
    mask_size,
    permutohedron_vertices,
    reduced_word,
    subsets_of_size,
    symmetry_generators,
)
from valperm.polyhedra import (
    _canonical,
    check_extremal,
    cone_solve,
    double_description,
    hull_facet_sets,
    normalize_rows,
)
from valperm.valuated import Matroid, PolyInT, ValuatedMatroid, Violation, is_quotient


def flag_to_vertex(flag):
    """Inverse of vertex_to_flag for a complete flag (sizes 1..n)."""
    n = len(flag)
    v = [0] * n
    prev = 0
    for d, m in enumerate(flag, start=1):
        if mask_size(m) != d or (prev & m) != prev:
            raise ValueError("not a complete flag")
        new = m & ~prev
        (p,) = mask_elems(new)
        v[p - 1] = n - d + 1
        prev = m
    return tuple(v)


def permutohedron_edges(n):
    """The edges of the permutohedron as sorted vertex pairs (u, v) with
    u < v: each vertex is joined to the vertex that exchanges the positions
    of two consecutive values c and c + 1."""
    edges = set()
    for v in permutohedron_vertices(n):
        for c in range(1, n):
            w = list(v)
            i, j = v.index(c), v.index(c + 1)
            w[i], w[j] = c + 1, c
            edges.add(tuple(sorted((v, tuple(w)))))
    return sorted(edges)


def hypersimplex_edges(d, n):
    """The edges of the d-th hypersimplex on {1..n} as pairs (a, b) of
    d-set masks with a < b that differ in one exchange: their symmetric
    difference has two elements."""
    return [(a, b) for a, b in combinations(sorted(subsets_of_size(n, d)), 2)
            if mask_size(a ^ b) == 2]


def word_to_perm(word, n):
    v = tuple(range(1, n + 1))
    for i in word:
        v = apply_right(v, i)
    return v


def symmetry_group_order(n):
    """Order of the group generated by symmetry_generators (BFS closure)."""
    gens = symmetry_generators(n)
    ident = tuple(permutohedron_vertices(n))

    def compose(t, m):
        # apply map m after the permutation encoded by t
        return tuple(m[v] for v in t)

    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                u = compose(t, g)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen)


def bruhat_lower_set(v):
    """All permutations <= v, via the subword characterization.

    Every subsequence of a reduced word of v that is itself reduced (length
    equals the inversion count of its product) yields an element below v, and
    all of them arise this way.
    """
    word = reduced_word(v)
    n = len(v)
    found = set()
    for r in range(len(word) + 1):
        for positions in combinations(range(len(word)), r):
            sub = tuple(word[p] for p in positions)
            w = word_to_perm(sub, n)
            if inversions(w) == len(sub):
                found.add(w)
    return found


def bruhat_leq_subword(a, b):
    return a in bruhat_lower_set(b)


@cache
def _lower_frozenset(v):
    return frozenset(bruhat_lower_set(v))


def bruhat_interval_full_scan(lo, hi, n):
    """``bruhat_interval`` as it was before the length window: every vertex
    of the permutohedron goes to the two ``bruhat_leq`` tests."""
    return [v for v in permutohedron_vertices(n) if bruhat_leq(lo, v) and bruhat_leq(v, hi)]


def bruhat_interval_by_scan(vertices):
    """(verdict, endpoints) of ``is_bruhat_interval_polytope`` by the pairwise
    scan: the set is an interval iff it has one minimal and one maximal
    element and holds every permutation between them, all in the subword
    order."""
    perms = sorted(set(vertices))
    n = len(perms[0])
    lower = {v: _lower_frozenset(v) for v in perms}
    minimal = [v for v in perms if not any(u in lower[v] for u in perms if u != v)]
    maximal = [v for v in perms if not any(v in lower[u] for u in perms if u != v)]
    if len(minimal) != 1 or len(maximal) != 1:
        return False, None
    lo, hi = minimal[0], maximal[0]
    between = {v for v in permutohedron_vertices(n) if v in lower[hi] and lo in _lower_frozenset(v)}
    if between != set(perms):
        return False, None
    return True, (lo, hi)


def argmax_vertex_for_flag(flag, n):
    """The vertex maximizing the flag's weight functional, by brute force."""
    weight = [0] * n
    for m in flag:
        for p in mask_elems(m):
            weight[p - 1] += 1
    best, best_val = None, None
    ties = 0
    for v in permutohedron_vertices(n):
        val = sum(w * x for w, x in zip(weight, v))
        if best_val is None or val > best_val:
            best, best_val, ties = v, val, 1
        elif val == best_val:
            ties += 1
    assert ties == 1, "flag functional should have a unique maximizer"
    return best


def hull_vertices_and_edges_by_lp(points, labels):
    """Vertex and edge lists of conv(points) via strict LP separation.

    A point is a vertex iff it can be strictly separated from the others; a
    pair is an edge iff some affine functional is tight exactly on the pair.
    Assumes pairwise distinct points (0/1 test configurations guarantee it).
    """
    m = len(points[0])
    idx = list(range(len(points)))

    def separable(tight_set):
        # variables (a_1..a_m, b); tight rows: a.p - b = 0; others a.p - b < 0
        eqs = [(list(points[i]) + [-1], 0) for i in tight_set]
        strict = [
            ([-x for x in points[i]] + [1], 0) for i in idx if i not in tight_set
        ]
        feasible, _ = lp_feasible(eqs, strict, [], m + 1)
        return feasible

    vertices = [i for i in idx if separable({i})]
    edges = [
        (i, j)
        for i, j in combinations(vertices, 2)
        if separable({i, j})
    ]
    return sorted(labels[i] for i in vertices), sorted(
        tuple(sorted((labels[i], labels[j]))) for i, j in edges
    )


def lower_cells_by_support_search(points, heights, labels):
    """All lower cells by testing every candidate support via LP.

    A support S is realized iff some affine functional agrees with the heights
    on S and is strictly below them off S; realized supports are exactly the
    faces of the lower hull (the full set when the heights are affine), and
    the cells of the induced subdivision are the maximal ones.
    """
    m = len(points[0])
    idx = list(range(len(points)))
    realized = []
    for r in range(1, len(points) + 1):
        for support in combinations(idx, r):
            sset = set(support)
            eqs = [(list(points[i]) + [1], heights[i]) for i in support]
            # off-support rows demand a.p + c < h(p), i.e. -(a.p + c) > -h(p)
            strict = [([-x for x in points[i]] + [-1], -heights[i]) for i in idx if i not in sset]
            feasible, _ = lp_feasible(eqs, strict, [], m + 1)
            if feasible:
                realized.append(sset)
    cells = [
        s for s in realized if not any(s < other for other in realized)
    ]
    return sorted(tuple(sorted(labels[i] for i in s)) for s in cells)


def lower_cells_in_ambient_coordinates(points, heights, labels):
    """``(cells, tight)`` as ``polyhedra.lower_cells`` gives them, from the
    lifted hull in the points' own coordinates of R^m.

    The polar of the cone spanned by the upward direction and the lifted
    points ``(x_i, h_i, 1)`` is solved in R^(m + 2) by a plain
    ``cone_solve`` that certifies every ray, with the points' lineality
    when they do not span R^m affinely.  Row 0 is the upward row and row
    ``i + 1`` point ``i``; a ray with a negative height coordinate is the
    outer normal of a lower facet, whose points are a cell.
    """
    m = len(points[0])
    rows = [[0] * m + [1, 0]] + [[*p, h, 1] for p, h in zip(points, heights)]
    polar = cone_solve([], [[-x for x in row] for row in rows], m + 2)
    tight = [0] * len(points)
    cells = set()
    for f, (ray, mask) in enumerate(zip(polar.rays, polar.tight)):
        on = [i for i in range(len(points)) if mask >> (i + 1) & 1]
        for i in on:
            tight[i] |= 1 << f
        if ray[m] < 0:
            cells.add(tuple(sorted(labels[i] for i in on)))
    return sorted(cells), tight


def cell_edges_by_own_hull(cell):
    """Edges of conv(cell), as sorted vertex pairs, from the cell's own hull.

    The points must be in convex position (any set of permutohedron vertices
    is).  The smallest face holding two vertices is the intersection of the
    facets holding both, or the whole cell when no facet does; the pair is
    an edge exactly when that face holds nothing else.
    """
    pts = sorted(set(tuple(v) for v in cell))
    if len(pts) < 2:
        return []
    facets = hull_facet_sets(pts)
    edges = []
    for i, j in combinations(range(len(pts)), 2):
        face = set(range(len(pts)))
        for f in facets:
            if i in f and j in f:
                face &= f
        if face == {i, j}:
            edges.append((pts[i], pts[j]))
    return edges


def exhaustive_fan_cones(n):
    """Every distinct nonempty cone of the height fan's sign-choice systems,
    and the maximal ones among them, by the flat 3^H sweep.

    Each complete choice of attaining diagonal pair per hexagon is solved
    on its own rows in the coordinates of a nullspace basis B of the base
    equations: no common lineality taken out, no pruning, no cut.  The map
    ``y -> y . B`` is injective, so two choices have equal cones there
    exactly when they have equal cones in all n! coordinates.  The first
    choice reaching each distinct cone with a ray is then solved again in
    all n! coordinates together with the base equations; cones without a
    ray (the lineality space alone) are dropped.  A cone is maximal when
    no other cone contains all its rays.  Returns ``(cones, maximal)``,
    both sorted by key.
    """
    from valperm.fans import _choice_system, _context

    verts, base_eqs, diag_rows = _context(n)
    basis = kernels.nullspace(base_eqs, len(verts))
    reduced = [[[kernels.dot(t, b) for b in basis] for t in terms] for terms in diag_rows]
    first = {}
    for choice in product(((0, 1), (0, 2), (1, 2)), repeat=len(diag_rows)):
        cone = cone_solve(*_choice_system([], reduced, choice), len(basis))
        if cone.rays:
            first.setdefault(cone.key, choice)
    by_key = {}
    for choice in first.values():
        cone = cone_solve(*_choice_system(base_eqs, diag_rows, choice), len(verts))
        by_key[cone.key] = cone
    cones = [by_key[k] for k in sorted(by_key)]
    maximal = [
        c for c in cones
        if not any(o is not c and all(o.contains(r) for r in c.rays) for o in cones)
    ]
    return cones, maximal


def last_level_unpruned(rows, dim):
    """``fans._last_level`` as it ran before each level dropped the cones
    that lie in another cone of the level: every distinct cone of the
    complete choices, one choice per cone, the first in
    ``itertools.product`` order.  The first level is solved and every later
    child cut from its parent, as there."""
    from valperm.fans import _PAIRS, _choice_system
    from valperm.polyhedra import cone_cut

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
        level = list(kept.values())
    return level


_DIRECT_KEYS = {}  # (n, sorted heights) -> subdivision key from a lifted hull


def direct_sample_key(fan, k, weights):
    """The subdivision key of cone k's sample with these weights, from a
    lifted hull solved in cone k itself, with no symmetry and no
    certificate.

    Kept per sample height for the whole session, so the tests that compare
    the census with direct solves share the 231 hulls of the n = 4 fan.
    """
    from valperm.fans import _subdivision_key, sample_height

    w = sample_height(fan, k, weights)
    heights = (w.n, tuple(sorted(w.heights.items())))
    if heights not in _DIRECT_KEYS:
        _DIRECT_KEYS[heights] = _subdivision_key(w)
    return _DIRECT_KEYS[heights]


def refinement_census_direct(fan):
    """``refinement_census`` with every sample of every cone solved directly.

    No symmetry is used: each sample of ``fans._cone_samples`` is solved
    with ``subdivide`` in its own cone (:func:`direct_sample_key`), 231
    solves on the n = 4 fan.
    """
    from valperm.fans import RefinementReport, _cone_samples, _proper_coarsening

    per_cone = []
    discrepancies = []
    for k, ridx in enumerate(fan.maximal_rays):
        seen = []
        for wts in _cone_samples(fan, k):
            key = direct_sample_key(fan, k, wts)
            if key not in seen:
                seen.append(key)
        fine = [s for s in seen if not any(_proper_coarsening(s, o) for o in seen)]
        expected = 1 if len(ridx) == fan.quotient_dim(fan.maximal[k]) else 2
        if len(fine) != expected:
            discrepancies.append((k, len(fine)))
        per_cone.append(len(fine))
    return RefinementReport(sum(per_cone), tuple(per_cone), tuple(discrepancies))


def ray_tight_masks(cone):
    """Bitmask per ray of the cone's inequalities it is tight on, from one
    dot product per ray and inequality."""
    return [sum(1 << h for h, a in enumerate(cone.ineqs) if kernels.dot(a, r) == 0) for r in cone.rays]


def extremal_by_full_rank(cone, mask):
    """Whether a ray of ``cone`` tight on the inequalities of ``mask`` is
    extremal, by the rank of all the cone's equations and those
    inequalities together, in the ambient space:
    ``polyhedra.check_extremal``'s test before it eliminated the equations
    once per cone."""
    rows = list(cone.eqs) + [a for h, a in enumerate(cone.ineqs) if mask >> h & 1]
    return kernels.rank(rows, cone.ambient) == cone.ambient - cone.lineality_dim - 1


def cone_image_by_canonical(cone, basis, eqs, ineqs, lineality=()):
    """``polyhedra.cone_image`` as it ran per cone before its lineality was
    certified once for all images: any ``cone``, its lineality's image and
    the extra ``lineality`` vectors brought to RREF and orthogonalized for
    this cone, the system normalized here, and every ray and lineality
    vector checked against it by the package's step 4."""
    return _canonical("cone_image", len(basis[0]), cone.dim - cone.lineality_dim,
                      linalg.mat_mul(cone.lineality, basis) + list(lineality),
                      linalg.mat_mul(cone.rays, basis), normalize_rows(eqs), normalize_rows(ineqs))


def quotient_by_two_skeleton_basis(relations, base_eqs, ambient):
    """``fans._quotient`` as it ran before it took one RREF in R^ambient.

    The term rows are first written in the nullspace basis B of the base
    equations (the 2-skeleton space, for the height fan); the RREF of their
    differences in those coordinates gives the pivot columns, the rows kept
    on them and the section of B's vectors at them; and the nullspace of
    that RREF is mapped back to R^ambient through B.  Returns ``(rows,
    section, lineality)``, with the common lineality brought to RREF.
    """
    basis = kernels.nullspace(base_eqs, ambient)
    reduced = [[[kernels.dot(t, b) for b in basis] for t in terms] for terms in relations]
    diffs = [[x - y for x, y in zip(terms[0], t)] for terms in reduced for t in terms[1:]]
    red, pivots = kernels.rref(diffs, len(basis))
    rows = [[[t[p] for p in pivots] for t in terms] for terms in reduced]
    common = linalg.mat_mul(kernels.nullspace(red, len(basis)), basis)
    return rows, [basis[p] for p in pivots], kernels.rref(common, ambient)[0]


def pair_is_face(cone, i, j):
    """Whether rays i and j of a cone of dimension 3 modulo its lineality
    span a 2-face, by linear algebra: all other rays lie strictly on one side
    of the hyperplane that the pair and the lineality span inside the cone."""
    span_rows = list(cone.lineality) + list(cone.rays)
    basis = kernels.rref(span_rows, cone.ambient)[0]
    fixed = list(cone.lineality) + [cone.rays[i], cone.rays[j]]
    coeff = [[kernels.dot(b, f) for b in basis] for f in fixed]
    kernel = kernels.nullspace(coeff, len(basis))
    if len(kernel) != 1:
        raise ValueError("pair_is_face: the ray pair does not span a hyperplane in its cone")
    nu = [sum(c * b[t] for c, b in zip(kernel[0], basis)) for t in range(cone.ambient)]
    signs = {
        (kernels.dot(nu, r) > 0) - (kernels.dot(nu, r) < 0)
        for k, r in enumerate(cone.rays)
        if k not in (i, j)
    }
    return 0 not in signs and len(signs) == 1


def incidence_edges_by_pair_scan(tight):
    """The pairs ``(i, j)``, ``i < j``, of ``polyhedra.incidence_edges``, by
    its rule applied pair by pair: no other element lies on every facet in
    ``tight[i] & tight[j]``."""
    edges = []
    for i, j in combinations(range(len(tight)), 2):
        common = tight[i] & tight[j]
        if not any(t & common == common for k, t in enumerate(tight) if k != i and k != j):
            edges.append((i, j))
    return edges


def heights_are_affine_by_rank(points, heights):
    """Whether ``heights`` are an affine function on ``points``: the points
    lifted by their heights span no more than the points, both homogenized."""
    flat = [_primitive(list(p) + [1]) for p in points]
    lifted = [_primitive(list(p) + [h, 1]) for p, h in zip(points, heights)]
    m = len(points[0])
    return kernels.rank(flat, m + 1) == kernels.rank(lifted, m + 2)


def _primitive(v):
    """A nonzero rational vector scaled to a primitive integer one."""
    mult = 1
    for x in v:
        d = Fraction(x).denominator
        mult = mult * d // gcd(mult, d)
    ints = [int(Fraction(x) * mult) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints] if g > 1 else ints


def orthogonalize_fraction(rows):
    """Gram-Schmidt without normalization in Fraction arithmetic; primitive
    integer output vectors."""
    basis = []
    for row in rows:
        v = [Fraction(x) for x in row]
        for u in basis:
            uu = sum(Fraction(x) * x for x in u)
            vu = sum(a * b for a, b in zip(v, u))
            if vu:
                coef = vu / uu
                v = [a - coef * b for a, b in zip(v, u)]
        if any(v):
            basis.append(_primitive(v))
    return basis


def project_off_fraction(v, orth_basis):
    """Projection of v off span(orth_basis) in Fraction arithmetic, primitive;
    the zero vector when v lies in the span.  The basis must be orthogonal."""
    w = [Fraction(x) for x in v]
    for u in orth_basis:
        uu = sum(Fraction(x) * x for x in u)
        wu = sum(a * b for a, b in zip(w, u))
        if wu:
            coef = wu / uu
            w = [a - coef * b for a, b in zip(w, u)]
    if not any(w):
        return [0] * len(v)
    return _primitive(w)


def rays_modulo_lineality(rows, dim, rays):
    """Integer ``rays`` projected off the lineality space of
    ``{z : rows.z >= 0}``, the nullspace of the rows; primitive and sorted.
    Each step off an orthogonal basis vector ``u`` is ``(u.u) v - (v.u) u``,
    which stays integral and keeps ``v`` orthogonal to the earlier ones."""
    orth = orthogonalize_fraction(kernels.nullspace(rows, dim))
    out = []
    for v in rays:
        for u in orth:
            uu, vu = sum(x * x for x in u), sum(a * b for a, b in zip(v, u))
            v = [uu * a - vu * b for a, b in zip(v, u)]
        g = gcd(*v)
        out.append([x // g for x in v] if g > 1 else list(v))
    return sorted(out)


@cache
def _leibniz_terms(k):
    """The permutations of range(k), each with its sign."""
    return [(perm, (-1) ** inversions(perm)) for perm in permutations(range(k))]


def _det(rows):
    """Determinant of a square matrix by the Leibniz formula."""
    total = 0
    for perm, sign in _leibniz_terms(len(rows)):
        term = sign
        for row, c in zip(rows, perm):
            term *= row[c]
            if not term:
                break
        total += term
    return total


def extremal_rays_by_subsets(rows, dim):
    """Extremal rays of the pointed cone ``{z : row.z >= 0}`` by brute force.

    A ray is extremal iff it is feasible and tight on rows of rank dim - 1, so
    every (dim - 1)-row subset of rank dim - 1 is tried with both signs of
    its nullspace line, spanned by the signed maximal minors of the subset
    (its generalized cross product; all minors vanish at lower rank).
    Returns the sorted primitive rays.
    """
    found = set()
    for subset in combinations([list(r) for r in rows], dim - 1):
        line = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in subset]) for j in range(dim)]
        if not any(line):
            continue
        for sign in (1, -1):
            z = [sign * x for x in line]
            if all(sum(a * b for a, b in zip(row, z)) >= 0 for row in rows):
                found.add(tuple(_primitive(z)))
    return [list(r) for r in sorted(found)]


def cone_solve_by_rowspace_reduction(eqs, ineqs, ambient, find_rays=double_description):
    """``polyhedra.cone_solve`` by the pipeline it ran while double
    description took only pointed cones.

    The inequalities are restricted to the nullspace of the equations and
    row-reduced once: the nullspace of the result is the lineality space,
    and in the coordinates of its rowspace the cone is pointed.
    ``find_rays(rows, dim)`` finds its extremal rays there, on rows of full
    column rank: double description, or :func:`extremal_rays_by_subsets`
    for a check that shares no code with it.  The rays are mapped back
    through the rowspace basis and the equations' nullspace.  The canonical
    form and the checks are the package's, so the result compares with
    ``cone_solve``'s by key, dimensions and tight masks.
    """
    eqs, ineqs = normalize_rows(eqs), normalize_rows(ineqs)
    null = kernels.nullspace(eqs, ambient)
    k = len(null)
    restricted = []
    for a in ineqs:
        row = [kernels.dot(a, nv) for nv in null]
        if any(row):
            restricted.append(kernels.vec_gcd_reduce(row))
    wspace, _ = kernels.rref(restricted, k)
    lineality = linalg.mat_mul(kernels.nullspace(restricted, k), null)
    q = len(wspace)
    bmat = [[kernels.dot(a, w) for w in wspace] for a in restricted]
    if kernels.rank(bmat, q) != q:
        raise ValueError("cone_solve_by_rowspace_reduction: the rowspace coordinates leave lineality")
    rays_z = find_rays(bmat, q) if q else []
    rays = linalg.mat_mul(linalg.mat_mul(rays_z, wspace), null)
    cone = _canonical("cone_solve", ambient, kernels.rank(rays_z, q), lineality, rays, eqs, ineqs)
    check_extremal(cone, "cone_solve")
    return cone


# ---------------------------------------------------------------------------
# valuated checks, the lift and the compression minimum in Fraction arithmetic


def _add(a, b):
    if a is None or b is None:
        return None
    return a + b


def _min_twice(terms):
    finite = [t for t in terms if t is not None]
    if not finite:
        return True
    return finite.count(min(finite)) >= 2


def check_plucker_fraction(vm):
    """``check_plucker`` on the Fraction values: None or the first Violation."""
    v = vm.values.get
    for s in subsets_of_size(vm.n, vm.d - 2):
        outside = [e for e in range(1, vm.n + 1) if not s >> (e - 1) & 1]
        for i, j, k, l in combinations(outside, 4):
            bi, bj, bk, bl = (1 << (x - 1) for x in (i, j, k, l))
            terms = (
                _add(v(s | bi | bj), v(s | bk | bl)),
                _add(v(s | bi | bk), v(s | bj | bl)),
                _add(v(s | bi | bl), v(s | bj | bk)),
            )
            if not _min_twice(terms):
                return Violation("plucker", s, (i, j, k, l), terms)
    return None


def check_incidence_fraction(lower, upper):
    """``check_incidence`` on the Fraction values: None or the first Violation."""
    lo, hi = lower.values.get, upper.values.get
    for s in subsets_of_size(lower.n, lower.d - 1):
        outside = [e for e in range(1, lower.n + 1) if not s >> (e - 1) & 1]
        for i, j, k in combinations(outside, 3):
            bi, bj, bk = (1 << (x - 1) for x in (i, j, k))
            terms = (
                _add(lo(s | bi), hi(s | bj | bk)),
                _add(lo(s | bj), hi(s | bi | bk)),
                _add(lo(s | bk), hi(s | bi | bj)),
            )
            if not _min_twice(terms):
                return Violation("incidence", s, (i, j, k), terms)
    if not is_quotient(Matroid(lower.n, lower.support), Matroid(upper.n, upper.support)):
        return Violation("support-quotient")
    return None


def check_positive_plucker_fraction(vm):
    """``check_positive_plucker`` on the Fraction values."""
    v = vm.values.get
    for s in subsets_of_size(vm.n, vm.d - 2):
        outside = [e for e in range(1, vm.n + 1) if not s >> (e - 1) & 1]
        for i, j, k, l in combinations(outside, 4):
            bi, bj, bk, bl = (1 << (x - 1) for x in (i, j, k, l))
            lhs = v(s | bi | bk) + v(s | bj | bl)
            t1 = v(s | bi | bj) + v(s | bk | bl)
            t2 = v(s | bi | bl) + v(s | bj | bk)
            if lhs != min(t1, t2):
                return Violation("positive-plucker", s, (i, j, k, l), (lhs, t1, t2))
    return None


def check_positive_incidence_fraction(lower, upper):
    """The three-term part of ``check_positive_incidence`` on the Fraction
    values."""
    lo, hi = lower.values.get, upper.values.get
    for s in subsets_of_size(lower.n, lower.d - 1):
        outside = [e for e in range(1, lower.n + 1) if not s >> (e - 1) & 1]
        for i, j, k in combinations(outside, 3):
            bi, bj, bk = (1 << (x - 1) for x in (i, j, k))
            lhs = lo(s | bj) + hi(s | bi | bk)
            t1 = lo(s | bi) + hi(s | bj | bk)
            t2 = lo(s | bk) + hi(s | bi | bj)
            if lhs != min(t1, t2):
                return Violation("positive-incidence", s, (i, j, k), (lhs, t1, t2))
    return None


def lift_to_grassmannian_fraction(flag):
    """``lift_to_grassmannian`` on the Fraction values of a uniform flag."""
    n = flag.n
    w = {0: {0: Fraction(0)}}
    for c in flag:
        w[c.d] = c.values
    worst = None
    for m in range(n - 1):
        for t in subsets_of_size(n, m):
            outside = [e for e in range(1, n + 1) if not t >> (e - 1) & 1]
            for i, j in combinations(outside, 2):
                bi, bj = 1 << (i - 1), 1 << (j - 1)
                gap = w[m + 1][t | bi] + w[m + 1][t | bj] - w[m + 2][t | bi | bj] - w[m][t]
                if worst is None or gap > worst:
                    worst = gap
    alpha = max(0, ceil(worst / 2)) if worst is not None else 0
    low = (1 << n) - 1
    values = {}
    for b in subsets_of_size(2 * n, n):
        t = b & low
        d = mask_size(t)
        values[b] = w[d][t] + alpha * d * d
    return ValuatedMatroid(2 * n, n, values)


def compress_attainers(flag, x):
    """(minimum, multiplicity) of the total component value over every way
    to write x as a sum of one support-subset indicator per rank, by trying
    every choice rank by rank in Fraction arithmetic; (None, 0) when there
    is none."""
    totals = []

    def walk(d, residual, total):
        if d == 0:
            if not any(residual):
                totals.append(total)
            return
        for mask, val in flag.component(d).values.items():
            nxt = [r - (mask >> p & 1) for p, r in enumerate(residual)]
            if min(nxt) >= 0:
                walk(d - 1, nxt, total + val)

    walk(flag.n, list(x), Fraction(0))
    if not totals:
        return None, 0
    best = min(totals)
    return best, totals.count(best)


def minors_by_leibniz(entries):
    """For each i, ``{mask: (lowest exponent, sign of its coefficient)}`` over
    the nonzero i x i minors on rows 1..i of a matrix of PolyInTs, each
    expanded by the Leibniz formula in PolyInT arithmetic."""
    n = len(entries[0])
    out = []
    for i in range(1, len(entries) + 1):
        found = {}
        for t in subsets_of_size(n, i):
            cols = mask_elems(t)
            det = PolyInT()
            for perm in permutations(range(i)):
                term = PolyInT.const((-1) ** inversions(perm))
                for row, c in enumerate(perm):
                    term = term * entries[row][cols[c] - 1]
                det = det + term
            if det:
                exp, coeff = det.lowest()
                found[t] = (exp, 1 if coeff > 0 else -1)
        out.append(found)
    return out
