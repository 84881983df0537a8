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
hexagon's diagonal rows are expressed in it.  A depth-first search over the
hexagons then solves each partial choice in those reduced coordinates and
drops a partial choice as soon as its cone has lower dimension than the best
complete choice found so far: adding a hexagon only shrinks the cone, so no
completion can do better (the pruned tree search for tropical prevarieties
of Jensen, Sommars and Verschelde).  The surviving top-dimensional choices
are solved once more in R^(n!), so the maximal cones carry their ambient
defining systems; deduplication by canonical key and a containment sweep
leave the maximal cones.

The search finds only the top-dimensional cones, which are all the maximal
ones exactly when the fan is pure.  For n in {3, 4} purity is certified by
the exhaustive 3^H sweep kept as a test oracle (``tests/oracles.py``).

Everything is exact.  Heights are normalized to sum zero over all vertices,
which leaves a lineality space of dimension n - 1 (linear functionals modulo
the all-ones direction).
"""

from dataclasses import dataclass

from valperm import kernels, linalg
from valperm.permutahedra import (
    enumerate_two_faces,
    permutohedron_vertices,
    symmetry_generators,
)
from valperm.polyhedra import cone_solve
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


def _top_dimensional_choices(reduced_rows, dim):
    """The complete choices with top-dimensional cones, one per distinct cone.

    ``reduced_rows`` are the hexagons' diagonal rows in a basis of the
    ``dim``-dimensional 2-skeleton space.  Depth-first over the hexagons in
    the order of ``itertools.product(_PAIRS, repeat=H)``, a partial choice is
    dropped when its cone has lower dimension than the best complete choice
    with a ray so far, since every completion lies inside it.  Returns
    ``[(choice, reduced cone)]``, keeping the first choice reaching each
    cone.
    """
    best = {}  # reduced key -> (choice, cone) at dimension ``top``
    top = -1

    def search(choice):
        nonlocal top
        for pair in _PAIRS:
            child = choice + (pair,)
            cone = cone_solve(*_choice_system([], reduced_rows, child), dim)
            if cone.dim < top:
                continue
            if len(child) < len(reduced_rows):
                search(child)
            elif cone.rays:
                if cone.dim > top:
                    top = cone.dim
                    best.clear()
                best.setdefault(cone.key, (child, cone))

    search(())
    return list(best.values())


@dataclass(frozen=True)
class Fan:
    """Maximal cones of the height fan with their face structure.

    ``rays``/``two_faces`` are global and deduplicated; ``maximal_rays`` and
    ``maximal_two_faces`` give each maximal cone's faces as indices into
    them.  For n = 3 the maximal cones are single rays and ``two_faces`` is
    empty.
    """

    n: int
    ambient: int
    lineality: tuple
    maximal: tuple
    rays: tuple
    maximal_rays: tuple
    two_faces: tuple
    maximal_two_faces: tuple

    @property
    def lineality_dim(self):
        return len(self.lineality)

    def quotient_dim(self, cone):
        """Cone dimension modulo the lineality space."""
        return cone.dim - cone.lineality_dim


def _pair_is_face(cone, i, j):
    """Whether rays i and j of a 3-dimensional (mod lineality) cone span a
    2-face: all other rays lie strictly on one side of the hyperplane the
    pair spans inside the cone."""
    ambient = cone.ambient
    span_rows = list(cone.lineality) + list(cone.rays)
    basis = linalg.rref(span_rows, ambient)[0]
    fixed = list(cone.lineality) + [cone.rays[i], cone.rays[j]]
    coeff = [[kernels.dot(b, f) for b in basis] for f in fixed]
    kernel = linalg.nullspace(coeff, len(basis))
    assert len(kernel) == 1, "ray pair does not span a hyperplane in its cone"
    nu = linalg.mat_mul(kernel, basis)[0]
    signs = {
        (kernels.dot(nu, r) > 0) - (kernels.dot(nu, r) < 0)
        for k, r in enumerate(cone.rays)
        if k not in (i, j)
    }
    return 0 not in signs and len(signs) == 1


def enumerate_fan(n, processes=1):
    """All maximal cones of the height fan, with faces, for n in {3, 4}.

    The base equations are solved once; the pruned depth-first search of
    :func:`_top_dimensional_choices` then finds, in the reduced coordinates
    of the 2-skeleton space, one attaining-pair choice per distinct
    top-dimensional cone.  Only those choices are solved again in R^(n!),
    and each ambient cone must agree with its reduced one in dimension,
    lineality dimension and ray count.  Duplicates are merged by canonical
    key, and cones contained in another (checked against the stored
    defining rows) are discarded.  The result is the full set of maximal
    cones because the fan is pure for n in {3, 4}, which the exhaustive
    oracle sweep of the test suite certifies.

    ``processes`` must be 1: the search runs in this process.
    """
    if n not in FAN_SIZES:
        raise ValueError(f"fan enumeration supports n in {FAN_SIZES}, got {n}")
    if processes != 1:
        raise ValueError(f"fan enumeration runs in one process, got processes={processes}")
    verts, base_eqs, diag_rows = _context(n)
    ambient = len(verts)
    basis = linalg.nullspace(base_eqs, ambient)
    reduced_rows = [[[kernels.dot(r, b) for b in basis] for r in rows] for rows in diag_rows]
    by_key = {}
    for choice, reduced in _top_dimensional_choices(reduced_rows, len(basis)):
        cone = cone_solve(*_choice_system(base_eqs, diag_rows, choice), ambient)
        got = (cone.dim, cone.lineality_dim, len(cone.rays))
        want = (reduced.dim, reduced.lineality_dim, len(reduced.rays))
        if got != want:
            raise RuntimeError(
                f"enumerate_fan: ambient re-solve of choice {choice} gives "
                f"(dim, lineality_dim, rays) {got}, its reduced cone {want}"
            )
        by_key.setdefault(cone.key, cone)

    cones = [by_key[k] for k in sorted(by_key)]

    def contained(small, big):
        return all(
            all(kernels.dot(e, r) == 0 for e in big.eqs)
            and all(kernels.dot(q, r) >= 0 for q in big.ineqs)
            for r in small.rays
        )

    maximal = tuple(
        c
        for c in cones
        if not any(o is not c and contained(c, o) for o in cones)
    )

    lineality = maximal[0].lineality
    if any(c.lineality != lineality for c in maximal):
        raise RuntimeError("enumerate_fan: maximal cones disagree on the lineality space")

    ray_index = {}
    for c in maximal:
        for r in c.rays:
            ray_index.setdefault(r, None)
    rays = tuple(sorted(ray_index))
    ray_index = {r: k for k, r in enumerate(rays)}
    maximal_rays = tuple(tuple(sorted(ray_index[r] for r in c.rays)) for c in maximal)

    face_index = {}
    maximal_two_faces = []
    for c, ridx in zip(maximal, maximal_rays):
        mine = []
        if c.dim - c.lineality_dim >= 3:
            for a in range(len(c.rays)):
                for b in range(a + 1, len(c.rays)):
                    if _pair_is_face(c, a, b):
                        pair = tuple(sorted((ridx[a], ridx[b])))
                        mine.append(face_index.setdefault(pair, len(face_index)))
        maximal_two_faces.append(tuple(sorted(mine)))
    two_faces = tuple(sorted(face_index, key=face_index.get))
    # reindex two-faces into sorted order for determinism
    order = sorted(range(len(two_faces)), key=lambda k: two_faces[k])
    rank_of = {old: new for new, old in enumerate(order)}
    two_faces = tuple(two_faces[k] for k in order)
    maximal_two_faces = tuple(
        tuple(sorted(rank_of[f] for f in mine)) for mine in maximal_two_faces
    )

    return Fan(
        n=n,
        ambient=ambient,
        lineality=lineality,
        maximal=maximal,
        rays=rays,
        maximal_rays=maximal_rays,
        two_faces=two_faces,
        maximal_two_faces=tuple(maximal_two_faces),
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
    ridx = fan.maximal_rays[cone_index]
    if weights is None:
        weights = [1] * len(ridx)
    assert len(weights) == len(ridx) and all(x > 0 for x in weights)
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


def refinement_census(fan):
    per_cone = []
    discrepancies = []
    for k, ridx in enumerate(fan.maximal_rays):
        nrays = len(ridx)
        if nrays == fan.quotient_dim(fan.maximal[k]):
            samples = [(1,) * nrays, (2,) * (nrays - 1) + (1,), (5,) + (1,) * (nrays - 1)]
        else:
            # emphasize each adjacent ray pair, plus the balanced center
            samples = [(1,) * nrays]
            global_to_local = {g: loc for loc, g in enumerate(ridx)}
            for f in fan.maximal_two_faces[k]:
                wts = [1] * nrays
                for g in fan.two_faces[f]:
                    wts[global_to_local[g]] = 5
                samples.append(tuple(wts))
        seen = []
        for wts in samples:
            key = _subdivision_key(sample_height(fan, k, wts))
            if key not in seen:
                seen.append(key)
        # a sample on an internal wall induces a common coarsening: drop it
        fine = [s for s in seen if not any(_proper_coarsening(s, o) for o in seen)]
        expected = 1 if nrays == fan.quotient_dim(fan.maximal[k]) else 2
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
    2-cells.  Every consecutive walk pair must be an edge.
    """
    edge_index = {}
    for a, b in edges:
        assert a != b
        edge_index[tuple(sorted((a, b)))] = len(edge_index)
    assert len(edge_index) == len(edges), "duplicate edges"
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
            assert key in edge_index, f"walk step {a}-{b} is not an edge"
            r[edge_index[key]] += 1 if a < b else -1
        assert any(r), "degenerate boundary walk"
        d2.append(r)
    rank1 = linalg.rank(d1, nvertices) if d1 else 0
    rank2 = linalg.rank(d2, len(edge_index)) if d2 else 0
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
    assert all(len(v) == 2 for v in neighbors.values()), "cell boundary is not a cycle"
    start = min(ray_ids)
    walk = [start, min(neighbors[start])]
    while len(walk) < len(ray_ids):
        nxt = [x for x in neighbors[walk[-1]] if x != walk[-2]]
        walk.append(nxt[0])
    assert walk[0] in neighbors[walk[-1]], "cell boundary does not close"
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
    b0, b1, b2 = complex_betti(len(fan.rays), list(fan.two_faces), walks)
    euler = len(fan.rays) - len(fan.two_faces) + len(fan.maximal)
    if euler != b0 - b1 + b2:
        raise RuntimeError("link_homology: Euler characteristic does not match the Betti numbers")
    return HomologyReport((b0, b1, b2), euler)


# ---------------------------------------------------------------------------
# symmetries and output helpers


def symmetry_orbits(fan):
    """Orbits of the maximal cones under the vertex-relabeling symmetries.

    Each generator permutes the heights coordinatewise; its image of every
    maximal cone must again be a maximal cone (checked), and the orbit
    partition is returned as sorted index tuples.
    """
    verts = permutohedron_vertices(fan.n)
    index = {v: k for k, v in enumerate(verts)}
    gens = []
    for mapping in symmetry_generators(fan.n):
        gens.append([index[mapping[v]] for v in verts])
    orth = linalg.orthogonalize(list(fan.lineality), fan.ambient)

    def act(perm, cone_rays):
        moved = []
        for r in cone_rays:
            img = [0] * fan.ambient
            for c, p in enumerate(perm):
                img[p] = r[c]
            moved.append(tuple(linalg.project_off(img, orth)))
        return frozenset(moved)

    cone_of = {frozenset(fan.rays[k] for k in ridx): i for i, ridx in enumerate(fan.maximal_rays)}
    adjacency = {i: set() for i in range(len(fan.maximal))}
    for perm in gens:
        for key, i in cone_of.items():
            image = act(perm, key)
            if image not in cone_of:
                raise RuntimeError("symmetry_orbits: a symmetry does not preserve the fan")
            adjacency[i].add(cone_of[image])
    seen, orbits = set(), []
    for i in range(len(fan.maximal)):
        if i in seen:
            continue
        orbit, frontier = {i}, [i]
        while frontier:
            j = frontier.pop()
            for k in adjacency[j]:
                if k not in orbit:
                    orbit.add(k)
                    frontier.append(k)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def link_dot(fan):
    """GraphViz edge list of the link graph (rays and 2-dimensional cones)."""
    lines = [f"graph link_{fan.n} {{"]
    for k in range(len(fan.rays)):
        lines.append(f"  r{k};")
    for a, b in fan.two_faces:
        lines.append(f"  r{a} -- r{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
